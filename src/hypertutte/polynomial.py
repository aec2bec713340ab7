"""Sparse bivariate polynomials with exact integer coefficients.

Terms are a map (x-exponent, y-exponent) -> coefficient; zero
coefficients are never stored.  Canonical ordering for rendering and
iteration is lexicographic on (x-exponent, y-exponent), descending, so
that output diffs are byte-stable.  The Tutte sums expand in one pass
per power of x+y-1 (:func:`expand_triples`); substitution, degrees,
the monomials x, y and c x^a y^b, and the factor x+y-1 itself, which
only the test oracles use, are in ``tests/oracles.py``.
"""

from __future__ import annotations


class Poly:
    """Immutable-by-convention polynomial in x and y over the integers."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for (a, b), c in terms.items():
                if c:
                    if a < 0 or b < 0:
                        raise ValueError("exponents must be non-negative")
                    self.terms[(a, b)] = c

    @staticmethod
    def constant(c: int) -> "Poly":
        return Poly({(0, 0): c})

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other) -> "Poly":
        out = dict(self.terms)
        for key, c in other.terms.items():
            c2 = out.get(key, 0) + c
            if c2:
                out[key] = c2
            else:
                out.pop(key, None)
        result = Poly()
        result.terms = out
        return result

    def __neg__(self) -> "Poly":
        result = Poly()
        result.terms = {key: -c for key, c in self.terms.items()}
        return result

    def __sub__(self, other) -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, int):
            other = Poly.constant(other)
        out = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                key = (a1 + a2, b1 + b2)
                c = out.get(key, 0) + c1 * c2
                if c:
                    out[key] = c
                else:
                    del out[key]
        result = Poly()
        result.terms = out
        return result

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        result = Poly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def evaluate(self, x: int, y: int) -> int:
        return sum(c * x ** a * y ** b for (a, b), c in self.terms.items())

    def sorted_terms(self):
        """Terms in canonical order: lex on (x-exp, y-exp), descending."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (a, b), c in self.sorted_terms():
            mono = ""
            if a:
                mono += "x" if a == 1 else f"x^{a}"
            if b:
                mono += "y" if b == 1 else f"y^{b}"
            mag = abs(c)
            body = mono if mag == 1 and mono else f"{mag}{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"Poly({self})"


def expand_triples(triples) -> Poly:
    """Sum of n x^a y^b (x+y-1)^c over a mapping {(a, b, c): n}.

    The terms are grouped by c into A_c = sum of n x^a y^b, and the sum
    is expanded by Horner's rule in s = x+y-1: out <- out*s + A_c, from
    the largest c down to 0.  Multiplying by s is one pass over the
    terms, so no power of s and no product of two large polynomials is
    ever formed.
    """
    groups = {}
    for (a, b, c), n in triples.items():
        group = groups.setdefault(c, {})
        group[a, b] = group.get((a, b), 0) + n
    out = {}
    for c in range(max(groups, default=-1), -1, -1):
        times_s = groups.get(c, {})  # becomes out*s + A_c
        for (a, b), n in out.items():
            times_s[a + 1, b] = times_s.get((a + 1, b), 0) + n
            times_s[a, b + 1] = times_s.get((a, b + 1), 0) + n
            times_s[a, b] = times_s.get((a, b), 0) - n
        out = times_s
    return Poly(out)
