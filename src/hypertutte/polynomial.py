"""Sparse bivariate polynomials with exact integer coefficients.

Terms are a map (x-exponent, y-exponent) -> coefficient; zero
coefficients are never stored.  Canonical ordering for rendering and
iteration is lexicographic on (x-exponent, y-exponent), descending, so
that output diffs are byte-stable.  The package builds a polynomial,
compares, prints and evaluates it, and nothing more: the Tutte sums
expand in one pass per power of x+y-1 (:func:`expand_triples`), so no
sum or product of two polynomials is ever formed.  Ring arithmetic
(sums, products, powers), substitution, degrees, the monomials x, y and
c x^a y^b, and the factor x+y-1 itself, which only the test oracles
use, are in ``tests/oracles.py``.
"""

from __future__ import annotations


class Poly:
    """Immutable-by-convention polynomial in x and y over the integers,
    compared by its terms and never hashed."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for (a, b), c in terms.items():
                if c:
                    if a < 0 or b < 0:
                        raise ValueError("exponents must be non-negative")
                    self.terms[(a, b)] = c

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

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
