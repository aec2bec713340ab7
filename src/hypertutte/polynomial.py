"""Sparse bivariate polynomials with exact integer coefficients.

Terms are a map (x-exponent, y-exponent) -> coefficient; zero
coefficients are never stored.  Canonical ordering for rendering and
iteration is lexicographic on (x-exponent, y-exponent), descending, so
that output diffs are byte-stable.  The package builds a polynomial,
compares, prints and evaluates it, and nothing more: the Tutte sums
expand each power of x+y-1 they need by its trinomial coefficients
(:func:`expand_triples`), so no sum or product of two polynomials is
ever formed.  The expansion is a function of the counter {(a, b, c):
n} alone, so equal counters give equal polynomials: a conjecture check
compares the counters first, and expands and compares polynomials only
where they differ.  Ring arithmetic (sums, products, powers), substitution,
degrees, the monomials x, y and c x^a y^b, and the factor x+y-1
itself, which only the test oracles use, are in ``tests/oracles.py``.
"""

from __future__ import annotations

from math import comb


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
        """Terms in canonical order: lex on (x-exp, y-exp), descending
        (the keys are distinct, so the pairs sort by them alone)."""
        return sorted(self.terms.items(), reverse=True)

    def term_texts(self):
        """The rendered text of each term in canonical order, its sign
        joined to it (``"-x^2"`` first, ``"+ 3xy"`` after), or ``"0"``
        alone: ``str`` joins them with spaces, and the CLI writes them a
        thousand at a time."""
        if not self.terms:
            yield "0"
            return
        first = True
        for (a, b), c in self.sorted_terms():
            mono = ""
            if a:
                mono += "x" if a == 1 else f"x^{a}"
            if b:
                mono += "y" if b == 1 else f"y^{b}"
            mag = abs(c)
            body = mono if mag == 1 and mono else f"{mag}{mono}"
            if first:
                yield body if c > 0 else f"-{body}"
                first = False
            else:
                yield ("+ " if c > 0 else "- ") + body

    def __str__(self):
        return " ".join(self.term_texts())

    def __repr__(self):
        return f"Poly({self})"


def expand_triples(triples) -> Poly:
    """Sum of n x^a y^b (x+y-1)^c over a mapping {(a, b, c): n}.

    (x+y-1)^c is the sum of C(c, i) C(c-i, j) (-1)^(c-i-j) x^i y^j over
    i + j <= c, its trinomial expansion.  The triples are grouped by c,
    and each term of (x+y-1)^c (along j, the coefficient changes by
    -(c-i-j)/(j+1)) is added, n times and shifted by x^a y^b, for every
    triple of its group as it is made, so no power is kept beside the
    output.  No product of polynomials is formed, and the cost is
    proportional to the output.
    """
    groups = {}
    for (a, b, c), n in triples.items():
        groups.setdefault(c, []).append((a, b, n))
    out = {}
    for c, group in groups.items():
        for i in range(c + 1):
            m = comb(c, i) if (c - i) % 2 == 0 else -comb(c, i)
            for j in range(c - i + 1):
                for a, b, n in group:
                    key = a + i, b + j
                    out[key] = out.get(key, 0) + n * m
                m = -m * (c - i - j) // (j + 1)
    return Poly(out)
