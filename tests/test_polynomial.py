"""Bivariate polynomials: construction, canonical rendering, evaluation,
the Tutte sums' trinomial expansion, and the oracles' arithmetic."""

import math
import time
from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

from hypertutte.polynomial import Poly, expand_triples
from oracles import degrees, monomial, plus, power, substitute, times, x, x_plus_y_minus_1, y


def test_square_expansion():
    assert power(x_plus_y_minus_1(), 2) == Poly(
        {(2, 0): 1, (1, 1): 2, (1, 0): -2, (0, 2): 1, (0, 1): -2, (0, 0): 1}
    )


def test_multiplicative_identity():
    p = times(x_plus_y_minus_1(), monomial(2, 1, 3))
    assert times(p, monomial(0, 0)) == p
    assert plus(p, Poly()) == p


def test_power_zero_and_negative():
    assert power(x_plus_y_minus_1(), 0) == monomial(0, 0)
    with pytest.raises(ValueError):
        power(x_plus_y_minus_1(), -1)


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        Poly({(-1, 0): 1})


def test_zero_coefficients_dropped():
    assert Poly({(1, 1): 0}).terms == {}
    assert plus(x(), times(monomial(0, 0, -1), x())).terms == {}


def test_str_canonical_order():
    p = Poly({(0, 2): 1, (2, 0): 1, (1, 1): -2, (0, 0): 5, (1, 0): 1})
    assert str(p) == "x^2 - 2xy + x + y^2 + 5"
    assert str(Poly()) == "0"
    assert str(monomial(0, 0, -1)) == "-1"
    assert str(monomial(1, 1, -1)) == "-xy"


def test_substitute_and_evaluate():
    p = power(x_plus_y_minus_1(), 3)
    q = substitute(p, monomial(0, 0, 2), monomial(0, 0, 3))
    assert q == monomial(0, 0, 64)
    assert p.evaluate(2, 3) == 64
    assert p.evaluate(1, 1) == 1


def test_substitute_swap_variables():
    p = Poly({(2, 0): 1, (0, 1): -3})
    assert substitute(p, y(), x()) == Poly({(0, 2): 1, (1, 0): -3})


def test_degrees_and_coefficient():
    p = Poly({(4, 0): 1, (1, 3): -2})
    assert degrees(p) == (4, 3)
    assert p.terms.get((1, 3)) == -2
    assert (0, 0) not in p.terms
    assert degrees(Poly()) == (0, 0)


coeffs = st.integers(min_value=-9, max_value=9)
polys = st.builds(
    Poly,
    st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)), coeffs, max_size=6
    ),
)


@given(polys, polys)
def test_addition_commutes(p, q):
    assert plus(p, q) == plus(q, p)


@given(polys, polys)
def test_multiplication_commutes(p, q):
    assert times(p, q) == times(q, p)


@given(polys, polys, polys)
def test_distributivity(p, q, r):
    assert times(p, plus(q, r)) == plus(times(p, q), times(p, r))


@given(polys, st.integers(-3, 3), st.integers(-3, 3))
def test_evaluation_is_ring_hom(p, x, y):
    assert times(p, p).evaluate(x, y) == p.evaluate(x, y) ** 2


def triples(c):
    """Mappings (a, b, c) -> n with coefficients of either sign."""
    return st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4), c),
                           coeffs, max_size=8)


@given(st.one_of(triples(st.integers(0, 12)), triples(st.sampled_from((0, 1, 11, 12))),
                 triples(st.just(0))))
@example({})
@example({(2, 1, 0): 3, (0, 0, 0): -1})
@example({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 0): -1, (0, 0, 1): -1})  # cancels to 0
@example({(0, 0, 3): 2, (1, 0, 2): -2, (0, 1, 2): -2, (0, 0, 2): 2})  # cancels to 0
@example({(0, 0, 12): 1, (4, 4, 0): -7, (1, 3, 1): 2})  # gaps between the powers
@example({(0, 0, 12): 1, (0, 0, 11): 1, (1, 0, 11): -1, (0, 1, 11): -1})  # cancels to 0
def test_expand_triples_matches_naive_sum(terms):
    naive = plus(*(times(monomial(a, b, n), power(x_plus_y_minus_1(), c))
                   for (a, b, c), n in terms.items()))
    assert expand_triples(Counter(terms)) == naive


def test_expand_triples_at_scale():
    """A lone (0, 0, 300) triple, the star with 300 emeralds on one
    violet: (x+y-1)^300 has C(302, 2) terms, T(1, 1) = 1, T(2, 1) = 2^300,
    T(2, 2) = 3^300, and x^100 y^100 has the trinomial coefficient
    300!/(100!)^3; the expansion is quadratic in c, well under a second."""
    start = time.process_time()
    p = expand_triples({(0, 0, 300): 1})
    assert time.process_time() - start < 1
    assert len(p.terms) == math.comb(302, 2) == 45_451
    assert p.evaluate(1, 1) == 1
    assert p.evaluate(2, 1) == 2 ** 300
    assert p.evaluate(2, 2) == 3 ** 300
    assert p.terms[100, 100] == math.factorial(300) // math.factorial(100) ** 3
