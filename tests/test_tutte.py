"""The hypergraph polynomial, corank-nullity counts, and the graph bridge."""

import itertools
import random
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertutte import crapo, tutte
from hypertutte.crapo import BudgetExceeded, box_around, box_size, check_budget
from hypertutte.polymatroid import bases_from_hypertrees
from hypertutte.hypertrees import enumerate_hypertrees, jaeger_trees
from hypertutte.model import ParseError, RibbonGraph, emerald, violet
from hypertutte.polynomial import Poly
from hypertutte.tutte import (
    corank_nullity,
    series_identity_check,
    series_window,
    tutte_embedding,
    tutte_from_order,
)
from oracles import (
    Disconnected, Graph, NoEdges, classical_tutte, d1_greater, d1_less, degree,
    fixed_tree_order_activities, graph_tutte_bridge, load_graph, monomial, perturbed, plus,
    substitute, to_bipartite, x, y,
)
from test_oracle import complete_bipartite, ribbon_graphs

FIG2_POLY = (
    "x^4 + 4x^3y - x^3 + 6x^2y^2 - 3x^2y + 4xy^3 - 4xy^2"
    " + y^4 - 2y^3 + y^2"
)


def test_embedding_polynomial_fig2(fig2):
    assert str(tutte_embedding(fig2)) == FIG2_POLY


def test_embedding_polynomial_single_edge(single_edge):
    # the single emerald is both internally and externally active
    assert str(tutte_embedding(single_edge)) == "x + y - 1"


def test_fixed_order_must_be_a_permutation(fig2, fig6_graph, fig6_orders):
    """An order that misses, repeats or adds an element is refused, by the
    fixed-order sum and by explicit per-basis orders alike."""
    from hypertutte.polymatroid import assignment_from_orders

    bad = [("e0",), ("e0", "e0", "e1", "e2"), ("e0", "e1", "e2", "e3", "e3"),
           ("e0", "e1", "e2", "e9"), ()]
    for order in bad:
        with pytest.raises(ValueError, match="exactly once"):
            tutte_from_order(fig2, order)
    P, _ = fixed_tree_order_activities(fig6_graph, fig6_orders)
    orders = {b: ("a", "b", "c", "d") for b in P.bases}
    assignment_from_orders(P, orders)
    orders[min(P.bases)] = ("a", "b", "c", "c")
    with pytest.raises(ValueError, match="exactly once"):
        assignment_from_orders(P, orders)


def test_embedding_order_is_a_fixed_order_per_tree(fig5):
    """The embedding activities of h are the MIN-rule activities of h
    under one fixed order of all bases, the order <_h of its tour."""
    from hypertutte.polymatroid import assignment_from_orders, bases_from_hypertrees
    from hypertutte.hypertrees import enumerate_hypertrees, orders
    from hypertutte.jaeger import embedding_activities

    P = bases_from_hypertrees(fig5)
    for h in enumerate_hypertrees(fig5):
        order = orders(fig5, "embedding")[h]
        fixed = assignment_from_orders(P, {b: order for b in P.bases})
        assert fixed[h] == embedding_activities(fig5, h)


def test_interior_exterior_fig2(fig2):
    """The specializations T(x, 1) and T(1, y)."""
    t = tutte_embedding(fig2)
    assert str(substitute(t, x(), monomial(0, 0))) == "x^4 + 3x^3 + 3x^2"
    assert str(substitute(t, monomial(0, 0), y())) == "y^4 + 2y^3 + 3y^2 + y"


@pytest.mark.parametrize("a, b", [(a, b) for a in range(2, 8) for b in range(2, 8) if a + b <= 13])
def test_complete_bipartite_closed_forms(a, b):
    """K_{a,b}, with a violets and b emeralds, in closed form.  Its root
    polytope is Δ_{a−1} × Δ_{b−1}, whose h* is Σ_i C(a−1, i)·C(b−1, i)·z^i
    (Kálmán and Postnikov), so T(x, 1) = Σ_i C(a−1, i)·C(b−1, i)·x^(b−i)
    and T(1, 1) = C(a+b−2, a−1).  T(1, y) = Σ_{j=1..b} C(a+b−2−j, a−2)·y^j
    is an observation with no reference, asserted only on the range where
    it was checked, 2 ≤ a, b ≤ 7 with a + b ≤ 13.  Two perturbed
    embeddings, each with its own tour search, give one polynomial and
    read one polymatroid."""
    rng = random.Random(100 * a + b)
    g1, g2 = (perturbed(complete_bipartite(a, b), rng) for _ in range(2))
    assert bases_from_hypertrees(g1) is bases_from_hypertrees(g2)
    assert jaeger_trees(g1) is not jaeger_trees(g2)
    interior = plus(*(monomial(b - i, 0, comb(a - 1, i) * comb(b - 1, i))
                      for i in range(min(a, b))))
    exterior = plus(*(monomial(0, j, comb(a + b - 2 - j, a - 2)) for j in range(1, b + 1)))
    for g in (g1, g2):
        t = tutte_embedding(g)
        assert t.evaluate(1, 1) == comb(a + b - 2, a - 1)
        assert substitute(t, x(), monomial(0, 0)) == interior
        assert substitute(t, monomial(0, 0), y()) == exterior
    assert tutte_embedding(g1) == tutte_embedding(g2)


def test_evaluation_counts_hypertrees(all_hg):
    from hypertutte.hypertrees import enumerate_hypertrees

    for g in all_hg.values():
        assert tutte_embedding(g).evaluate(1, 1) == len(enumerate_hypertrees(g))


def test_corank_nullity_single_edge(single_edge):
    table = corank_nullity(single_edge, 3, 5)
    for i in range(4):
        for j in range(6):
            assert table[i, j] == (1 if i == 0 or j == 0 else 0)


def test_corank_nullity_origin_counts_order_ideal(fig2):
    table = corank_nullity(fig2, 0, 0)
    assert table[0, 0] == 7


def brute_force_counts(g, imax, jmax):
    """(d1>, d1<) -> number of points, over the box of corank_nullity, one
    distance function call per point and side."""
    hs = enumerate_hypertrees(g)
    box = [
        range(min(h[e] for h in hs) - imax, max(h[e] for h in hs) + jmax + 1)
        for e in range(g.emerald_count)
    ]
    return Counter((d1_greater(hs, c), d1_less(hs, c)) for c in itertools.product(*box))


def test_corank_nullity_matches_brute_force(fig1, fig2):
    """Every window of the (3, 3) box's counts, which contains the smaller
    windows' boxes."""
    edges = [(violet(i), emerald(j)) for i in range(3) for j in range(4)]
    rotation = {}
    for k, (v, e) in enumerate(edges):
        rotation.setdefault(v, []).append(k)
        rotation.setdefault(e, []).append(k)
    k34 = perturbed(
        RibbonGraph.build(3, 4, edges, rotation, ("v0", 0)), random.Random(34)
    )
    for g in (fig1, fig2, k34):
        counts = brute_force_counts(g, 3, 3)
        for imax, jmax in ((0, 0), (2, 3), (3, 3)):
            assert corank_nullity(g, imax, jmax) == {
                (i, j): counts[i, j] for i in range(imax + 1) for j in range(jmax + 1)
            }


@settings(max_examples=60, deadline=None)
@given(ribbon_graphs())
def test_corank_nullity_matches_brute_force_on_random_instances(g):
    """Windows with one bound 0 put every tail on one side; the others
    spread tails both ways, and (n, n), n = #emerald, is the window that
    determines T."""
    n = g.emerald_count
    for imax, jmax in ((0, 0), (0, 3), (3, 0), (2, 2), (4, 1), (n, n)):
        counts = brute_force_counts(g, imax, jmax)
        assert corank_nullity(g, imax, jmax) == {
            (i, j): counts[i, j] for i in range(imax + 1) for j in range(jmax + 1)
        }


ONE_EMERALD = RibbonGraph.build(
    3, 1, [("v0", "e0"), ("v1", "e0"), ("v2", "e0"), ("v2", "e0")],
    {"v0": [0], "v1": [1], "v2": [2, 3], "e0": [0, 2, 1, 3]}, ("e0", 0),
)


def test_corank_nullity_matches_brute_force_on_lopsided_windows(fig1, fig2):
    """Windows much longer on one side than the other, and a graph with
    one emerald, whose bounding box is a single point: every window point
    is then a tail of it."""
    cases = [(g, window) for g in (fig1, fig2, ONE_EMERALD) for window in ((4, 1), (1, 4))]
    for g, (imax, jmax) in cases + [(ONE_EMERALD, (3, 3))]:
        counts = brute_force_counts(g, imax, jmax)
        assert corank_nullity(g, imax, jmax) == {
            (i, j): counts[i, j] for i in range(imax + 1) for j in range(jmax + 1)
        }


# e2 joins v2 to the rest by bridges alone, so every hypertree has h(e2) = 1
FIXED_EMERALD = RibbonGraph.build(
    3, 3, [("v0", "e0"), ("v1", "e0"), ("v0", "e1"), ("v1", "e1"), ("v1", "e2"), ("v2", "e2")],
    {"v0": [0, 2], "v1": [1, 3, 4], "v2": [5], "e0": [0, 1], "e1": [2, 3], "e2": [4, 5]},
    ("v0", 0),
)


def test_corank_nullity_matches_brute_force_with_a_fixed_coordinate():
    """A coordinate where the least and greatest hypertree entries agree
    takes tails on either side, beside coordinates that take tails on
    one side only."""
    hs = enumerate_hypertrees(FIXED_EMERALD)
    assert hs == ((0, 1, 1), (1, 0, 1))
    assert box_around(hs, 0, 0) == [(0, 1), (0, 1), (1, 1)]
    for imax, jmax in ((0, 0), (3, 3), (4, 1), (1, 4), (0, 4)):
        counts = brute_force_counts(FIXED_EMERALD, imax, jmax)
        assert corank_nullity(FIXED_EMERALD, imax, jmax) == {
            (i, j): counts[i, j] for i in range(imax + 1) for j in range(jmax + 1)
        }


def test_tail_count_is_the_number_of_compositions():
    """The spread table's C(t + a - 1, a - 1), the count of window points
    t units out over a coordinates and the series coefficient of
    (1/(1-u))^a, against the compositions of t into a non-negative parts
    listed one by one; it holds a row for each a asked for, and no other."""
    spread = tutte._spread(6, [4, 0, 2, 1, 3])
    assert sorted(spread) == [0, 1, 2, 3, 4]
    for a in range(5):
        assert len(spread[a]) == 7
        for t in range(7):
            listed = sum(sum(parts) == t for parts in itertools.product(range(t + 1), repeat=a))
            assert spread[a][t] == listed
    assert sorted(tutte._spread(6, {5})) == [5]


def budget_spy(monkeypatch) -> list:
    """The point counts ``tutte.check_budget`` is asked about, in order."""
    asked = []

    def spy(points, *args):
        asked.append(points)
        return check_budget(points, *args)

    monkeypatch.setattr(tutte, "check_budget", spy)
    return asked


def test_corank_nullity_sweeps_the_hypertree_bounding_box(fig1, monkeypatch):
    """The walk covers at most the hypertrees' bounding box, and is
    budgeted by the prefixes it pops, every 4,096 of them: for fig1's
    (3, 3) window of 32,768 points, whose bounding box holds 32, the
    table's 16 cells are the only count budgeted."""
    hs = enumerate_hypertrees(fig1)
    asked = budget_spy(monkeypatch)
    corank_nullity(fig1, 3, 3)
    assert box_size(box_around(hs, 3, 3)) == 32_768
    assert box_size(box_around(hs, 0, 0)) == 32
    assert asked == [16]


def test_corank_nullity_bad_bounds(fig2, monkeypatch):
    """Negative bounds are refused, and the budget is on the table's own
    cells: fig2's (40, 40) window, whose box holds 45,763,544 lattice
    points, walks the 24-point bounding box of the hypertrees and passes
    the series identity, while (2000, 2000) is refused at the cell check,
    before any hypertree is listed."""
    for bounds in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            corank_nullity(fig2, *bounds)
    hs = enumerate_hypertrees(fig2)
    assert box_size(box_around(hs, 0, 0)) == 24
    with pytest.raises(BudgetExceeded, match="box of 45763544 points exceeds budget"):
        check_budget(box_size(box_around(hs, 40, 40)))
    assert series_identity_check(fig2, 40, 40)["status"] == "PASS"
    asked = budget_spy(monkeypatch)
    monkeypatch.setattr(tutte, "enumerate_hypertrees", None)  # a listing would raise TypeError
    with pytest.raises(BudgetExceeded, match="^window of 4004001 points exceeds budget$"):
        corank_nullity(fig2, 2000, 2000)
    assert asked == [2001 * 2001]


def k3_14():
    """Seeded K3,14: 105 hypertrees, whose bounding box of 3^14 points
    is over the budget."""
    return perturbed(complete_bipartite(3, 14), random.Random(314))


def test_series_identity_walks_only_the_window():
    """K3,14's bounding box holds 4,782,969 points, over the budget, but
    the walk pops only the prefixes that can reach the (3, 3) window."""
    g = k3_14()
    assert box_size(box_around(enumerate_hypertrees(g), 0, 0)) == 3 ** 14 > crapo._BOX_BUDGET
    assert series_identity_check(g, 3, 3)["status"] == "PASS"


def test_corank_nullity_budget_holds_the_walk(monkeypatch):
    """The walk itself is held to the budget: with the budget one under
    4,096, the pop count at the walk's first check, the table's 16 cells
    pass and K3,14's (3, 3) walk is refused at that check."""
    g = k3_14()
    monkeypatch.setattr(crapo, "_BOX_BUDGET", 4095)
    with pytest.raises(BudgetExceeded, match="^walk of 4096 points exceeds budget$"):
        corank_nullity(g, 3, 3)


def test_corank_nullity_walks_a_long_star(long_star):
    """The walk is as deep as the star has emeralds, beyond the recursion
    limit.  The only hypertree is 0, so c counts at (i, j) when its
    negative entries sum to -i over some a coordinates and its positive
    ones to j over b others: C(n, a) C(n - a, b) choices of coordinates
    times the compositions of i into a parts and of j into b.  Every
    coordinate is fixed, and the lopsided windows reach far along one
    side only."""
    n = long_star.emerald_count

    def compositions(t, parts):
        return comb(t - 1, parts - 1) if parts else int(t == 0)

    for imax, jmax in ((3, 3), (0, 40), (40, 0)):
        assert corank_nullity(long_star, imax, jmax) == {
            (i, j): sum(comb(n, a) * comb(n - a, b) * compositions(i, a) * compositions(j, b)
                        for a in range(i + 1) for b in range(j + 1))
            for i in range(imax + 1) for j in range(jmax + 1)
        }


def test_series_identity_fig2(fig2):
    for bounds in ((3, 3), (4, 4), (2, 5)):
        report = series_identity_check(fig2, *bounds)
        assert report["status"] == "PASS", report


def test_series_identity_single_edge(single_edge):
    assert series_identity_check(single_edge, 4, 4)["status"] == "PASS"


def geometric_power(a: int, most: int) -> list:
    """The coefficients of u^0 .. u^most in (1/(1-u))^a: a running sum,
    the product with 1/(1-u), taken a times of the series 1."""
    series = [1] + [0] * most
    for _ in range(a):
        series = list(itertools.accumulate(series))
    return series


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                       st.integers(-9, 9), max_size=8),
       st.integers(0, 6), st.integers(0, 6))
def test_series_window_matches_direct_sum(terms, imax, jmax):
    """``series_window`` shares its expansion with ``corank_nullity``;
    against p(1/(1-u), 1/(1-v)) summed term by term, with no spread
    table, the series identity stays an independent check."""
    p = Poly(terms)
    most = max(imax, jmax)
    direct = {(i, j): sum(c * geometric_power(a, most)[i] * geometric_power(b, most)[j]
                          for (a, b), c in p.terms.items())
              for i in range(imax + 1) for j in range(jmax + 1)}
    assert series_window(p, imax, jmax) == direct


def test_series_identity_detects_mutation(fig2):
    """A perturbed polynomial must disagree with the lattice counts."""
    table = corank_nullity(fig2, 3, 3)
    wrong = plus(tutte_embedding(fig2), monomial(1, 1))
    window = series_window(wrong, 3, 3)
    assert any(window[key] != val for key, val in table.items())


TRIANGLE = Graph(3, (("a", 0, 1), ("b", 1, 2), ("c", 0, 2)))
DOUBLE_EDGE = Graph(2, (("a", 0, 1), ("b", 0, 1)))


def test_classical_tutte_small_graphs():
    assert str(classical_tutte(TRIANGLE)) == "x^2 + x + y"
    assert str(classical_tutte(DOUBLE_EDGE)) == "x + y"
    assert str(classical_tutte(Graph(2, (("a", 0, 1),)))) == "x"
    assert str(classical_tutte(Graph(1, (("a", 0, 0),)))) == "y"


def test_classical_tutte_fig6(fig6_graph):
    # two parallel edges plus a path: 5 spanning trees
    assert classical_tutte(fig6_graph).evaluate(1, 1) == 5


K4 = Graph(4, tuple((f"{u}{v}", u, v) for u, v in itertools.combinations(range(4), 2)))
# a triangle with one edge doubled and a loop: y(x^2 + xy + x + y^2 + y)
LOOPED_MULTIGRAPH = Graph(
    3, (("a", 0, 1), ("b", 0, 1), ("c", 1, 2), ("d", 0, 2), ("l", 2, 2))
)


def random_multigraph(rng) -> Graph:
    """A connected multigraph on 2 to 6 vertices with at most 9 edges: a
    random spanning tree, then edges between any two vertices, which
    makes loops and parallel edges."""
    n = rng.randint(2, 6)
    pairs = [(rng.randrange(v), v) for v in range(1, n)]
    pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 10 - n))]
    rng.shuffle(pairs)
    return Graph(n, tuple((f"g{i}", u, v) for i, (u, v) in enumerate(pairs)))


def test_classical_tutte_matches_networkx(fig6_graph):
    nx = pytest.importorskip("networkx")
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    assert str(classical_tutte(LOOPED_MULTIGRAPH)) == "x^2y + xy^2 + xy + y^3 + y^2"
    rng = random.Random(7)
    randoms = [random_multigraph(rng) for _ in range(30)]
    for graph in (fig6_graph, TRIANGLE, K4, LOOPED_MULTIGRAPH, *randoms):
        G = nx.MultiGraph()
        G.add_nodes_from(range(graph.vertex_count))
        G.add_edges_from((u, v) for _, u, v in graph.edges)
        theirs = sympy.Poly(nx.tutte_polynomial(G), x, y).as_dict()
        assert classical_tutte(graph).terms == theirs, graph


def test_classical_tutte_disconnected():
    with pytest.raises(Disconnected):
        classical_tutte(Graph(3, (("a", 0, 1),)))


def test_corank_nullity_budget_is_crapos(fig2, monkeypatch):
    """The table is held to crapo's box budget: one cell under fig2's
    41 x 41 table of (40, 40), and the table is refused."""
    monkeypatch.setattr(crapo, "_BOX_BUDGET", 41 * 41 - 1)
    with pytest.raises(BudgetExceeded):
        corank_nullity(fig2, 40, 40)


def test_classical_tutte_isolated_vertex():
    with pytest.raises(Disconnected):
        classical_tutte(Graph(3, (("a", 1, 2), ("b", 1, 1))))
    with pytest.raises(Disconnected):
        classical_tutte(Graph(2, ()))


def test_classical_tutte_at_most_one_vertex():
    assert str(classical_tutte(Graph(0, ()))) == "1"
    assert str(classical_tutte(Graph(1, ()))) == "1"
    assert str(classical_tutte(Graph(1, (("a", 0, 0), ("b", 0, 0))))) == "y^2"


def test_load_graph_rejects_malformed():
    with pytest.raises(ParseError):
        load_graph("vertices: 2\n")
    with pytest.raises(ParseError):
        load_graph("vertices: 2\nedges:\n  a: [0, one]\n")
    with pytest.raises(ParseError):
        load_graph("vertices: -1\nedges: {}\n")
    assert load_graph("vertices: 0\nedges: {}\n") == Graph(0, ())


def test_load_graph_rejects_bad_endpoint():
    with pytest.raises(ValueError):
        load_graph("vertices: 2\nedges:\n  a: [0, 5]\n")


def test_bridge_refuses_edgeless_graphs():
    """An edgeless graph has a classical Tutte polynomial but no
    bipartite model: the bridge report says so instead of failing on a
    missing rotation."""
    for graph in (Graph(0, ()), Graph(1, ())):
        assert str(classical_tutte(graph)) == "1"
        with pytest.raises(NoEdges, match="at least one edge"):
            graph_tutte_bridge(graph)


def test_to_bipartite_shape(fig6_graph):
    g = to_bipartite(fig6_graph)
    assert g.violet_count == fig6_graph.vertex_count
    assert g.emerald_count == len(fig6_graph.edges)
    assert all(degree(g, f"e{j}") == 2 for j in range(g.emerald_count))


def test_graph_bridge_triangle_and_double_edge(fig6_graph):
    for graph in (TRIANGLE, DOUBLE_EDGE, fig6_graph):
        report = graph_tutte_bridge(graph)
        assert report["status"] == "PASS"
        assert "hyper-from-classical/split-args" in report["holding"]
        # the printed orientation with equal arguments does not hold
        assert not report["candidates"]["classical-from-hyper/equal-args"]
