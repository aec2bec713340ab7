"""The hypergraph polynomial, corank-nullity counts, and the graph bridge."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings

from hypertutte import harness, tutte
from hypertutte.crapo import BudgetExceeded, box_around, box_size, d1_greater, d1_less, sweep
from hypertutte.hypertrees import enumerate_hypertrees
from hypertutte.jaeger import order_emerald
from hypertutte.model import ParseError, RibbonGraph, emerald, violet
from hypertutte.polynomial import Poly
from hypertutte.tutte import (
    Disconnected,
    Graph,
    classical_tutte,
    corank_nullity,
    exterior,
    graph_tutte_bridge,
    interior,
    load_graph,
    series_identity_check,
    series_window,
    to_bipartite,
    tutte_embedding,
    tutte_from_order,
)
from test_oracle import ribbon_graphs

FIG2_POLY = (
    "x^4 + 4x^3y - x^3 + 6x^2y^2 - 3x^2y + 4xy^3 - 4xy^2"
    " + y^4 - 2y^3 + y^2"
)


def test_embedding_polynomial_fig2(fig2):
    assert str(tutte_embedding(fig2)) == FIG2_POLY


def test_embedding_polynomial_single_edge(single_edge):
    # the single emerald is both internally and externally active
    assert str(tutte_embedding(single_edge)) == "x + y - 1"


def test_all_fixed_orders_agree(fig2):
    expected = tutte_embedding(fig2)
    names = tuple(f"e{j}" for j in range(fig2.emerald_count))
    for order in itertools.permutations(names):
        assert tutte_from_order(fig2, order) == expected


def test_fixed_order_must_be_a_permutation(fig2, fig6_graph, fig6_orders):
    """An order that misses, repeats or adds an element is refused, by the
    fixed-order sum and by explicit per-basis orders alike."""
    from hypertutte.delta import assignment_from_orders, fixed_tree_order_activities

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
    from hypertutte.hypertrees import enumerate_hypertrees
    from hypertutte.jaeger import activities, embedding_activities

    for h in enumerate_hypertrees(fig5):
        rec = activities(fig5, h, order_emerald(fig5, h))
        assert rec == embedding_activities(fig5, h)


def test_interior_exterior_fig2(fig2):
    assert str(interior(fig2)) == "x^4 + 3x^3 + 3x^2"
    assert str(exterior(fig2)) == "y^4 + 2y^3 + 3y^2 + y"


def test_evaluation_counts_hypertrees(all_hg):
    from hypertutte.hypertrees import enumerate_hypertrees

    for g in all_hg.values():
        assert tutte_embedding(g).evaluate(1, 1) == len(enumerate_hypertrees(g))


def test_corank_nullity_single_edge(single_edge):
    table = corank_nullity(single_edge, 3, 5)
    for i in range(4):
        for j in range(6):
            assert table.entry(i, j) == (1 if i == 0 or j == 0 else 0)


def test_corank_nullity_origin_counts_order_ideal(fig2):
    table = corank_nullity(fig2, 0, 0)
    assert table.entry(0, 0) == 7


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
    k34 = harness.perturbed(
        RibbonGraph.build(3, 4, edges, rotation, ("v0", 0)), random.Random(34)
    )
    for g in (fig1, fig2, k34):
        counts = brute_force_counts(g, 3, 3)
        for imax, jmax in ((0, 0), (2, 3), (3, 3)):
            assert corank_nullity(g, imax, jmax).entries == tuple(
                ((i, j), counts[i, j]) for i in range(imax + 1) for j in range(jmax + 1)
            )


@settings(max_examples=60, deadline=None)
@given(ribbon_graphs())
def test_corank_nullity_matches_brute_force_on_random_instances(g):
    """Windows with one bound 0 leave most of the box out of window, so
    the sweep skips prefixes there."""
    for imax, jmax in ((0, 0), (0, 3), (3, 0)):
        counts = brute_force_counts(g, imax, jmax)
        assert corank_nullity(g, imax, jmax).entries == tuple(
            ((i, j), counts[i, j]) for i in range(imax + 1) for j in range(jmax + 1)
        )


ONE_EMERALD = RibbonGraph.build(
    3, 1, [("v0", "e0"), ("v1", "e0"), ("v2", "e0"), ("v2", "e0")],
    {"v0": [0], "v1": [1], "v2": [2, 3], "e0": [0, 2, 1, 3]}, ("e0", 0),
)


def test_corank_nullity_matches_brute_force_on_lopsided_windows(fig1, fig2):
    """Windows much longer on one side than the other, and a graph with
    one emerald, whose box has only the last coordinate: the sweep then
    walks the box without sides and counts one line."""
    cases = [(g, window) for g in (fig1, fig2, ONE_EMERALD) for window in ((4, 1), (1, 4))]
    for g, (imax, jmax) in cases + [(ONE_EMERALD, (3, 3))]:
        counts = brute_force_counts(g, imax, jmax)
        assert corank_nullity(g, imax, jmax).entries == tuple(
            ((i, j), counts[i, j]) for i in range(imax + 1) for j in range(jmax + 1)
        )


def test_corank_nullity_sweeps_one_point_per_line(fig1, monkeypatch):
    """The sweep walks all coordinates but the last: fig1's (3, 3) box of
    32,768 points, 8 wide on every side, gives at most 4,096 yields."""
    box = box_around(enumerate_hypertrees(fig1), 3, 3)
    lo, hi = box[-1]
    yields = 0

    def counted(*args, **kwargs):
        nonlocal yields
        for item in sweep(*args, **kwargs):
            yields += 1
            yield item

    monkeypatch.setattr(tutte, "sweep", counted)
    corank_nullity(fig1, 3, 3)
    assert box_size(box) == 32_768
    assert 0 < yields <= box_size(box) // (hi - lo + 1)


def test_corank_nullity_bad_bounds(fig2):
    with pytest.raises(ValueError):
        corank_nullity(fig2, -1, 0)
    with pytest.raises(BudgetExceeded):
        corank_nullity(fig2, 40, 40)


def test_series_identity_fig2(fig2):
    for bounds in ((3, 3), (4, 4), (2, 5)):
        report = series_identity_check(fig2, *bounds)
        assert report["status"] == "PASS", report


def test_series_identity_single_edge(single_edge):
    assert series_identity_check(single_edge, 4, 4)["status"] == "PASS"


def test_series_identity_detects_mutation(fig2):
    """A perturbed polynomial must disagree with the lattice counts."""
    table = corank_nullity(fig2, 3, 3)
    wrong = tutte_embedding(fig2) + Poly.monomial(1, 1)
    window = series_window(wrong, 3, 3)
    assert any(window[key] != val for key, val in table.entries)


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


def test_classical_tutte_matches_networkx(fig6_graph):
    nx = pytest.importorskip("networkx")
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    assert str(classical_tutte(LOOPED_MULTIGRAPH)) == "x^2y + xy^2 + xy + y^3 + y^2"
    for graph in (fig6_graph, TRIANGLE, K4, LOOPED_MULTIGRAPH):
        G = nx.MultiGraph()
        G.add_nodes_from(range(graph.vertex_count))
        G.add_edges_from((u, v) for _, u, v in graph.edges)
        theirs = sympy.Poly(nx.tutte_polynomial(G), x, y).as_dict()
        assert classical_tutte(graph).terms == theirs, graph


def test_classical_tutte_disconnected():
    with pytest.raises(Disconnected):
        classical_tutte(Graph(3, (("a", 0, 1),)))


def test_corank_nullity_budget_is_crapos(fig2):
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


def test_to_bipartite_shape(fig6_graph):
    g = to_bipartite(fig6_graph)
    assert g.violet_count == fig6_graph.vertex_count
    assert g.emerald_count == len(fig6_graph.edges)
    assert all(g.degree(f"e{j}") == 2 for j in range(g.emerald_count))


def test_graph_bridge_triangle_and_double_edge(fig6_graph):
    for graph in (TRIANGLE, DOUBLE_EDGE, fig6_graph):
        report = graph_tutte_bridge(graph)
        assert report["status"] == "PASS"
        assert "hyper-from-classical/split-args" in report["holding"]
        # the printed orientation with equal arguments does not hold
        assert not report["candidates"]["classical-from-hyper/equal-args"]
