"""Acceptance gate: one check per release criterion, A1 through A11.

A conftest hook prints one "A<n> PASS|FAIL" line per criterion in the
terminal summary of any pytest run that includes this file.
"""

import itertools
import random

from hypertutte import harness
from hypertutte.crapo import intervals, verify_crapo_partition
from hypertutte.delta import (
    assignment_from_delta,
    bases_from_hypertrees,
    exchange_witness,
    exhaustive_delta_search,
    names,
    obstruction_check,
    validate_decision_tree,
)
from hypertutte.hypertrees import enumerate_hypertrees, jaeger_trees
from hypertutte.jaeger import embedding_assignment
from hypertutte.model import is_violet
from hypertutte.tours import enumerate_spanning_trees, tour
from hypertutte.tutte import series_identity_check, tutte_embedding, tutte_from_order

from conftest import ACCEPTANCE_NOTES
from oracles import (
    Graph, base_component, basis_name, fixed_tree_order_activities, fundamental_cut,
    graph_tutte_bridge, interval_contains, is_jaeger, perturbed, random_decision_tree,
    representatives,
)
from test_delta import FIG6_COVERING, FIG6_NONTRIVIAL
from test_tours import FIG1_GRAPH_TOUR, FIG2_PANEL1_TOUR
from test_tutte import FIG2_POLY


def test_a1_fig2_polynomial(fig2):
    assert str(tutte_embedding(fig2)) == FIG2_POLY


def test_a2_hypertree_counts(fig2, fig5):
    assert len(enumerate_hypertrees(fig2)) == 7
    assert len(enumerate_hypertrees(fig5)) == 6


def test_a3_tour_fidelity(fig1, fig2):
    assert tour(fig2, frozenset({0, 2, 5, 6, 7, 8})) == FIG2_PANEL1_TOUR
    # the ordinary-graph tree {e0, e2, e4}: for either half of each
    # non-tree graph edge, the projected tour is the documented sequence
    for half_e1, half_e3 in itertools.product((2, 3), (6, 7)):
        t = frozenset({0, 1, 4, 5, 8, 9, half_e1, half_e3})
        projected = [
            (n, fig1.edges[k][1]) for n, k in tour(fig1, t) if is_violet(n)
        ]
        assert projected == FIG1_GRAPH_TOUR


def test_a4_well_definedness(fig2):
    expected = tutte_embedding(fig2)
    names = tuple(f"e{j}" for j in range(fig2.emerald_count))
    for order in itertools.permutations(names):
        assert tutte_from_order(fig2, order) == expected
    rng = random.Random(0)
    for _ in range(10):
        assert tutte_embedding(perturbed(fig2, rng)) == expected


def test_a5_crapo_partition(fig2):
    report = verify_crapo_partition(fig2, box=[(-2, 4)] * 4)
    assert report["points"] == 2401
    assert report["status"] == "PASS"
    assert report["violations"] == []


def test_a6_series_identity(fig2, single_edge):
    for g in (fig2, single_edge):
        for bounds in ((3, 3), (4, 4)):
            assert series_identity_check(g, *bounds)["status"] == "PASS"


def test_a7_graph_bridge():
    triangle = Graph(3, (("a", 0, 1), ("b", 1, 2), ("c", 0, 2)))
    double_edge = Graph(2, (("a", 0, 1), ("b", 0, 1)))
    winners = []
    for graph in (triangle, double_edge):
        report = graph_tutte_bridge(graph)
        assert report["status"] == "PASS"
        winners.append(tuple(report["holding"]))
    assert winners[0] == winners[1]
    ACCEPTANCE_NOTES["A7"] = "holding: " + ", ".join(winners[0])


def test_a8_fig6_crapo_table(fig6_graph, fig6_orders):
    P, assignment = fixed_tree_order_activities(fig6_graph, fig6_orders)
    union = {
        basis_name(P, b): set(names(P, rec.nontrivial_internal | rec.nontrivial_external))
        for b, rec in assignment.items()
    }
    assert union == FIG6_NONTRIVIAL
    fig6_intervals = intervals(assignment)
    for point, name in FIG6_COVERING.items():
        covering = [
            basis_name(P, iv.center)
            for iv in fig6_intervals
            if interval_contains(iv, point)
        ]
        assert covering == [name], point


def test_a9_delta_obstruction(fig5, fig6_graph, fig6_orders):
    P5, fig5_assignment = embedding_assignment(fig5)
    assert obstruction_check(P5, fig5_assignment) == ("NO_EXEMPT", None)
    P6, fig6_assignment = fixed_tree_order_activities(fig6_graph, fig6_orders)
    assert obstruction_check(P6, fig6_assignment) == ("NO_EXEMPT", None)
    assert exhaustive_delta_search(P6, fig6_assignment) is None


def test_a10a_jaeger_uniqueness_random():
    for seed in range(200):
        g = harness.random_instance(seed=seed)
        for h in enumerate_hypertrees(g):
            assert sum(1 for t in representatives(g, h) if is_jaeger(g, t)) == 1


def test_a10b_exchange_axiom(fig2, fig5):
    for g in (fig2, fig5):
        P = bases_from_hypertrees(g)
        hs = enumerate_hypertrees(g)
        for h, h2 in itertools.permutations(hs, 2):
            for e in range(g.emerald_count):
                if h[e] < h2[e]:
                    assert exchange_witness(P, h, h2, e) is not None, (h, h2, e)


def test_a10c_root_exemption_random():
    rng = random.Random(42)
    checked = 0
    seed = 0
    while checked < 100:
        g = harness.random_instance(seed=seed)
        seed += 1
        if g.emerald_count < 2:
            continue
        P = bases_from_hypertrees(g)
        ranks = {e: P.rank(e) for e in P.ground}
        tree = random_decision_tree(P.ground, ranks, rng)
        validate_decision_tree(tree, P)
        for rec in assignment_from_delta(tree, P).values():
            assert tree.label not in names(P, rec.nontrivial_internal)
            assert tree.label not in names(P, rec.nontrivial_external)
        checked += 1


def test_a10d_tour_double_visit(all_hg):
    for g in all_hg.values():
        for t in enumerate_spanning_trees(g):
            steps = tour(g, t)
            assert len(steps) == 2 * len(g.edges)
            assert len(set(steps)) == len(steps)
            for k in range(len(g.edges)):
                nodes = {n for n, e in steps if e == k}
                assert nodes == set(g.edges[k])


def test_a10e_jaeger_cut_ordering(all_hg):
    """In the tour of a Jaeger tree, each cut's base-side emerald non-tree
    steps come before the tree edge's own emerald step."""
    for g in all_hg.values():
        for h in enumerate_hypertrees(g):
            t = frozenset(jaeger_trees(g)[h][0])
            steps = tour(g, t)
            position = {step: i for i, step in enumerate(steps)}
            for k in t:
                e = g.edges[k][1]
                shore = base_component(g, t, k)
                if e not in shore:
                    continue
                for k2 in fundamental_cut(g, t, k) - {k}:
                    e2 = g.edges[k2][1]
                    if e2 in shore:
                        assert position[(e2, k2)] < position[(e, k)]


def test_a11_violet_prime_conjecture(fig2, fig5):
    assert harness.test_violet_prime(fig2)["verdict"] == "EQUAL"
    assert harness.test_violet_prime(fig5)["verdict"] == "EQUAL"
    reports = list(harness.random_reports(harness.test_violet_prime, 500, 0))
    assert len(reports) == 500
    assert [r for r in reports if r["verdict"] != "EQUAL"] == []
