"""Tours, the tree order, fundamental cycles/cuts, tree enumeration."""

import itertools

import numpy as np
import pytest

from hypertutte import tours
from hypertutte.model import RibbonGraph, is_violet, node_sort_key
from hypertutte.tours import (
    WrongSide,
    base_component,
    enumerate_spanning_trees,
    fundamental_cut,
    fundamental_cycle,
    is_spanning_tree,
    tour,
)
from oracles import EqualTrees, first_difference, tree_less

PANEL1 = frozenset({0, 2, 5, 6, 7, 8})

FIG2_PANEL1_TOUR = [
    ("v0", 0), ("e0", 1), ("e0", 0), ("v0", 2), ("e1", 3), ("e1", 4),
    ("e1", 2), ("v0", 7), ("e3", 8), ("v2", 4), ("v2", 6), ("e2", 5),
    ("v1", 3), ("v1", 1), ("v1", 5), ("e2", 6), ("v2", 8), ("e3", 7),
]

# ten steps of the ordinary-graph tour, as (violet node, emerald node)
FIG1_GRAPH_TOUR = [
    ("v0", "e0"), ("v1", "e1"), ("v1", "e4"), ("v3", "e2"), ("v2", "e1"),
    ("v2", "e2"), ("v3", "e3"), ("v3", "e4"), ("v1", "e0"), ("v0", "e3"),
]


def test_fig2_panel1_tour(fig2):
    assert tour(fig2, PANEL1) == FIG2_PANEL1_TOUR


def test_single_edge_tour(single_edge):
    assert tour(single_edge, frozenset({0})) == [("v0", 0), ("e0", 0)]


def test_fig1_tour_projects_to_graph_tour(fig1):
    """The bipartite tour, restricted to steps at violet nodes and read as
    (violet node, graph edge), is the ordinary Bernardi tour of the
    underlying graph -- for either choice of tree half of a non-tree
    graph edge."""
    for half_e1, half_e3 in itertools.product((2, 3), (6, 7)):
        t = frozenset({0, 1, 4, 5, 8, 9, half_e1, half_e3})
        steps = tour(fig1, t)
        assert len(steps) == 20
        projected = [(n, fig1.edges[k][1]) for n, k in steps if is_violet(n)]
        assert projected == FIG1_GRAPH_TOUR


def test_tour_double_visit(all_hg):
    for g in all_hg.values():
        for t in enumerate_spanning_trees(g):
            steps = tour(g, t)
            assert len(steps) == 2 * len(g.edges)
            by_edge = {}
            for node, edge in steps:
                by_edge.setdefault(edge, []).append(node)
            for k, (v, e) in enumerate(g.edges):
                assert sorted(by_edge[k], key=node_sort_key) == sorted(
                    [v, e], key=node_sort_key
                )


def test_first_difference_equal_trees(fig2):
    assert first_difference(fig2, PANEL1, PANEL1) is None


def test_first_difference_fig3(fig2):
    t = frozenset({0, 2, 3, 5, 7, 8})
    t_prime = frozenset({0, 3, 4, 6, 7, 8})
    assert first_difference(fig2, t, t_prime) == ("v0", 2)
    assert tree_less(fig2, t, t_prime)
    assert not tree_less(fig2, t_prime, t)


def test_first_difference_symmetric(fig2):
    trees = list(enumerate_spanning_trees(fig2))
    for t1, t2 in itertools.combinations(trees, 2):
        assert first_difference(fig2, t1, t2) == first_difference(fig2, t2, t1)


def _lockstep_difference(g, t1, t2):
    """The two tours walked side by side until they treat a step
    differently: the reference for :func:`first_difference`."""
    b0, beta0 = g.basis
    node, edge = b0, beta0
    for _ in range(2 * len(g.edges)):
        in1 = edge in t1
        if in1 != (edge in t2):
            return (node, edge)
        if in1:
            node = g.other_end(edge, node)
        edge = g.next_at(node, edge)
        if (node, edge) == (b0, beta0):
            return None
    return None


def test_first_difference_matches_lockstep_walk(fig2):
    trees = list(enumerate_spanning_trees(fig2))
    for t1, t2 in itertools.product(trees, repeat=2):
        assert first_difference(fig2, t1, t2) == _lockstep_difference(fig2, t1, t2)


def test_walk_crosses_edges_added_during_the_walk(all_hg):
    """Adding each edge of a spanning tree at its first visit makes the
    walk over the growing set the tour of that tree."""
    for g in all_hg.values():
        for t in list(enumerate_spanning_trees(g))[:20]:
            grown, steps = set(), []
            for node, k in tours.walk(g, grown):
                steps.append((node, k))
                if k in t:
                    grown.add(k)
            assert steps == tour(g, t)
            assert grown == t


def test_walk_of_the_empty_tree_turns_around_the_start(fig2):
    b0, beta0 = fig2.basis
    steps = list(tours.walk(fig2, ()))
    assert [node for node, _ in steps] == [b0] * fig2.degree(b0)
    assert sorted(k for _, k in steps) == sorted(fig2.incident(b0))
    assert steps[0] == (b0, beta0)


def test_tree_less_total_order(fig2):
    trees = list(enumerate_spanning_trees(fig2))
    assert len(trees) <= 50
    for t1, t2 in itertools.combinations(trees, 2):
        assert tree_less(fig2, t1, t2) != tree_less(fig2, t2, t1)
    ranked = sorted(trees, key=_cmp_key(fig2))
    # transitivity: the sort must be consistent with every pairwise test
    for i, t1 in enumerate(ranked):
        for t2 in ranked[i + 1:]:
            assert tree_less(fig2, t1, t2)


def _cmp_key(g):
    import functools

    return functools.cmp_to_key(
        lambda a, b: 0 if a == b else (-1 if tree_less(g, a, b) else 1)
    )


def test_tree_less_equal_raises(fig2):
    with pytest.raises(EqualTrees):
        tree_less(fig2, PANEL1, PANEL1)


def test_fundamental_cycle_fig1(fig1):
    # tree: graph edges e0, e2, e4 fully, plus one half each of e1, e3
    t = frozenset({0, 1, 4, 5, 8, 9, 2, 6})
    assert fundamental_cycle(fig1, t, 3) == frozenset({2, 3, 4, 5, 8, 9})


def test_fundamental_cut_bridge(single_edge):
    assert fundamental_cut(single_edge, frozenset({0}), 0) == frozenset({0})


def test_cycle_cut_parity(all_hg):
    for g in all_hg.values():
        for t in list(enumerate_spanning_trees(g))[:10]:
            for e in range(len(g.edges)):
                if e in t:
                    continue
                cyc = fundamental_cycle(g, t, e)
                for f in t:
                    cut = fundamental_cut(g, t, f)
                    assert len(cyc & cut) % 2 == 0


def test_wrong_side_errors(fig2):
    with pytest.raises(WrongSide):
        fundamental_cycle(fig2, PANEL1, 0)
    with pytest.raises(WrongSide):
        fundamental_cut(fig2, PANEL1, 1)
    with pytest.raises(WrongSide):
        base_component(fig2, PANEL1, 1)


def test_base_component_fig2(fig2):
    # removing the basis-node edge towards e3 leaves v0 with e0, e1
    assert base_component(fig2, PANEL1, 7) == frozenset({"v0", "e0", "e1"})
    assert base_component(fig2, PANEL1, 8) == frozenset({"v0", "e0", "e1", "e3"})


def test_base_component_leaf(fig2):
    # edge 5 = v1e2 connects emerald leaf-side; shores partition the nodes
    for edge in PANEL1:
        shore = base_component(fig2, PANEL1, edge)
        other = set(fig2.nodes) - shore
        assert "v0" in shore
        assert shore | other == set(fig2.nodes)
        v, e = fig2.endpoints(edge)
        assert (v in shore) != (e in shore)


def _bipartite_cycle(k):
    """Alternating cycle with k violet and k emerald nodes."""
    edges = []
    for i in range(k):
        edges.append((f"v{i}", f"e{i}"))
        edges.append((f"v{(i + 1) % k}", f"e{i}"))
    rotation = {}
    for idx, (v, e) in enumerate(edges):
        rotation.setdefault(v, []).append(idx)
        rotation.setdefault(e, []).append(idx)
    return RibbonGraph.build(k, k, edges, rotation, ("v0", 0))


def test_enumerate_cycle():
    for k in (2, 3):
        trees = list(enumerate_spanning_trees(_bipartite_cycle(k)))
        assert len(trees) == 2 * k
        assert len(set(trees)) == 2 * k


def _matrix_tree_count(g):
    n = len(g.nodes)
    index = {node: i for i, node in enumerate(g.nodes)}
    lap = np.zeros((n, n))
    for v, e in g.edges:
        i, j = index[v], index[e]
        lap[i, i] += 1
        lap[j, j] += 1
        lap[i, j] -= 1
        lap[j, i] -= 1
    return round(np.linalg.det(lap[1:, 1:]))


def test_enumeration_matches_matrix_tree(all_hg, single_edge):
    for g in list(all_hg.values()) + [single_edge]:
        trees = list(enumerate_spanning_trees(g))
        assert len(trees) == len(set(trees))
        assert all(is_spanning_tree(g, t) for t in trees)
        assert len(trees) == _matrix_tree_count(g)


def test_spanning_tree_rejects_foreign_edge_ids(fig2):
    """Edge ids outside range(len(edges)) are no edges, not indices from
    the end: -2 would otherwise stand for edge 7."""
    assert is_spanning_tree(fig2, frozenset({0, 1, 2, 4, 5, 7}))
    assert not is_spanning_tree(fig2, frozenset({0, 1, 2, 4, 5, -2}))
    assert not is_spanning_tree(fig2, frozenset({0, 1, 2, 4, 5, 99}))


def test_enumeration_deterministic(fig2):
    assert list(enumerate_spanning_trees(fig2)) == list(enumerate_spanning_trees(fig2))


def test_tour_closes_for_every_edge_set(fig2):
    """The step rule permutes the (node, edge) pairs, so every edge set
    gets a closed tour of at most 2|E| steps; exactly the spanning trees
    get all 2|E|."""
    limit = 2 * len(fig2.edges)
    for r in range(len(fig2.edges) + 1):
        for subset in itertools.combinations(range(len(fig2.edges)), r):
            tree = frozenset(subset)
            steps = tour(fig2, tree)
            assert 0 < len(steps) <= limit
            assert steps[0] == fig2.basis
            if is_spanning_tree(fig2, tree):
                assert len(steps) == limit
