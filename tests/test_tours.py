"""Tours, the tree order, fundamental cycles/cuts, tree enumeration."""

import itertools
import random

import pytest

from hypertutte import tours
from hypertutte.hypertrees import jaeger_trees
from hypertutte.model import RibbonGraph, is_violet, node_sort_key
from hypertutte.tours import enumerate_spanning_trees, is_spanning_tree, spanning_trees, tour
from oracles import (
    EqualTrees, Graph, WrongSide, base_component, classical_tutte, degree, first_difference,
    fundamental_cut, fundamental_cycle, incident, matrix_tree_count, next_at, tree_less,
)

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
            v, e = g.edges[edge]
            node = e if node == v else v
        edge = next_at(g, node, edge)
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
            for d in tours.walk(g, grown):
                steps.append(g.node_edge(d))
                if d >> 1 in t:
                    grown.add(d >> 1)
            assert steps == tour(g, t)
            assert grown == t


def test_walk_resumes_at_any_step(all_hg):
    """A walk resumed at a step of a tour goes on as that tour."""
    for g in all_hg.values():
        for t in list(enumerate_spanning_trees(g))[:5]:
            steps = tour(g, t)
            for i, step in enumerate(steps):
                resumed = tours.walk(g, t, g.dart(*step))
                assert [g.node_edge(d) for d in resumed] == steps[i:]


def test_walk_steps_over_skipped_edges(all_hg):
    """From the basis dart or any dart of the tour, the walk with a skip
    set hands out the darts of the walk without it whose edges are not
    in the set; if the caller adds each edge it is handed to the set, as
    the tour search does, it hands out the first visits only."""
    rng = random.Random(40)
    for g in all_hg.values():
        trees = list(enumerate_spanning_trees(g))
        for t in rng.sample(trees, min(10, len(trees))):
            for at in [None, *rng.sample(list(tours.walk(g, t)), 4)]:
                darts = list(tours.walk(g, t, at))
                skip = set(rng.sample(range(len(g.edges)), rng.randrange(len(g.edges))))
                kept = [d for d in darts if d >> 1 not in skip]
                assert list(tours.walk(g, t, at, frozenset(skip))) == kept
                firsts = [d for i, d in enumerate(kept)
                          if all(e >> 1 != d >> 1 for e in kept[:i])]
                handed = []
                for d in tours.walk(g, t, at, skip):
                    handed.append(d)
                    skip.add(d >> 1)
                assert handed == firsts


def test_walk_visits_every_dart_once(all_hg):
    """On the tour of every Jaeger tree of either variant, the walk hands
    out each of the 2|E| darts exactly once."""
    for g in all_hg.values():
        for variant in ("emerald", "violet"):
            for tree, *_ in jaeger_trees(g, variant).values():
                assert sorted(tours.walk(g, frozenset(tree))) == list(range(2 * len(g.edges)))


def test_walk_of_the_empty_tree_turns_around_the_start(fig2):
    b0, beta0 = fig2.basis
    steps = [fig2.node_edge(d) for d in tours.walk(fig2, ())]
    assert [node for node, _ in steps] == [b0] * degree(fig2, b0)
    assert sorted(k for _, k in steps) == sorted(incident(fig2, b0))
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
        v, e = fig2.edges[edge]
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


def test_enumeration_matches_matrix_tree(all_hg, single_edge):
    for g in list(all_hg.values()) + [single_edge]:
        trees = list(enumerate_spanning_trees(g))
        assert len(trees) == len(set(trees))
        assert all(is_spanning_tree(g, t) for t in trees)
        assert len(trees) == matrix_tree_count(g.nodes, g.edges)


@pytest.mark.parametrize("a, b", [(a, b) for a in range(1, 12) for b in range(1, 12)
                                  if a + b <= 12])
def test_matrix_tree_count_of_complete_bipartites(a, b):
    """Scoins: K_{a,b} has a^(b-1) b^(a-1) spanning trees."""
    sides = [("u", i) for i in range(a)], [("w", j) for j in range(b)]
    edges = itertools.product(*sides)
    assert matrix_tree_count(sides[0] + sides[1], edges) == a ** (b - 1) * b ** (a - 1)


@pytest.mark.parametrize("n, count", [(1, 1), (2, 4), (3, 192), (4, 100_352)])
def test_matrix_tree_count_of_grids(n, count):
    """The n by n grid graph's spanning trees, counted without listing them."""
    nodes = list(itertools.product(range(n), repeat=2))
    edges = [((i, j), (i + di, j + dj)) for i, j in nodes for di, dj in ((0, 1), (1, 0))
             if i + di < n and j + dj < n]
    assert matrix_tree_count(nodes, edges) == count


@pytest.mark.parametrize("n", range(1, 9))
def test_matrix_tree_count_of_complete_graphs(n):
    """Cayley: K_n has n^(n-2) spanning trees."""
    assert matrix_tree_count(range(n), itertools.combinations(range(n), 2)) == n ** (n - 2)


def test_matrix_tree_count_skips_loops_and_counts_parallel_edges():
    assert matrix_tree_count("ab", ["ab", "ab", "aa", "bb"]) == 2
    assert matrix_tree_count("abc", ["ab"]) == 0


def test_spanning_tree_rejects_foreign_edge_ids(fig2):
    """Edge ids outside range(len(edges)) are no edges, not indices from
    the end: -2 would otherwise stand for edge 7."""
    assert is_spanning_tree(fig2, frozenset({0, 1, 2, 4, 5, 7}))
    assert not is_spanning_tree(fig2, frozenset({0, 1, 2, 4, 5, -2}))
    assert not is_spanning_tree(fig2, frozenset({0, 1, 2, 4, 5, 99}))


def test_loops_are_in_no_tree():
    """A loop, here the lowest edge id, is set aside, not contracted; the
    classical Tutte polynomial counts it as a loop of the one tree, whose
    two edges are bridges."""
    edges = [(0, 0, 0), (1, 0, 1), (2, 1, 2)]
    assert list(spanning_trees(edges, 3)) == [frozenset({1, 2})]
    graph = Graph(3, tuple((f"g{k}", u, v) for k, u, v in edges))
    assert str(classical_tutte(graph)) == "x^2y"


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
