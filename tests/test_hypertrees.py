"""Hypertree membership, enumeration, and the exchange axiom."""

import gc
import itertools
import weakref

import pytest

from hypertutte import harness, hypertrees
from hypertutte.hypertrees import (
    NoWitness,
    degree_vector,
    enumerate_hypertrees,
    exchange_witness,
    find_tree_with_degrees,
    hypertrees_by_exchange,
    is_hypertree,
    representatives,
)
from hypertutte.model import RibbonGraph
from hypertutte.tours import enumerate_spanning_trees, is_spanning_tree


def test_degree_vector_panel1(fig2):
    assert degree_vector(fig2, frozenset({0, 2, 5, 6, 7, 8})) == (0, 0, 1, 1)


def test_degree_vector_star():
    k = 4
    edges = [(f"v{i}", "e0") for i in range(k)]
    rotation = {f"v{i}": [i] for i in range(k)}
    rotation["e0"] = list(range(k))
    g = RibbonGraph.build(k, 1, edges, rotation, ("v0", 0))
    assert enumerate_hypertrees(g) == ((k - 1,),)


def test_degree_vector_sum(all_hg):
    for g in all_hg.values():
        for t in enumerate_spanning_trees(g):
            assert sum(degree_vector(g, t)) == g.violet_count - 1


def test_is_hypertree_fig2(fig2):
    assert not is_hypertree(fig2, (2, 2, 0, 0))  # sum too large
    assert is_hypertree(fig2, (0, 2, 0, 0))
    assert not is_hypertree(fig2, (2, 0, 0, 0))
    assert not is_hypertree(fig2, (-1, 2, 0, 1))
    for t in enumerate_spanning_trees(fig2):
        assert is_hypertree(fig2, degree_vector(fig2, t))


def test_find_tree_with_degrees_returns_tree(fig2):
    for h in enumerate_hypertrees(fig2):
        t = find_tree_with_degrees(fig2, h)
        assert is_spanning_tree(fig2, t)
        assert degree_vector(fig2, t) == h


def test_counts(fig2, fig5):
    assert len(enumerate_hypertrees(fig2)) == 7
    assert len(enumerate_hypertrees(fig5)) == 6


def test_graph_case_indicators(fig1):
    """Every emerald node of fig1 has degree 2, so hypertrees are the 0/1
    indicator vectors of spanning trees of the underlying graph."""
    hs = enumerate_hypertrees(fig1)
    assert all(set(h) <= {0, 1} for h in hs)
    graph_trees = set()
    for t in enumerate_spanning_trees(fig1):
        graph_trees.add(degree_vector(fig1, t))
    assert set(hs) == graph_trees
    # the graph has 4 vertices and 5 edges forming two triangles sharing
    # an edge: 8 spanning trees
    assert len(hs) == 8


def test_membership_matches_enumeration(fig2, fig5):
    for g in (fig2, fig5):
        hs = set(enumerate_hypertrees(g))
        lo = [min(h[e] for h in hs) for e in range(g.emerald_count)]
        hi = [max(h[e] for h in hs) for e in range(g.emerald_count)]
        for v in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
            assert is_hypertree(g, v) == (v in hs)


def test_exchange_bfs_equals_enumeration(all_hg, single_edge):
    for g in list(all_hg.values()) + [single_edge]:
        assert hypertrees_by_exchange(g) == enumerate_hypertrees(g)


def test_exchange_bfs_on_random_instances():
    for seed in range(25):
        g = harness.random_instance(seed=seed)
        assert hypertrees_by_exchange(g) == enumerate_hypertrees(g)


def test_exchange_witness_forced(fig2):
    h, h2 = (0, 0, 1, 1), (0, 1, 0, 1)
    assert exchange_witness(fig2, h, h2, "e1") == "e2"


def test_exchange_witness_fig2(fig2):
    f = exchange_witness(fig2, (0, 0, 1, 1), (0, 2, 0, 0), "e1")
    assert f in ("e2", "e3")


def test_exchange_witness_requires_deficit(fig2):
    with pytest.raises(ValueError):
        exchange_witness(fig2, (0, 2, 0, 0), (0, 0, 1, 1), "e1")


def test_exchange_axiom_exhaustive(fig2, fig5):
    for g in (fig2, fig5):
        hs = enumerate_hypertrees(g)
        for h, h2 in itertools.permutations(hs, 2):
            for e in range(g.emerald_count):
                if h[e] < h2[e]:
                    exchange_witness(g, h, h2, e)  # NoWitness would raise


def test_cache_dies_with_graph():
    """The per-graph cache holds nothing of a graph once the graph is gone,
    so long searches run in bounded memory."""
    from hypertutte.tutte import tutte_embedding

    gc.collect()
    before = len(hypertrees._CACHE)
    graphs = [harness.random_instance(seed=seed) for seed in range(50)]
    for g in graphs:
        tutte_embedding(g)
    assert len(hypertrees._CACHE) > before
    alive = [weakref.ref(g) for g in graphs]
    del graphs, g
    gc.collect()
    assert all(ref() is None for ref in alive)
    assert len(hypertrees._CACHE) <= before
