"""Hypertree membership, enumeration, and the exchange axiom."""

import gc
import itertools
import math
import random
import weakref

import pytest
from hypothesis import given, settings

from hypertutte import harness, hypertrees, model, polymatroid, tours
from hypertutte.polymatroid import bases_from_hypertrees, exchange_witness
from hypertutte.hypertrees import (
    all_spanning_trees,
    enumerate_hypertrees,
    jaeger_trees,
    tour_search,
)
from hypertutte.model import RibbonGraph, is_emerald, node_index
from hypertutte.tours import enumerate_spanning_trees, is_spanning_tree, tour
from hypertutte.tutte import tutte_embedding
from oracles import (
    degree_vector, hypertrees_by_exchange, is_hypertree, is_jaeger, is_violet_jaeger, perturbed,
)
from test_oracle import complete_bipartite, ribbon_graphs
from test_outputs import seeded_complete_bipartites


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


def test_search_builds_the_adjacency_once(monkeypatch):
    """Both searches of a K4,4 embedding test connectivity on one
    adjacency map of the graph, built once, not once per exclusion."""
    built = []

    def counting(edges):
        built.append(None)
        return model.adjacency(edges)

    monkeypatch.setattr(hypertrees, "adjacency", counting)
    g = perturbed(complete_bipartite(4, 4), random.Random(44))
    for variant in ("emerald", "violet"):
        assert len(list(tour_search(g, variant))) == 20  # C(6, 3)
    assert len(built) <= 1


def assert_one_walk_per_hypertree(g):
    """Each branch the search pops resumes one ``tours.walk``: for both
    variants there are as many walks as hypertrees, so no branch dies
    (the argument is in the ``hypertrees`` docstring)."""
    walk = tours.walk
    hypertree_count = len(enumerate_hypertrees(g))
    for variant in ("emerald", "violet"):
        walks = []

        def counted(*args):
            walks.append(None)
            return walk(*args)

        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(tours, "walk", counted)
            leaves = list(tour_search(g, variant))
        assert len(walks) == len(leaves) == hypertree_count, variant


def test_search_tests_connectivity_only_from_undecided_edges(all_hg, monkeypatch):
    """Both searches call ``model.reach`` only from a far end that still
    has an undecided edge: from one with none left, excluding the edge
    would cut it off, so the search includes it without asking (the
    argument is in the ``tour_search`` docstring)."""
    starts = []
    search_reach = hypertrees.reach

    def spied(adj, start, avoid=(), until=()):
        assert any(x not in avoid for x, _ in adj[start]), start
        starts.append(start)
        return search_reach(adj, start, avoid, until)

    monkeypatch.setattr(hypertrees, "reach", spied)
    graphs = [*all_hg.values(), *map(harness.random_instance, range(150)),
              *seeded_complete_bipartites()]
    for g in graphs:
        for variant in ("emerald", "violet"):
            assert list(tour_search(g, variant))
    assert starts


def test_every_branch_is_a_jaeger_tree(all_hg, single_edge):
    """On the fixtures and seeded K_{a,b} embeddings, with the basis at
    either colour, every branch the search pushes yields a Jaeger tree."""
    graphs = [*all_hg.values(), single_edge]
    for a, b in ((2, 3), (3, 3), (3, 4), (4, 4), (4, 5), (5, 5)):
        graphs += [perturbed(complete_bipartite(a, b), random.Random(seed)) for seed in range(4)]
    for g in graphs:
        assert_one_walk_per_hypertree(g)


@settings(max_examples=60, deadline=None)
@given(ribbon_graphs())
def test_every_branch_is_a_jaeger_tree_on_random_instances(g):
    assert_one_walk_per_hypertree(g)


def test_search_trees_have_the_degrees(fig2):
    for variant in ("emerald", "violet"):
        for h, (t, *_) in jaeger_trees(fig2, variant).items():
            assert is_spanning_tree(fig2, frozenset(t))
            assert degree_vector(fig2, t) == h


def test_every_row_carries_its_trees_degree_vector(all_hg):
    """The degree vector the search carries down each branch is the one
    the oracle counts from the row's tree, for both variants."""
    graphs = [*all_hg.values(), *map(harness.random_instance, range(150)),
              *seeded_complete_bipartites()]
    for g in graphs:
        for variant in ("emerald", "violet"):
            for h, (tree, *_) in jaeger_trees(g, variant).items():
                assert degree_vector(g, tree) == h


def _subset_sums(values) -> list:
    """The sum of values over S, for every index set S (bit i = index i)."""
    sums = [0] * (1 << len(values))
    for S in range(1, len(sums)):
        low = S & -S
        sums[S] = sums[S ^ low] + values[low.bit_length() - 1]
    return sums


def _forest_size(pairs) -> int:
    """Edges in a spanning forest of the (node, node) pairs."""
    parent, size = {}, 0
    for a, b in pairs:
        while parent.get(a, a) != a:
            a = parent[a]
        while parent.get(b, b) != b:
            b = parent[b]
        if a != b:
            parent[a] = b
            size += 1
    return size


def realisable(ends, nv, need, free, reached, k, include) -> bool:
    """Rado's condition, the reference for each decision of the walk:
    whether some spanning tree keeps every decision so far, decides edge
    k as asked and has need[j] more edges at each emerald j.

    ``ends`` gives each edge's (violet, emerald) nodes, violet i as node i
    and emerald j as node nv+j; ``free`` holds the undecided edges of
    each emerald, k no longer among them; the included edges form one
    tree on the ``reached`` nodes.  Such a tree exists iff, once the
    reached nodes (with k's ends if k is included) are one node, the
    undecided edges at every set S of emeralds have rank at least need(S).
    Every set is checked.
    """
    if include:
        reached = reached | set(ends[k])
        need = list(need)
        need[ends[k][1] - nv] -= 1
    label = [-1 if a in reached else a for a in range(nv + len(need))]
    pairs = [[(label[ends[x][0]], label[ends[x][1]]) for x in edges] for edges in free]
    for S, demand in enumerate(_subset_sums(need)):
        members = [j for j in range(len(need)) if S >> j & 1]
        if demand and _forest_size(p for j in members for p in pairs[j]) < demand:
            return False
    return True


def replay_walk(g, h, variant) -> int:
    """Replay the tour of the Jaeger tree of h that the search found and
    check that each decision along it takes the preferred side (in at a
    node of the colour that cannot choose, out at the other) exactly when
    Rado's condition allows it, as the least representative of h in the
    tour order must; returns the number of decisions checked."""
    tree = frozenset(jaeger_trees(g, variant)[h][0])
    nv = g.violet_count
    ends = [(node_index(v), nv + node_index(e)) for v, e in g.edges]
    need = [x + 1 for x in h]
    free = [set() for _ in range(g.emerald_count)]
    for k, (_, e) in enumerate(ends):
        free[e - nv].add(k)
    reached, checked = set(), 0
    for node, k in tour(g, tree):  # the walk's own steps
        v, e = ends[k]
        j = e - nv
        at_emerald = is_emerald(node)
        here, there = (e, v) if at_emerald else (v, e)
        reached.add(here)
        if k not in free[j]:
            continue
        free[j].remove(k)
        if there in reached or not need[j]:  # a cycle or a full emerald
            assert k not in tree
            continue
        prefer = at_emerald == (variant == "violet")
        keep = realisable(ends, nv, need, free, reached, k, prefer)
        assert (k in tree) == (prefer if keep else not prefer), (h, variant, node, k)
        checked += 1
        if k in tree:
            need[j] -= 1
    assert not any(free) and not any(need)
    return checked


def assert_walks_match_rado(g) -> int:
    return sum(replay_walk(g, h, variant)
               for h in enumerate_hypertrees(g) for variant in ("emerald", "violet"))


def test_walk_decisions_match_rado_on_fixtures(all_hg, single_edge):
    for g in list(all_hg.values()) + [single_edge]:
        assert assert_walks_match_rado(g)


def test_walk_decisions_match_rado_on_k34_rotations():
    rng = random.Random(43)
    for _ in range(20):
        assert assert_walks_match_rado(perturbed(complete_bipartite(3, 4), rng))


@settings(max_examples=150, deadline=None)
@given(ribbon_graphs())
def test_walk_decisions_match_rado_on_random_instances(g):
    assert_walks_match_rado(g)


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


def kalman(g, v) -> bool:
    """Kálmán's test, with the mu table the package does not build:
    v >= 0, sum(v) = #violet - 1 and v(S) <= mu(S) = |N(S)| - c(S), the
    rank of S's edges less |S|, for every set S of emeralds."""
    blocks = [[ends for ends in g.edges if ends[1] == e] for e in g.emeralds]
    return min(v) >= 0 and sum(v) == g.violet_count - 1 and all(
        total <= _forest_size(p for j, block in enumerate(blocks) if S >> j & 1 for p in block)
        - S.bit_count()
        for S, total in enumerate(_subset_sums(v))
    )


def test_membership_matches_enumeration(fig2, fig5):
    """Membership read off the search agrees with the degree vectors of
    all spanning trees and with Kálmán's inequalities on the box around
    the hypertrees, widened by one."""
    for g in (fig2, fig5):
        hs = set(enumerate_hypertrees(g))
        assert hs == {degree_vector(g, t) for t in all_spanning_trees(g)}
        lo = [min(h[e] for h in hs) - 1 for e in range(g.emerald_count)]
        hi = [max(h[e] for h in hs) + 1 for e in range(g.emerald_count)]
        for v in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
            assert is_hypertree(g, v) == (v in hs) == kalman(g, v), v


@pytest.mark.parametrize("a, b", [(1, 3), (2, 2), (2, 6), (3, 3), (3, 5), (4, 4), (4, 5),
                                  (5, 5), (3, 14), (4, 10), (6, 6), (3, 24), (7, 7)])
def test_search_ladder(a, b):
    """On K_{a,b} with index rotations every composition of a-1 into b
    parts is a hypertree, C(a+b-2, a-1) of them: each search lists each
    once, the embedding polynomial counts them at (1, 1), and on the
    small rungs every tree the search lists is a Jaeger tree of its
    variant by the tour oracle."""
    g = complete_bipartite(a, b)
    count = math.comb(a + b - 2, a - 1)
    for variant, oracle in (("emerald", is_jaeger), ("violet", is_violet_jaeger)):
        leaves = list(tour_search(g, variant))
        assert len(leaves) == len({h for h, _ in leaves}) == count
        if a * b <= 25:
            assert all(oracle(g, frozenset(t)) for _, (t, *_) in leaves)
    assert tutte_embedding(g).evaluate(1, 1) == count


def test_exchange_bfs_equals_enumeration(all_hg, single_edge):
    for g in list(all_hg.values()) + [single_edge]:
        assert hypertrees_by_exchange(g) == enumerate_hypertrees(g)


def test_exchange_bfs_on_random_instances():
    for seed in range(25):
        g = harness.random_instance(seed=seed)
        assert hypertrees_by_exchange(g) == enumerate_hypertrees(g)


def test_exchange_witness_forced(fig2):
    h, h2 = (0, 0, 1, 1), (0, 1, 0, 1)
    assert exchange_witness(bases_from_hypertrees(fig2), h, h2, 1) == 2  # e2


def test_exchange_witness_fig2(fig2):
    f = exchange_witness(bases_from_hypertrees(fig2), (0, 0, 1, 1), (0, 2, 0, 0), 1)
    assert f in (2, 3)  # e2 or e3


def test_exchange_witness_requires_deficit(fig2, fig5, monkeypatch):
    """A witness is asked for only at an element where the first basis
    is below the second: the exchange check keeps that precondition."""
    asked = []
    witness = polymatroid.exchange_witness

    def checked(P, b, b2, e):
        assert b[e] < b2[e], (b, b2, e)
        asked.append(e)
        return witness(P, b, b2, e)

    monkeypatch.setattr(polymatroid, "exchange_witness", checked)
    for g in (fig2, fig5):
        polymatroid.check_exchange(bases_from_hypertrees(g))
    assert asked


def test_exchange_axiom_exhaustive(fig2, fig5):
    for g in (fig2, fig5):
        P = bases_from_hypertrees(g)
        hs = enumerate_hypertrees(g)
        for h, h2 in itertools.permutations(hs, 2):
            for e in range(g.emerald_count):
                if h[e] < h2[e]:
                    assert exchange_witness(P, h, h2, e) is not None, (h, h2, e)


def graphs_reading(P) -> list:
    """The live graphs whose derived cache holds the polymatroid P."""
    return [g for derived in gc.get_referrers(P)
            if isinstance(derived, dict) and derived.get("bases") is P
            for g in gc.get_referrers(derived) if isinstance(g, model.RibbonGraph)]


def test_cache_dies_with_graph():
    """What is derived from a graph is kept in the graph and freed with
    it, so long searches run in bounded memory.  A polymatroid is shared
    by every graph with its base set (:func:`polymatroid.bases_from_hypertrees`),
    so once these graphs die it outlives them only while another live
    graph reads it; otherwise its registry entry is gone too."""
    graphs = [harness.random_instance(seed=seed) for seed in range(50)]
    polymatroids = []
    for g in graphs:
        tutte_embedding(g)
        P = bases_from_hypertrees(g)
        polymatroids.append((weakref.ref(P), P.bases))
        assert hypertrees.cached(g, "embedding", None) is tutte_embedding(g)
    alive = [weakref.ref(g) for g in graphs]
    del graphs, g, P
    gc.collect()
    assert all(ref() is None for ref in alive)
    for ref, bases in polymatroids:
        if ref() is None:
            assert bases not in polymatroid._hypergraphic
        else:
            assert polymatroid._hypergraphic[bases] is ref() and graphs_reading(ref())
