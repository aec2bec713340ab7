"""Hypertree membership, enumeration, and the exchange axiom."""

import gc
import itertools
import random
import weakref

from hypothesis import given, settings, strategies as st

from hypertutte import delta, harness, hypertrees
from hypertutte.delta import bases_from_hypertrees, exchange_witness
from hypertutte.hypertrees import (
    degree_vector,
    enumerate_hypertrees,
    greedy_tree,
    is_hypertree,
)
from hypertutte.model import RibbonGraph, is_emerald, node_index
from hypertutte.tours import enumerate_spanning_trees, is_spanning_tree, tour
from oracles import hypertrees_by_exchange, is_jaeger, is_violet_jaeger, representatives
from test_oracle import complete_bipartite, ribbon_graphs


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


def test_greedy_tree_has_the_degrees(fig2):
    for h in enumerate_hypertrees(fig2):
        t = greedy_tree(fig2, h)[0]
        assert is_spanning_tree(fig2, t)
        assert degree_vector(fig2, t) == h


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
    for S, demand in enumerate(hypertrees._subset_sums(need)):
        members = [j for j in range(len(need)) if S >> j & 1]
        if demand and hypertrees._forest_size(
            (p for j in members for p in pairs[j]), demand
        ) < demand:
            return False
    return True


def replay_walk(g, h, variant) -> int:
    """Replay the walk that builds a Jaeger tree of h and check that it
    keeps each preferred decision exactly when Rado's condition allows
    it; returns the number of decisions checked."""
    tree = hypertrees.greedy_tree(g, h, variant)[0]
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
        assert assert_walks_match_rado(harness.perturbed(complete_bipartite(3, 4), rng))


@settings(max_examples=150, deadline=None)
@given(ribbon_graphs())
def test_walk_decisions_match_rado_on_random_instances(g):
    assert_walks_match_rado(g)


def assert_walk_ignores_first_witness(g, monkeypatch):
    """Started from any spanning tree that realises h, the walk builds the
    Jaeger trees that the filter finds among the representatives of h."""
    for h in enumerate_hypertrees(g):
        reps = representatives(g, h)
        [emerald_tree] = [t for t in reps if is_jaeger(g, t)]
        [violet_tree] = [t for t in reps if is_violet_jaeger(g, t)]
        for first in reps:
            starts = []
            monkeypatch.setattr(hypertrees, "_witness",
                                lambda lay, need: starts.append(first) or set(first))
            assert hypertrees.greedy_tree(g, h)[0] == emerald_tree, (h, first)
            assert hypertrees.greedy_tree(g, h, "violet")[0] == violet_tree, (h, first)
            assert starts == [first, first]  # each walk started from first


def test_walk_ignores_first_witness_on_fixtures(all_hg, single_edge, monkeypatch):
    for g in list(all_hg.values()) + [single_edge]:
        assert_walk_ignores_first_witness(g, monkeypatch)


def test_walk_ignores_first_witness_on_k34_rotations(monkeypatch):
    rng = random.Random(34)
    for _ in range(5):
        assert_walk_ignores_first_witness(
            harness.perturbed(complete_bipartite(3, 4), rng), monkeypatch
        )


def random_spanning_tree(g, rng) -> frozenset:
    """The edges, in shuffled order, that join two parts of the ones
    kept so far."""
    order = list(range(len(g.edges)))
    rng.shuffle(order)
    part = {node: {node} for node in g.nodes}
    tree = set()
    for k in order:
        v, e = g.edges[k]
        if part[v] is not part[e]:
            tree.add(k)
            part[v] |= part[e]
            for node in part[e]:
                part[node] = part[v]
    return frozenset(tree)


@settings(max_examples=150, deadline=None)
@given(ribbon_graphs(), st.integers(0, 2**32))
def test_augmenting_paths_from_any_start(g, seed):
    """From a random maximal common independent set, augmenting paths
    grow a spanning tree with degree v(e)+1 at every emerald e exactly
    when v is a hypertree."""
    rng = random.Random(seed)
    lay = hypertrees._layout(g)
    h = degree_vector(g, random_spanning_tree(g, rng))
    moved = list(h)
    moved[rng.randrange(len(h))] += 1
    moved[rng.randrange(len(h))] -= 1
    for v in (h, tuple(moved)):
        if min(v) < 0:
            continue
        need = [x + 1 for x in v]
        start, part = set(), {node: {node} for node in range(lay.nv + lay.ne)}
        for k in random_spanning_tree(g, rng) | set(range(len(g.edges))):
            a, b = lay.ends[k]
            if part[a] is not part[b] and need[lay.at[k]] > sum(lay.at[x] == lay.at[k] for x in start):
                start.add(k)
                part[a] |= part[b]
                for node in part[b]:
                    part[node] = part[a]
        grown = hypertrees._grown(lay, lay.ends, range(len(g.edges)), start, need)
        if is_hypertree(g, v):
            assert is_spanning_tree(g, frozenset(grown)) and degree_vector(g, grown) == v
        else:
            assert grown is None


def check_random_state(g, rng) -> int:
    """Decide every edge that can be decided from a random state the walk
    could be in: a witness, a subtree of it included, some edges outside
    it excluded.  Moving the witness to the other side of an edge must
    succeed exactly when Rado's condition allows it, and then give a
    spanning tree with the same degrees that keeps every decision.
    Returns how many includes met a witness path to the reached nodes
    with no edge at the included edge's emerald."""
    lay = hypertrees._layout(g)
    witness = random_spanning_tree(g, rng)
    reached, tree = {rng.randrange(lay.nv + lay.ne)}, set()
    for _ in range(rng.randrange(len(g.nodes))):
        grow = [k for k in witness - tree if len(reached & set(lay.ends[k])) == 1]
        if grow:
            k = rng.choice(grow)
            tree.add(k)
            reached |= set(lay.ends[k])
    free = {k for k in range(len(g.edges))
            if k not in tree and (k in witness or rng.random() < 0.7)}
    rest = witness - tree
    need = [sum(lay.at[k] == j for k in rest) for j in range(lay.ne)]
    pairs = [tuple(-1 if x in reached else x for x in ends) for ends in lay.ends]
    via = hypertrees._rooted(pairs, rest, (-1,))[0]
    elsewhere = 0
    for k in sorted(free):
        j = lay.at[k]
        if len(reached & set(lay.ends[k])) != 1 or not need[j]:
            continue
        include, others = k not in witness, free - {k}
        if include:
            path = hypertrees._climb(pairs, via, max(pairs[k]))
            elsewhere += all(lay.at[y] != j for y in path)
        got = hypertrees._decided(lay, pairs, via, others, set(rest), need, k, include)
        by_emerald = [{x for x in others if lay.at[x] == i} for i in range(lay.ne)]
        assert (got is not None) == realisable(
            lay.ends, lay.nv, need, by_emerald, reached, k, include
        ), (k, include)
        if got is not None:
            moved = tree | got | ({k} if include else set())
            assert is_spanning_tree(g, frozenset(moved)), (k, include)
            assert degree_vector(g, moved) == degree_vector(g, witness)
            assert moved - tree <= others | {k}
    return elsewhere


def test_decisions_from_random_states(all_hg):
    rng = random.Random(11)
    graphs = list(all_hg.values())
    graphs += [harness.perturbed(complete_bipartite(3, 4), rng) for _ in range(10)]
    graphs += [harness.random_instance(seed=seed) for seed in range(40)]
    elsewhere = sum(check_random_state(g, rng) for g in graphs for _ in range(40))
    assert elsewhere >= 20


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
    assert exchange_witness(bases_from_hypertrees(fig2), h, h2, 1) == 2  # e2


def test_exchange_witness_fig2(fig2):
    f = exchange_witness(bases_from_hypertrees(fig2), (0, 0, 1, 1), (0, 2, 0, 0), 1)
    assert f in (2, 3)  # e2 or e3


def test_exchange_witness_requires_deficit(fig2, fig5, monkeypatch):
    """A witness is asked for only at an element where the first basis
    is below the second: the exchange check keeps that precondition."""
    asked = []
    witness = delta.exchange_witness

    def checked(P, b, b2, e):
        assert b[e] < b2[e], (b, b2, e)
        asked.append(e)
        return witness(P, b, b2, e)

    monkeypatch.setattr(delta, "exchange_witness", checked)
    for g in (fig2, fig5):
        delta.check_exchange(bases_from_hypertrees(g))
    assert asked


def test_exchange_axiom_exhaustive(fig2, fig5):
    for g in (fig2, fig5):
        P = bases_from_hypertrees(g)
        hs = enumerate_hypertrees(g)
        for h, h2 in itertools.permutations(hs, 2):
            for e in range(g.emerald_count):
                if h[e] < h2[e]:
                    assert exchange_witness(P, h, h2, e) is not None, (h, h2, e)


def test_cache_dies_with_graph():
    """What is derived from a graph is kept in the graph and freed with
    it, so long searches run in bounded memory."""
    from hypertutte.tutte import tutte_embedding

    graphs = [harness.random_instance(seed=seed) for seed in range(50)]
    layouts = []
    for g in graphs:
        tutte_embedding(g)
        layouts.append(weakref.ref(hypertrees._layout(g)))
        assert hypertrees.cached(g, "embedding", None) is tutte_embedding(g)
    alive = [weakref.ref(g) for g in graphs]
    del graphs, g
    gc.collect()
    assert all(ref() is None for ref in alive + layouts)
