"""The direct hypertree and Jaeger-tree computations against the kept
spanning-tree oracle, and the scale they reach without it."""

import itertools
import random

from hypothesis import given, settings, strategies as st

from hypertutte import tours
from hypertutte.polymatroid import bases_from_hypertrees, check_exchange
from hypertutte.hypertrees import (
    all_spanning_trees, enumerate_hypertrees, jaeger_trees,
)
from hypertutte.model import RibbonGraph, emerald, load, violet
from hypertutte.tutte import tutte_embedding, tutte_from_order
from oracles import (
    degree_vector, graph_matroid, is_hypertree, is_jaeger, is_violet_jaeger, perturbed,
)


def complete_bipartite(a, b):
    edges = [(violet(i), emerald(j)) for i in range(a) for j in range(b)]
    return _with_index_rotation(a, b, edges, ("v0", 0))


def _with_index_rotation(nv, ne, edges, basis):
    rotation = {}
    for k, (v, e) in enumerate(edges):
        rotation.setdefault(v, []).append(k)
        rotation.setdefault(e, []).append(k)
    return RibbonGraph.build(nv, ne, edges, rotation, basis)


def trees_by_degree_vector(g):
    """The oracle's spanning trees of g, grouped by degree vector.  They
    depend on the underlying graph only, so rotations can share them."""
    buckets = {}
    for t in all_spanning_trees(g):
        buckets.setdefault(degree_vector(g, t), []).append(t)
    return buckets


def assert_matches_oracle(g, buckets=None):
    buckets = buckets or trees_by_degree_vector(g)
    hs = enumerate_hypertrees(g)
    assert hs == tuple(sorted(buckets))
    box = [range(min(h[e] for h in hs) - 1, max(h[e] for h in hs) + 2)
           for e in range(g.emerald_count)]
    for v in itertools.product(*box):
        assert is_hypertree(g, v) == (v in buckets), v
    for h in hs:
        [emerald_tree] = [t for t in buckets[h] if is_jaeger(g, t)]
        [violet_tree] = [t for t in buckets[h] if is_violet_jaeger(g, t)]
        assert frozenset(jaeger_trees(g)[h][0]) == emerald_tree, h
        assert frozenset(jaeger_trees(g, "violet")[h][0]) == violet_tree, h
    assert tutte_embedding(g).evaluate(1, 1) == len(hs)


def test_fixtures_match_oracle(all_hg, single_edge):
    for g in list(all_hg.values()) + [single_edge]:
        assert_matches_oracle(g)


def _rotations_match_oracle(g, count=20):
    buckets = trees_by_degree_vector(g)
    rng = random.Random(7)
    for _ in range(count):
        assert_matches_oracle(perturbed(g, rng), buckets)


def test_fig2_rotations_match_oracle(fig2):
    _rotations_match_oracle(fig2)


def test_k34_rotations_match_oracle():
    _rotations_match_oracle(complete_bipartite(3, 4))


def test_k44_rotations_match_oracle():
    _rotations_match_oracle(complete_bipartite(4, 4))


@st.composite
def ribbon_graphs(draw):
    """Connected bipartite ribbon graphs with up to 4 + 4 nodes: every
    further node hangs off a placed node of the other colour, then up to
    five extra edges (parallel ones allowed); rotations and basis drawn."""
    nv = draw(st.integers(1, 4))
    ne = draw(st.integers(1, 4))
    edges = [(0, 0)]
    placed_v, placed_e = [0], [0]
    rest = [("v", i) for i in range(1, nv)] + [("e", j) for j in range(1, ne)]
    for kind, i in draw(st.permutations(rest)):
        if kind == "v":
            edges.append((i, draw(st.sampled_from(placed_e))))
            placed_v.append(i)
        else:
            edges.append((draw(st.sampled_from(placed_v)), i))
            placed_e.append(i)
    edges += draw(st.lists(st.tuples(st.integers(0, nv - 1), st.integers(0, ne - 1)),
                           max_size=5))
    edges = [(violet(i), emerald(j)) for i, j in edges]
    g = _with_index_rotation(nv, ne, edges, ("v0", 0))
    rotation = {node: draw(st.permutations(rot)) for node, rot in g.rotations}
    b0 = draw(st.sampled_from(sorted(rotation)))
    return RibbonGraph.build(nv, ne, edges, rotation, (b0, draw(st.sampled_from(rotation[b0]))))


@settings(max_examples=150, deadline=None)
@given(ribbon_graphs())
def test_random_instances_match_oracle(g):
    assert_matches_oracle(g)


@settings(max_examples=150, deadline=None)
@given(ribbon_graphs())
def test_random_instances_round_trip(g):
    assert load(g.render()) == g


def test_polymatroids_satisfy_exchange(all_hg, single_edge, fig6_graph):
    """The exchange axiom, trusted where polymatroids are built, holds on
    the fixtures, on K3,4 rotations and on a cycle matroid."""
    rng = random.Random(7)
    k34 = [perturbed(complete_bipartite(3, 4), rng) for _ in range(20)]
    for g in list(all_hg.values()) + [single_edge] + k34:
        check_exchange(bases_from_hypertrees(g))
    check_exchange(graph_matroid(fig6_graph))


@settings(max_examples=150, deadline=None)
@given(ribbon_graphs())
def test_random_hypertrees_satisfy_exchange(g):
    check_exchange(bases_from_hypertrees(g))


def test_k56_without_listing_spanning_trees(monkeypatch):
    """K5,6 has 4,050,000 spanning trees; the polynomial needs none."""

    def refuse(*args):
        raise AssertionError("spanning trees listed")

    monkeypatch.setattr(tours, "enumerate_spanning_trees", refuse)
    monkeypatch.setattr(tours, "spanning_trees", refuse)
    g = perturbed(complete_bipartite(5, 6), random.Random(56))
    poly = tutte_embedding(g)
    assert poly.evaluate(1, 1) == 126
    assert poly == tutte_from_order(g, tuple(emerald(j) for j in range(6)))
