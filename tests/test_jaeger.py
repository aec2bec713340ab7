"""Jaeger tree recognition/construction, orders, activities."""

import itertools
import random

import pytest
from hypothesis import given, settings

from hypertutte import harness, hypertrees, load_path, fixture_path, tours
from hypertutte.delta import activity_masks, assignment_from_orders, bases_from_hypertrees, names
from hypertutte.hypertrees import (
    all_spanning_trees, degree_vector, enumerate_hypertrees, jaeger_trees,
)
from hypertutte.jaeger import NotAHypertree, embedding_activities, embedding_assignment
from hypertutte.model import is_emerald
from hypertutte.tours import tour
from hypertutte.tutte import tutte_embedding
from oracles import (
    classical_activities, is_hypertree, is_jaeger, is_violet_jaeger, monomial, order_violet,
    perturbed, power, representatives, times, tree_less, x_plus_y_minus_1,
)
from test_oracle import complete_bipartite, ribbon_graphs

PANEL1 = frozenset({0, 2, 5, 6, 7, 8})


def tree_of(g, h, variant="emerald"):
    """The Jaeger tree of hypertree h, read off the search's table."""
    return frozenset(jaeger_trees(g, variant)[h][0])


def order_emerald(g, h):
    """The order <_h: the emerald table's node order."""
    return jaeger_trees(g)[h][1]


def order_violet_prime(g, h):
    """The violet table's edge order."""
    return jaeger_trees(g, "violet")[h][2]


# hypertree -> its Jaeger tree, transcribed from the seven figure panels
FIG2_PANELS = {
    (0, 0, 1, 1): frozenset({0, 2, 5, 6, 7, 8}),
    (0, 1, 1, 0): frozenset({0, 2, 4, 5, 6, 8}),
    (0, 1, 0, 1): frozenset({0, 2, 3, 5, 7, 8}),
    (0, 2, 0, 0): frozenset({0, 2, 3, 4, 5, 8}),
    (1, 0, 0, 1): frozenset({0, 1, 3, 5, 7, 8}),
    (1, 1, 0, 0): frozenset({0, 1, 3, 4, 5, 8}),
    (1, 0, 1, 0): frozenset({0, 1, 4, 5, 6, 8}),
}


def test_is_jaeger_panel1(fig2):
    assert is_jaeger(fig2, PANEL1)


def test_is_jaeger_fig3_counterexample(fig2):
    assert not is_jaeger(fig2, frozenset({0, 3, 4, 6, 7, 8}))


def test_is_jaeger_vacuous_on_tree(single_edge):
    assert is_jaeger(single_edge, frozenset({0}))
    assert is_violet_jaeger(single_edge, frozenset({0}))


def test_jaeger_tree_of_panels(fig2):
    for h, t in FIG2_PANELS.items():
        assert tree_of(fig2, h) == t


def test_jaeger_tree_of_whole_tree(single_edge):
    assert tree_of(single_edge, (0,)) == frozenset({0})


def test_jaeger_tree_not_a_hypertree(fig2):
    assert (2, 0, 0, 0) not in jaeger_trees(fig2)
    assert (2, 0, 0, 0) not in jaeger_trees(fig2, "violet")
    with pytest.raises(NotAHypertree):
        embedding_activities(fig2, (2, 0, 0, 0))


def test_uniqueness_exhaustive(all_hg):
    for g in all_hg.values():
        for h in enumerate_hypertrees(g):
            reps = representatives(g, h)
            assert sum(1 for t in reps if is_jaeger(g, t)) == 1
            assert sum(1 for t in reps if is_violet_jaeger(g, t)) == 1


def test_jaeger_tree_is_order_minimum(all_hg):
    for g in all_hg.values():
        for h in enumerate_hypertrees(g):
            reps = representatives(g, h)
            jt = tree_of(g, h)
            for t in reps:
                if t != jt:
                    assert tree_less(g, jt, t)


def test_walk_refuses_exactly_the_non_hypertrees(all_hg, single_edge):
    """Both searches' tables hold, and the activity lookup answers,
    exactly the degree vectors of spanning trees on the box around every
    fixture's hypertrees."""
    for g in list(all_hg.values()) + [single_edge]:
        hs = enumerate_hypertrees(g)
        vectors = {degree_vector(g, t) for t in all_spanning_trees(g)}
        box = [range(min(h[e] for h in hs) - 1, max(h[e] for h in hs) + 2)
               for e in range(g.emerald_count)]
        for v in itertools.product(*box):
            if v in vectors:
                assert degree_vector(g, tree_of(g, v)) == v
                assert degree_vector(g, tree_of(g, v, "violet")) == v
                embedding_activities(g, v)
            else:
                assert v not in jaeger_trees(g) and v not in jaeger_trees(g, "violet")
                with pytest.raises(NotAHypertree):
                    embedding_activities(g, v)


def test_walk_refuses_malformed_vectors(fig2):
    for v in [(), (0, 2, 0), (0, 2, 0, 0, 0), (-1, 3, 0, 0), (0, 3, 0, 0)]:
        with pytest.raises(NotAHypertree):
            embedding_activities(fig2, v)


def test_walk_cache_refuses_float_vectors(fig2):
    """A float vector equals and hashes like the int hypertree it rounds
    to, so it must be refused even after that hypertree's activities are
    computed and its Jaeger trees are in the searches' tables."""
    h = (0, 2, 0, 0)
    assert h in enumerate_hypertrees(fig2)
    embedding_activities(fig2, h)
    for v in [(0.0, 2, 0, 0), (0, 2.0, 0, 0)]:
        assert v in jaeger_trees(fig2)  # the table alone cannot tell them apart
        with pytest.raises(NotAHypertree):
            embedding_activities(fig2, v)


def test_walk_cache_refuses_boolean_entries(fig2):
    """True equals and hashes like 1, so (True, True, 0, 0) would look up
    the hypertree (1, 1, 0, 0); a boolean is no entry of a hypertree."""
    h = (1, 1, 0, 0)
    assert h in enumerate_hypertrees(fig2)
    embedding_activities(fig2, h)
    for v in [(True, True, 0, 0), (1, True, 0, False)]:
        assert not is_hypertree(fig2, v)
        with pytest.raises(NotAHypertree):
            embedding_activities(fig2, v)


def test_walk_builds_no_mu_table():
    """On a K3,16 embedding (2^16 emerald sets) the two searches list
    every hypertree, its Jaeger trees and their orders, with no table
    over emerald sets."""
    g = perturbed(complete_bipartite(3, 16), random.Random(316))
    emeralds = sorted(f"e{j}" for j in range(16))
    hs = enumerate_hypertrees(g)
    assert len(hs) == 136  # C(17, 2)
    for h in hs:
        emerald_tree = tree_of(g, h)
        assert is_jaeger(g, emerald_tree) and degree_vector(g, emerald_tree) == h
        violet_tree = tree_of(g, h, "violet")
        assert is_violet_jaeger(g, violet_tree) and degree_vector(g, violet_tree) == h
        for order in (order_emerald(g, h), order_violet(g, h), order_violet_prime(g, h)):
            assert sorted(order) == emeralds


def test_violet_jaeger_fig4(fig2):
    assert tree_of(fig2, (1, 1, 0, 0), "violet") == frozenset({0, 1, 2, 4, 6, 7})


def test_orders_fig2(fig2):
    assert order_emerald(fig2, (0, 0, 1, 1)) == ("e0", "e1", "e3", "e2")
    assert order_emerald(fig2, (1, 1, 0, 0)) == ("e0", "e2", "e1", "e3")


def test_orders_fig4_violet_variants(fig2):
    assert order_violet(fig2, (1, 1, 0, 0)) == ("e0", "e1", "e2", "e3")
    assert order_violet_prime(fig2, (1, 1, 0, 0)) == ("e0", "e2", "e1", "e3")


def test_order_single_emerald(single_edge):
    assert order_emerald(single_edge, (0,)) == ("e0",)
    assert order_violet_prime(single_edge, (0,)) == ("e0",)


def _order_by_first_node(g, tree):
    """Emerald nodes ranked by first occurrence as the current node of
    the tour of ``tree``."""
    seen = []
    for node, _ in tour(g, tree):
        if is_emerald(node) and node not in seen:
            seen.append(node)
    return tuple(seen)


def _order_by_first_endpoint(g, tree):
    """Emerald nodes ranked by first occurrence as an endpoint of the
    current edge of the tour of ``tree``."""
    seen = []
    for _, k in tour(g, tree):
        e = g.edges[k][1]
        if e not in seen:
            seen.append(e)
    return tuple(seen)


def test_emerald_orders_coincide(all_hg):
    """In the tour of an emerald Jaeger tree, the first-as-current-node
    and first-as-endpoint-of-current-edge orders agree."""
    for g in all_hg.values():
        for h in enumerate_hypertrees(g):
            t = tree_of(g, h)
            assert _order_by_first_node(g, t) == _order_by_first_endpoint(g, t)


def assert_orders_match_tours(g):
    """The orders read off the walk that built each Jaeger tree are the
    orders re-read from that tree's tour."""
    for h in enumerate_hypertrees(g):
        assert order_emerald(g, h) == _order_by_first_node(g, tree_of(g, h)), h
        violet_tree = tree_of(g, h, "violet")
        assert order_violet(g, h) == _order_by_first_node(g, violet_tree), h
        assert order_violet_prime(g, h) == _order_by_first_endpoint(g, violet_tree), h


def test_orders_match_tours_on_fixtures(all_hg, single_edge):
    for g in list(all_hg.values()) + [single_edge]:
        assert_orders_match_tours(g)


def test_orders_match_tours_on_k34_rotations():
    rng = random.Random(34)
    for _ in range(20):
        assert_orders_match_tours(perturbed(complete_bipartite(3, 4), rng))


@settings(max_examples=150, deadline=None)
@given(ribbon_graphs())
def test_orders_match_tours_on_random_instances(g):
    assert_orders_match_tours(g)


def test_polynomials_walk_no_tour(monkeypatch):
    """Trees and orders come from one walk each: computing the
    polynomials never asks for a tour."""

    def refuse(*args):
        raise AssertionError("tour called")

    monkeypatch.setattr(tours, "tour", refuse)
    # a K3,4 embedding that no other test builds, so nothing is cached
    g = perturbed(complete_bipartite(3, 4), random.Random(2718))
    assert tutte_embedding(g).evaluate(1, 1) == len(enumerate_hypertrees(g))
    assert harness.test_violet_prime(g)["kind"] == "violet-prime"
    assert harness.test_violet(g)["kind"] == "violet"


def test_one_search_per_variant(all_hg, monkeypatch):
    """The embedding and violet-prime polynomials, with the hypertree
    list, both tables, the embedding assignment and every hypertree's
    activities, run one tour search per graph and variant."""
    searched = []
    search = hypertrees.tour_search
    monkeypatch.setattr(hypertrees, "tour_search",
                        lambda g, variant: searched.append(variant) or search(g, variant))
    # freshly loaded, so nothing is searched yet; fig4 is fig2's instance,
    # and equal graphs keep their own derived values
    fresh = [load_path(fixture_path(name)) for name in all_hg]
    fresh.append(perturbed(complete_bipartite(3, 4), random.Random(34)))
    for g in fresh:
        searched.clear()
        tutte_embedding(g)
        harness.violet_prime_polynomial(g)
        harness.violet_polynomial(g)
        jaeger_trees(g)
        jaeger_trees(g, "violet")
        embedding_assignment(g)
        for h in enumerate_hypertrees(g):
            embedding_activities(g, h)
        assert sorted(searched) == ["emerald", "violet"]


def test_activities_fig2(fig2):
    P = bases_from_hypertrees(fig2)
    rec = embedding_activities(fig2, (1, 1, 0, 0))
    assert names(P, rec.internal) == ("e0", "e2", "e3")
    assert names(P, rec.external) == ("e0",)
    assert ((rec.internal & ~rec.external).bit_count(), (rec.external & ~rec.internal).bit_count(),
            (rec.internal & rec.external).bit_count()) == (2, 0, 1)


def test_activities_order_must_be_a_permutation(fig2):
    """An order that misses, repeats or adds an emerald is refused, not
    read as the activities of the emeralds it happens to list."""
    P = bases_from_hypertrees(fig2)
    for order in [("e0",), ("e0", "e0", "e1", "e2"), ("e0", "e1", "e2", "e3", "e3"),
                  ("e0", "e1", "e2", "e9"), ()]:
        with pytest.raises(ValueError, match="exactly once"):
            assignment_from_orders(P, {b: order for b in P.bases})
    reverse = assignment_from_orders(P, {b: ("e3", "e2", "e1", "e0") for b in P.bases})
    assert reverse[(1, 1, 0, 0)].internal


def test_minimum_always_both_active(all_hg):
    for g in all_hg.values():
        P = bases_from_hypertrees(g)
        for h in enumerate_hypertrees(g):
            for order in (order_emerald(g, h), tuple(sorted(order_emerald(g, h)))):
                internal, external = activity_masks(P, h, order)
                assert order[0] in names(P, internal)
                assert order[0] in names(P, external)


def test_panel_monomials(fig2):
    s = x_plus_y_minus_1()
    expected = {
        (0, 0, 1, 1): times(power(s, 2), monomial(0, 2)),
        (0, 1, 1, 0): times(s, monomial(1, 2)),
        (0, 1, 0, 1): times(s, monomial(1, 2)),
        (0, 2, 0, 0): times(s, monomial(2, 1)),
        (1, 0, 0, 1): times(s, monomial(2, 1)),
        (1, 1, 0, 0): times(s, monomial(2, 0)),
        (1, 0, 1, 0): times(power(s, 2), monomial(2, 0)),
    }
    for h, want in expected.items():
        rec = embedding_activities(fig2, h)
        internal, external = rec.internal, rec.external
        got = monomial((internal & ~external).bit_count(), (external & ~internal).bit_count())
        got = times(got, power(s, (internal & external).bit_count()))
        assert got == want, h


def test_classical_activity_shift(fig1):
    """For a graph's bipartite model with a fixed order, the polymatroid
    activity counts exceed the classical ones by the number of non-tree
    edges (internal) and tree edges (external)."""
    # underlying graph of fig1: emerald j is the edge between the violet
    # endpoints of bipartite edges 2j, 2j+1
    edges = []
    for j in range(fig1.emerald_count):
        u = int(fig1.edges[2 * j][0][1:])
        v = int(fig1.edges[2 * j + 1][0][1:])
        edges.append((u, v))
    n = fig1.violet_count
    order = tuple(f"e{j}" for j in range(fig1.emerald_count))
    P = bases_from_hypertrees(fig1)
    for h in enumerate_hypertrees(fig1):
        tree = {j for j in range(len(edges)) if h[j] == 1}
        internal, external = classical_activities(
            n, edges, tree, range(len(edges))
        )
        masks = activity_masks(P, h, order)
        assert masks[0].bit_count() == len(internal) + (len(edges) - (n - 1))
        assert masks[1].bit_count() == len(external) + (n - 1)


def test_uniqueness_on_random_instances():
    for seed in range(40):
        g = harness.random_instance(seed=seed)
        for h in enumerate_hypertrees(g):
            reps = representatives(g, h)
            assert sum(1 for t in reps if is_jaeger(g, t)) == 1
