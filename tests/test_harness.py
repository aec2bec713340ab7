"""Random instance generation and the order-variant experiments."""

import random
from collections import Counter
from pathlib import Path

from hypertutte import fixture_path, harness, hypertrees, load, load_path
from hypertutte.hypertrees import enumerate_hypertrees, jaeger_trees, orders
from hypertutte.model import is_violet
from hypertutte.polymatroid import bases_from_hypertrees
from hypertutte.tours import enumerate_spanning_trees
from hypertutte.tutte import activity_triples, slice_triples, tutte_embedding, tutte_sum

from oracles import perturbed
from test_oracle import complete_bipartite

FROZEN = Path(__file__).resolve().parent / "data" / "violet_counterexample.hg"
CHECKS = (("violet-prime", harness.test_violet_prime), ("violet", harness.test_violet))


def test_random_instance_deterministic():
    for seed in (0, 1, 17):
        assert harness.random_instance(seed=seed) == harness.random_instance(seed=seed)


def test_random_instances_valid():
    for seed in range(30):
        g = harness.random_instance(seed=seed)
        # construction validates connectivity and rotations; spot-check shape
        assert 1 <= g.violet_count <= 4
        assert 1 <= g.emerald_count <= 5
        assert len(g.edges) <= 12
        assert all(is_violet(v) for v, _ in g.edges)
        assert next(iter(enumerate_spanning_trees(g))) is not None


def test_perturbed_preserves_underlying_graph(fig2):
    rng = random.Random(5)
    g2 = perturbed(fig2, rng)
    assert g2.edges == fig2.edges
    assert {n: sorted(r) for n, r in g2.rotations} == {
        n: sorted(r) for n, r in fig2.rotations
    }


def test_invariance_fixtures(all_hg):
    """Random ribbon and basis perturbations leave the embedding
    polynomial of every fixture unchanged."""
    for name, g in all_hg.items():
        expected = tutte_embedding(g)
        rng = random.Random(1)
        for trial in range(6):
            assert tutte_embedding(perturbed(g, rng)) == expected, (name, trial)


def test_violet_prime_fixtures(fig2, fig5):
    assert harness.test_violet_prime(fig2)["verdict"] == "EQUAL"
    assert harness.test_violet_prime(fig5)["verdict"] == "EQUAL"


def test_violet_prime_random_search():
    reports = list(harness.random_reports(harness.test_violet_prime, 60, 0))
    assert [r["verdict"] for r in reports] == ["EQUAL"] * 60


def test_violet_order_counterexample():
    """The plain violet-node order does not reproduce the embedding
    polynomial; the first random seed exhibiting this is frozen here."""
    reports = harness.random_reports(harness.test_violet, 10, 0)
    report = next(r for r in reports if r["verdict"] != "EQUAL")
    assert report["verdict"] == "COUNTEREXAMPLE"
    assert report["seed"] == 3


def test_frozen_violet_counterexample():
    """The seed-3 counterexample, saved as text so that it outlives a
    change of the generator: the plain violet order disagrees with the
    embedding polynomial on it, the violet-prime order agrees."""
    g = load_path(FROZEN)
    assert harness.test_violet(g)["verdict"] == "COUNTEREXAMPLE"
    assert harness.test_violet_prime(g)["verdict"] == "EQUAL"


def test_random_reports_tag_seeds_and_feed_the_search():
    reports = list(harness.random_reports(harness.test_violet, 10, 0))
    assert [r["seed"] for r in reports] == list(range(10))
    assert [r["seed"] for r in harness.random_reports(harness.test_violet, 2, 7)] == [7, 8]
    first = next(r for r in reports if r["verdict"] != "EQUAL")
    assert first["seed"] == 3
    assert all(r["verdict"] == "EQUAL" and r["polynomial"] for r in reports[:3])


def test_violet_counterexample_replays_from_text():
    g = harness.random_instance(seed=3)
    report = harness.test_violet(g)
    assert report["verdict"] == "COUNTEREXAMPLE"
    replayed = load(report["instance"]["text"])
    assert replayed == g
    assert str(tutte_embedding(replayed)) == report["embedding"]
    assert tutte_sum(replayed, orders(replayed, "violet")) != tutte_embedding(replayed)


def test_violet_and_prime_agree_at_one_one():
    """Even where the variants diverge as polynomials, all of them count
    hypertrees at (1, 1)."""
    g = harness.random_instance(seed=3)
    n = tutte_embedding(g).evaluate(1, 1)
    for kind in ("violet", "violet-prime"):
        assert tutte_sum(g, orders(g, kind)).evaluate(1, 1) == n, kind


def test_embedding_polynomial_built_once_per_graph(fig2, monkeypatch):
    """Both order checks on one graph share its reference, the embedding
    polynomial: one slice counter for it (the fixed-order sum) and one
    activity counter for each order variant."""
    from hypertutte import tutte

    sums, slices = [], []
    activity, sliced = tutte.activity_triples, tutte.slice_triples
    monkeypatch.setattr(
        tutte, "activity_triples",
        lambda g, order_map: sums.append(order_map) or activity(g, order_map)
    )
    monkeypatch.setattr(
        tutte, "slice_triples", lambda g, order: slices.append(order) or sliced(g, order)
    )
    g = perturbed(fig2, random.Random(5))  # a graph no other test caches
    assert g != fig2
    assert harness.test_violet_prime(g)["verdict"] == "EQUAL"
    harness.test_violet(g)
    assert (len(slices), len(sums)) == (1, 2)


def test_equal_counters_expand_no_candidate(monkeypatch):
    """A check expands the reference counter once per graph, no candidate
    whose counter equals it, and exactly one whose counter differs: on
    the frozen counterexample the violet-prime counter equals the
    reference and the violet one differs, and on fig2 the violet-prime
    counter differs although its polynomial is equal."""
    expanded, per_graph = [], []
    expand = harness.expand_triples
    monkeypatch.setattr(harness, "expand_triples",
                        lambda counts: expanded.append(counts) or expand(counts))
    for g in (load_path(FROZEN), load_path(fixture_path("fig2.hg"))):  # fresh: nothing cached
        expanded.clear()
        reference = slice_triples(g, bases_from_hypertrees(g).ground)
        candidates = [activity_triples(g, orders(g, kind)) for kind, _ in CHECKS]
        for _, check in CHECKS:
            check(g)
        assert expanded == [reference, *(c for c in candidates if c != reference)]
        per_graph.append(len(expanded))
    assert per_graph == [2, 3]


def test_verdicts_on_every_branch(all_hg):
    """The fixtures and the frozen counterexample cover the three ways a
    check ends: equal counters (violet-prime on fig1 and the frozen
    graph), counters that differ with equal polynomials (violet-prime on
    fig2, fig4 and fig5) and a counterexample (violet on all five).  On
    each, the verdict says whether the sum under the kind's orders is the
    embedding polynomial."""
    branches = Counter()
    for g in [*all_hg.values(), load_path(FROZEN)]:
        reference = slice_triples(g, bases_from_hypertrees(g).ground)
        for kind, check in CHECKS:
            equal = tutte_sum(g, orders(g, kind)) == tutte_embedding(g)
            assert check(g)["verdict"] == ("EQUAL" if equal else "COUNTEREXAMPLE"), kind
            branches[activity_triples(g, orders(g, kind)) == reference, equal] += 1
    assert branches == {(True, True): 2, (False, True): 3, (False, False): 5}


def test_conjecture_run_searches_once(monkeypatch):
    """A conjecture run makes one tour search per graph, the violet one its
    orders need: the hypertree list is read off that table, and equals the
    emerald table's keys, which only a later embedding sum searches for."""
    searched = []
    search = hypertrees.tour_search
    monkeypatch.setattr(hypertrees, "tour_search",
                        lambda g, variant: searched.append(variant) or search(g, variant))
    g = perturbed(complete_bipartite(3, 4), random.Random(43))  # fresh: nothing searched yet
    harness.test_violet_prime(g)
    harness.test_violet(g)
    assert searched == ["violet"]
    tutte_embedding(g)
    assert searched == ["violet", "emerald"]
    assert enumerate_hypertrees(g) == tuple(sorted(jaeger_trees(g)))
    assert searched == ["violet", "emerald"]


def test_reference_is_the_embedding_polynomial(all_hg):
    """The reference the order checks report, the fixed-order sum under
    the index order, is the embedding polynomial, on the fixtures,
    ``random_instance`` seeds 0-149 and seeded K4,4, K4,5, K5,5, K6,6,
    K4,8 and K3,12, whose violet reports are counterexamples."""
    kabs = [perturbed(complete_bipartite(a, b), random.Random(10 * a + b))
            for a, b in ((4, 4), (4, 5), (5, 5), (6, 6), (4, 8), (3, 12))]
    graphs = [*all_hg.values(), *(harness.random_instance(seed=s) for s in range(150)), *kabs]
    for g in graphs:
        for _, check in CHECKS:
            report = check(g)
            assert report.get("polynomial", report.get("embedding")) == str(tutte_embedding(g))
