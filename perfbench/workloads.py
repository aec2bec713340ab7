"""The benchmark's workloads: their inputs, the timed calls into the
library, and the checks on every output.

Each workload builds a list of items from a seed (``build``), runs one
item at a time through the library's public functions (``run``; this is
the timed part), and afterwards checks all outputs (``check``) against
values recorded in ``expected.json`` and against invariants that hold
for any seed.  ``counts`` and ``coverage`` describe what was computed.
"""

from __future__ import annotations

import json
from collections import Counter
from math import prod
from pathlib import Path

from hypertutte import crapo, delta, fixture_path, harness, hypertrees, jaeger
from hypertutte import load_path, tutte

import instances

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


class Item:
    """One instance of a workload; ``tag`` names its expected-value entry."""

    def __init__(self, name: str, g, tag=None, search=False):
        self.name = name
        self.g = g
        self.tag = tag if tag is not None else name
        self.search = search


def hypertree_set(g) -> tuple:
    return hypertrees.enumerate_hypertrees(g)


def spanning_tree_count(g) -> int:
    return len(hypertrees.all_spanning_trees(g))


def _index_order(g) -> tuple:
    return tuple(f"e{j}" for j in range(g.emerald_count))


def box_around(bases, below: int, above: int) -> list:
    """Per-coordinate [min - below, max + above] over a set of vectors."""
    return [
        (min(b[i] for b in bases) - below, max(b[i] for b in bases) + above)
        for i in range(len(next(iter(bases))))
    ]


def box_size(box) -> int:
    return prod(hi - lo + 1 for lo, hi in box)


def _polynomial_checks(g, poly_text: str, expected: dict) -> list:
    """Recorded polynomial, T(1,1) = #hypertrees, and agreement with the
    fixed-order activity sum."""
    problems = []
    hs = hypertree_set(g)
    if len(hs) != expected["hypertrees"]:
        problems.append(f"{len(hs)} hypertrees, expected {expected['hypertrees']}")
    if poly_text != expected["poly"]:
        problems.append(f"polynomial {poly_text} != recorded {expected['poly']}")
    fixed = tutte.tutte_from_order(g, _index_order(g))
    if str(fixed) != poly_text:
        problems.append(f"fixed-order sum {fixed} != embedding sum {poly_text}")
    if fixed.evaluate(1, 1) != len(hs):
        problems.append(f"T(1,1) = {fixed.evaluate(1, 1)} != {len(hs)} hypertrees")
    return problems


def _histogram(values) -> dict:
    return {str(k): n for k, n in sorted(Counter(values).items())}


def coverage(items) -> dict:
    """Sizes, spanning-tree counts and a hypertree-count histogram, with
    trivial instances (at most one hypertree) counted separately."""
    counts = [len(hypertree_set(it.g)) for it in items]
    trees = [spanning_tree_count(it.g) for it in items]
    return {
        "instances": len(items),
        "violet_nodes": _histogram(it.g.violet_count for it in items),
        "emerald_nodes": _histogram(it.g.emerald_count for it in items),
        "edges": _histogram(len(it.g.edges) for it in items),
        "spanning_trees": {"min": min(trees), "max": max(trees), "total": sum(trees)},
        "trivial": sum(1 for c in counts if c <= 1),
        "hypertree_histogram": _histogram(c for c in counts if c > 1),
    }


class KabLadder:
    """Embedding polynomial of complete bipartite K_{a,b} under seeded
    rotations and bases: large instances, Jaeger-filter bound."""

    name = "kab-ladder"
    rungs = (((4, 4), 12), ((4, 5), 1))
    skipped = (
        {"instance": "K5,5", "spanning_trees": 390_625, "skipped": "budget"},
        {"instance": "K5,6", "spanning_trees": 4_050_000, "skipped": "budget"},
    )

    def build(self, seed) -> list:
        return [
            Item(f"K{a},{b}#{i}", instances.complete_bipartite(a, b, f"{seed}:K{a},{b}:{i}"),
                 tag=f"K{a},{b}")
            for (a, b), copies in self.rungs
            for i in range(copies)
        ]

    def run(self, item):
        return tutte.tutte_embedding(item.g)

    def check(self, items, outputs, expected) -> list:
        problems = []
        first = {}
        for item, poly in zip(items, outputs):
            want = expected[item.tag]
            found = _polynomial_checks(item.g, str(poly), want)
            if spanning_tree_count(item.g) != want["spanning_trees"]:
                found.append(f"{spanning_tree_count(item.g)} spanning trees")
            ref = first.setdefault(item.tag, poly)
            if poly != ref:
                found.append(f"differs from another embedding of {item.tag}")
            problems += [(item.name, p) for p in found]
        return problems

    def counts(self, items, outputs) -> dict:
        return {"hypertrees.count": sum(len(hypertree_set(it.g)) for it in items)}


class ConjectureSweep:
    """Violet-prime and violet order polynomials on many small and medium
    random instances: per-instance overhead."""

    name = "conjecture-sweep"
    size = 200
    skipped = ()

    def build(self, seed) -> list:
        return [
            Item(f"G{i}", instances.embed(nv, ne, edges, f"{seed}:{i}"), tag=i)
            for i, (nv, ne, edges) in enumerate(instances.sweep_graphs(self.size))
        ]

    def run(self, item):
        return harness.test_violet_prime(item.g), harness.test_violet(item.g)

    def check(self, items, outputs, expected) -> list:
        problems = []
        for item, (prime, plain) in zip(items, outputs):
            found = []
            if prime.get("kind") != "violet-prime" or plain.get("kind") != "violet":
                found.append("wrong report kinds")
            reference = prime.get("polynomial", prime.get("embedding"))
            if prime["verdict"] not in ("EQUAL", "COUNTEREXAMPLE"):
                found.append(f"violet-prime verdict {prime['verdict']}")
            if plain["verdict"] == "COUNTEREXAMPLE":
                if plain["embedding"] != reference:
                    found.append("violet report disagrees on the embedding polynomial")
            elif plain["verdict"] != "EQUAL":
                found.append(f"violet verdict {plain['verdict']}")
            found += _polynomial_checks(item.g, reference, expected[item.tag])
            problems += [(item.name, p) for p in found]
        return problems

    def counts(self, items, outputs) -> dict:
        return {
            "hypertrees.count": sum(len(hypertree_set(it.g)) for it in items),
            "harness.counterexamples": sum(
                r["verdict"] == "COUNTEREXAMPLE" for pair in outputs for r in pair
            ),
            "harness.violet_prime_counterexamples": sum(
                prime["verdict"] == "COUNTEREXAMPLE" for prime, _ in outputs
            ),
        }


def embedding_assignment(g):
    """The hypergraphic polymatroid of ``g`` and its embedding-activity
    assignment, as the Delta layer expects it."""
    P = delta.bases_from_hypertrees(g)
    assignment = {}
    for h in sorted(P.bases):
        rec = jaeger.embedding_activities(g, h)
        ni, ne = delta.nontrivial(P, h, rec.internal, rec.external)
        assignment[h] = delta.BasisActivity(rec.internal, rec.external, ni, ne)
    return P, assignment


class LatticeCertify:
    """Crapo partition, corank-nullity series and Delta certificates on the
    bundled figures and one K3,4: box sweeps and decision-tree search."""

    name = "lattice-certify"
    series_bounds = (3, 3)
    skipped = (
        {"instance": "fig1", "step": "exhaustive_delta_search",
         "decision_trees": 1_658_880, "skipped": "budget"},
    )

    def build(self, seed) -> list:
        # Fixed certificates: the inputs do not depend on the seed, so every
        # run checks the same boxes and the same decision-tree spaces.
        items = [
            Item(name, load_path(fixture_path(f"{name}.hg")), search=name in ("fig2", "fig5"))
            for name in ("fig1", "fig2", "fig4", "fig5")
        ]
        items.append(Item("K3,4", instances.complete_bipartite(3, 4, "K3,4"), search=True))
        return items

    def run(self, item):
        g = item.g
        out = {
            "crapo": crapo.verify_crapo_partition(g),
            "series": tutte.series_identity_check(g, *self.series_bounds),
        }
        P, assignment = embedding_assignment(g)
        out["delta_crapo"] = delta.crapo_verify(P, assignment)
        if item.search:
            out["delta_search"] = delta.exhaustive_delta_search(P, assignment)
        out["P"], out["assignment"] = P, assignment
        return out

    def _boxes(self, item, out) -> dict:
        hs = hypertree_set(item.g)
        imax, jmax = self.series_bounds
        return {
            "crapo": box_size(box_around(hs, 2, 2)),
            "series": box_size(box_around(hs, imax, jmax)),
            "delta_crapo": box_size(box_around(out["P"].bases, 2, 2)),
        }

    def check(self, items, outputs, expected) -> list:
        problems = []
        for item, out in zip(items, outputs):
            want = expected[item.tag]
            boxes = self._boxes(item, out)
            found = []
            if len(hypertree_set(item.g)) != want["hypertrees"]:
                found.append(f"{len(hypertree_set(item.g))} hypertrees")
            for key in ("crapo", "delta_crapo"):
                report = out[key]
                if report["status"] != "PASS" or report["violations"]:
                    found.append(f"{key}: {report['status']}")
                if not 0 < boxes[key] == report["points"] == want[f"{key}_points"]:
                    found.append(f"{key}: {report['points']} points, box {boxes[key]}")
            if out["series"]["status"] != "PASS":
                found.append(f"series identity: {out['series']}")
            if item.search:
                tree = out["delta_search"]
                if ("found" if tree is not None else "none") != want["delta_search"]:
                    found.append(f"delta search outcome {tree}")
                if tree is not None:
                    found += self._check_tree(tree, out["P"], out["assignment"])
            problems += [(item.name, p) for p in found]
        return problems

    @staticmethod
    def _check_tree(tree, P, target) -> list:
        """A found decision tree must reproduce every non-trivial activity set."""
        try:
            delta.validate_decision_tree(tree, P)
        except delta.InvalidDecisionTree as exc:
            return [f"invalid decision tree: {exc}"]
        got = delta.assignment_from_delta(tree, P)
        return [
            f"decision tree misses basis {b}"
            for b, rec in target.items()
            if (got[b].nontrivial_internal, got[b].nontrivial_external)
            != (rec.nontrivial_internal, rec.nontrivial_external)
        ]

    def counts(self, items, outputs) -> dict:
        boxes = [self._boxes(it, out) for it, out in zip(items, outputs)]
        crapo_points = sum(out["crapo"]["points"] for out in outputs)
        delta_points = sum(out["delta_crapo"]["points"] for out in outputs)
        box_points = sum(b["series"] for b in boxes)
        return {
            "hypertrees.count": sum(len(hypertree_set(it.g)) for it in items),
            "crapo.points": crapo_points,
            "delta.crapo_points": delta_points,
            "tutte.box_points": box_points,
            "lattice.points": crapo_points + delta_points + box_points,
        }


WORKLOADS = {w.name: w for w in (KabLadder(), ConjectureSweep(), LatticeCertify())}
