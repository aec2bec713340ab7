"""Randomized instance generation and conjecture testing.

random_instance builds connected bipartite ribbon graphs with shuffled
rotations, deterministically per seed.  test_violet_prime compares the
Tutte sum under the orders of kind "violet-prime" (hypertrees.orders)
against the embedding polynomial (an open conjecture: reported, not
assumed); test_violet does so for kind "violet", which is known to
disagree on some instances.  The reference they compare against is
computed as the fixed-order sum under the index order, which slices the
hypertree set and reads no activity: that sum is T (Bernardi, Kálmán
and Postnikov), and so is the embedding sum (the paper's theorem), so
the reference is the embedding polynomial, as the tests check; a report
still names it "embedding".  Each sum is compared first as its counter
{(oi, oe, ie): n} (tutte.slice_triples for the reference,
tutte.activity_triples for the candidate), which one linear map expands
into the polynomial (polynomial.expand_triples): equal counters decide
EQUAL with no expansion, and only a candidate whose counter differs is
expanded and compared as a polynomial, since different counters may
still expand alike.  The hypertree list comes from the violet search
the orders need, so a run makes one tour search per graph.  random_reports
is the one loop that runs a check over seeded random instances; the
CLI's conjecture command reads it.  The rotation and basis perturbation
under which the tests re-derive the embedding polynomial is in
``tests/oracles.py``.
"""

from __future__ import annotations

import random

from .model import RibbonGraph, violet, emerald
from .hypertrees import cached, orders
from .polymatroid import bases_from_hypertrees
from .polynomial import expand_triples
from . import tutte


class GenerationFailed(RuntimeError):
    """Could not generate a connected instance within the retry budget."""


MAX_VIOLET, MAX_EMERALD, MAX_EDGES = 4, 5, 12


def random_instance(seed: int = 0) -> RibbonGraph:
    """Connected bipartite ribbon graph with at most MAX_VIOLET violet and
    MAX_EMERALD emerald nodes and MAX_EDGES edges, deterministic per seed."""
    rng = random.Random(seed)
    for _ in range(200):
        nv = rng.randint(1, MAX_VIOLET)
        ne = rng.randint(1, MAX_EMERALD)
        # a spanning tree's nv + ne - 1 edges fit: MAX_VIOLET + MAX_EMERALD - 1 <= MAX_EDGES
        m = rng.randint(nv + ne - 1, MAX_EDGES)
        # random spanning tree of the node set first, to force connectivity
        nodes = [violet(i) for i in range(nv)] + [emerald(j) for j in range(ne)]
        rng.shuffle(nodes)
        edges = []
        for idx in range(1, len(nodes)):
            a = nodes[rng.randrange(idx)]
            b = nodes[idx]
            if a[0] == b[0]:
                break  # same color: retry whole instance
            edges.append((a, b) if a[0] == "v" else (b, a))
        else:
            while len(edges) < m:
                edges.append((violet(rng.randrange(nv)), emerald(rng.randrange(ne))))
            rotation = {}
            for k, (v, e) in enumerate(edges):
                rotation.setdefault(v, []).append(k)
                rotation.setdefault(e, []).append(k)
            for rot in rotation.values():
                rng.shuffle(rot)
            b0 = rng.choice(list(rotation))
            beta0 = rng.choice(rotation[b0])
            return RibbonGraph.build(nv, ne, edges, rotation, (b0, beta0))
    raise GenerationFailed(f"no connected instance for seed {seed}")


def _describe(g: RibbonGraph) -> dict:
    return {
        "violet": g.violet_count,
        "emerald": g.emerald_count,
        "edges": [[e[0], e[1]] for e in g.edges],
        "text": g.render(),
    }


def _reference(g: RibbonGraph) -> tuple:
    """The fixed-order counter of g under the index order, its polynomial
    and that polynomial's text."""
    counts = tutte.slice_triples(g, bases_from_hypertrees(g).ground)
    reference = expand_triples(counts)
    return counts, reference, str(reference)


def _compare(g: RibbonGraph, kind: str) -> dict:
    """Compare the Tutte sum under the orders of ``kind`` to the embedding
    polynomial, whose counter, polynomial and text are computed once per
    graph (:func:`_reference`).  Equal counters expand to equal
    polynomials, so the candidate is expanded only when its counter
    differs; a counterexample reports it under ``kind`` in snake case.
    The orders come first, so the hypertree list is read off their
    search's table."""
    order_map = orders(g, kind)
    counts, reference, rendered = cached(g, "reference", _reference)
    triples = tutte.activity_triples(g, order_map)
    if triples != counts:
        candidate = expand_triples(triples)
        if candidate != reference:
            return {
                "kind": kind,
                "verdict": "COUNTEREXAMPLE",
                "instance": _describe(g),
                "embedding": rendered,
                kind.replace("-", "_"): str(candidate),
            }
    return {"kind": kind, "verdict": "EQUAL", "polynomial": rendered}


def test_violet_prime(g: RibbonGraph) -> dict:
    """Compare the violet-prime-order polynomial to the embedding one."""
    return _compare(g, "violet-prime")


def test_violet(g: RibbonGraph) -> dict:
    """Same comparison for the plain violet-node order."""
    return _compare(g, "violet")


def random_reports(check, trials: int, seed: int = 0):
    """Yield ``check`` of the random instances of seeds ``seed`` ..
    ``seed + trials - 1`` in order, each report tagged with its seed."""
    for s in range(seed, seed + trials):
        report = check(random_instance(seed=s))
        report["seed"] = s
        yield report

