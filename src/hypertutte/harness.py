"""Randomized instance generation and conjecture testing.

random_instance builds connected bipartite ribbon graphs with shuffled
rotations, deterministically per seed.  test_violet_prime compares the
Tutte sum (tutte.tutte_sum) under the orders of kind "violet-prime"
(hypertrees.orders) against the embedding polynomial (an open
conjecture: reported, not assumed); test_violet does so for kind
"violet", which is known to disagree on some instances.  random_reports
is the one loop that runs a check over seeded random instances; the
CLI's conjecture command reads it.  The rotation and basis perturbation
under which the tests re-derive the embedding polynomial is in
``tests/oracles.py``.
"""

from __future__ import annotations

import random

from .model import RibbonGraph, violet, emerald
from .hypertrees import cached, orders
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


def _compare(g: RibbonGraph, kind: str) -> dict:
    """Compare the Tutte sum under the orders of ``kind`` to the embedding
    polynomial, rendered once per graph; a counterexample reports the
    candidate under ``kind`` in snake case."""
    reference = tutte.tutte_embedding(g)
    candidate = tutte.tutte_sum(g, orders(g, kind))
    rendered = cached(g, "rendered embedding", lambda g: str(reference))
    if reference == candidate:
        return {"kind": kind, "verdict": "EQUAL", "polynomial": rendered}
    return {
        "kind": kind,
        "verdict": "COUNTEREXAMPLE",
        "instance": _describe(g),
        "embedding": rendered,
        kind.replace("-", "_"): str(candidate),
    }


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

