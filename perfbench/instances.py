"""Seeded instance generators owned by the benchmark.

The benchmark builds its own inputs so that a change to the library's
generators (``harness.random_instance``) cannot silently change a
workload.  Everything here is deterministic in its seeds and hands the
library nothing but finished ``RibbonGraph`` objects.

Underlying graphs and embeddings are drawn from separate seeds: the
polynomial, the hypertree set and most of the work depend only on the
underlying graph, while the rotation system and basis (the embedding)
decide tours, Jaeger trees and the violet orders.
"""

from __future__ import annotations

import random

from hypertutte.model import RibbonGraph, emerald, violet

# Seed of the fixed size schedule and underlying graphs of the sweep.
SWEEP_GRAPH_SEED = 20231031


def embed(nv: int, ne: int, edges, seed) -> RibbonGraph:
    """Ribbon graph on ``edges`` with a shuffled rotation at every node and
    a random basis pair, both drawn from ``seed``."""
    rng = random.Random(seed)
    rotation = {}
    for k, (v, e) in enumerate(edges):
        rotation.setdefault(v, []).append(k)
        rotation.setdefault(e, []).append(k)
    nodes = sorted(rotation)
    for node in nodes:
        rng.shuffle(rotation[node])
    b0 = rng.choice(nodes)
    beta0 = rng.choice(rotation[b0])
    return RibbonGraph.build(nv, ne, edges, rotation, (b0, beta0))


def complete_bipartite(a: int, b: int, seed) -> RibbonGraph:
    """K_{a,b}: ``a`` violet and ``b`` emerald nodes, edges in (violet,
    emerald) index order, seeded rotations and basis."""
    edges = [(violet(i), emerald(j)) for i in range(a) for j in range(b)]
    return embed(a, b, edges, seed)


def bipartite_edges(nv: int, ne: int, m: int, rng: random.Random) -> list:
    """Edge list of a connected bipartite graph with ``m`` edges.

    Starts from one violet-emerald edge, then attaches every further node
    (in shuffled order) to an already placed node of the opposite colour,
    which always exists, and finally adds ``m - nv - ne + 1`` random extra
    edges (parallel edges allowed).
    """
    if m < nv + ne - 1:
        raise ValueError("too few edges for a connected graph")
    placed = {"v": [violet(0)], "e": [emerald(0)]}
    edges = [(violet(0), emerald(0))]
    rest = [violet(i) for i in range(1, nv)] + [emerald(j) for j in range(1, ne)]
    rng.shuffle(rest)
    for node in rest:
        colour = node[0]
        other = rng.choice(placed["e" if colour == "v" else "v"])
        edges.append((node, other) if colour == "v" else (other, node))
        placed[colour].append(node)
    while len(edges) < m:
        edges.append((violet(rng.randrange(nv)), emerald(rng.randrange(ne))))
    return edges


def sweep_graphs(count: int, max_violet=5, max_emerald=6, max_edges=16) -> list:
    """``count`` underlying graphs ``(nv, ne, edges)``, the same for every
    run.  Single-node colour classes are excluded: they only ever have one
    hypertree."""
    rng = random.Random(SWEEP_GRAPH_SEED)
    graphs = []
    while len(graphs) < count:
        nv = rng.randint(2, max_violet)
        ne = rng.randint(2, max_emerald)
        lo = nv + ne - 1
        if lo > max_edges:
            continue
        m = rng.randint(lo, max_edges)
        graphs.append((nv, ne, bipartite_edges(nv, ne, m, rng)))
    return graphs
