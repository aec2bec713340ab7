"""Spanning trees and their tours.

A spanning tree is a frozenset of edge ids of a :class:`RibbonGraph`.  The
tour of a tree is a walk on darts (half-edges, see :mod:`model`) starting
at the basis dart: at a non-tree edge it turns to the next dart around
the current node (``d -> sigma[d]``), at a tree edge it crosses to the
other end and turns there (``d -> sigma[d ^ 1]``).  It stops right
before the basis dart would recur, having seen every edge twice, once
at each end.  :func:`walk` holds this step rule, the only one in the
package; the tour and the search for Jaeger trees
(:func:`hypertrees.tour_search`) both run on it, the search resuming a
walk at a dart to branch there, with its decided edges to skip.  The
tree order by first tour difference, whose least representative of each
hypertree is its Jaeger tree, is defined for the tests in
``tests/oracles.py``.

Also here: the one contraction/deletion recursion (:func:`_trees`),
which lists the spanning trees.  The classical Tutte polynomial read off
those trees by Tutte's activities, and fundamental cycles, cuts and base
components, are test oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

from .model import RibbonGraph, connected


def is_spanning_tree(g: RibbonGraph, tree: frozenset) -> bool:
    n_nodes = g.violet_count + g.emerald_count
    if len(tree) != n_nodes - 1 or not all(k in range(len(g.edges)) for k in tree):
        return False
    return connected(((k, *g.edges[k]) for k in tree), n_nodes)


def walk(g: RibbonGraph, tree, at=None, skip=()):
    """Yield the tour's darts, from the basis dart or from the dart
    ``at``, up to the basis dart, stepping over those whose edge is in
    ``skip`` without handing them out.

    One step turns to the next dart around the node (``g.sigma``), first
    crossing to the edge's other end if the edge is in the tree.
    ``tree`` and ``skip`` are read at each step, after the dart is handed
    out: a caller may add the edge it was just given to either, and the
    walk then crosses it or steps over its later darts.  A walk resumed
    at a dart of another walk, over copies of its tree and skip set, goes
    on as that walk would with them.
    """
    sigma, start = g.sigma, g.basis_dart
    d = start if at is None else at
    while True:
        k = d >> 1
        if k not in skip:
            yield d
        d = sigma[d ^ 1] if k in tree else sigma[d]
        if d == start:
            return


def tour(g: RibbonGraph, tree: frozenset) -> list[tuple[str, int]]:
    """The tour of ``tree``: the darts of :func:`walk` as (node, edge)
    pairs, 2|edges| of them for a spanning tree.

    The step rule permutes the darts, so the walk closes for any edge
    set; a set that is not a spanning tree gets a shorter closed tour,
    and callers that need a tree check :func:`is_spanning_tree`.
    """
    return [g.node_edge(d) for d in walk(g, tree)]


def enumerate_spanning_trees(g: RibbonGraph):
    """Every spanning tree of g once, in the order of :func:`spanning_trees`."""
    return spanning_trees(((k, v, e) for k, (v, e) in enumerate(g.edges)),
                          g.violet_count + g.emerald_count)


def spanning_trees(edges, n_nodes: int):
    """Yield every spanning tree of a connected multigraph on ``n_nodes``
    nodes given as (edge id, u, v) triples.

    Input loops are set aside: they are in no spanning tree.  Each step
    pivots on the lowest remaining edge id, contracts it first, then
    deletes it unless that disconnects the graph.
    """
    yield from _trees([t for t in edges if t[1] != t[2]], n_nodes, [])


def _trees(edges, n_nodes, chosen):
    if n_nodes <= 1:
        yield frozenset(chosen)
        return
    pivot = min(edges)  # lowest edge id
    k, u, v = pivot
    rest = [t for t in edges if t[0] != k]
    deletable = connected(rest, n_nodes)
    # contract: relabel v to u; the edges parallel to the pivot become loops, dropped
    contracted = [(kk, u if a == v else a, u if b == v else b)
                  for kk, a, b in rest if {a, b} != {u, v}]
    chosen.append(k)
    yield from _trees(contracted, n_nodes - 1, chosen)
    chosen.pop()
    if deletable:
        yield from _trees(rest, n_nodes, chosen)
