"""Spanning trees and their tours.

A spanning tree is a frozenset of edge ids of a :class:`RibbonGraph`.  The
tour of a tree walks the ribbon structure starting at the basis pair: at a
non-tree edge it rotates to the next edge around the current node, at a
tree edge it crosses to the other endpoint and rotates there.  It stops
right before the basis pair would recur, having seen every edge twice.
:func:`walk` holds this step rule, the only one in the package; the tour,
the first tour difference of two trees and the greedy Jaeger walk of
:mod:`hypertrees` all run on it.

Also here: the tree order defined by the first difference of two tours,
fundamental cycles and cuts, base components, and deterministic spanning
tree enumeration by contraction/deletion.
"""

from __future__ import annotations

from .model import RibbonGraph, adjacency, connected, is_emerald, reach


class WrongSide(ValueError):
    """Edge is on the wrong side of the tree for the requested operation."""


class EqualTrees(ValueError):
    """Raised by the tree comparison when both trees are identical."""


def _tree_adjacency(g: RibbonGraph, tree, removed=None) -> dict:
    return adjacency((k, *g.endpoints(k)) for k in tree if k != removed)


def is_spanning_tree(g: RibbonGraph, tree: frozenset) -> bool:
    n_nodes = len(g.nodes)
    if len(tree) != n_nodes - 1 or not all(k in range(len(g.edges)) for k in tree):
        return False
    return connected(((k, *g.endpoints(k)) for k in tree), n_nodes)


def walk(g: RibbonGraph, tree):
    """Yield the tour's (node, edge) steps, starting at the basis.

    ``tree`` is read at each step, after the step is handed out: a caller
    may add the edge it was just given, and the walk then crosses it.
    """
    b0, beta0 = g.basis
    node, edge = b0, beta0
    while True:
        yield node, edge
        if edge in tree:
            node = g.other_end(edge, node)
        edge = g.next_at(node, edge)
        if (node, edge) == (b0, beta0):
            return


def tour(g: RibbonGraph, tree: frozenset) -> list[tuple[str, int]]:
    """The tour of ``tree``: the node-edge pairs of :func:`walk`, 2|edges|
    of them for a spanning tree.

    The step rule permutes the (node, edge) pairs, so the walk closes for
    any edge set; a set that is not a spanning tree gets a shorter closed
    tour, and callers that need a tree check :func:`is_spanning_tree`.
    """
    return list(walk(g, tree))


def first_difference(g: RibbonGraph, t1: frozenset, t2: frozenset):
    """Earliest tour step treated differently by the two trees, or None.

    Both tours produce the same step sequence up to the first pair whose
    edge lies in exactly one tree, so the tour of t1 alone suffices.
    """
    for node, edge in walk(g, t1):
        if (edge in t1) != (edge in t2):
            return (node, edge)
    return None


def tree_less(g: RibbonGraph, t1: frozenset, t2: frozenset) -> bool:
    """Strict tree order: at the first tour difference (x, xy), t1 comes
    first iff x is emerald and xy in t2, or x is violet and xy in t1."""
    diff = first_difference(g, t1, t2)
    if diff is None:
        raise EqualTrees("tree_less requires distinct trees")
    x, xy = diff
    if is_emerald(x):
        return xy in t2
    return xy in t1


def tree_path(g: RibbonGraph, tree: frozenset, start: str, goal: str) -> list[int]:
    """Edge sequence of the unique tree path from start to goal."""
    via = reach(_tree_adjacency(g, tree), start)
    path = []
    n = goal
    while n != start:
        k = via[n]
        path.append(k)
        n = g.other_end(k, n)
    path.reverse()
    return path


def fundamental_cycle(g: RibbonGraph, tree: frozenset, edge: int) -> frozenset:
    """Edge set of the unique cycle of tree + edge (includes ``edge``)."""
    if edge in tree:
        raise WrongSide("fundamental_cycle expects a non-tree edge")
    v, e = g.endpoints(edge)
    return frozenset(tree_path(g, tree, v, e)) | {edge}


def _component(g: RibbonGraph, tree: frozenset, removed: int, root: str) -> frozenset:
    return frozenset(reach(_tree_adjacency(g, tree, removed), root))


def fundamental_cut(g: RibbonGraph, tree: frozenset, edge: int) -> frozenset:
    """Edges crossing the two components of tree - edge (includes ``edge``)."""
    if edge not in tree:
        raise WrongSide("fundamental_cut expects a tree edge")
    v, _ = g.endpoints(edge)
    shore = _component(g, tree, edge, v)
    return frozenset(
        k
        for k, (a, b) in enumerate(g.edges)
        if (a in shore) != (b in shore)
    )


def base_component(g: RibbonGraph, tree: frozenset, edge: int) -> frozenset:
    """Node set of the basis-side component of tree - edge."""
    if edge not in tree:
        raise WrongSide("base_component expects a tree edge")
    return _component(g, tree, edge, g.basis[0])


def enumerate_spanning_trees(g: RibbonGraph):
    """Yield every spanning tree exactly once, in the deterministic order
    of :func:`spanning_trees`."""
    edges = [(k, v, e) for k, (v, e) in enumerate(g.edges)]
    yield from spanning_trees(edges, len(g.nodes))


def spanning_trees(edges, n_nodes: int):
    """Yield the edge-id set of every spanning tree of a connected
    multigraph on ``n_nodes`` nodes given as (edge id, u, v) triples.

    Contraction/deletion recursion pivoting on the lowest remaining edge
    id; the include (contract) branch is explored first.
    """
    yield from _trees(list(edges), n_nodes, [])


def _trees(edges, n_nodes, chosen):
    if n_nodes == 1:
        yield frozenset(chosen)
        return
    pivot = min(edges)  # lowest edge id
    k, u, v = pivot
    rest = [t for t in edges if t[0] != k]
    # contract: relabel v to u, drop loops
    contracted = []
    for kk, a, b in rest:
        a2 = u if a == v else a
        b2 = u if b == v else b
        if a2 != b2:
            contracted.append((kk, a2, b2))
    chosen.append(k)
    yield from _trees(contracted, n_nodes - 1, chosen)
    chosen.pop()
    # delete: only if the graph stays connected
    if connected(rest, n_nodes):
        yield from _trees(rest, n_nodes, chosen)
