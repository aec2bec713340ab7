"""Jaeger trees, hyperedge orders, and activity computations.

A (emerald) Jaeger tree is a spanning tree whose tour meets every
non-tree edge first at its emerald endpoint; each hypertree has exactly
one, the least of its representatives in the tour order, and
:func:`hypertrees.greedy_tree` builds it along its own tour, in
polynomial time, moving a witness spanning tree by matroid intersection.
The walk also decides membership: a vector that is not a hypertree has
no first witness and raises :class:`NotAHypertree`, with no 2^k subset
scan.  The violet variant uses the violet-endpoint-first rule.  The
recognisers that read the definition off a tree's tour are the test
oracle, in ``tests/oracles.py``.  Activities of a hypertree are
computed relative to a total order on the emerald nodes; the tour of
the Jaeger tree induces the order <_h, and the violet tours induce two
further orders.  Each order
is recorded by the same walk that built its tree, so computing a
polynomial walks the tour of each Jaeger tree once, and the emerald and
violet walks of a hypertree start from one shared first witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import RibbonGraph
from .hypertrees import cached, first_witness, greedy_tree, well_formed
from .delta import assignment_from_orders, bases_from_hypertrees, min_rule_activities


class NotAHypertree(ValueError):
    """The given vector is not a hypertree of this ribbon graph."""


@dataclass(frozen=True)
class ActivityRecord:
    """Internal/external activity sets of one hypertree (emerald names)."""

    internal: frozenset
    external: frozenset

    @property
    def oi(self) -> int:
        return len(self.internal - self.external)

    @property
    def oe(self) -> int:
        return len(self.external - self.internal)

    @property
    def ie(self) -> int:
        return len(self.internal & self.external)


def _walked(g, h, variant):
    """The Jaeger tree of h, as a sorted tuple of edge ids, and the two
    emerald orders its walk records (:func:`hypertrees.greedy_tree`): by
    first appearance as the current node, and as the emerald end of the
    current edge.  Built once per graph, hypertree and variant.  The
    emerald and violet walks of h start from one first witness: the
    first of them builds it and keeps it, as a tuple of edge ids, and the
    second takes it and drops it.  Only a well-formed h reaches the
    caches: (0.0, 2) equals and hashes like (0, 2) but is no hypertree."""
    h = tuple(h)
    if not well_formed(g, h):
        raise NotAHypertree(f"{h} is not a hypertree")
    walked = cached(g, f"{variant} Jaeger trees", lambda g: {})
    if h not in walked:
        firsts = cached(g, "first witnesses", lambda g: {})
        if h in firsts:  # the other variant has walked h
            first = firsts.pop(h)
        else:
            first = first_witness(g, h)
            if first is None:
                raise NotAHypertree(f"{h} is not a hypertree")
            firsts[h] = first
        tree, *orders = greedy_tree(g, h, variant, first)
        walked[h] = (tuple(sorted(tree)), *orders)
    return walked[h]


def jaeger_tree_of(g: RibbonGraph, h) -> frozenset:
    """The unique Jaeger tree representing h."""
    return frozenset(_walked(g, h, "emerald")[0])


def violet_jaeger_tree_of(g: RibbonGraph, h) -> frozenset:
    return frozenset(_walked(g, h, "violet")[0])


def order_emerald(g: RibbonGraph, h) -> tuple:
    """The order <_h, read off the tour of the Jaeger tree of h."""
    return _walked(g, h, "emerald")[1]


def order_violet(g: RibbonGraph, h) -> tuple:
    return _walked(g, h, "violet")[1]


def order_violet_prime(g: RibbonGraph, h) -> tuple:
    return _walked(g, h, "violet")[2]


def activities(g: RibbonGraph, h, order) -> ActivityRecord:
    """Internal/external activities of h under a total emerald order.

    e is internal iff no earlier f makes h - 1_e + 1_f a hypertree, and
    external iff no earlier f makes h + 1_e - 1_f a hypertree (the MIN
    rule of :func:`delta.min_rule_activities` on the hypertree set).
    The order minimum is always both.
    """
    P = bases_from_hypertrees(g)
    h = tuple(h)
    if h not in P.bases:
        raise NotAHypertree(f"{h} is not a hypertree")
    return ActivityRecord(*min_rule_activities(P, h, order))


def embedding_activities(g: RibbonGraph, h) -> ActivityRecord:
    """Activities of h under its own tour order <_h."""
    return activities(g, h, order_emerald(g, h))


def embedding_assignment(g: RibbonGraph):
    """The hypergraphic polymatroid of g and the embedding activities of
    every hypertree, as :mod:`delta` activity assignments."""
    P = bases_from_hypertrees(g)
    return P, assignment_from_orders(P, {h: order_emerald(g, h) for h in P.bases})
