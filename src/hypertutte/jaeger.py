"""Jaeger trees, hyperedge orders, and activity computations.

A (emerald) Jaeger tree is a spanning tree whose tour meets every
non-tree edge first at its emerald endpoint; each hypertree has exactly
one, the least of its representatives in the tour order.  The violet
variant uses the violet-endpoint-first rule.  Both come, with the
hypertrees themselves, from one depth-first search per graph and
variant over the tour of the tree under construction
(:func:`hypertrees.tour_search`); a vector it did not reach is not a
hypertree and raises :class:`NotAHypertree`.  The recognisers that read
the definition off a tree's tour are the test oracle, in
``tests/oracles.py``.  The tour of the Jaeger tree induces the emerald
order <_h, and the violet tours induce two further orders; the search
records each order along the branch that built its tree, so no tour is
walked again.  Activities under an order of all emeralds are delta's
MIN rule on the hypertree set, as a :class:`delta.BasisActivity` of bit
masks over the emeralds' coordinates: mask tests on each hypertree's
exchange table, built once per hypertree whatever the number of
orders.  Names appear only where the CLI prints a record.  The lookups
by hypertree (the Jaeger trees, :func:`order_emerald`,
:func:`order_violet_prime`) check their vector first; the embedding
and violet Tutte sums and :func:`embedding_assignment` read the orders
straight off the searches' tables.  The plain violet node order is read
off the violet search by ``harness.violet_polynomial`` alone.
"""

from __future__ import annotations

from .model import RibbonGraph
from .hypertrees import jaeger_trees, well_formed
from .delta import BasisActivity, activity_masks, assignment_from_orders
from .delta import bases_from_hypertrees, check_order


class NotAHypertree(ValueError):
    """The given vector is not a hypertree of this ribbon graph."""


def _walked(g, h, variant):
    """The Jaeger tree of h, as a sorted tuple of edge ids, and the two
    emerald orders of its tour, as the search of the variant found them
    (:func:`hypertrees.jaeger_trees`).  Only a well-formed h is looked
    up: (0.0, 2) and (False, 2) equal and hash like (0, 2) but are no
    hypertrees."""
    h = tuple(h)
    found = jaeger_trees(g, variant)
    if not well_formed(g, h) or h not in found:
        raise NotAHypertree(f"{h} is not a hypertree")
    return found[h]


def jaeger_tree_of(g: RibbonGraph, h) -> frozenset:
    """The unique Jaeger tree representing h."""
    return frozenset(_walked(g, h, "emerald")[0])


def violet_jaeger_tree_of(g: RibbonGraph, h) -> frozenset:
    return frozenset(_walked(g, h, "violet")[0])


def order_emerald(g: RibbonGraph, h) -> tuple:
    """The order <_h, read off the tour of the Jaeger tree of h."""
    return _walked(g, h, "emerald")[1]


def order_violet_prime(g: RibbonGraph, h) -> tuple:
    return _walked(g, h, "violet")[2]


def activities(g: RibbonGraph, h, order) -> BasisActivity:
    """Internal/external activities of h under a total emerald order,
    which must list every emerald once (:func:`delta.check_order`), as
    bit masks over the emeralds' coordinates.

    e is internal iff no earlier f makes h - 1_e + 1_f a hypertree, and
    external iff no earlier f makes h + 1_e - 1_f a hypertree (the MIN
    rule of :func:`delta.activity_masks` on the hypertree set).
    The order minimum is always both.
    """
    _walked(g, h, "emerald")  # the membership check
    P = bases_from_hypertrees(g)
    h = tuple(h)
    check_order(P, order)
    return BasisActivity.of(P, h, *activity_masks(P, h, order))


def embedding_activities(g: RibbonGraph, h) -> BasisActivity:
    """Activities of h under its own tour order <_h."""
    return activities(g, h, order_emerald(g, h))


def embedding_assignment(g: RibbonGraph):
    """The hypergraphic polymatroid of g and the embedding activities of
    every hypertree, as :mod:`delta` activity assignments."""
    P = bases_from_hypertrees(g)
    return P, assignment_from_orders(P, {h: found[1] for h, found in jaeger_trees(g).items()})
