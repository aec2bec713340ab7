"""Jaeger trees, hyperedge orders, and activity computations.

A (emerald) Jaeger tree is a spanning tree whose tour meets every
non-tree edge first at its emerald endpoint; each hypertree has exactly
one, the least of its representatives in the tour order.  The violet
variant uses the violet-endpoint-first rule.  Both come, with the
hypertrees themselves, from one depth-first search per graph and
variant over the tour of the tree under construction
(:func:`hypertrees.tour_search`), whose tables
(:func:`hypertrees.jaeger_trees`) are the one way to reach a Jaeger
tree or an order.  The recognisers that read the definition off a
tree's tour are the test oracle, in ``tests/oracles.py``.  The tour of
the Jaeger tree induces the emerald order <_h, and the violet tours
induce two further orders; the search records each order along the
branch that built its tree, so no tour is walked again.  Activities
under an order of all emeralds are delta's MIN rule on the hypertree
set, as a :class:`delta.BasisActivity` of bit masks over the emeralds'
coordinates: mask tests on each hypertree's exchange table, built once
per hypertree whatever the number of orders.  Names appear only where
the CLI prints a record.  :func:`embedding_assignment` reads every
hypertree's order off the emerald table at once; only
:func:`embedding_activities`, which answers one vector, checks that it
is a hypertree first and raises :class:`NotAHypertree` otherwise.  The
plain violet node order is read off the violet search by
``harness.violet_polynomial`` alone.
"""

from __future__ import annotations

from .model import RibbonGraph
from .hypertrees import jaeger_trees, well_formed
from .delta import BasisActivity, activity_masks, assignment_from_orders, bases_from_hypertrees


class NotAHypertree(ValueError):
    """The given vector is not a hypertree of this ribbon graph."""


def embedding_activities(g: RibbonGraph, h) -> BasisActivity:
    """Activities of h under its own tour order <_h.  Only a well-formed
    h is looked up: (0.0, 2) and (False, 2) equal and hash like (0, 2)
    but are no hypertrees."""
    h = tuple(h)
    found = jaeger_trees(g)
    if not well_formed(g, h) or h not in found:
        raise NotAHypertree(f"{h} is not a hypertree")
    P = bases_from_hypertrees(g)
    return BasisActivity.of(P, h, *activity_masks(P, h, found[h][1]))


def embedding_assignment(g: RibbonGraph):
    """The hypergraphic polymatroid of g and the embedding activities of
    every hypertree, as :mod:`delta` activity assignments."""
    P = bases_from_hypertrees(g)
    return P, assignment_from_orders(P, {h: found[1] for h, found in jaeger_trees(g).items()})
