"""The embedding's activity records, and the one membership check.

The embedding activities of a hypertree h are read off its Jaeger tree
(a spanning tree whose tour meets every non-tree edge first at its
emerald end; each hypertree has exactly one): the tour induces the
emerald order <_h, and the activities under it are polymatroid's MIN
rule on the hypertree set, as a :class:`polymatroid.BasisActivity` of
bit masks over the emeralds' coordinates.  The Jaeger trees and their
orders come from one search per graph and variant
(:func:`hypertrees.tour_search`); the orders of kind "embedding" are
read off its table by :func:`hypertrees.orders`.  The activities are
mask tests on each hypertree's exchange table, built once per hypertree
whatever the number of orders, and once for all the live embeddings of
a hypergraph.  Names appear only where the CLI prints a record.
:func:`embedding_assignment` builds every record once per graph and
shares it, so no caller may mutate it; :func:`embedding_activities`
looks one vector up there, and only it checks that the vector is a
hypertree first, raising :class:`NotAHypertree` otherwise.
"""

from __future__ import annotations

from .model import RibbonGraph
from .hypertrees import cached, orders, well_formed
from .polymatroid import BasisActivity, assignment_from_orders, bases_from_hypertrees


class NotAHypertree(ValueError):
    """The given vector is not a hypertree of this ribbon graph."""


def embedding_activities(g: RibbonGraph, h) -> BasisActivity:
    """Activities of h under its own tour order <_h.  Only a well-formed
    h is looked up: (0.0, 2) and (False, 2) equal and hash like (0, 2)
    but are no hypertrees."""
    h = tuple(h)
    assignment = embedding_assignment(g)[1]
    if not well_formed(g, h) or h not in assignment:
        raise NotAHypertree(f"{h} is not a hypertree")
    return assignment[h]


def embedding_assignment(g: RibbonGraph):
    """The hypergraphic polymatroid of g and the embedding activities of
    every hypertree, as :mod:`polymatroid` activity assignments: built
    once per graph (:func:`hypertrees.cached`) and shared, never mutated."""
    P = bases_from_hypertrees(g)
    return P, cached(g, "embedding assignment",
                     lambda g: assignment_from_orders(P, orders(g, "embedding")))
