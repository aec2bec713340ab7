"""The embedding's activity records, and the one membership check.

The embedding activities of a hypertree h are read off its Jaeger tree
(a spanning tree whose tour meets every non-tree edge first at its
emerald end; each hypertree has exactly one): the tour induces the
emerald order <_h, and the activities under it are polymatroid's MIN
rule on the hypertree set, as a :class:`polymatroid.BasisActivity` of
bit masks over the emeralds' coordinates.  The Jaeger trees and their
orders come from one search per graph and variant
(:func:`hypertrees.tour_search`), reached only through its tables
(:func:`hypertrees.jaeger_trees`); the activities are mask tests on each
hypertree's exchange table, built once per hypertree whatever the number
of orders, and once for all the live embeddings of a hypergraph.  Names
appear only where the CLI prints a record.  :func:`embedding_assignment`
reads every hypertree's order off the emerald table at once; only
:func:`embedding_activities`, which answers one vector, checks that it
is a hypertree first and raises :class:`NotAHypertree` otherwise.
"""

from __future__ import annotations

from .model import RibbonGraph
from .hypertrees import jaeger_trees, well_formed
from .polymatroid import BasisActivity, activity_masks, assignment_from_orders, bases_from_hypertrees


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
    every hypertree, as :mod:`polymatroid` activity assignments."""
    P = bases_from_hypertrees(g)
    return P, assignment_from_orders(P, {h: found[1] for h, found in jaeger_trees(g).items()})
