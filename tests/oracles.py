"""Brute-force oracles for the tests: definitions computed the slow,
obvious way, against which the package's direct constructions are
checked.  No command and no benchmark workload runs them.

- Spanning-tree listing by degree vector (:func:`representatives`) and
  the hypertree set grown by single exchange moves
  (:func:`hypertrees_by_exchange`).
- The Jaeger-tree recognisers :func:`is_jaeger` and
  :func:`is_violet_jaeger`, read off a tree's tour.
- The tree order by first tour difference (:func:`first_difference`,
  :func:`tree_less`).
- Decision trees listed, counted and drawn at random
  (:func:`enumerate_decision_trees`, :func:`count_decision_trees`,
  :func:`random_decision_tree`).
"""

from __future__ import annotations

import itertools

from hypertutte import tours
from hypertutte.delta import DecisionTree
from hypertutte.hypertrees import all_spanning_trees, degree_vector, is_hypertree
from hypertutte.model import RibbonGraph, is_emerald
from hypertutte.tours import tour, walk


# -- hypertrees ----------------------------------------------------------------


def representatives(g: RibbonGraph, h) -> list[frozenset]:
    """All spanning trees whose degree vector equals h."""
    h = tuple(h)
    return [t for t in all_spanning_trees(g) if degree_vector(g, t) == h]


def hypertrees_by_exchange(g: RibbonGraph) -> tuple:
    """Hypertree set via BFS over single exchange moves; cross-check path.

    Seeded from one degree vector; every h +/- (1_e - 1_f) passing the
    membership test is explored.  Agreement with enumerate_hypertrees is
    asserted by the test suite, not assumed here.
    """
    seed = degree_vector(g, next(iter(tours.enumerate_spanning_trees(g))))
    seen = {seed}
    queue = [seed]
    ne = g.emerald_count
    while queue:
        h = queue.pop()
        for e in range(ne):
            if h[e] == 0:
                continue
            for f in range(ne):
                if f == e:
                    continue
                h2 = list(h)
                h2[e] -= 1
                h2[f] += 1
                h2 = tuple(h2)
                if h2 not in seen and is_hypertree(g, h2):
                    seen.add(h2)
                    queue.append(h2)
    return tuple(sorted(seen))


# -- Jaeger trees --------------------------------------------------------------


def _first_seen(g: RibbonGraph, tree: frozenset) -> dict:
    """First tour index of every (node, edge) pair."""
    first = {}
    for i, step in enumerate(tour(g, tree)):
        if step not in first:
            first[step] = i
    return first


def is_jaeger(g: RibbonGraph, tree: frozenset) -> bool:
    first = _first_seen(g, tree)
    for k, (v, e) in enumerate(g.edges):
        if k not in tree and first[(v, k)] < first[(e, k)]:
            return False
    return True


def is_violet_jaeger(g: RibbonGraph, tree: frozenset) -> bool:
    first = _first_seen(g, tree)
    for k, (v, e) in enumerate(g.edges):
        if k not in tree and first[(e, k)] < first[(v, k)]:
            return False
    return True


# -- the tree order ------------------------------------------------------------


class EqualTrees(ValueError):
    """Raised by the tree comparison when both trees are identical."""


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


# -- decision trees ------------------------------------------------------------


def count_decision_trees(ground, ranks) -> int:
    """Number of decision trees: T(S) = sum_e (r(e)+1) powers of subtrees."""
    memo = {}

    def count(elems):
        if len(elems) <= 1:
            return 1
        if elems in memo:
            return memo[elems]
        total = 0
        for e in elems:
            rest = tuple(x for x in elems if x != e)
            total += count(rest) ** (ranks[e] + 1)
        memo[elems] = total
        return total

    return count(tuple(ground))


def enumerate_decision_trees(ground, ranks):
    """All decision trees over the ground set, deterministically ordered."""

    def gen(elems):
        if len(elems) == 1:
            yield DecisionTree(elems[0], ())
            return
        for e in elems:
            rest = tuple(x for x in elems if x != e)
            subtrees = list(gen(rest))
            for combo in itertools.product(subtrees, repeat=ranks[e] + 1):
                yield DecisionTree(e, combo)

    yield from gen(tuple(ground))


def random_decision_tree(ground, ranks, rng) -> DecisionTree:
    """A uniformly structured random decision tree (labels chosen
    uniformly at each node, subtrees drawn independently)."""

    def gen(elems):
        e = elems[rng.randrange(len(elems))]
        rest = tuple(x for x in elems if x != e)
        if not rest:
            return DecisionTree(e, ())
        return DecisionTree(e, tuple(gen(rest) for _ in range(ranks[e] + 1)))

    return gen(tuple(ground))
