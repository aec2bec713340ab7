"""Manhattan distances to the hypertree set and Crapo intervals.

The Crapo interval of a basis b under an activity assignment collects
the lattice points that exceed b only at externally active coordinates
and fall below it only at internally active ones; the decider reads
the two bit masks of b's activity record (polymatroid.BasisActivity) as they
are.  These intervals partition Z^E, and the covering basis attains
the one-sided distances d1< and d1> simultaneously.  verify_assignment
checks both claims on a box, by default the bases' range widened by 2
(default_box), in the one PASS/FAIL report, which the embedding
activities' (verify_crapo_partition) and any Delta assignment's
(delta.crapo_verify) extend.

One recursion, _violations, decides and lists every box.  Each
interval's part of the box is a product of ranges (_region), and the
box is cut, region by region, at a boundary of a part that meets a
sub-box without containing it, until every part that meets a sub-box
contains it.  Every point of such a leaf is a violation when the leaf
lies in no part or in several; in one part, its basis either attains
both distances on the whole leaf or is tested point by point.
Attainment reads the basis's exchange table in O(n) bit tests, by
Murota's local optimality theorem (_attains), exact only for an
assignment of exactly P's bases, each once: verify_assignment refuses
any other.  A leaf that passes is dropped before any of its points is
visited, so a box that passes visits no lattice point whatever its
size; the leaves left to list are held to the budget together, and
the violations are reported in itertools.product order.

This module holds the package's box rules: box_around is the one box
rule, box_size the one empty-side check, check_budget the one budget
check, run only where points are visited (the lister, and
tutte.corank_nullity, the one walk of lattice points, on its table's
cells and on the prefixes its walk pops), and _region the one rule
for an interval's part of a box.  The point-by-point distances and
interval membership that the tests check the lister and the
corank-nullity table against, and the attainment test against every
other center that the exchange-table test is checked against, are in
``tests/oracles.py``.
"""

from __future__ import annotations

import itertools
from math import prod

from .model import RibbonGraph
from .hypertrees import enumerate_hypertrees
from .jaeger import embedding_assignment
from .polymatroid import exchange_free


class BudgetExceeded(ValueError):
    """Verification box larger than the configured enumeration budget."""


_BOX_BUDGET = 4_000_000


def box_around(vectors, below: int, above: int) -> list:
    """One ``(lo, hi)`` per coordinate: the least value of the vectors
    there less ``below`` to the greatest plus ``above``."""
    return [(min(col) - below, max(col) + above) for col in zip(*vectors)]


def default_box(bases) -> list:
    """The one default box: the bases' range widened by 2."""
    return box_around(bases, 2, 2)


def box_size(box) -> int:
    """The number of lattice points of ``box`` (one ``(lo, hi)`` per
    coordinate).  Raises ValueError if a side is empty."""
    if any(lo > hi for lo, hi in box):
        raise ValueError(f"empty box {[[lo, hi] for lo, hi in box]}: a side has lo > hi")
    return prod(hi - lo + 1 for lo, hi in box)


def check_budget(points: int, what: str = "box") -> int:
    """``points``, the number of lattice points of a ``what`` about to be
    visited; raises BudgetExceeded if that is more than the budget."""
    if points > _BOX_BUDGET:
        raise BudgetExceeded(f"{what} of {points} points exceeds budget")
    return points


def _region(box, center, below, above) -> list:
    """The part of ``box`` an interval may cover, one ``(a, b)`` range per
    coordinate: from the box's low end where the bit mask ``below`` holds
    the coordinate, else from the center, up to the box's high end where
    ``above`` holds it, else to the center; clipped to the box, so a > b
    where the interval misses it."""
    return [(lo if below >> i & 1 else max(t, lo), hi if above >> i & 1 else min(t, hi))
            for i, ((lo, hi), t) in enumerate(zip(box, center))]


def _attains(P, k, part) -> bool:
    """Whether basis k attains both one-sided distances to P's bases at
    every point of ``part``, one ``(a, b)`` range per coordinate, in O(n)
    bit tests on k's exchange table.

    Attainment is local.  For a neighbour h = k - 1_i + 1_f of center k
    and a point c, d1<(c, h) - d1<(c, k) = [c_i >= k_i] - [c_f > k_f],
    whose least value on the part [a, b] is [a_i >= k_i] - [b_f > k_f]:
    negative iff a_i < k_i and b_f > k_f.  d1< - d1> = sum(c) - sum(h)
    is the same for every basis, since all share one coordinate sum, so
    the d1> difference equals the d1< one.  The bases are M-convex and
    h -> d1<(c, h) is separable convex, so k attains both distances at c
    iff no neighbour does better there (Murota's local optimality
    theorem); on the whole part, iff no i where the part goes below k
    and f where it goes above make k - 1_i + 1_f a basis
    (:func:`polymatroid.exchange_free`).  k must be one of P's bases.
    """
    lower = upper = 0
    for i, ((a, b), t) in enumerate(zip(part, k)):
        lower |= (a < t) << i
        upper |= (b > t) << i
    return exchange_free(P, k, lower, upper)


def _cut(sub, meeting):
    """``(i, at)``: cut side i of ``sub`` after ``at``, where the first
    meeting part not containing ``sub`` stops inside it; None if every
    meeting part contains ``sub``."""
    for _, part, _ in meeting:
        for i, ((a, b), (lo, hi)) in enumerate(zip(part, sub)):
            if lo < a:
                return i, a - 1
            if b < hi:
                return i, b
    return None


def _violations(P, assignment, box) -> list:
    """Every lattice point of ``box`` in the Crapo interval of no basis of
    the activity ``assignment`` or of several, or whose one covering
    center does not attain both d1< and d1> to P's bases there, in
    :func:`itertools.product` order: the one Crapo decider, whose empty
    list is a PASS.

    The box is cut, region by region, at a boundary of an interval's
    :func:`_region` part that meets a sub-box without containing it,
    until every part that meets a sub-box contains it.  Each point of
    such a leaf is then covered by the same parts: by none or several,
    and every point is a violation, or by one, whose center k attains
    the distances on the whole leaf (:func:`_attains`, read once per
    part and again on the leaf only where the whole part misses) or is
    checked point by point.  A leaf that passes is dropped unvisited, so
    a passing box of any size visits no point; the points of the leaves
    left to list are held to the budget together before any is visited.
    """
    parts = []
    for k, record in assignment.items():
        part = _region(box, k, record.internal, record.external)
        if all(a <= b for a, b in part):
            parts.append((k, part, _attains(P, k, part)))
    stack = [(box, parts)]
    leaves = []
    while stack:
        sub, meeting = stack.pop()
        cut = _cut(sub, meeting)
        if cut is None:
            if len(meeting) != 1 or not (meeting[0][2] or _attains(P, meeting[0][0], sub)):
                leaves.append((sub, meeting))
            continue
        i, at = cut
        lo, hi = sub[i]
        # a part meeting ``sub`` meets the half up to ``at`` iff it starts by then,
        # and the half after it iff it ends after
        stack.append(([*sub[:i], (lo, at), *sub[i + 1:]],
                      [m for m in meeting if m[1][i][0] <= at]))
        stack.append(([*sub[:i], (at + 1, hi), *sub[i + 1:]],
                      [m for m in meeting if m[1][i][1] > at]))
    check_budget(sum(box_size(sub) for sub, _ in leaves), "listing")
    violations = []
    for sub, meeting in leaves:
        centers = [k for k, _, _ in meeting]
        for c in itertools.product(*(range(lo, hi + 1) for lo, hi in sub)):
            if len(centers) != 1:
                violations.append({"point": list(c), "covered_by": list(map(list, centers))})
            elif not _attains(P, centers[0], [(v, v) for v in c]):
                violations.append({"point": list(c), "covered_by": [list(centers[0])],
                                   "distance": "not attained"})
    return sorted(violations, key=lambda v: v["point"])


def _checked_size(box, width: int) -> int:
    """The number of points of ``box`` once the usage checks pass: its
    sides (:func:`box_size`: none empty), one per coordinate of the
    ``width`` of the centers.  Raises ValueError otherwise."""
    size = box_size(box)
    if len(box) != width:
        raise ValueError(f"box has {len(box)} sides, not one per center coordinate")
    return size


def verify_assignment(P, assignment: dict, box=None) -> dict:
    """The Crapo intervals of an assignment of P's bases checked over
    ``box`` or else the :func:`default_box` of P's bases: the one
    PASS/FAIL report, with the ``points`` checked and all ``violations``.

    The one decider, :func:`_violations`, lists the violations; an empty
    list is a PASS, reached without visiting a point.  It reads
    attainment off P's exchange tables, exact only when the assignment
    holds each of P's bases once: any other assignment is refused with
    ValueError before the box is looked at.  P's bases must satisfy the
    exchange axiom: a hypertree set does by Kálmán's theorem, and loaded
    bases are checked (:func:`polymatroid.check_exchange`).
    """
    if assignment.keys() != P.bases:
        raise ValueError("the assignment must hold exactly the polymatroid's bases")
    if box is None:
        box = default_box(P.bases)
    size = _checked_size(box, len(P.ground))
    violations = _violations(P, assignment, box)
    return {"status": "PASS" if not violations else "FAIL", "points": size,
            "violations": violations}


def verify_crapo_partition(g: RibbonGraph, box=None) -> dict:
    """Certify the Crapo partition of the embedding activities and
    distance attainment on a box: the :func:`verify_assignment` report,
    with the number of hypertrees and the box.  A bad box raises before
    the activities are computed.
    """
    if box is None:
        box = default_box(enumerate_hypertrees(g))
    _checked_size(box, g.emerald_count)
    P, assignment = embedding_assignment(g)
    return {"kind": "crapo-partition", **verify_assignment(P, assignment, box),
            "hypertrees": len(assignment), "box": [[lo, hi] for lo, hi in box]}
