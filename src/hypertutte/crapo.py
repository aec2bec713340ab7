"""Manhattan distances to the hypertree set and Crapo intervals.

The Crapo interval of a basis b under an activity assignment collects
the lattice points that exceed b only at externally active coordinates
and fall below it only at internally active ones.  A CrapoInterval
holds the two bit masks over P's coordinates of the basis's activity
record (delta.BasisActivity); intervals, the one interval rule, passes
them through.  These intervals partition Z^E, and the covering
basis attains the one-sided distances d1< and d1> simultaneously.
verify_assignment certifies both claims on a box, by default the bases'
range widened by 2 (default_box), for the embedding activities
(verify_crapo_partition) as for any Delta assignment (delta.crapo_verify).
verify_intervals visits no lattice point to do so: each interval's part
of the box is a product of ranges, so disjointness, cover and attainment
are decided range by range in O(k^2 n) for k intervals and n
coordinates.  Only a box that fails is swept, to list its violations.

Every lattice sweep of the package goes through this module: box_around
is the one box rule, box_size the one empty-side and budget check,
_region the one rule for an interval's part of a box, and sweep the one
box walk and the one distance rule, depth first, updating every center's
partial distances one coordinate at a time.  verify_intervals finishes
its points on a failing box; tutte.corank_nullity sweeps the
hypertrees' bounding box and counts the rest of its window in closed
form.  The point-by-point distances and interval membership that the
tests check the sweep against are in ``tests/oracles.py``.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import prod

from .model import RibbonGraph
from .hypertrees import enumerate_hypertrees
from .jaeger import embedding_assignment


class BudgetExceeded(ValueError):
    """Verification box larger than the configured enumeration budget."""


_BOX_BUDGET = 4_000_000


@dataclass(frozen=True)
class CrapoInterval:
    """The lattice points below ``center`` only at the coordinates in
    the bit mask ``below`` and above it only at those in ``above``."""

    center: tuple
    below: int
    above: int


def intervals(assignment: dict) -> list:
    """The one interval rule: each basis b of an activity assignment, below
    at its internally active coordinates, above at its externally active
    ones (the masks of ``assignment[b]``)."""
    return [CrapoInterval(tuple(b), rec.internal, rec.external) for b, rec in assignment.items()]


def box_around(vectors, below: int, above: int) -> list:
    """One ``(lo, hi)`` per coordinate: the least value of the vectors
    there less ``below`` to the greatest plus ``above``."""
    return [(min(col) - below, max(col) + above) for col in zip(*vectors)]


def default_box(bases, margin: int = 2) -> list:
    """The one default box: the bases' range widened by ``margin``."""
    return box_around(bases, margin, margin)


def box_size(box) -> int:
    """The number of lattice points of ``box`` (one ``(lo, hi)`` per
    coordinate).  Raises ValueError if a side is empty and BudgetExceeded
    if the box holds more than the budget's points."""
    if any(lo > hi for lo, hi in box):
        raise ValueError(f"empty box {[[lo, hi] for lo, hi in box]}: a side has lo > hi")
    size = prod(hi - lo + 1 for lo, hi in box)
    if size > _BOX_BUDGET:
        raise BudgetExceeded(f"box of {size} points exceeds budget")
    return size


def _region(box, center, below, above) -> list:
    """The part of ``box`` an interval may cover, one ``(a, b)`` range per
    coordinate: from the box's low end where the bit mask ``below`` holds
    the coordinate, else from the center, up to the box's high end where
    ``above`` holds it, else to the center; clipped to the box, so a > b
    where the interval misses it."""
    return [(lo if below >> i & 1 else max(t, lo), hi if above >> i & 1 else min(t, hi))
            for i, ((lo, hi), t) in enumerate(zip(box, center))]


def sweep(box, centers, free=None, start=0, step=1):
    """Every lattice point of ``box`` with its one-sided distances to each
    center: the one lattice sweep of the package.

    Yields ``(point, sides, inside)`` in :func:`itertools.product` order,
    with ``sides[k]`` the pair (d1<, d1>) from the point to center k: the
    point's total excess over the center and its total deficit below it.
    Given ``free``, one ``(below, above)`` pair of coordinate bit masks
    per center, ``inside[k]`` says whether the point falls below center k
    only on coordinates in below and exceeds it only on coordinates in
    above; without it ``inside`` is None.

    The walk is depth first: each step sets one coordinate and adds its
    term to every center's partial sides, so a point costs O(1) work per
    center whatever its length.  With ``step`` > 1 only every step-th
    prefix of all coordinates but the last, from the start-th on, is
    finished; a one-coordinate box, whose one prefix is empty, deals out
    its points that way instead.
    """
    box_size(box)  # the empty-side and budget checks
    sides, inside = [(0, 0)] * len(centers), [True] * len(centers)
    if not box:  # the one point of a box without sides
        if start == 0:
            yield (), sides, None if free is None else inside
        return
    last = len(box) - 1
    columns = [[h[i] for h in centers] for i in range(len(box))]
    spans = None
    if free is not None:
        regions = [_region(box, h, below, above) for h, (below, above) in zip(centers, free)]
        spans = [[region[i] for region in regions] for i in range(len(box))]
    prefixes = itertools.count()

    def descend(i, point, sides, inside):
        lo, hi = box[i]
        values = range(lo, hi + 1)
        if i == last:
            if last == 0:
                values = values[start::step]
            elif next(prefixes) % step != start:
                return
        column = columns[i]
        span = None if spans is None else spans[i]
        for v in values:
            here = [(less + v - t, greater) if v > t else (less, greater + t - v)
                    for (less, greater), t in zip(sides, column)]
            within = None if span is None else [
                ok and a <= v <= b for ok, (a, b) in zip(inside, span)
            ]
            if i == last:
                yield point + (v,), here, within
            else:
                yield from descend(i + 1, point + (v,), here, within)

    yield from descend(0, (), sides, inside)


def _certified(intervals, box, size: int) -> bool:
    """Whether the intervals partition ``box``, of ``size`` points, and
    each center attains both one-sided distances to all centers on its
    whole part of the box: exact, in O(k^2 n) for k intervals and n
    coordinates, without visiting a point.

    Each part is a product of ranges (:func:`_region`).  Two parts meet
    iff their ranges meet on every coordinate, so pairwise disjoint parts
    whose sizes sum to ``size`` partition the box.  For centers h and k,
    the one-sided distances from c to h less those to k are on each side
    a sum of one term per coordinate, max(0, c_i - h_i) - max(0, c_i -
    k_i) below and max(0, h_i - c_i) - max(0, k_i - c_i) above, each
    monotone in c_i; so
    its least value on k's part is the sum of each term's lesser value at
    the two ends of k's range there, and k attains both distances on its
    whole part iff no such sum is negative.
    """
    parts = []
    for iv in intervals:
        part = _region(box, iv.center, iv.below, iv.above)
        if all(a <= b for a, b in part):
            parts.append((iv.center, part))
    if sum(prod(b - a + 1 for a, b in part) for _, part in parts) != size:
        return False
    for (_, p), (_, q) in itertools.combinations(parts, 2):
        if all(a <= d and c <= b for (a, b), (c, d) in zip(p, q)):
            return False
    centers = [iv.center for iv in intervals]
    for k, part in parts:
        for h in centers:
            less = greater = 0
            for (a, b), x, y in zip(part, h, k):
                less += min(max(0, a - x) - max(0, a - y), max(0, b - x) - max(0, b - y))
                greater += min(max(0, x - a) - max(0, y - a), max(0, x - b) - max(0, y - b))
            if less < 0 or greater < 0:
                return False
    return True


def _checked_size(box, widths, jobs: int) -> int:
    """The number of points of ``box`` once the usage checks pass: its
    sides (:func:`box_size`: none empty, within budget), one side per
    coordinate of each center width in ``widths``, and ``jobs`` at least
    1.  Raises ValueError (BudgetExceeded for the budget) otherwise."""
    size = box_size(box)
    if any(width != len(box) for width in widths):
        raise ValueError(f"box has {len(box)} sides, not one per center coordinate")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {jobs}")
    return size


def verify_intervals(intervals, box, jobs: int = 1) -> tuple:
    """Check that exactly one interval contains each lattice point of
    ``box`` (one ``(lo, hi)`` per coordinate), and that its center attains
    both d1< and d1> to the set of all centers, hence d1.

    Returns ``(points, violations)``.  A box that passes is certified
    from its intervals' ranges (:func:`_certified`) without visiting its
    points; otherwise every point is checked through :func:`sweep` and
    the violations are listed in its order.  ``jobs`` (at least 1) worker
    processes share that listing: worker i finishes every jobs-th prefix,
    or point of a one-coordinate box, from the i-th on.
    """
    size = _checked_size(box, (len(iv.center) for iv in intervals), jobs)
    if _certified(intervals, box, size):
        return size, []
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(
                pool.map(_check_slice, [(intervals, box, i, jobs) for i in range(jobs)])
            )
    else:
        results = [_check_slice((intervals, box, 0, 1))]
    return sum(n for n, _ in results), [v for _, vs in results for v in vs]


def _check_slice(args):
    """Worker: check the points :func:`sweep` deals out to ``start`` of
    ``step``."""
    intervals, box, start, step = args
    centers = [iv.center for iv in intervals]
    free = [(iv.below, iv.above) for iv in intervals]
    checked, violations = 0, []
    for c, sides, inside in sweep(box, centers, free, start=start, step=step):
        checked += 1
        if inside.count(True) != 1:
            violations.append(
                {"point": list(c),
                 "covered_by": [list(h) for h, ok in zip(centers, inside) if ok]}
            )
            continue
        k = inside.index(True)
        if sides[k] != tuple(map(min, zip(*sides))):
            violations.append(
                {"point": list(c), "covered_by": [list(centers[k])],
                 "distance": "not attained"}
            )
    return checked, violations


def verify_assignment(P, assignment: dict, box=None, jobs: int = 1) -> tuple:
    """:func:`verify_intervals` on the :func:`intervals` of an assignment,
    over ``box`` or else the :func:`default_box` of P's bases."""
    if box is None:
        box = default_box(P.bases)
    return verify_intervals(intervals(assignment), box, jobs)


def verify_crapo_partition(g: RibbonGraph, box=None, jobs: int = 1) -> dict:
    """Certify the Crapo partition of the embedding activities and
    distance attainment on a box (:func:`verify_assignment`): a PASS/FAIL
    report with all violations.  A bad box or ``jobs`` raises before the
    activities are computed.
    """
    if box is None:
        box = default_box(enumerate_hypertrees(g))
    _checked_size(box, (g.emerald_count,), jobs)
    P, assignment = embedding_assignment(g)
    checked, violations = verify_assignment(P, assignment, box, jobs)
    return {
        "kind": "crapo-partition",
        "status": "PASS" if not violations else "FAIL",
        "points": checked,
        "hypertrees": len(assignment),
        "box": [[lo, hi] for lo, hi in box],
        "violations": violations,
    }
