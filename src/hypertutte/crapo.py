"""Manhattan distances to the hypertree set and Crapo intervals.

The Crapo interval of a hypertree h collects the lattice points that may
exceed h only in externally active coordinates and fall below h only in
internally active ones.  These intervals partition Z^E, and the covering
hypertree attains the one-sided distances d1< and d1> simultaneously;
verify_intervals certifies both claims exhaustively on a box, for the
embedding intervals (verify_crapo_partition) as for any Delta activity
assignment (delta.crapo_verify).

Every lattice sweep of the package goes through this module: box_around
is the one box rule (the vectors' range widened by a margin below and
above), box_points the one empty-side and budget check, one_sided the one
distance rule, and sweep the one box walk.  sweep goes depth first and
updates every center's partial distances one coordinate at a time, so
consecutive points share their prefix's work; verify_intervals and
tutte.corank_nullity both finish its points.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from math import prod

from .model import RibbonGraph, node_index
from .hypertrees import enumerate_hypertrees
from .jaeger import embedding_activities, embedding_assignment


class EmptySet(ValueError):
    """Distance to an empty hypertree set is undefined."""


class BudgetExceeded(ValueError):
    """Verification box larger than the configured enumeration budget."""


_BOX_BUDGET = 4_000_000


def _as_set(h_or_set):
    if not h_or_set:
        raise EmptySet("empty hypertree set")
    if isinstance(h_or_set[0], (int,)):
        return (tuple(h_or_set),)
    return tuple(tuple(h) for h in h_or_set)


def one_sided(h, c) -> tuple:
    """(d1<, d1>) from c to the single vector h: the total excess of c
    over h and the total deficit of c below h."""
    less = greater = 0
    for ci, hi in zip(c, h):
        if ci > hi:
            less += ci - hi
        else:
            greater += hi - ci
    return less, greater


def d1_less(h_or_set, c) -> int:
    """min over the set of sum_e max(0, c(e) - h(e)): generalized nullity."""
    return min(one_sided(h, c)[0] for h in _as_set(h_or_set))


def d1_greater(h_or_set, c) -> int:
    """min over the set of sum_e max(0, h(e) - c(e)): generalized corank."""
    return min(one_sided(h, c)[1] for h in _as_set(h_or_set))


def d1(h_or_set, c) -> int:
    """Manhattan distance from c to the set."""
    return min(sum(one_sided(h, c)) for h in _as_set(h_or_set))


@dataclass(frozen=True)
class CrapoInterval:
    """Lattice points assigned to ``center``; free sets are emerald names,
    coordinate i belonging to emerald e_i."""

    center: tuple
    internal_free: frozenset
    external_free: frozenset
    _below: frozenset = field(init=False, repr=False, compare=False, default=None)
    _above: frozenset = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "_below", frozenset(map(node_index, self.internal_free)))
        object.__setattr__(self, "_above", frozenset(map(node_index, self.external_free)))


def crapo_interval(g: RibbonGraph, h) -> CrapoInterval:
    record = embedding_activities(g, tuple(h))  # raises NotAHypertree
    return CrapoInterval(tuple(h), record.internal, record.external)


def interval_contains(interval: CrapoInterval, c) -> bool:
    """c exceeds the center only in external-free coordinates and falls
    below it only in internal-free ones."""
    for idx, (ci, hi) in enumerate(zip(c, interval.center)):
        if ci > hi:
            if idx not in interval._above:
                return False
        elif ci < hi and idx not in interval._below:
            return False
    return True


def box_around(vectors, below: int, above: int) -> list:
    """One ``(lo, hi)`` per coordinate: the least value of the vectors
    there less ``below`` to the greatest plus ``above``."""
    return [(min(col) - below, max(col) + above) for col in zip(*vectors)]


def default_box(g: RibbonGraph, margin: int = 2) -> list:
    return box_around(enumerate_hypertrees(g), margin, margin)


def box_points(box):
    """Every lattice point of ``box`` (one ``(lo, hi)`` per coordinate), in
    :func:`itertools.product` order.  Raises ValueError if a side is empty
    and BudgetExceeded if the box holds more than the budget's points."""
    if any(lo > hi for lo, hi in box):
        raise ValueError(f"empty box {[[lo, hi] for lo, hi in box]}: a side has lo > hi")
    size = prod(hi - lo + 1 for lo, hi in box)
    if size > _BOX_BUDGET:
        raise BudgetExceeded(f"box of {size} points exceeds budget")
    return itertools.product(*(range(lo, hi + 1) for lo, hi in box))


def sweep(box, centers, free=None, prune=None, start=0, step=1):
    """Every lattice point of ``box`` with its one-sided distances to each
    center: the one lattice sweep of the package.

    Yields ``(point, sides, inside)`` in :func:`itertools.product` order,
    with ``sides[k] == one_sided(centers[k], point)``.  Given ``free``,
    one ``(below, above)`` pair of coordinate index sets per center,
    ``inside[k]`` says whether the point falls below center k only on
    coordinates in below and exceeds it only on coordinates in above
    (:func:`interval_contains`); without it ``inside`` is None.

    The walk is depth first: each step sets one coordinate and adds its
    term to every center's partial sides, so a point costs O(1) work per
    center whatever its length.  A prefix (all coordinates but the last,
    or fewer) for which ``prune(sides)`` holds is skipped with every
    point extending it; sides never decrease as coordinates are added, so
    this is exact for a test that stays true when the sides grow.  With
    ``step`` > 1 only every step-th prefix of all coordinates but the
    last, from the start-th on, is finished.
    """
    box_points(box)  # the empty-side and budget checks
    sides, inside = [(0, 0)] * len(centers), [True] * len(centers)
    if not box:  # the one point of a box without sides
        if start == 0:
            yield (), sides, None if free is None else inside
        return
    last = len(box) - 1
    columns = [[h[i] for h in centers] for i in range(len(box))]
    # the part of each interval's span on each side of the box
    spans = None if free is None else [
        [(lo if i in below else h[i], hi if i in above else h[i])
         for h, (below, above) in zip(centers, free)]
        for i, (lo, hi) in enumerate(box)
    ]
    prefixes = itertools.count()

    def descend(i, point, sides, inside):
        if i == last and next(prefixes) % step != start:
            return
        lo, hi = box[i]
        column = columns[i]
        span = None if spans is None else spans[i]
        for v in range(lo, hi + 1):
            here = [(less + v - t, greater) if v > t else (less, greater + t - v)
                    for (less, greater), t in zip(sides, column)]
            within = None if span is None else [
                ok and a <= v <= b for ok, (a, b) in zip(inside, span)
            ]
            if i == last:
                yield point + (v,), here, within
            elif prune is None or not prune(here):
                yield from descend(i + 1, point + (v,), here, within)

    yield from descend(0, (), sides, inside)


def verify_intervals(intervals, box, jobs: int = 1) -> tuple:
    """Check every lattice point of ``box`` (one ``(lo, hi)`` per
    coordinate): exactly one interval contains it, and that interval's
    center attains both d1< and d1> to the set of all centers, hence d1.

    Returns ``(points checked, violations)``, in :func:`sweep` order.
    With ``jobs`` > 1, worker i finishes every jobs-th prefix (all
    coordinates but the last) from the i-th on.
    """
    box_points(box)  # the empty-side and budget checks, before any worker starts
    if any(len(iv.center) != len(box) for iv in intervals):
        raise ValueError(f"box has {len(box)} sides, not one per center coordinate")
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(
                pool.map(_check_slice, [(intervals, box, i, jobs) for i in range(jobs)])
            )
    else:
        results = [_check_slice((intervals, box, 0, 1))]
    return sum(n for n, _ in results), [v for _, vs in results for v in vs]


def _check_slice(args):
    """Worker: check the points of every step-th prefix from start."""
    intervals, box, start, step = args
    centers = [iv.center for iv in intervals]
    free = [(iv._below, iv._above) for iv in intervals]
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


def verify_crapo_partition(g: RibbonGraph, box=None, jobs: int = 1) -> dict:
    """Exhaustively certify the Crapo partition and distance attainment.

    For every lattice point of the box: exactly one interval contains it,
    and that interval's center attains d1, d1< and d1> against the whole
    hypertree set.  Returns a PASS/FAIL report with all violations.
    """
    if box is None:
        box = default_box(g)
    _, assignment = embedding_assignment(g)
    intervals = [
        CrapoInterval(h, rec.internal, rec.external) for h, rec in assignment.items()
    ]
    checked, violations = verify_intervals(intervals, box, jobs)
    return {
        "kind": "crapo-partition",
        "status": "PASS" if not violations else "FAIL",
        "points": checked,
        "hypertrees": len(intervals),
        "box": [[lo, hi] for lo, hi in box],
        "violations": violations,
    }
