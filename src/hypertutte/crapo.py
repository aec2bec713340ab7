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
above), box_points the one empty-side and budget check, and one_sided
the one distance kernel; tutte.corank_nullity sweeps on all three.
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


def verify_intervals(intervals, box, jobs: int = 1) -> tuple:
    """Check every lattice point of ``box`` (one ``(lo, hi)`` per
    coordinate): exactly one interval contains it, and that interval's
    center attains both d1< and d1> to the set of all centers, hence d1.

    Returns ``(points checked, violations)``.  Points are streamed; with
    ``jobs`` > 1, worker i checks every jobs-th point from the i-th on.
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
    """Worker: check every step-th lattice point of the box from start."""
    intervals, box, start, step = args
    centers = [iv.center for iv in intervals]
    checked, violations = 0, []
    for c in itertools.islice(box_points(box), start, None, step):
        checked += 1
        covering = [i for i, iv in enumerate(intervals) if interval_contains(iv, c)]
        if len(covering) != 1:
            violations.append(
                {"point": list(c), "covered_by": [list(centers[i]) for i in covering]}
            )
            continue
        sides = [one_sided(h, c) for h in centers]
        if sides[covering[0]] != tuple(map(min, zip(*sides))):
            violations.append(
                {"point": list(c), "covered_by": [list(centers[covering[0]])],
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
