"""The hypergraph Tutte polynomial, three ways.

tutte_embedding sums x^oi y^oe (x+y-1)^ie over hypertrees with embedding
activities; tutte_from_order does the same with a fixed emerald order.
Both go through tutte_sum, which takes one order per hypertree as a
mapping (the embedding sum reads hypertrees.orders of kind "embedding"),
so no hypertree is looked up again, and counts (oi, oe, ie) from the
bit counts of polymatroid's activity masks.
It needs the two masks alone, so it reads no activity records: one per
hypertree makes the sum about twice as slow (seeded K4,5, Python 3.11).
A graph's sums share one exchange table per hypertree, and so do the
sums of every graph with the same hypertree set, such as the other
embeddings of its hypergraph (polymatroid.bases_from_hypertrees); each
embedding still runs its own tour search and activity sum.

corank_nullity tabulates the generating function of the one-sided
Manhattan distances (d1>, d1<) over lattice points, which equals the
substituted embedding polynomial as a formal power series, in
series_window's format: a window dict {(i, j): count}.  Its box
rule and budget are crapo's (box_around, check_budget).  It is the
package's one walk of lattice points: it walks only the prefixes of the
hypertrees' bounding box that can reach the window, and counts every
window point outside the box in closed form from the box point it
clamps to; it and series_window share one expansion (_expand).  It
reads only the hypertree set, no activities, so the series identity
stays an independent check (the tests check _expand against a direct
coefficient sum).  The classical graph layer
that compares the polynomial of a graph's bipartite model with the
classical Tutte polynomial, and the specializations T(x, 1) and
T(1, y), are test oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

from collections import Counter
from math import comb
from operator import add

from .model import RibbonGraph
from .polynomial import Poly, expand_triples
from .hypertrees import cached, enumerate_hypertrees, orders
from .polymatroid import activity_masks, bases_from_hypertrees, check_order
from .crapo import box_around, check_budget


def tutte_sum(g: RibbonGraph, order_map) -> Poly:
    """Sum over hypertrees h of x^oi y^oe (x+y-1)^ie: the emeralds only
    internally, only externally and both ways active under the order
    ``order_map[h]``, counted per (oi, oe, ie) on the activity bit masks and
    expanded with trinomial coefficients (:func:`polynomial.expand_triples`)."""
    P = bases_from_hypertrees(g)
    triples = Counter()
    for h in enumerate_hypertrees(g):
        internal, external = activity_masks(P, h, order_map[h])
        both = internal & external
        triples[(internal ^ both).bit_count(), (external ^ both).bit_count(), both.bit_count()] += 1
    return expand_triples(triples)


def tutte_embedding(g: RibbonGraph) -> Poly:
    """Sum over hypertrees of x^oi y^oe (x+y-1)^ie, embedding activities
    under the orders of kind "embedding" (:func:`hypertrees.orders`);
    computed once per graph (a Poly is never mutated)."""
    return cached(g, "embedding", lambda g: tutte_sum(g, orders(g, "embedding")))


def tutte_from_order(g: RibbonGraph, order) -> Poly:
    """Same sum, with activities taken relative to one fixed emerald
    order, which must list every emerald once (:func:`polymatroid.check_order`)."""
    order = tuple(order)
    P = bases_from_hypertrees(g)
    check_order(P, order)
    return tutte_sum(g, dict.fromkeys(P.bases, order))


def corank_nullity(g: RibbonGraph, imax: int, jmax: int) -> dict:
    """Exact truncated corank-nullity table, ``{(i, j): #{c : d1>(H, c) =
    i, d1<(H, c) = j}}`` for i <= imax and j <= jmax: the points of the
    hypertrees' bounding box [m, M] that reach the window are walked, and
    the rest of the window is counted in closed form.  The table's cells
    are held to the budget first, then the prefixes the walk pops.

    Clamping a lattice point c into [m, M] brings it equally closer to
    every hypertree h: the total excess and deficit of c against h are
    those of p = clamp(c) plus (sum (c(e) - M(e))+, sum (m(e) - c(e))+),
    so both least distances shift by that same offset.  So each box point
    p at (d1>, d1<) = (i0, j0) stands for the window points that leave it
    outward: t >= 0 more d1< on each coordinate with p(e) = M(e) > m(e)
    (up), t >= 0 more d1> on each with p(e) = m(e) < M(e) (down), and
    either, not both, on each with m(e) = M(e) (fixed), whose series is
    1/(1-u) + 1/(1-v) - 1 = (1 - uv)/((1-u)(1-v)).  t units spread over
    a coordinates in C(t + a - 1, a - 1) ways (:func:`_spread`), so p
    counts as u^i0 v^j0 (1 - uv)^#fixed times the spreads over #down +
    #fixed and #up + #fixed coordinates.  The points are grouped by (i0,
    j0, #down, #up) before they are expanded into the window (:func:`_expand`).

    The walk is depth first on an explicit stack of prefixes, each with
    one deficit per hypertree h, sum (h(e) - c(e))+ over the coordinates
    set so far, and their least (each value of a coordinate below its high
    end adds one precomputed tuple; at the high end no deficit grows, and
    the prefix shares its parent's list), the least coordinate sum of its
    points (its sum plus the low ends of the coordinates not yet set) and
    its counts of coordinates at the box's low and high ends.  At a full
    point c, d1> = min(deficits), and d1< = d1> + sum(c) - r: every
    hypertree sums to r = #violet - 1, so d1<(c, h) - d1>(c, h) = sum(c) -
    r is the same for every h.  The deficits only grow along a prefix, and
    a point feeds only cells at or beyond its own (i0, j0), so a prefix is
    dropped with all its points once min(deficits) > imax or min(deficits)
    plus its least sum, less r, exceeds jmax.
    """
    if imax < 0 or jmax < 0:
        raise ValueError("bounds must be non-negative")
    check_budget((imax + 1) * (jmax + 1), "window")  # the table's cells
    hs = enumerate_hypertrees(g)
    core = box_around(hs, 0, 0)
    last = len(core)
    fixed = sum(lo == hi for lo, hi in core)
    steps = [[(v - lo, tuple(t - v if t > v else 0 for t in column) if v < hi else None,
               v == lo < hi, v == hi > lo)
              for v in range(lo, hi + 1)] for (lo, hi), column in zip(core, zip(*hs))]
    rank = g.violet_count - 1
    reach = jmax + rank
    groups = Counter()
    # (coordinates set, deficits, their least, least sum of its points, #down, #up)
    stack = [(0, [0] * len(hs), 0, sum(lo for lo, _ in core), 0, 0)]
    popped = 0
    while stack:
        i, deficits, greater, total, down, up = stack.pop()
        popped += 1
        if not popped & 4095:
            check_budget(popped, "walk")
        if greater > imax or greater + total > reach:
            continue
        if i == last:
            groups[greater, greater + total - rank, down, up] += 1
            continue
        for rise, step, low, high in steps[i]:
            if step:  # below the high end: some deficit grows
                child = list(map(add, deficits, step))
                stack.append((i + 1, child, min(child), total + rise, down + low, up + high))
            else:
                stack.append((i + 1, deficits, greater, total + rise, down + low, up + high))
    return _expand(groups, fixed, imax, jmax)


def _expand(groups, fixed: int, imax: int, jmax: int) -> dict:
    """The window of the sum over ``groups`` {(i0, j0, down, up): n} of
    n u^i0 v^j0 (1 - uv)^fixed / ((1-u)^(down + fixed) (1-v)^(up + fixed))."""
    spread = _spread(max(imax, jmax), {a + fixed for _, _, down, up in groups for a in (down, up)})
    counts = {(i, j): 0 for i in range(imax + 1) for j in range(jmax + 1)}
    for (i0, j0, down, up), n in groups.items():
        left, right = spread[down + fixed], spread[up + fixed]
        for k in range(min(fixed, imax - i0, jmax - j0) + 1):  # the term (-uv)^k
            ways = (-1) ** k * n * comb(fixed, k)
            for i in range(i0 + k, imax + 1):
                below = ways * left[i - i0 - k]
                for j in range(j0 + k, jmax + 1):
                    counts[i, j] += below * right[j - j0 - k]
    return counts


def _spread(most: int, rows) -> dict:
    """``{a: [C(t + a - 1, a - 1) for t <= most]}`` for each a of ``rows``:
    the ways to spread t units over a coordinates, the coefficient of
    u^t in (1/(1-u))^a."""
    return {a: [comb(t + a - 1, a - 1) for t in range(most + 1)] if a else [1] + [0] * most
            for a in rows}


def series_window(p: Poly, imax: int, jmax: int) -> dict:
    """Coefficients of p(1/(1-u), 1/(1-v)) for u^i v^j in the window; a
    term c x^a y^b is the group (0, 0, a, b) with no fixed coordinate."""
    return _expand({(0, 0, a, b): c for (a, b), c in p.terms.items()}, 0, imax, jmax)


def series_identity_check(g: RibbonGraph, imax: int, jmax: int) -> dict:
    """Compare the substituted embedding polynomial against the lattice
    count table, coefficient by coefficient; report PASS or the first
    mismatch in (i, j) order."""
    table = corank_nullity(g, imax, jmax)
    window = series_window(tutte_embedding(g), imax, jmax)
    for (i, j), expected in sorted(table.items()):
        got = window[(i, j)]
        if got != expected:
            return {
                "kind": "series-identity",
                "status": "FAIL",
                "bounds": [imax, jmax],
                "mismatch": {"i": i, "j": j, "series": got, "count": expected},
            }
    return {"kind": "series-identity", "status": "PASS", "bounds": [imax, jmax]}

