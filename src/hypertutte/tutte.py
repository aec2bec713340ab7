"""The hypergraph Tutte polynomial, three ways.

tutte_embedding sums x^oi y^oe (x+y-1)^ie over hypertrees with embedding
activities through tutte_sum, which takes one order per hypertree as a
mapping (the embedding sum reads hypertrees.orders of kind "embedding",
and harness's order comparisons their own kinds), so no hypertree is
looked up again.  Its counter activity_triples counts (oi, oe, ie) from
the bit counts of polymatroid's activity masks, and tutte_sum expands
that counter (polynomial.expand_triples); harness's comparisons read
the counter itself.
It needs the two masks alone, so it reads no activity records: one per
hypertree makes the sum about twice as slow (seeded K4,5, Python 3.11).
A graph's sums share one exchange table per hypertree, and so do the
sums of every graph with the same hypertree set, such as the other
embeddings of its hypergraph (polymatroid.bases_from_hypertrees); each
embedding still runs its own tour search and activity sum.

tutte_from_order is the same sum with one fixed emerald order for every
hypertree, regrouped so that it needs no activity (Bernardi, Kálmán and
Postnikov, "Universal Tutte polynomial"): its counter slice_triples
slices the hypertree set along the order, last element first, and reads
no exchange table.  It is T too, so the conjecture harness takes its
reference counter and polynomial from it, and a conjecture run needs no
emerald search.

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
from .hypertrees import enumerate_hypertrees, orders
from .polymatroid import activity_masks, bases_from_hypertrees, check_order
from .crapo import box_around, check_budget


def activity_triples(g: RibbonGraph, order_map) -> dict:
    """{(oi, oe, ie): n}: the number n of hypertrees h whose emeralds
    only internally, only externally and both ways active under the order
    ``order_map[h]`` number oi, oe and ie, counted on the activity bit
    masks; no count is zero.  ValueError unless ``order_map`` holds
    exactly the hypertrees."""
    P = bases_from_hypertrees(g)
    if order_map.keys() != P.bases:
        raise ValueError("the order map must hold exactly the hypertrees")
    triples = Counter()
    for h, order in order_map.items():
        internal, external = activity_masks(P, h, order)
        both = internal & external
        triples[(internal ^ both).bit_count(), (external ^ both).bit_count(), both.bit_count()] += 1
    return triples


def tutte_sum(g: RibbonGraph, order_map) -> Poly:
    """Sum over hypertrees h of x^oi y^oe (x+y-1)^ie under the orders
    ``order_map[h]``: :func:`activity_triples` expanded with trinomial
    coefficients (:func:`polynomial.expand_triples`)."""
    return expand_triples(activity_triples(g, order_map))


def tutte_embedding(g: RibbonGraph) -> Poly:
    """Sum over hypertrees of x^oi y^oe (x+y-1)^ie, embedding activities
    under the orders of kind "embedding" (:func:`hypertrees.orders`)."""
    return tutte_sum(g, orders(g, "embedding"))


def slice_triples(g: RibbonGraph, order) -> dict:
    """The counter of :func:`activity_triples` with one fixed emerald
    order for every hypertree, which must list every emerald once
    (:func:`polymatroid.check_order`), counted without activities.

    Under the MIN rule the last element e of the order is internally
    active in a basis b iff b(e) is e's least value lo over the bases (b
    - 1_e + 1_f is a basis for some f iff some basis is lower at e, by
    the exchange axiom), and externally active iff b(e) is the greatest,
    hi.  An exchange between earlier elements leaves b(e) alone, so the
    rest of b's activities are those of the slice of bases with b's value
    at e, with e dropped, under the order without e.  So the bases of a
    slice are grouped by their value at e: if lo = hi, the one group adds
    1 to ie, else the group at lo adds 1 to oi, the group at hi 1 to oe,
    and any group between nothing.

    The slices are made one level (one element) at a time, and equal
    slices of a level merge their counters {(oi, oe, ie): n}, so a level
    holds at most one counter per distinct base set, and only one level
    is kept.  A one-basis slice has lo = hi at every element left, and
    adds them all to ie at once.  No exchange table is read and no
    activity mask is tested.
    """
    order = tuple(order)
    P = bases_from_hypertrees(g)
    check_order(P, order)
    places = tuple(map(P.index, order))
    start = P.bases if places == tuple(range(len(places))) else frozenset(
        tuple(b[i] for i in places) for b in P.bases)  # coordinates in order
    # base set of a slice -> {(oi, oe, ie): n}
    level = {start: {(0, 0, 0): 1}}
    triples = {}
    for left in reversed(range(len(order))):  # the coordinate sliced, the last one left
        below = {}
        for bases, counts in level.items():
            if len(bases) == 1:  # every element left is fixed
                for (oi, oe, ie), n in counts.items():
                    key = oi, oe, ie + left + 1
                    triples[key] = triples.get(key, 0) + n
                continue
            groups = {}
            for b in bases:
                groups.setdefault(b[left], []).append(b[:left])
            lo, hi = min(groups), max(groups)
            for k, group in groups.items():
                di, de, dc = (0, 0, 1) if lo == hi else (k == lo, k == hi, 0)
                merged = below.setdefault(frozenset(group), {})
                for (oi, oe, ie), n in counts.items():
                    key = oi + di, oe + de, ie + dc
                    merged[key] = merged.get(key, 0) + n
        level = below
    for counts in level.values():  # the slices of no element left
        for key, n in counts.items():
            triples[key] = triples.get(key, 0) + n
    return triples


def tutte_from_order(g: RibbonGraph, order) -> Poly:
    """The sum of :func:`tutte_sum` with one fixed emerald order for every
    hypertree: :func:`slice_triples` expanded (:func:`polynomial.expand_triples`)."""
    return expand_triples(slice_triples(g, order))


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

