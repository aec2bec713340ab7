"""The hypergraph Tutte polynomial, three ways.

tutte_embedding sums x^oi y^oe (x+y-1)^ie over hypertrees with embedding
activities; tutte_from_order does the same with a fixed emerald order.
Both go through tutte_sum, which takes one order per hypertree as a
mapping (the embedding sum reads the node orders of the emerald tour
search, hypertrees.jaeger_trees), so no hypertree is looked up again,
and counts (oi, oe, ie) from the bit counts of polymatroid's activity masks.
A graph's sums share one exchange table per hypertree, and so do the
sums of every graph with the same hypertree set, such as the other
embeddings of its hypergraph (polymatroid.bases_from_hypertrees); each
embedding still runs its own tour search and activity sum.

corank_nullity tabulates the generating function of the one-sided
Manhattan distances (d1>, d1<) over lattice points, which equals the
substituted embedding polynomial as a formal power series, in
series_window's format: a window dict {(i, j): count}.  Its box
rule and budget are crapo's (box_around, check_budget).  It is the
package's one walk of lattice points: it walks only the hypertrees'
bounding box, with one deficit per hypertree (all share one coordinate
sum, so the deficits give both distances), and every window point
outside it is counted in closed form from the box point it clamps to.
It reads only the hypertree set, no activities, so the series identity
stays an independent check.  The classical graph layer that compares the
polynomial of a graph's bipartite model with the classical Tutte
polynomial, and the specializations T(x, 1) and T(1, y), are test
oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

from collections import Counter
from math import comb

from .model import RibbonGraph
from .polynomial import Poly, expand_triples
from .hypertrees import cached, enumerate_hypertrees, jaeger_trees
from .polymatroid import activity_masks, bases_from_hypertrees, check_order
from .crapo import box_around, box_size, check_budget


def tutte_sum(g: RibbonGraph, orders) -> Poly:
    """Sum over hypertrees h of x^oi y^oe (x+y-1)^ie: the emeralds only
    internally, only externally and both ways active under the order
    ``orders[h]``, counted per (oi, oe, ie) on the activity bit masks and
    expanded with trinomial coefficients (:func:`polynomial.expand_triples`)."""
    P = bases_from_hypertrees(g)
    triples = Counter()
    for h in enumerate_hypertrees(g):
        internal, external = activity_masks(P, h, orders[h])
        both = internal & external
        triples[(internal ^ both).bit_count(), (external ^ both).bit_count(), both.bit_count()] += 1
    return expand_triples(triples)


def tutte_embedding(g: RibbonGraph) -> Poly:
    """Sum over hypertrees of x^oi y^oe (x+y-1)^ie, embedding activities
    under the node orders of the emerald tour search; computed once per
    graph (a Poly is never mutated)."""
    return cached(g, "embedding", lambda g: tutte_sum(
        g, {h: found[1] for h, found in jaeger_trees(g).items()}))


def tutte_from_order(g: RibbonGraph, order) -> Poly:
    """Same sum, with activities taken relative to one fixed emerald
    order, which must list every emerald once (:func:`polymatroid.check_order`)."""
    order = tuple(order)
    P = bases_from_hypertrees(g)
    check_order(P, order)
    return tutte_sum(g, dict.fromkeys(P.bases, order))


def corank_nullity(g: RibbonGraph, imax: int, jmax: int) -> dict:
    """Exact truncated corank-nullity table, ``{(i, j): #{c : d1>(H, c) =
    i, d1<(H, c) = j}}`` for i <= imax and j <= jmax: the hypertrees'
    bounding box is walked, and the rest of the window is counted in
    closed form.

    Any c with d1> <= imax and d1< <= jmax satisfies, coordinatewise,
    m(e) - imax <= c(e) <= M(e) + jmax, where [m, M] is the hypertrees'
    bounding box.  The table's own cells are checked against the box
    budget first, then [m, M].  Clamping c
    into [m, M] brings it equally closer to every hypertree h: the total
    excess and deficit of c against h are those of p = clamp(c) plus
    (sum (c(e) - M(e))+, sum (m(e) - c(e))+), so both least distances
    shift by that same offset.  Only [m, M] is walked, and each of
    its points p at (d1>, d1<) = (i0, j0) stands for the window points
    that leave it outward: t >= 0 more d1< on each coordinate with p(e) =
    M(e) > m(e) (up), t >= 0 more d1> on each with p(e) = m(e) < M(e)
    (down), and either, not both, on each with m(e) = M(e) (fixed),
    whose series 1/(1-u) + 1/(1-v) - 1 counts s of them going up by at
    least one and the rest down.  t units spread over a coordinates in
    :func:`_series_coeff` (a, t) ways.  The points are grouped by (i0,
    j0, #down, #up) before they are expanded into the window.

    The walk is depth first on an explicit stack of prefixes, each with
    one deficit per hypertree h, sum (h(e) - c(e))+ over the coordinates
    set so far, its coordinate sum and its counts of coordinates at the
    box's low and high ends.  At a full point c, d1> = min(deficits), and
    d1< = d1> + sum(c) - r: every hypertree sums to r = #violet - 1, so
    d1<(c, h) - d1>(c, h) = sum(c) - r is the same for every h.
    """
    if imax < 0 or jmax < 0:
        raise ValueError("bounds must be non-negative")
    check_budget((imax + 1) * (jmax + 1))  # the table's cells
    hs = enumerate_hypertrees(g)
    core = box_around(hs, 0, 0)
    check_budget(box_size(core))  # the points walked
    fixed = sum(lo == hi for lo, hi in core)
    rank = g.violet_count - 1
    columns = list(zip(*hs))
    groups = Counter()
    stack = [(0, [0] * len(hs), 0, 0, 0)]  # (coordinates set, deficits, sum, #down, #up)
    while stack:
        i, deficits, total, down, up = stack.pop()
        if i == len(core):
            greater = min(deficits)
            less = greater + total - rank
            if greater <= imax and less <= jmax:
                groups[greater, less, down, up] += 1
            continue
        lo, hi = core[i]
        column = columns[i]
        for v in range(lo, hi + 1):
            stack.append((i + 1, [d + t - v if t > v else d for d, t in zip(deficits, column)],
                          total + v, down + (v == lo < hi), up + (v == hi > lo)))
    counts = {(i, j): 0 for i in range(imax + 1) for j in range(jmax + 1)}
    for (i0, j0, down, up), n in groups.items():
        for s in range(fixed + 1):  # the fixed coordinates that go up
            ways = n * comb(fixed, s)
            for i in range(i0, imax + 1):
                below = ways * _series_coeff(down + fixed - s, i - i0)
                for j in range(j0 + s, jmax + 1):
                    counts[i, j] += below * _series_coeff(up + s, j - j0 - s)
    return counts


def _series_coeff(a: int, i: int) -> int:
    """Coefficient of u^i in (1/(1-u))^a = sum_i C(a+i-1, a-1) u^i: the
    number of ways to spread i units over a coordinates."""
    if a == 0:
        return 1 if i == 0 else 0
    return comb(a + i - 1, a - 1)


def series_window(p: Poly, imax: int, jmax: int) -> dict:
    """Coefficients of p(1/(1-u), 1/(1-v)) for u^i v^j in the window."""
    window = {(i, j): 0 for i in range(imax + 1) for j in range(jmax + 1)}
    for (a, b), c in p.terms.items():
        for i in range(imax + 1):
            ca = _series_coeff(a, i)
            if not ca:
                continue
            for j in range(jmax + 1):
                window[(i, j)] += c * ca * _series_coeff(b, j)
    return window


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

