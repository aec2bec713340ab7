"""The hypergraph Tutte polynomial, three ways, plus the classical bridge.

tutte_embedding sums x^oi y^oe (x+y-1)^ie over hypertrees with embedding
activities; tutte_from_order does the same with a fixed emerald order;
corank_nullity tabulates the generating function of the one-sided
Manhattan distances (d1>, d1<) over lattice points, which equals the
substituted embedding polynomial as a formal power series.  Its box
rule and sweep are crapo's (box_around, sweep): the sweep walks only the
hypertrees' bounding box, and every window point outside it is counted
in closed form from the box point it clamps to.  It reads only the
hypertree set, no activities, so the series identity stays an
independent check.  A small classical-graph layer supports the graph
comparison report: the Tutte polynomial read off the leaves of
:func:`tours.deletion_contraction`, independent of any activity rule,
and the bipartite-model conversion.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb

from .model import (
    ParseError, RibbonGraph, connected, emerald, is_int, violet, yaml_mapping,
)
from .polynomial import Poly, expand_triples, x_plus_y_minus_1
from .hypertrees import cached, enumerate_hypertrees
from .delta import bases_from_hypertrees, check_order, min_rule_activities
from .jaeger import order_emerald
from .crapo import box_around, box_size, sweep
from .tours import deletion_contraction


class Disconnected(ValueError):
    """Classical Tutte requires a connected graph."""


class NoEdges(ValueError):
    """The bipartite model of a graph needs at least one edge."""


def tutte_sum(g: RibbonGraph, order_fn) -> Poly:
    """Sum over hypertrees h of x^oi y^oe (x+y-1)^ie: the emeralds only
    internally, only externally and both ways active under the order
    ``order_fn(g, h)``, counted per (oi, oe, ie) and expanded by Horner's
    rule in x+y-1 (:func:`polynomial.expand_triples`)."""
    P = bases_from_hypertrees(g)
    triples = Counter()
    for h in enumerate_hypertrees(g):
        internal, external = min_rule_activities(P, h, order_fn(g, h))
        triples[len(internal - external), len(external - internal), len(internal & external)] += 1
    return expand_triples(triples)


def tutte_embedding(g: RibbonGraph) -> Poly:
    """Sum over hypertrees of x^oi y^oe (x+y-1)^ie, embedding activities;
    computed once per graph (a Poly is never mutated)."""
    return cached(g, "embedding", lambda g: tutte_sum(g, order_emerald))


def tutte_from_order(g: RibbonGraph, order) -> Poly:
    """Same sum, with activities taken relative to one fixed emerald
    order, which must list every emerald once (:func:`delta.check_order`)."""
    order = tuple(order)
    check_order(bases_from_hypertrees(g), order)
    return tutte_sum(g, lambda g, h: order)


def interior(g: RibbonGraph) -> Poly:
    """The specialization T(x, 1)."""
    return tutte_embedding(g).substitute(Poly.x(), Poly.constant(1))


def exterior(g: RibbonGraph) -> Poly:
    """The specialization T(1, y)."""
    return tutte_embedding(g).substitute(Poly.constant(1), Poly.y())


@dataclass(frozen=True)
class CoefficientTable:
    """entry[(i, j)] = #{c : d1>(H,c)=i, d1<(H,c)=j} for i<=imax, j<=jmax."""

    imax: int
    jmax: int
    entries: tuple

    def entry(self, i: int, j: int) -> int:
        return dict(self.entries)[(i, j)]


def corank_nullity(g: RibbonGraph, imax: int, jmax: int) -> CoefficientTable:
    """Exact truncated corank-nullity table: the hypertrees' bounding box
    is swept, and the rest of the window is counted in closed form.

    Any c with d1> <= imax and d1< <= jmax satisfies, coordinatewise,
    m(e) - imax <= c(e) <= M(e) + jmax, where [m, M] is the hypertrees'
    bounding box; that window box's budget is checked first.  Clamping c
    into [m, M] brings it equally closer to every hypertree h:
    one_sided(h, c) = one_sided(h, p) + (sum (c(e) - M(e))+, sum (m(e) -
    c(e))+) for p = clamp(c), so both least distances shift by that same
    offset.  :func:`crapo.sweep` therefore walks only [m, M], and each of
    its points p at (d1>, d1<) = (i0, j0) stands for the window points
    that leave it outward: t >= 0 more d1< on each coordinate with p(e) =
    M(e) > m(e) (up), t >= 0 more d1> on each with p(e) = m(e) < M(e)
    (down), and either, not both, on each with m(e) = M(e) (fixed),
    whose series 1/(1-u) + 1/(1-v) - 1 counts s of them going up by at
    least one and the rest down.  t units spread over a coordinates in
    :func:`_series_coeff` (a, t) ways.  The points are grouped by (i0,
    j0, #down, #up) before they are expanded into the window.
    """
    if imax < 0 or jmax < 0:
        raise ValueError("bounds must be non-negative")
    hs = enumerate_hypertrees(g)
    box_size(box_around(hs, imax, jmax))  # the empty-side and budget checks
    core = box_around(hs, 0, 0)
    fixed = sum(lo == hi for lo, hi in core)
    groups = Counter()
    for point, sides, _ in sweep(core, hs):
        less, greater = map(min, zip(*sides))
        if greater <= imax and less <= jmax:
            down = sum(v == lo < hi for v, (lo, hi) in zip(point, core))
            up = sum(v == hi > lo for v, (lo, hi) in zip(point, core))
            groups[greater, less, down, up] += 1
    counts = {(i, j): 0 for i in range(imax + 1) for j in range(jmax + 1)}
    for (i0, j0, down, up), n in groups.items():
        for s in range(fixed + 1):  # the fixed coordinates that go up
            ways = n * comb(fixed, s)
            for i in range(i0, imax + 1):
                below = ways * _series_coeff(down + fixed - s, i - i0)
                for j in range(j0 + s, jmax + 1):
                    counts[i, j] += below * _series_coeff(up + s, j - j0 - s)
    return CoefficientTable(imax, jmax, tuple(sorted(counts.items())))


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
    mismatch."""
    table = corank_nullity(g, imax, jmax)
    window = series_window(tutte_embedding(g), imax, jmax)
    for (i, j), expected in sorted(table.entries):
        got = window[(i, j)]
        if got != expected:
            return {
                "kind": "series-identity",
                "status": "FAIL",
                "bounds": [imax, jmax],
                "mismatch": {"i": i, "j": j, "series": got, "count": expected},
            }
    return {"kind": "series-identity", "status": "PASS", "bounds": [imax, jmax]}


# -- classical graphs --------------------------------------------------------


@dataclass(frozen=True)
class Graph:
    """Ordinary multigraph: vertex_count and named edges (name, u, v)."""

    vertex_count: int
    edges: tuple  # of (name, u, v)

    def edge_names(self):
        return [name for name, _, _ in self.edges]


def load_graph(text: str) -> Graph:
    """Parse an ordinary-graph file: vertex count + named edges."""
    data = yaml_mapping(text, ("vertices", "edges"))
    n, raw_edges = data["vertices"], data["edges"]
    if not is_int(n) or n < 0 or not isinstance(raw_edges, dict):
        raise ParseError("vertices must be a non-negative integer and edges a mapping")
    edges = []
    for name, ends in raw_edges.items():
        if not isinstance(ends, list) or len(ends) != 2 or not all(map(is_int, ends)):
            raise ParseError(f"edge {name!r} must be a pair of vertex indices")
        edges.append((str(name), *ends))
    for _, u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError("edge endpoint out of range")
    return Graph(n, tuple(edges))


def classical_tutte(graph: Graph) -> Poly:
    """Tutte polynomial of a connected multigraph: the deletion/contraction
    recurrence read at its leaves, x^bridges y^loops summed over the
    spanning trees of :func:`tours.deletion_contraction`."""
    if not connected(graph.edges, graph.vertex_count):
        raise Disconnected("classical Tutte requires a connected graph")
    edges = [(i, u, v) for i, (_, u, v) in enumerate(graph.edges)]
    leaves = deletion_contraction(edges, graph.vertex_count)
    return Poly(Counter((bridges, loops) for _, bridges, loops in leaves))


def to_bipartite(graph: Graph) -> RibbonGraph:
    """Bipartite ribbon model: one emerald node per graph edge.

    The embedding polynomial is ribbon-structure invariant, so rotations
    are simply the incidence lists in index order.  A graph with no edge
    has no emerald node, so it has no model.
    """
    if not graph.edges:
        raise NoEdges("the bipartite model needs at least one edge, and the graph has none")
    edges = []
    for j, (_, u, v) in enumerate(graph.edges):
        edges.append((violet(u), emerald(j)))
        edges.append((violet(v), emerald(j)))
    rotation = {}
    for k, (vn, en) in enumerate(edges):
        rotation.setdefault(vn, []).append(k)
        rotation.setdefault(en, []).append(k)
    return RibbonGraph.build(
        graph.vertex_count, len(graph.edges), edges, rotation, (violet(0), rotation[violet(0)][0])
    )


def _substitute_rational(p: Poly, num1, den1, num2, den2):
    """p(num1/den1, num2/den2) cleared to (numerator, den1^dx * den2^dy)."""
    dx, dy = p.degrees()
    out = Poly()
    for (a, b), c in p.terms.items():
        out = out + c * (num1 ** a) * (den1 ** (dx - a)) * (num2 ** b) * (den2 ** (dy - b))
    return out, dx, dy


def graph_tutte_bridge(graph: Graph) -> dict:
    """Test the candidate identities relating the classical Tutte
    polynomial T and the bipartite-model polynomial of the same graph.

    Four candidates: both printed-argument variants ((x+y-1)/y twice,
    or (x+y-1)/y then (x+y-1)/x), in both orientations (substituting
    into the hypergraph polynomial or into T).  All checks clear
    denominators and compare exact polynomials.  Returns a report with
    the verdict of each candidate.
    """
    t_classical = classical_tutte(graph)
    t_hyper = tutte_embedding(to_bipartite(graph))
    n_edges = len(graph.edges)
    n_vertices = graph.vertex_count
    a = n_edges - n_vertices + 1
    b = n_vertices - 1
    s = x_plus_y_minus_1()
    yv, xv = Poly.y(), Poly.x()

    candidates = {}
    for args_label, (d1, d2) in (("equal-args", (yv, yv)), ("split-args", (yv, xv))):
        for orient, (lhs, inner) in (
            ("classical-from-hyper", (t_classical, t_hyper)),
            ("hyper-from-classical", (t_hyper, t_classical)),
        ):
            num, dx, dy = _substitute_rational(inner, s, d1, s, d2)
            rhs = Poly.monomial(a, b) * num
            left = lhs * (d1 ** dx) * (d2 ** dy)
            candidates[f"{orient}/{args_label}"] = left == rhs

    holding = sorted(name for name, ok in candidates.items() if ok)
    return {
        "kind": "graph-bridge",
        "status": "PASS" if holding else "FAIL",
        "candidates": candidates,
        "holding": holding,
        "classical": str(t_classical),
        "hypergraph": str(t_hyper),
    }
