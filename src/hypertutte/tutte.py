"""The hypergraph Tutte polynomial, three ways, plus the classical bridge.

tutte_embedding sums x^oi y^oe (x+y-1)^ie over hypertrees with embedding
activities; tutte_from_order does the same with a fixed emerald order;
corank_nullity tabulates the generating function of the one-sided
Manhattan distances (d1>, d1<) over lattice points, which equals the
substituted embedding polynomial as a formal power series.  Its box
rule, sweep and line rule are crapo's (box_around, sweep, along_line):
the sweep walks all coordinates but the last, skipping every prefix
already out of the window, and each prefix counts its whole line of
last coordinates at once.  It reads only the hypertree set, no
activities, so the series identity stays an independent check.  A small
classical-graph layer (deletion/contraction Tutte, bipartite-model
conversion) supports the graph comparison report.
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
from .jaeger import ActivityRecord, order_emerald
from .crapo import along_line, box_around, box_size, sweep


class Disconnected(ValueError):
    """Classical Tutte requires a connected graph."""


def tutte_sum(g: RibbonGraph, order_fn) -> Poly:
    """Sum over hypertrees h of x^oi y^oe (x+y-1)^ie, the activities of
    h taken under the emerald order ``order_fn(g, h)``.  The hypertrees
    are counted by (oi, oe, ie) and the counts expanded by Horner's rule
    in x+y-1 (:func:`polynomial.expand_triples`)."""
    P = bases_from_hypertrees(g)
    triples = Counter()
    for h in enumerate_hypertrees(g):
        rec = ActivityRecord(*min_rule_activities(P, h, order_fn(g, h)))
        triples[rec.oi, rec.oe, rec.ie] += 1
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
    """Exact truncated corank-nullity table, one line of the box at a time.

    Any c with d1> <= imax and d1< <= jmax satisfies, coordinatewise,
    min_h h(e) - imax <= c(e) <= max_h h(e) + jmax, so counting the
    points of that box that fall in the window is exact.  Every
    hypertree h has coordinate sum N = #violet - 1, so d1<(h, c) -
    d1>(h, c) = sum(c) - N for each h, and d1>(H, c) = d1<(H, c) -
    (sum(c) - N): d1< alone is needed.  The sweep walks the box of all
    coordinates but the last and skips every prefix whose least partial
    d1< already exceeds jmax, or d1> imax, with all its points; each
    prefix it yields gets d1< on its whole line of last coordinates from
    :func:`crapo.along_line`.  The whole box's budget is checked first.
    """
    if imax < 0 or jmax < 0:
        raise ValueError("bounds must be non-negative")
    hs = enumerate_hypertrees(g)
    box = box_around(hs, imax, jmax)
    box_size(box)  # the empty-side and budget checks, before any sweep
    *head, (lo, hi) = box
    line = along_line([h[-1] for h in hs], lo, hi)
    total = sum(hs[0])  # N, the coordinate sum of every hypertree
    counts = {(i, j): 0 for i in range(imax + 1) for j in range(jmax + 1)}

    def out_of_window(sides):
        less, greater = map(min, zip(*sides))
        return less > jmax or greater > imax

    for point, sides, _ in sweep(head, [h[:-1] for h in hs], prune=out_of_window):
        if out_of_window(sides):  # sides only grow along the line
            continue
        excess = sum(point) + lo - total  # sum(c) - N at the line's first point
        for j in line([less for less, _ in sides]):
            i = j - excess
            excess += 1
            if i <= imax and j <= jmax:
                counts[(i, j)] += 1
    return CoefficientTable(imax, jmax, tuple(sorted(counts.items())))


def _series_coeff(a: int, i: int) -> int:
    """Coefficient of u^i in (1/(1-u))^a = sum_i C(a+i-1, a-1) u^i."""
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
    """Deletion/contraction Tutte polynomial of a connected multigraph."""
    if not connected(graph.edges, graph.vertex_count):
        raise Disconnected("classical Tutte requires a connected graph")
    return _dc(graph.vertex_count, list(graph.edges))


def _dc(n: int, edges: list) -> Poly:
    loops = [t for t in edges if t[1] == t[2]]
    plain = [t for t in edges if t[1] != t[2]]
    for idx, (name, u, v) in enumerate(plain):
        rest = plain[:idx] + plain[idx + 1:]
        if connected(rest, n):
            # ordinary edge: delete + contract
            deleted = _dc(n, rest + loops)
            contracted = _dc(n - 1, _contract(rest + loops, u, v, n))
            return deleted + contracted
    # only bridges and loops remain
    p = Poly.x() ** len(plain) * Poly.y() ** len(loops)
    return p


def _contract(edges, u, v, n):
    """Merge v into u and relabel the last vertex into v's slot."""
    out = []
    for name, a, b in edges:
        a2 = u if a == v else a
        b2 = u if b == v else b
        # keep vertex ids dense: move vertex n-1 down to v's old id
        if v != n - 1:
            if a2 == n - 1:
                a2 = v
            if b2 == n - 1:
                b2 = v
        out.append((name, a2, b2))
    return out


def to_bipartite(graph: Graph) -> RibbonGraph:
    """Bipartite ribbon model: one emerald node per graph edge.

    The embedding polynomial is ribbon-structure invariant, so rotations
    are simply the incidence lists in index order.
    """
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
