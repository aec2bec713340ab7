"""Oracles for the tests: definitions computed the slow, obvious way,
against which the package's direct constructions are checked, and the
helpers that build test inputs.  No command and no benchmark workload
runs them.

- Rotations and trees: incident edges, degree and rotation successor
  (:func:`next_at`), fundamental cycles and cuts and base components.
- Hypertrees: the degree vector of a tree (:func:`degree_vector`),
  listing by degree vector (:func:`representatives`),
  membership (:func:`is_hypertree`) and the set grown by exchange moves.
- Jaeger trees read off a tour (:func:`is_jaeger`), the violet node
  order of a hypertree (:func:`order_violet`), and the tree order by
  first tour difference (:func:`tree_less`).
- Distances point by point (:func:`one_sided`, :func:`d1`), Crapo
  interval membership (:func:`interval_contains`), and distance
  attainment on a product of ranges against every other center
  (:func:`attains_against_all`).
- Polynomial arithmetic on the terms of a ``Poly`` (:func:`plus`,
  :func:`times`, :func:`power`), :func:`substitute` and :func:`degrees`,
  the monomials :func:`x`, :func:`y` and :func:`monomial`, and a random
  rotation and basis for the same graph (:func:`perturbed`).
- Classical graphs (:class:`Graph`, :func:`load_graph`): fixed-order
  activities of a spanning tree (:func:`classical_activities`), the
  classical Tutte polynomial as Tutte's activity expansion, the
  bipartite model, and the bridge report that compares the two
  polynomials (:func:`graph_tutte_bridge`).
- fig6, the parallel-edge counterexample: the cycle matroid with an
  order per spanning tree (:func:`fixed_tree_order_activities`).
- Activities one shifted basis at a time (:func:`shifted_active`), the
  rule the exchange tables of the package are checked against.
- Decision trees listed, counted and drawn at random.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass

from hypertutte.delta import DecisionTree
from hypertutte.polymatroid import PolymatroidBases, assignment_from_orders
from hypertutte.hypertrees import all_spanning_trees, jaeger_trees, orders, well_formed
from hypertutte.model import (
    ParseError, RibbonGraph, adjacency, connected, emerald, is_emerald, is_int, node_index,
    reach, violet, yaml_mapping,
)
from hypertutte.polynomial import Poly
from hypertutte.tours import enumerate_spanning_trees, spanning_trees, tour, walk
from hypertutte.tutte import tutte_embedding


# -- rotations -----------------------------------------------------------------


def incident(g: RibbonGraph, node: str) -> tuple[int, ...]:
    """The edges at ``node``, in the order of its rotation."""
    return dict(g.rotations)[node]


def degree(g: RibbonGraph, node: str) -> int:
    return len(incident(g, node))


def next_at(g: RibbonGraph, node: str, edge: int) -> int:
    """Successor of ``edge`` in the cyclic rotation at ``node``."""
    return g.sigma[g.dart(node, edge)] >> 1


# -- trees ---------------------------------------------------------------------


class WrongSide(ValueError):
    """Edge is on the wrong side of the tree for the requested operation."""


def _tree_adjacency(g: RibbonGraph, tree, removed=None) -> dict:
    return adjacency((k, *g.edges[k]) for k in tree if k != removed)


def climb(via: dict, ends, x) -> list:
    """The edges from node x up to its root in a :func:`reach` map, where
    ``ends[k]`` holds edge k's two ends."""
    path = []
    while via[x] is not None:
        k = via[x]
        path.append(k)
        a, b = ends[k]
        x = a if x == b else b
    return path


def fundamental_cycle(g: RibbonGraph, tree: frozenset, edge: int) -> frozenset:
    """Edge set of the unique cycle of tree + edge (includes ``edge``)."""
    if edge in tree:
        raise WrongSide("fundamental_cycle expects a non-tree edge")
    v, e = g.edges[edge]
    return frozenset(climb(reach(_tree_adjacency(g, tree), v), g.edges, e)) | {edge}


def _component(g: RibbonGraph, tree: frozenset, removed: int, root: str) -> frozenset:
    return frozenset(reach(_tree_adjacency(g, tree, removed), root))


def fundamental_cut(g: RibbonGraph, tree: frozenset, edge: int) -> frozenset:
    """Edges crossing the two components of tree - edge (includes ``edge``)."""
    if edge not in tree:
        raise WrongSide("fundamental_cut expects a tree edge")
    v, _ = g.edges[edge]
    shore = _component(g, tree, edge, v)
    return frozenset(
        k
        for k, (a, b) in enumerate(g.edges)
        if (a in shore) != (b in shore)
    )


def base_component(g: RibbonGraph, tree: frozenset, edge: int) -> frozenset:
    """Node set of the basis-side component of tree - edge."""
    if edge not in tree:
        raise WrongSide("base_component expects a tree edge")
    return _component(g, tree, edge, g.basis[0])


# -- hypertrees ----------------------------------------------------------------


def degree_vector(g: RibbonGraph, tree) -> tuple:
    """h(e) = (tree degree of emerald node e) - 1, as a tuple, counted
    from the tree's edges; the tour search carries it instead."""
    degs = [-1] * g.emerald_count
    for k in tree:
        degs[node_index(g.edges[k][1])] += 1
    return tuple(degs)


def is_hypertree(g: RibbonGraph, vector) -> bool:
    """Whether the vector is a hypertree: well formed, and the degree
    vector of an emerald Jaeger tree."""
    v = tuple(vector)
    return well_formed(g, v) and v in jaeger_trees(g)


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
    seed = degree_vector(g, next(iter(enumerate_spanning_trees(g))))
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


def order_violet(g: RibbonGraph, h) -> tuple:
    """The emeralds in order of first appearance as the current node on
    the tour of the violet Jaeger tree of h, as the violet search found
    them: the orders of kind "violet"."""
    return orders(g, "violet")[tuple(h)]


# -- the tree order ------------------------------------------------------------


class EqualTrees(ValueError):
    """Raised by the tree comparison when both trees are identical."""


def first_difference(g: RibbonGraph, t1: frozenset, t2: frozenset):
    """Earliest tour step treated differently by the two trees, as a
    (node, edge) pair, or None.

    Both tours produce the same dart sequence up to the first dart whose
    edge lies in exactly one tree, so the tour of t1 alone suffices.
    """
    for d in walk(g, t1):
        if (d >> 1 in t1) != (d >> 1 in t2):
            return g.node_edge(d)
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


# -- lattice distances ---------------------------------------------------------


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


def d1_less(hs, c) -> int:
    """min over the set of sum_e max(0, c(e) - h(e)): generalized nullity."""
    return min(one_sided(h, c)[0] for h in hs)


def d1_greater(hs, c) -> int:
    """min over the set of sum_e max(0, h(e) - c(e)): generalized corank."""
    return min(one_sided(h, c)[1] for h in hs)


def d1(hs, c) -> int:
    """Manhattan distance from c to the set."""
    return min(sum(one_sided(h, c)) for h in hs)


def interval_contains(center, record, c) -> bool:
    """c lies in the Crapo interval of basis ``center`` under its activity
    record: it exceeds the center only at coordinates in the bit mask
    ``record.external`` and falls below it only at those in
    ``record.internal``."""
    for idx, (ci, hi) in enumerate(zip(c, center)):
        if ci > hi:
            if not record.external >> idx & 1:
                return False
        elif ci < hi and not record.internal >> idx & 1:
            return False
    return True


def attains_against_all(part, k, centers) -> bool:
    """Whether center k attains both one-sided distances to ``centers`` at
    every point of ``part``, one ``(a, b)`` range per coordinate (a <= b).
    For each center h, the distances from c to h less those to k are on
    each side a sum of one term per coordinate, max(0, c_i - h_i) -
    max(0, c_i - k_i) below and max(0, h_i - c_i) - max(0, k_i - c_i)
    above, each monotone in c_i; so its least value on the part is the
    sum of each term's lesser value at the two ends of the range, and k
    attains both distances iff no such sum is negative: O(k n) per
    center for k centers and n coordinates."""
    for h in centers:
        less = greater = 0
        for (a, b), x, y in zip(part, h, k):
            less += min(max(0, a - x) - max(0, a - y), max(0, b - x) - max(0, b - y))
            greater += min(max(0, x - a) - max(0, y - a), max(0, x - b) - max(0, y - b))
        if less < 0 or greater < 0:
            return False
    return True


# -- polynomials ---------------------------------------------------------------


def plus(*ps: Poly) -> Poly:
    """The sum of the polynomials; 0 for none."""
    out = Counter()
    for p in ps:
        out.update(p.terms)
    return Poly(out)


def times(*ps: Poly) -> Poly:
    """The product of the polynomials; 1 for none."""
    out = Counter({(0, 0): 1})
    for p in ps:
        product = Counter()
        for (a1, b1), c1 in out.items():
            for (a2, b2), c2 in p.terms.items():
                product[a1 + a2, b1 + b2] += c1 * c2
        out = product
    return Poly(out)


def power(p: Poly, n: int) -> Poly:
    """p to the power n, for n at least 0."""
    if n < 0:
        raise ValueError("negative power")
    return times(*[p] * n)


def substitute(p: Poly, px: Poly, py: Poly) -> Poly:
    """Evaluate p at x = px, y = py (both polynomials)."""
    return plus(*(times(monomial(0, 0, c), power(px, a), power(py, b))
                  for (a, b), c in p.terms.items()))


def degrees(p: Poly) -> tuple[int, int]:
    """(max x-exponent, max y-exponent); (0, 0) for the zero polynomial."""
    if not p.terms:
        return (0, 0)
    return (
        max(a for a, _ in p.terms),
        max(b for _, b in p.terms),
    )


def monomial(a: int, b: int, c: int = 1) -> Poly:
    return Poly({(a, b): c})


def x() -> Poly:
    return monomial(1, 0)


def y() -> Poly:
    return monomial(0, 1)


def x_plus_y_minus_1() -> Poly:
    return Poly({(1, 0): 1, (0, 1): 1, (0, 0): -1})


# -- random embeddings ---------------------------------------------------------


def perturbed(g: RibbonGraph, rng: random.Random) -> RibbonGraph:
    """Same underlying graph with shuffled rotations and a random basis."""
    rotation = {node: list(rot) for node, rot in g.rotations}
    for rot in rotation.values():
        rng.shuffle(rot)
    b0 = rng.choice(list(rotation))
    beta0 = rng.choice(rotation[b0])
    return RibbonGraph.build(
        g.violet_count, g.emerald_count, g.edges, rotation, (b0, beta0)
    )


# -- classical graphs ----------------------------------------------------------


class Disconnected(ValueError):
    """Classical Tutte requires a connected graph."""


class NoEdges(ValueError):
    """The bipartite model of a graph needs at least one edge."""


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


def classical_activities(n_vertices, edges, tree, order):
    """Fixed-order internal/external activity of a spanning tree of an
    ordinary graph; edges are (u, v) pairs indexed by position.  A tree
    edge e is internal iff no f before e in ``order`` makes tree - e + f
    a tree, a non-tree edge e external iff no f before e makes
    tree + e - f one."""

    def is_tree(edge_set):
        return len(edge_set) == n_vertices - 1 and connected(
            ((k, *edges[k]) for k in edge_set), n_vertices)

    internal = {
        e for e in tree
        if not any(f < e and is_tree(tree - {e} | {f}) for f in order)
    }
    external = {
        e for e in set(order) - tree
        if not any(f < e and is_tree((tree | {e}) - {f}) for f in order)
    }
    return internal, external


def classical_tutte(graph: Graph) -> Poly:
    """Tutte polynomial of a connected multigraph, by Tutte's activity
    expansion: x^internal y^external summed over the spanning trees of
    :func:`tours.spanning_trees`, edges ordered by position."""
    if not connected(graph.edges, graph.vertex_count):
        raise Disconnected("classical Tutte requires a connected graph")
    n, edges = graph.vertex_count, [(u, v) for _, u, v in graph.edges]
    terms = Counter()
    for tree in spanning_trees(((k, u, v) for k, (u, v) in enumerate(edges)), n):
        internal, external = classical_activities(n, edges, tree, range(len(edges)))
        terms[len(internal), len(external)] += 1
    return Poly(terms)


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
    dx, dy = degrees(p)
    out = plus(*(times(monomial(0, 0, c), power(num1, a), power(den1, dx - a),
                       power(num2, b), power(den2, dy - b))
                 for (a, b), c in p.terms.items()))
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
    yv, xv = y(), x()

    candidates = {}
    for args_label, (d1, d2) in (("equal-args", (yv, yv)), ("split-args", (yv, xv))):
        for orient, (lhs, inner) in (
            ("classical-from-hyper", (t_classical, t_hyper)),
            ("hyper-from-classical", (t_hyper, t_classical)),
        ):
            num, dx, dy = _substitute_rational(inner, s, d1, s, d2)
            rhs = times(monomial(a, b), num)
            left = times(lhs, power(d1, dx), power(d2, dy))
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


# -- fig6: the cycle matroid with per-tree orders ------------------------------


def graph_matroid(graph) -> PolymatroidBases:
    """Cycle matroid of a connected ordinary graph: bases are the 0/1
    indicator vectors of its spanning trees, over the named edge ground set."""
    edges = [(i, u, v) for i, (_, u, v) in enumerate(graph.edges)]
    if not connected(edges, graph.vertex_count):
        raise ValueError("the cycle matroid needs a connected graph: "
                         "a disconnected one has no spanning tree")
    names = graph.edge_names()
    bases = set()
    for tree in spanning_trees(edges, graph.vertex_count):
        bases.add(tuple(1 if i in tree else 0 for i in range(len(names))))
    return PolymatroidBases(tuple(names), frozenset(bases))


def basis_name(P: PolymatroidBases, b) -> str:
    """Concatenated names of the elements present in a 0/1 basis."""
    return "".join(e for e, x in zip(P.ground, b) if x)


def fixed_tree_order_activities(graph, order_map: dict) -> tuple:
    """Prop-6.4-style assignment: each spanning tree carries its own
    element order (keyed by concatenated edge names), MIN-rule
    activities.  Returns (matroid, assignment)."""
    P = graph_matroid(graph)
    by_basis = {b: tuple(order_map[basis_name(P, b)]) for b in P.bases}
    return P, assignment_from_orders(P, by_basis)


# -- activities by shifted bases ------------------------------------------------


def shift(b, up, down) -> tuple:
    """b + 1_up - 1_down."""
    out = list(b)
    out[up] += 1
    out[down] -= 1
    return tuple(out)


def shifted_active(P: PolymatroidBases, b, i, others) -> tuple:
    """The activity rule one shifted basis at a time: is the element e at
    coordinate i of basis b internally active against the coordinates
    ``others`` (no f there makes b - 1_e + 1_f a basis), and externally
    (nor b + 1_e - 1_f)?  A move past P's floor or rank at a coordinate
    leaves the bases: no lookup."""
    bases, floors, ranks = P.bases, P._floors, P._ranks
    internal = b[i] <= floors[i] or not any(
        b[f] < ranks[f] and shift(b, f, i) in bases for f in others)
    external = b[i] >= ranks[i] or not any(
        b[f] > floors[f] and shift(b, i, f) in bases for f in others)
    return internal, external


def shifted_rule_activities(P: PolymatroidBases, b, order, later) -> tuple:
    """(internal, external) bit masks over the coordinates of basis b,
    each element tested by :func:`shifted_active` against the elements
    after it in ``order`` (``later``, the MAX rule) or before it (the MIN
    rule)."""
    b = tuple(b)
    at = [P.index(e) for e in order]
    internal = external = 0
    for pos, i in enumerate(at):
        inside, outside = shifted_active(P, b, i, at[pos + 1:] if later else at[:pos])
        internal |= inside << i
        external |= outside << i
    return internal, external


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
