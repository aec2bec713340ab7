"""Hypertrees: degree vectors of spanning trees at the emerald nodes.

A hypertree of a bipartite ribbon graph is a vector h over the emerald
nodes such that some spanning tree has degree h(e)+1 at every emerald
node e.  Hypertrees are stored as plain tuples indexed by emerald index.

Membership and enumeration use Kálmán's characterisation: h is a
hypertree iff h >= 0, sum(h) = #violet - 1 and h(S) <= mu(S) for every
set S of emeralds, where mu(S) = |N(S)| - c(S), N(S) is the set of
violet neighbours of S and c(S) the number of components of the subgraph
that S's edges induce.  The mu table is built once per graph, from
2^#emerald subset ranks, when membership or enumeration first needs it.

The Jaeger trees of a hypertree are built by one greedy walk,
:func:`tours.walk` over the tree under construction (:func:`greedy_tree`),
which keeps h realisable at every decision; its steps are the tour of
the tree it builds, and it records the two emerald orders of that tour
as it goes.  The walk carries a witness tree, one spanning tree that
realises h and agrees with every decision so far.  A decision the
witness already makes costs nothing; any other moves the witness along
at most one augmenting path of Edmonds' matroid intersection (the
graphic matroid with the tree so far contracted and the decided edges
deleted, against the partition matroid of the emerald degrees), or
finds that no spanning tree fits it.  So the walk is polynomial and
needs no mu table, and h is a hypertree iff a first witness exists
(:func:`first_witness`).  The first witness depends on h alone, so a
caller that walks h in both variants builds it once and passes it to
both walks.

Listing spanning trees (:func:`all_spanning_trees`) remains for the
coverage figures of the benchmark; the oracles built on it, and the
exchange search that re-derives the hypertree set, are in
``tests/oracles.py``.

Everything derived from one graph lives in the graph itself and dies
with it (:func:`cached`).  The set of all hypertrees forms the bases of
a polymatroid (Kálmán), so it is trusted, not checked, where it is
built; the tests check the exchange axiom through
:func:`delta.exchange_witness`.
"""

from __future__ import annotations

from .model import RibbonGraph, adjacency, is_emerald, node_index, reach
from . import tours


def cached(g: RibbonGraph, name: str, build):
    """``build(g)``, computed once per graph and kept in the graph, so it
    lives as long as g does; no value refers back to its graph."""
    derived = g.derived
    if name not in derived:
        derived[name] = build(g)
    return derived[name]


class _Layout:
    """Integer form of a graph: violet i is node i, emerald j is node nv+j;
    each edge's ends and emerald, and the edges at each node."""

    def __init__(self, g: RibbonGraph):
        nv, ne = g.violet_count, g.emerald_count
        self.nv, self.ne = nv, ne
        self.ends = tuple((node_index(v), nv + node_index(e)) for v, e in g.edges)
        self.at = tuple(e - nv for _, e in self.ends)
        incident = [[] for _ in range(nv + ne)]
        for k, ends in enumerate(self.ends):
            for x in ends:
                incident[x].append(k)
        self.incident = tuple(map(tuple, incident))
        self.blocks = self.incident[nv:]


def _layout(g: RibbonGraph) -> _Layout:
    return cached(g, "layout", _Layout)


def _mu(g: RibbonGraph) -> list:
    """mu(S) = |N(S)| - c(S), the rank of S's edges minus |S|, for every
    set S of emeralds (bit j of S is emerald j): 2^#emerald ranks, built
    when membership or enumeration first needs them."""

    def build(g):
        lay = _layout(g)
        return [
            _forest_size(
                (lay.ends[k] for j in range(lay.ne) if S >> j & 1 for k in lay.blocks[j]),
                len(lay.ends),
            )
            - S.bit_count()
            for S in range(1 << lay.ne)
        ]

    return cached(g, "mu", build)


def degree_vector(g: RibbonGraph, tree: frozenset) -> tuple:
    """h(e) = (tree degree of emerald node e) - 1, as a tuple."""
    degs = [0] * g.emerald_count
    for k in tree:
        _, e = g.endpoints(k)
        degs[node_index(e)] += 1
    return tuple(d - 1 for d in degs)


def well_formed(g: RibbonGraph, v: tuple) -> bool:
    """The O(#emerald) part of membership: one non-negative int per
    emerald, summing to #violet - 1."""
    return (
        len(v) == g.emerald_count
        and all(isinstance(x, int) and x >= 0 for x in v)
        and sum(v) == g.violet_count - 1
    )


def is_hypertree(g: RibbonGraph, vector) -> bool:
    """Kálmán's test: v >= 0, sum(v) = #violet - 1 and v(S) <= mu(S)."""
    v = tuple(vector)
    return well_formed(g, v) and all(s <= m for s, m in zip(_subset_sums(v), _mu(g)))


def _subset_sums(values) -> list:
    """The sum of values over S, for every index set S (bit i = index i)."""
    sums = [0] * (1 << len(values))
    for S in range(1, len(sums)):
        low = S & -S
        sums[S] = sums[S ^ low] + values[low.bit_length() - 1]
    return sums


def _hypertrees(g: RibbonGraph) -> tuple:
    """Every v with v(S) <= mu(S) and sum(v) = #violet - 1, in
    lexicographic order.  At coordinate j the subsets of {0..j} holding j
    bound v(j) from above, and mu of the later coordinates bounds it from
    below; the last coordinate is fixed by the sum."""
    ne, mu, total = g.emerald_count, _mu(g), g.violet_count - 1
    full = (1 << ne) - 1
    h = [0] * ne
    sums = [0] * (1 << ne)  # h(S) over the coordinates assigned so far
    out = []

    def rec(j, used):
        bit = 1 << j
        cap = min(mu[S | bit] - sums[S] for S in range(bit))
        later = full & ~((bit << 1) - 1)
        for x in range(max(0, total - used - mu[later]), min(cap, total - used) + 1):
            h[j] = x
            if j == ne - 1:
                out.append(tuple(h))
                continue
            for S in range(bit):
                sums[S | bit] = sums[S] + x
            rec(j + 1, used + x)

    rec(0, 0)
    return tuple(out)


def enumerate_hypertrees(g: RibbonGraph) -> tuple:
    """All hypertrees of g in lexicographic order (tuple of tuples)."""
    return cached(g, "hypertrees", _hypertrees)


def _forest_size(pairs, bound) -> int:
    """Edges in a spanning forest of the (node, node) pairs, counted up to
    ``bound``: the count stops as soon as it reaches it."""
    parent = {}
    size = 0
    for a, b in pairs:
        while parent.get(a, a) != a:
            a = parent[a]
        while parent.get(b, b) != b:
            b = parent[b]
        if a != b:
            parent[a] = b
            size += 1
            if size == bound:
                break
    return size


# -- the witness: a spanning tree that fits h and every decision so far ------
#
# The walk's ground set is its undecided edges, each given by its ends in
# ``pairs`` with every reached node renamed -1: the included tree is
# contracted to that one node, and decided edges are left out.  A witness
# less the included tree is a common basis there of the graphic matroid
# and the partition matroid that allows need[j] more edges at emerald j.


def _contract(lay: _Layout, pairs: list, x: int) -> None:
    """Rename node x to -1, the reached nodes, in ``pairs``, in place."""
    for k in lay.incident[x]:
        a, b = pairs[k]
        pairs[k] = (-1, b) if lay.ends[k][0] == x else (a, -1)


def _rooted(pairs, edges, roots=()) -> tuple:
    """The forest ``edges`` as (via, top): the edge each node was reached
    by from its tree's root (None at the root) and that root; the
    ``roots`` given are taken first."""
    adj = adjacency((k, *pairs[k]) for k in edges)
    via, top = {}, {}
    for r in (*roots, *adj):
        if r not in top:
            found = reach(adj, r)
            via.update(found)
            top.update(dict.fromkeys(found, r))
    return via, top


def _climb(pairs, via, x) -> list:
    """The edges from node x up to its root, as :func:`_rooted` found them."""
    path = []
    while via[x] is not None:
        k = via[x]
        path.append(k)
        a, b = pairs[k]
        x = a if x == b else b
    return path


def _augment(lay: _Layout, pairs, ground, chosen: set, need) -> bool:
    """Grow ``chosen``, in place, by one edge of ``ground`` along a
    shortest augmenting path of Edmonds' matroid intersection; False if
    no such path exists, in which case ``chosen`` is as large as any
    common independent set.

    ``chosen`` is independent in the graphic matroid on the nodes of
    ``pairs`` and in the partition matroid that allows need[j] edges at
    emerald j.  The search goes breadth first and backwards from the
    outside edges whose emerald has room: an outside edge is reached from
    the chosen edges on its cycle in ``chosen``, a chosen edge from the
    outside edges at its emerald.  The first outside edge reached that
    joins two trees of ``chosen`` starts the path; being shortest, the
    path can be swapped in and out with both matroids kept independent.
    """
    via, top = _rooted(pairs, chosen)
    room = list(need)
    for k in chosen:
        room[lay.at[k]] -= 1
    queue, joins = [], set()
    for k in ground:
        a, b = pairs[k]
        if a != b and k not in chosen:
            if top.get(a, a) != top.get(b, b):
                joins.add(k)
            if room[lay.at[k]]:
                queue.append(k)
    if not joins:  # no path can start
        return False
    back = dict.fromkeys(queue)  # edge -> the next edge towards room
    opened = set()  # emeralds whose outside edges are queued
    for x in queue:
        if x in chosen:
            j = lay.at[x]
            if j in opened:
                continue
            opened.add(j)
            after = [k for k in lay.blocks[j] if k in ground and k not in chosen
                     and pairs[k][0] != pairs[k][1]]
        elif x in joins:
            while x is not None:
                chosen.symmetric_difference_update((x,))
                x = back[x]
            return True
        else:
            a, b = pairs[x]
            up, down = _climb(pairs, via, a), _climb(pairs, via, b)
            while up and down and up[-1] == down[-1]:
                up.pop()
                down.pop()
            after = up + down  # the cycle x closes in chosen
        for y in after:
            if y not in back:
                back[y] = x
                queue.append(y)
    return False


def _grown(lay: _Layout, pairs, ground, chosen: set, need) -> set | None:
    """``chosen`` grown by augmenting paths until it fills every cap, which
    makes it a spanning tree of the nodes of ``pairs``, or None if it
    cannot."""
    while len(chosen) < sum(need):
        if not _augment(lay, pairs, ground, chosen, need):
            return None
    return chosen


def _witness(lay: _Layout, need) -> set | None:
    """A spanning tree with need[j] edges at every emerald j, or None:
    a greedy union-find pass under the caps, then augmenting paths."""
    chosen, used, parent = set(), [0] * lay.ne, {}
    for k, (a, b) in enumerate(lay.ends):
        j = lay.at[k]
        while parent.get(a, a) != a:
            a = parent[a]
        while parent.get(b, b) != b:
            b = parent[b]
        if a != b and used[j] < need[j]:
            parent[a] = b
            used[j] += 1
            chosen.add(k)
    return _grown(lay, lay.ends, range(len(lay.ends)), chosen, need)


def _needed(lay: _Layout, pairs, free, need, k, there) -> bool:
    """Whether every spanning tree that keeps the decisions so far has k:
    k is the last undecided edge at its unreached end ``there``, or its
    emerald has fewer other undecided edges, loops aside, than it needs."""
    j = lay.at[k]
    return not any(x in free for x in lay.incident[there]) or need[j] > sum(
        x in free and pairs[x][0] != pairs[x][1] for x in lay.blocks[j]
    )


def _decided(lay: _Layout, pairs, via, free, rest: set, need, k, include) -> set | None:
    """The edges of a witness outside the included tree once k is decided
    as asked, or None if no spanning tree fits that decision.

    ``rest``, the current witness less the included tree, decides k the
    other way; this call may change it.  It is flipped at k and trimmed
    to a common independent set: excluding k leaves it one edge short;
    including k closes a cycle with the path that joins k's unreached end
    to the reached nodes (found through ``via``, ``rest`` rooted there by
    :func:`_rooted`), so one of its edges goes, and one more at k's
    emerald if that edge was elsewhere, which leaves it one edge short.
    One augmenting path then fills it up again, if it is short.
    """
    j = lay.at[k]
    if include:
        there = max(pairs[k])  # the unreached end; the reached one is -1
        cycle = _climb(pairs, via, there)
        cut = next((y for y in cycle if lay.at[y] == j), cycle[0])
        rest.remove(cut)
        if lay.at[cut] != j:
            rest.remove(next(y for y in rest if lay.at[y] == j))
        pairs, need = pairs.copy(), need.copy()
        _contract(lay, pairs, there)
        need[j] -= 1
    else:
        rest.remove(k)
    return _grown(lay, pairs, free, rest, need)


def first_witness(g: RibbonGraph, h) -> tuple | None:
    """A spanning tree with degree h(e)+1 at every emerald e, as a sorted
    tuple of edge ids, or None if h is not a hypertree.  It starts the
    walk of :func:`greedy_tree`, and callers that walk h in both variants
    build it once and pass it to both."""
    h = tuple(h)
    if not well_formed(g, h):
        return None
    witness = _witness(_layout(g), [x + 1 for x in h])
    return None if witness is None else tuple(sorted(witness))


def greedy_tree(g: RibbonGraph, h, variant: str = "emerald", first=None) -> tuple | None:
    """The Jaeger tree of h and the two emerald orders of its tour,
    built in one walk, or None if h is not a hypertree.

    The walk is :func:`tours.walk` over the tree under construction; it
    decides each edge at its first visit, so its steps are the tour of
    the tree it returns.  For the emerald Jaeger tree it prefers to
    include the edge when standing at a violet node and to exclude it at
    an emerald node; ``variant="violet"`` reverses both preferences.  The
    preferred side is kept if a spanning tree with degree h(e)+1 at every
    emerald e still fits the decisions, otherwise the other side is
    taken.  This picks the least representative of h in the tree order
    by first tour difference, which is its Jaeger tree.  Along the way the
    walk records the emeralds in order of first appearance as the current
    node, and as the emerald end of the current edge; it returns
    (tree, node order, edge order).

    Feasibility is read off a witness: one spanning tree that realises h
    and keeps every decision so far.  The first witness is ``first``, if
    given (edge ids of a spanning tree that realises h, as
    :func:`first_witness` returns them), and is otherwise built here by
    matroid intersection (:func:`_witness`; none exists iff h is not a
    hypertree).  A decision the witness already makes is feasible at no
    cost.  Any other is tested by moving the witness (:func:`_decided`):
    if it cannot move, no spanning tree fits the preferred side
    (Edmonds), and the witness already fits the other one.  Some
    decisions need no search.  An edge back into the included tree, or
    at an emerald that needs no more edges, is in no witness and is
    excluded.  An edge that every fitting tree has (:func:`_needed`) is
    included.  An edge to be included takes the place of the witness
    edge by which its unreached end hangs towards the reached nodes, if
    that edge is at the same emerald; this covers every include from a
    violet node towards an unreached emerald.
    """
    h = tuple(h)
    if first is None:
        first = first_witness(g, h)
        if first is None:
            return None
    lay = _layout(g)
    need = [x + 1 for x in h]
    witness = set(first)
    b0 = g.basis[0]
    start = node_index(b0) + (lay.nv if is_emerald(b0) else 0)
    pairs = list(lay.ends)
    _contract(lay, pairs, start)
    free = set(range(len(lay.ends)))  # undecided edges
    tree, reached = set(), {start}
    by_node, by_edge = {}, {}  # emeralds in order of first appearance, as keys
    via = None  # the witness less the tree, rooted at the reached nodes; None when stale
    include_at_emerald = variant == "violet"
    for node, k in tours.walk(g, tree):
        at_emerald = is_emerald(node)
        if at_emerald:
            by_node[node] = None
        by_edge[g.edges[k][1]] = None
        if k not in free:
            continue
        free.remove(k)
        there = lay.ends[k][not at_emerald]
        j = lay.at[k]
        if there in reached or not need[j]:
            continue
        prefer = at_emerald == include_at_emerald
        if k in witness:
            moves = not prefer and not _needed(lay, pairs, free, need, k, there)
        else:
            moves = prefer
        if moves:
            if prefer and via is None:
                via = _rooted(pairs, witness - tree, (-1,))[0]
            if prefer and lay.at[via[there]] == j:
                # k takes the place of the witness edge from there towards
                # the reached nodes; once there is reached, via holds again
                witness = witness - {via[there]} | {k}
            else:
                rest = _decided(lay, pairs, via, free, witness - tree, need, k, prefer)
                if rest is not None:
                    witness, via = tree | rest | ({k} if prefer else set()), None
        if k in witness:  # the walk crosses k next
            tree.add(k)
            need[j] -= 1
            reached.add(there)
            _contract(lay, pairs, there)
    return frozenset(tree), tuple(by_node), tuple(by_edge)


# -- spanning-tree listing, for the benchmark's coverage figures -------------


def all_spanning_trees(g: RibbonGraph) -> tuple:
    return cached(g, "spanning_trees", lambda g: tuple(tours.enumerate_spanning_trees(g)))

