"""Hypertrees: degree vectors of spanning trees at the emerald nodes.

A hypertree of a bipartite ribbon graph is a vector h over the emerald
nodes such that some spanning tree has degree h(e)+1 at every emerald
node e.  Hypertrees are stored as plain tuples indexed by emerald index.

Membership and enumeration use Kálmán's characterisation: h is a
hypertree iff h >= 0, sum(h) = #violet - 1 and h(S) <= mu(S) for every
set S of emeralds, where mu(S) = |N(S)| - c(S), N(S) is the set of
violet neighbours of S and c(S) the number of components of the subgraph
that S's edges induce.  The mu table is built once per graph, from
2^#emerald subset ranks.

The Jaeger trees of a hypertree are built by one greedy walk,
:func:`tours.walk` over the tree under construction (:func:`greedy_tree`),
which keeps h realisable at every decision; its steps are the tour of
the tree it builds.  Listing spanning trees
(:func:`all_spanning_trees`, :func:`representatives`) and the exchange
search :func:`hypertrees_by_exchange` remain as independent oracles for
the tests.

Everything derived from one graph lives in a per-graph cache that dies
with the graph (:func:`cached`).  The set of all hypertrees forms the
bases of a polymatroid (Kálmán), so it is trusted, not checked, where it
is built; :func:`exchange_witness` names a witness of the exchange axiom
through :func:`delta.exchange_witness`, and the tests check the axiom.
"""

from __future__ import annotations

import weakref

from .model import RibbonGraph, emerald, is_emerald, node_index
from . import delta, tours


class NoWitness(RuntimeError):
    """No exchange witness exists; valid hypertree data never triggers this."""


# graph -> {name: value derived from the graph}; no value refers to its graph
_CACHE = weakref.WeakKeyDictionary()


def cached(g: RibbonGraph, name: str, build):
    """``build(g)``, computed once per graph and kept while g is alive."""
    entry = _CACHE.setdefault(g, {})
    if name not in entry:
        entry[name] = build(g)
    return entry[name]


class _Layout:
    """Integer form of a graph: violet i is node i, emerald j is node nv+j;
    edges by emerald, the mu table over emerald sets (bit j of a set is
    emerald j) and the edges around the tour's start node in tour order."""

    def __init__(self, g: RibbonGraph):
        nv, ne = g.violet_count, g.emerald_count
        self.nv, self.ne = nv, ne
        self.ends = tuple((node_index(v), nv + node_index(e)) for v, e in g.edges)
        blocks = [[] for _ in range(ne)]
        for k, (_, e) in enumerate(self.ends):
            blocks[e - nv].append(k)
        self.blocks = tuple(tuple(b) for b in blocks)
        self.members = tuple(
            tuple(j for j in range(ne) if S >> j & 1) for S in range(1 << ne)
        )
        # the tour of the empty tree turns once around the start node
        self.around_start = tuple(k for _, k in tours.walk(g, ()))
        self._mu_tables = {}
        self.mu = self.mu_without(0)

    def mu_without(self, m: int) -> list:
        """mu(S) = |N(S)| - c(S), the rank of S's edges minus |S|, in the
        graph less the first m edges around the start node."""
        if m not in self._mu_tables:
            gone = set(self.around_start[:m])
            self._mu_tables[m] = [
                _forest_size(
                    (self.ends[k] for j in js for k in self.blocks[j] if k not in gone),
                    len(self.ends),
                )
                - len(js)
                for js in self.members
            ]
        return self._mu_tables[m]


def _layout(g: RibbonGraph) -> _Layout:
    return cached(g, "layout", _Layout)


def degree_vector(g: RibbonGraph, tree: frozenset) -> tuple:
    """h(e) = (tree degree of emerald node e) - 1, as a tuple."""
    degs = [0] * g.emerald_count
    for k in tree:
        _, e = g.endpoints(k)
        degs[node_index(e)] += 1
    return tuple(d - 1 for d in degs)


def is_hypertree(g: RibbonGraph, vector) -> bool:
    """Kálmán's test: v >= 0, sum(v) = #violet - 1 and v(S) <= mu(S)."""
    v = tuple(vector)
    lay = _layout(g)
    if len(v) != lay.ne or any(not isinstance(x, int) or x < 0 for x in v):
        return False
    if sum(v) != lay.nv - 1:
        return False
    return all(s <= m for s, m in zip(_subset_sums(v), lay.mu))


def _subset_sums(values) -> list:
    """The sum of values over S, for every index set S (bit i = index i)."""
    sums = [0] * (1 << len(values))
    for S in range(1, len(sums)):
        low = S & -S
        sums[S] = sums[S ^ low] + values[low.bit_length() - 1]
    return sums


def _hypertrees(lay: _Layout) -> tuple:
    """Every v with v(S) <= mu(S) and sum(v) = #violet - 1, in
    lexicographic order.  At coordinate j the subsets of {0..j} holding j
    bound v(j) from above, and mu of the later coordinates bounds it from
    below; the last coordinate is fixed by the sum."""
    ne, mu, total = lay.ne, lay.mu, lay.nv - 1
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
    return cached(g, "hypertrees", lambda g: _hypertrees(_layout(g)))


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


def _realisable(lay, need, free, reached, k, include) -> bool:
    """Whether some spanning tree keeps every decision so far, decides k
    as asked and has need[j] more edges at each emerald j.

    ``free`` holds the undecided edges, k no longer among them; the
    included edges form one tree on the ``reached`` nodes.  Rado's
    condition: for every set S of emeralds, the undecided edges at S must
    have rank at least need(S) once the included edges are contracted,
    i.e. once the reached nodes are one node.  Before the decision the
    state is realisable, so only the sets the decision can change are
    checked: including k contracts it, which changes the rank of sets
    without k's emerald j; excluding k deletes it from j's edges, which
    changes the sets holding j.
    """
    ends = lay.ends
    j = ends[k][1] - lay.nv
    joined = reached.union(ends[k]) if include else reached
    label = [-1 if a in joined else a for a in range(lay.nv + lay.ne)]
    pairs = [[(label[ends[x][0]], label[ends[x][1]]) for x in edges] for edges in free]
    bit = 1 << j
    for S, demand in enumerate(_subset_sums(need)):
        if demand and bool(S & bit) != include and _forest_size(
            (p for i in lay.members[S] for p in pairs[i]), demand
        ) < demand:
            return False
    return True


def greedy_tree(g: RibbonGraph, h, variant: str = "emerald") -> tuple[frozenset, list]:
    """The Jaeger tree of the hypertree h and its tour, built in one walk.

    The walk is :func:`tours.walk` over the tree under construction; it
    decides each edge at its first visit, so its steps are the tour of
    the tree it returns.  For the emerald Jaeger tree it prefers to
    include the edge when standing at a violet node and to exclude it at
    an emerald node; ``variant="violet"`` reverses both preferences.  The
    preferred side is kept if a spanning tree with degree h(e)+1 at every
    emerald e still fits the decisions, otherwise the other side is
    taken.  This picks the least representative of h in the order of
    :func:`tours.tree_less`, which is its Jaeger tree.  h must be a
    hypertree.

    The walk crosses only included edges, so they form one tree on the
    nodes reached so far.  An edge back into that tree, or at an emerald
    that needs no more edges, is excluded outright; including an edge
    towards an unreached emerald changes no set without that emerald, so
    it needs no check either.

    Until the first edge is included the walk stays at the start node,
    having excluded the first few edges around it; h still fits iff it is
    a hypertree of g less these edges, checked against their mu table,
    which every hypertree of g shares.  So a walk that starts where it
    prefers to exclude costs no more than one that starts where it
    prefers to include.
    """
    lay = _layout(g)
    need = [x + 1 for x in h]
    sums = _subset_sums(h)
    free = [frozenset(b) for b in lay.blocks]  # undecided edges per emerald
    tree = set()
    reached = set()
    steps = []
    include_at_emerald = variant == "violet"
    for i, (node, k) in enumerate(tours.walk(g, tree)):
        steps.append((node, k))
        v, e = lay.ends[k]
        j = e - lay.nv
        at_emerald = is_emerald(node)
        here, there = (e, v) if at_emerald else (v, e)
        reached.add(here)
        if k not in free[j]:
            continue
        free[j] = free[j] - {k}
        if there in reached or not need[j]:
            continue
        if at_emerald == include_at_emerald:
            include = not at_emerald or _realisable(lay, need, free, reached, k, True)
        elif not tree:
            # nothing included: h must be a hypertree of g less these edges
            include = any(s > m for s, m in zip(sums, lay.mu_without(i + 1)))
        else:
            include = not _realisable(lay, need, free, reached, k, False)
        if include:
            tree.add(k)
            need[j] -= 1
    if any(free):
        raise ValueError(f"{tuple(h)} is not a hypertree")
    return frozenset(tree), steps


def find_tree_with_degrees(g: RibbonGraph, vector) -> frozenset | None:
    """A spanning tree with degree vector(e)+1 at each emerald node (the
    emerald Jaeger tree), or None if vector is not a hypertree."""
    if not is_hypertree(g, vector):
        return None
    return greedy_tree(g, tuple(vector))[0]


# -- oracles: spanning-tree listing, for the tests ---------------------------


def all_spanning_trees(g: RibbonGraph) -> tuple:
    return cached(g, "spanning_trees", lambda g: tuple(tours.enumerate_spanning_trees(g)))


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
    seed = degree_vector(g, next(iter(tours.enumerate_spanning_trees(g))))
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


def exchange_witness(g: RibbonGraph, h, h2, e) -> str:
    """The exchange axiom witness: an emerald f with h(f) > h2(f) such that
    h + 1_e - 1_f and h2 - 1_e + 1_f are both hypertrees.

    ``e`` may be an emerald name or index; requires h(e) < h2(e).
    """
    h, h2 = tuple(h), tuple(h2)
    ei = node_index(e) if isinstance(e, str) else e
    if h[ei] >= h2[ei]:
        raise ValueError("exchange_witness requires h(e) < h2(e)")
    fi = delta.exchange_witness(delta.bases_from_hypertrees(g), h, h2, ei)
    if fi is None:
        raise NoWitness(f"no exchange witness for {h} -> {h2} at e{ei}")
    return emerald(fi)
