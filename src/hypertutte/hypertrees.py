"""Hypertrees: degree vectors of spanning trees at the emerald nodes.

A hypertree of a bipartite ribbon graph is a vector h over the emerald
nodes such that some spanning tree has degree h(e)+1 at every emerald
node e.  Hypertrees are stored as plain tuples indexed by emerald index.

Every hypertree has exactly one emerald Jaeger tree and one violet one
(Kálmán and Tóthmérész), so one search that lists the Jaeger trees of a
variant lists the hypertrees too: :func:`tour_search`, one depth-first
search per graph and variant over the tour of the tree under
construction.  It steps by :func:`tours.walk`, on darts, which steps
over the edges already decided, so the search sees first visits only
and decides each edge there: the dart's parity is the colour of the
current node and its edge's other entry the far end.  An emerald Jaeger
tree meets every non-tree edge first at its emerald end, so at a violet
node the edge must go in.  At an emerald node an edge whose far end is
reached stays out; any other branches, out if the edges not excluded
still connect the graph (the walk resumes at the same dart over a copy
of the tree), then in.  That test is one :func:`model.reach` from the
far end on the graph's adjacency, built once per graph: it crosses no
decided edge and stops at the first reached node.  The violet variant
swaps the colours.  A look-ahead prunes an include into an unreached
node w of the colour that cannot choose: if w has an undecided edge to a
reached node, the tour finishes w's subtree before it leaves w, so it
meets that edge first at w, where it must go in and closes a cycle.
That edge also keeps w joined to the tree, so the out branch then needs
no connectivity test; nor does it when w has no undecided edge left, for
out would cut w off, so the edge goes in and nothing is pushed.  No
branch dies: at a node x that cannot choose, an edge k met first there
never has its far end y reached.  Not before x was entered, for the
look-ahead refused every include into x while x had an undecided edge
to a reached node; not after, for then y lies in x's subtree, and a
tour walks every dart around a node before it leaves that node for the
last time, so it met k at y first.  So no include closes a cycle, every
exclusion keeps the graph connected, the tree spans, and every branch
the search pushes is one Jaeger tree, whose row is final once the tree
spans (:func:`tour_search`).  Its degree vector, carried down the
branch, is its hypertree, and its two emerald orders (first appearance
as the current node, and as the emerald end of the current edge) are
read off the nodes in the order the walk reached them and the edges in
the order it first met them, through per-graph tables built once (each
edge's emerald index and name, and the set of emeralds).  They agree on
an emerald Jaeger tree, so only violet rows keep the second.
The search's table per variant (:func:`jaeger_trees`) is the one way a
caller reaches a Jaeger tree, and :func:`orders`, which alone knows a
row's layout, the one way it reaches an activity kind's orders.  Only
``jaeger.embedding_activities`` looks one vector up, after checking it
with :func:`well_formed`.
With Python 3.11 on a shared 2-vCPU host (CPU seconds, seeded
embeddings, medians of five rounds of five runs), the emerald search
takes about 0.0029 s on K6,6 (252 hypertrees), 0.014 s on K7,7 (924)
and 0.0056 s on K3,24 (300).

Listing spanning trees (:func:`all_spanning_trees`) remains for the
coverage figures of the benchmark; the oracles built on it, the
membership test ``is_hypertree`` on the search's table, and the
exchange search that re-derives the hypertree set, are in
``tests/oracles.py``.

Everything derived from one graph lives in the graph itself and dies
with it (:func:`cached`).  What depends on the embedding stays per
graph: the search tables, the orders, the activities and the polynomial.
The set of all hypertrees forms the bases of a polymatroid (Kálmán),
which depends on the hypertree set alone, so graphs with one hypertree
set, such as the embeddings of one hypergraph, share one polymatroid and
its exchange rows (:func:`polymatroid.bases_from_hypertrees`); each
graph's cache holds it, so it lives while any graph reads it.  It is
trusted, not checked, where it is built; the tests check the exchange
axiom through :func:`polymatroid.exchange_witness`.
"""

from __future__ import annotations

from .model import RibbonGraph, adjacency, is_int, node_index, reach
from . import tours


def cached(g: RibbonGraph, name: str, build):
    """``build(g)``, computed once per graph and kept in the graph, so it
    lives as long as g does; no value refers back to its graph."""
    derived = g.derived
    if name not in derived:
        derived[name] = build(g)
    return derived[name]


def well_formed(g: RibbonGraph, v: tuple) -> bool:
    """The O(#emerald) part of membership: one non-negative int per
    emerald, summing to #violet - 1."""
    return (
        len(v) == g.emerald_count
        and all(is_int(x) and x >= 0 for x in v)
        and sum(v) == g.violet_count - 1
    )


def tour_search(g: RibbonGraph, variant: str):
    """Yield (h, row) for every Jaeger tree of the variant, one per
    hypertree h, so the pairs are the rows of :func:`jaeger_trees`: the
    tree as a sorted tuple of edge ids, and the emeralds in order of first
    appearance in its tour as the current node and, in violet rows only,
    as the emerald end of the current edge.

    Each pending branch is the walk's state at a dart: the tree so far,
    the nodes in the order the walk reached them, the edges in the order
    it first met them (one insertion-ordered dict, which also answers
    whether an edge is decided, and which the walk steps over), the
    degree vector so far, and the dart to resume at.

    A branch stops once an include makes its tree span: every dart left
    is then a first visit with a reached far end, which stays out at the
    choosing colour and, as no branch dies, never comes at the other.
    So the tree and the node order are final, and so is the edge order,
    which lists each emerald at its first appearance: each entered the
    tree through a met edge at it, an emerald basis node through the
    first edge.

    If the look-ahead's scan finds no undecided edge at far but k, the
    connectivity test is decided unasked: :func:`model.reach` from far
    would return {far: None}, far is not reached, so k goes in, unbranched.
    """
    chooser = 1 if variant == "emerald" else 0  # dart side of the choosing colour
    edges, n_nodes = g.edges, g.violet_count + g.emerald_count
    adj = cached(g, "adjacency",
                 lambda g: adjacency((k, v, e) for k, (v, e) in enumerate(g.edges)))
    emerald_of = cached(g, "emerald of edge",
                        lambda g: tuple(node_index(e) for _, e in g.edges))
    emerald_name = cached(g, "emerald name of edge", lambda g: tuple(e for _, e in g.edges))
    emeralds = cached(g, "emeralds", lambda g: frozenset(e for _, e in g.edges)).__contains__
    pending = [(set(), {g.basis[0]: None}, {}, [-1] * g.emerald_count, None)]
    while pending:
        tree, reached, met, degs, at = pending.pop()
        for d in tours.walk(g, tree, at, met):
            k = d >> 1
            met[k] = None
            far = edges[k][(d & 1) ^ 1]
            if d & 1 == chooser:
                if far in reached:
                    continue  # k stays out: in, it would close a cycle
                free = False  # far has an undecided edge other than k
                for x, w in adj[far]:
                    if x not in met:
                        if w in reached:
                            # k stays out: in, the look-ahead kills it at far;
                            # out, x keeps far joined to the tree
                            break
                        free = True
                else:
                    if free and next(reversed(reach(adj, far, met, reached))) in reached:
                        # out keeps the graph connected iff far still reaches
                        # the tree through undecided edges (never if far has
                        # none), when the search stops at a reached node, its
                        # last key; in goes on in this walk
                        pending.append((set(tree), dict(reached), dict(met), list(degs), d))
                    tree.add(k)
                    reached[far] = None
                    degs[emerald_of[k]] += 1
                    if len(reached) == n_nodes:
                        break  # the tree spans: nothing left changes the row
                continue
            tree.add(k)  # at a node that cannot choose, far is never reached
            reached[far] = None
            degs[emerald_of[k]] += 1
            if len(reached) == n_nodes:
                break
        row = tuple(sorted(tree)), tuple(filter(emeralds, reached))
        if not chooser:  # only the violet search's edge order is read
            row += tuple(dict.fromkeys(map(emerald_name.__getitem__, met))),
        yield tuple(degs), row


def jaeger_trees(g: RibbonGraph, variant: str = "emerald") -> dict:
    """h -> (tree, node order) for the emerald variant, (tree, node
    order, edge order) for the violet, for every hypertree h: the pairs
    of one :func:`tour_search` per graph and variant."""
    return cached(g, f"{variant} Jaeger trees", lambda g: dict(tour_search(g, variant)))


def orders(g: RibbonGraph, kind: str) -> dict:
    """h -> the emerald order of h under the activity kind: "embedding",
    the emerald search's node orders (the paper's), or "violet-prime" or
    "violet", the violet search's edge or node orders.  Read off the
    cached table of :func:`jaeger_trees` on each call, not cached itself."""
    variant, column = {"embedding": ("emerald", 1), "violet-prime": ("violet", 2),
                       "violet": ("violet", 1)}[kind]
    return {h: found[column] for h, found in jaeger_trees(g, variant).items()}


def enumerate_hypertrees(g: RibbonGraph) -> tuple:
    """All hypertrees of g in lexicographic order (tuple of tuples): the
    keys of the search table g already holds, the emerald one if it holds
    both, each of which lists every hypertree once, since a hypertree has
    exactly one Jaeger tree of each variant.  Only a graph that holds
    neither runs the emerald search (:func:`jaeger_trees`)."""
    held = g.derived.get  # a table is never empty: every graph has a hypertree
    return cached(g, "hypertrees", lambda g: tuple(sorted(
        held("emerald Jaeger trees") or held("violet Jaeger trees") or jaeger_trees(g))))


# -- spanning-tree listing, for the benchmark's coverage figures -------------


def all_spanning_trees(g: RibbonGraph) -> tuple:
    return cached(g, "spanning_trees", lambda g: tuple(tours.enumerate_spanning_trees(g)))
