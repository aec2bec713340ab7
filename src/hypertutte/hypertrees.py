"""Hypertrees: degree vectors of spanning trees at the emerald nodes.

A hypertree of a bipartite ribbon graph is a vector h over the emerald
nodes such that some spanning tree has degree h(e)+1 at every emerald
node e.  Hypertrees are stored as plain tuples indexed by emerald index.

- :func:`tour_search` lists the Jaeger trees of one variant, and so the
  hypertrees; its docstring holds the search's argument.
- :func:`jaeger_trees` is the search's table per variant, the one way a
  caller reaches a Jaeger tree, and :func:`orders`, which alone knows a
  row's layout, the one way it reaches an activity kind's orders.
- :func:`enumerate_hypertrees` lists the hypertrees, and
  :func:`well_formed` is the part of membership that needs no list.
- :func:`cached` keeps what is derived from one graph in the graph; its
  docstring lists what is kept and which reader reads it again.
- :func:`all_spanning_trees` lists spanning trees for the benchmark's
  coverage figures; the oracles built on listing are in
  ``tests/oracles.py``.
"""

from __future__ import annotations

from .model import RibbonGraph, adjacency, is_int, node_index, reach
from . import tours


def cached(g: RibbonGraph, name: str, build):
    """``build(g)``, computed once per graph and kept in the graph, so it
    lives as long as g does; no value refers back to its graph.

    An entry is kept only where a second reader reads it:

    - ``"emerald Jaeger trees"`` and ``"violet Jaeger trees"``
      (:func:`jaeger_trees`): :func:`enumerate_hypertrees` reads them
      again for the polymatroid's base set.
    - ``"bases"`` (:func:`polymatroid.bases_from_hypertrees`): every live
      graph with one hypertree set, such as the embeddings of one
      hypergraph, shares one polymatroid and its exchange rows through a
      weak registry, and holds it here, so it dies with the last graph
      that reads it.  The benchmark's 12 K4,4 embeddings share theirs;
      unshared, that workload took 30% longer.
    - ``"embedding assignment"`` (:func:`jaeger.embedding_assignment`):
      each :func:`jaeger.embedding_activities` lookup reads it again.
    - ``"reference"`` (``harness._reference``): the violet-prime and
      violet checks of a graph share it.
    - ``"spanning_trees"`` (:func:`all_spanning_trees`): the benchmark's
      check and its coverage pass both read it.

    The embedding polynomial, the search's tables and the sorted
    hypertree list are each read once per graph, so they are not kept."""
    if name not in g.derived:
        g.derived[name] = build(g)
    return g.derived[name]


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
    as the emerald end of the current edge (the two agree on an emerald
    Jaeger tree).  Every hypertree has exactly one emerald Jaeger tree and
    one violet one (Kálmán and Tóthmérész), so the search lists the
    hypertrees too.

    It is depth first over the tour of the tree under construction,
    stepped by :func:`tours.walk` on darts, which steps over the edges
    already decided, so the search sees first visits only and decides
    each edge k there: the dart's parity is the colour of the current
    node and k's other entry the far end.  In the emerald variant (the
    violet one swaps the colours), an emerald Jaeger tree meets every
    non-tree edge first at its emerald end, so at a violet node k must go
    in.  At an emerald node k stays out if far is reached; else it
    branches, out if the edges not excluded still connect the graph (the
    walk resumes at the same dart over a copy of the tree), then in.

    A look-ahead prunes an include into far: if far has an undecided
    edge to a reached node, the tour finishes far's subtree before it
    leaves far, so it meets that edge first at far, where it must go in
    and closes a cycle.  So k stays out, and that edge keeps far joined
    to the tree.  The same scan of far's edges decides the connectivity
    test unasked where it can.  If it finds no undecided edge at far but
    k, out would cut far off, so k goes in, unbranched.  If one of them,
    x, leads to a node w with an undecided edge y to a reached node, x
    and y join far to the tree without k, so out keeps the graph
    connected and is pushed.  Only otherwise is :func:`model.reach`
    called from far on the graph's adjacency: it crosses no decided edge
    and stops at the first reached node.  On K_{a,b} that leaves only the
    edges at a basis of the choosing colour while it is the one reached
    node.

    No branch dies: at a node x that cannot choose, an edge k met first
    there never has its far end y reached.  Not before x was entered,
    for the look-ahead refused every include into x while x had an
    undecided edge to a reached node; not after, for then y lies in x's
    subtree, and a tour walks every dart around a node before it leaves
    that node for the last time, so it met k at y first.  So no include
    closes a cycle, every exclusion keeps the graph connected, the tree
    spans, and every branch the search pushes is one Jaeger tree.

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
    first edge.  The degree vector carried down the branch is its
    hypertree.
    """
    chooser = 1 if variant == "emerald" else 0  # dart side of the choosing colour
    edges, n_nodes = g.edges, g.violet_count + g.emerald_count
    adj, emerald_of, emerald_name, emeralds = _search_tables(g)
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
                # free: far has an undecided edge but k; joined: one of them,
                # then an undecided edge at its other end, reaches the tree
                free = joined = False
                for x, w in adj[far]:
                    if x not in met:
                        if w in reached:
                            # k stays out: in, the look-ahead kills it at far;
                            # out, x keeps far joined to the tree
                            break
                        free = True
                        if not joined:
                            for y, z in adj[w]:
                                if z in reached and y not in met:
                                    joined = True
                                    break
                else:
                    if joined or free and next(
                            reversed(reach(adj, far, met, reached))) in reached:
                        # out keeps the graph connected iff far still reaches
                        # the tree through undecided edges: at once if two of
                        # them make a path, never if far has none, else when
                        # the search stops at a reached node, its last key;
                        # in goes on in this walk
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
        row = tuple(sorted(tree)), tuple(filter(emeralds.__contains__, reached))
        if not chooser:  # only the violet search's edge order is read
            row += tuple(dict.fromkeys(map(emerald_name.__getitem__, met))),
        yield tuple(degs), row


def _search_tables(g: RibbonGraph) -> tuple:
    """The tables :func:`tour_search` reads, built together at the start
    of each search: the adjacency, each edge's emerald index and emerald
    name, and the set of emeralds on an edge."""
    names = tuple(e for _, e in g.edges)
    return (adjacency((k, v, e) for k, (v, e) in enumerate(g.edges)),
            tuple(map(node_index, names)), names, frozenset(names))


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
    sorted keys of the search table g already holds, the emerald one if it
    holds both, each of which lists every hypertree once, since a
    hypertree has exactly one Jaeger tree of each variant.  Only a graph
    that holds neither runs the emerald search (:func:`jaeger_trees`)."""
    held = g.derived.get  # a table is never empty: every graph has a hypertree
    return tuple(sorted(
        held("emerald Jaeger trees") or held("violet Jaeger trees") or jaeger_trees(g)))


# -- spanning-tree listing, for the benchmark's coverage figures -------------


def all_spanning_trees(g: RibbonGraph) -> tuple:
    return cached(g, "spanning_trees", lambda g: tuple(tours.enumerate_spanning_trees(g)))
