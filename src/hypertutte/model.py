"""Bipartite ribbon graphs: violet/emerald nodes, rotation systems, and a basis.

A hypergraph is represented by its bipartite graph.  Nodes are named
``"v0", "v1", ...`` (violet, the vertex class) and ``"e0", "e1", ...``
(emerald, the hyperedge class).  Edges are integers indexing into the edge
list; parallel edges are allowed.  Every node carries a cyclic rotation of
its incident edges, and a basis ``(b0, beta0)`` fixes the starting
node-edge pair for tours.  Instances are immutable and validated eagerly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import yaml


class ParseError(ValueError):
    """Raised when an instance file is syntactically malformed."""


class ValidationError(ValueError):
    """Raised when a structurally parsed instance violates an invariant."""


class NotIncident(ValueError):
    """Raised when an edge is not incident to the node it is queried at."""


def violet(i: int) -> str:
    return f"v{i}"


def emerald(j: int) -> str:
    return f"e{j}"


def is_emerald(node: str) -> bool:
    return node.startswith("e")


def is_violet(node: str) -> bool:
    return node.startswith("v")


def node_index(node: str) -> int:
    return int(node[1:])


def node_sort_key(node: str):
    # violets before emeralds, then by index
    return (0 if is_violet(node) else 1, node_index(node))


def adjacency(edges) -> dict:
    """node -> [(edge, neighbour), ...] for an iterable of (edge, u, v)."""
    adj = {}
    for k, u, v in edges:
        adj.setdefault(u, []).append((k, v))
        adj.setdefault(v, []).append((k, u))
    return adj


def reach(adj: dict, start) -> dict:
    """Every node reachable from ``start`` in an :func:`adjacency` map,
    mapped to the edge it was first reached by (``None`` for ``start``)."""
    via = {start: None}
    stack = [start]
    while stack:
        node = stack.pop()
        for k, other in adj.get(node, ()):
            if other not in via:
                via[other] = k
                stack.append(other)
    return via


def connected(edges, n_nodes: int) -> bool:
    """True if the (edge, u, v) triples join ``n_nodes`` nodes into one
    component: a node on no edge disconnects, at most one node is connected."""
    if n_nodes <= 1:
        return True
    adj = adjacency(edges)
    return len(adj) == n_nodes and len(reach(adj, next(iter(adj)))) == n_nodes


@dataclass(frozen=True)
class RibbonGraph:
    """A connected bipartite ribbon graph with a distinguished basis.

    ``edges[k]`` is the pair ``(violet_node, emerald_node)`` of edge ``k``.
    ``rotations`` stores, per node, the cyclic list of incident edge ids;
    the first entry is not semantically distinguished.  ``basis`` is a
    ``(node, edge)`` pair with the edge incident to the node; the node may
    be violet or emerald.  ``derived`` holds what is computed from the
    graph, read and filled through :func:`hypertrees.cached` only.
    """

    violet_count: int
    emerald_count: int
    edges: tuple[tuple[str, str], ...]
    rotations: tuple[tuple[str, tuple[int, ...]], ...]
    basis: tuple[str, int]
    _rotation: dict = field(init=False, repr=False, compare=False, default=None)
    _next: dict = field(init=False, repr=False, compare=False, default=None)
    derived: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "_rotation", dict(self.rotations))
        self._validate()
        nxt = {}
        for node, rot in self.rotations:
            for pos, edge in enumerate(rot):
                nxt[node, edge] = rot[(pos + 1) % len(rot)]
        object.__setattr__(self, "_next", nxt)

    @staticmethod
    def build(violet_count, emerald_count, edges, rotation, basis) -> "RibbonGraph":
        """Construct from plain containers (rotation given as a dict)."""
        items = tuple(
            (node, tuple(rotation[node]))
            for node in sorted(rotation, key=node_sort_key)
        )
        return RibbonGraph(
            violet_count=violet_count,
            emerald_count=emerald_count,
            edges=tuple((v, e) for v, e in edges),
            rotations=items,
            basis=(basis[0], basis[1]),
        )

    # -- structure ---------------------------------------------------------

    @property
    def violets(self) -> list[str]:
        return [violet(i) for i in range(self.violet_count)]

    @property
    def emeralds(self) -> list[str]:
        return [emerald(j) for j in range(self.emerald_count)]

    @property
    def nodes(self) -> list[str]:
        return self.violets + self.emeralds

    def endpoints(self, edge: int) -> tuple[str, str]:
        return self.edges[edge]

    def other_end(self, edge: int, node: str) -> str:
        v, e = self.edges[edge]
        if node == v:
            return e
        if node == e:
            return v
        raise NotIncident(f"edge {edge} is not incident to {node}")

    def incident(self, node: str) -> tuple[int, ...]:
        return self._rotation[node]

    def degree(self, node: str) -> int:
        return len(self._rotation[node])

    def next_at(self, node: str, edge: int) -> int:
        """Successor of ``edge`` in the cyclic rotation at ``node``."""
        try:
            return self._next[node, edge]
        except KeyError:
            raise NotIncident(f"edge {edge} is not incident to {node}") from None

    # -- derived instances -------------------------------------------------

    def with_rotation(self, rotation: dict) -> "RibbonGraph":
        return RibbonGraph.build(
            self.violet_count, self.emerald_count, self.edges, rotation, self.basis
        )

    def with_basis(self, basis) -> "RibbonGraph":
        rotation = {node: list(rot) for node, rot in self.rotations}
        return RibbonGraph.build(
            self.violet_count, self.emerald_count, self.edges, rotation, basis
        )

    # -- validation --------------------------------------------------------

    def _validate(self):
        if self.violet_count < 1 or self.emerald_count < 1:
            raise ValidationError("need at least one violet and one emerald node")
        nodes = set(self.violets) | set(self.emeralds)
        for k, (v, e) in enumerate(self.edges):
            if v not in nodes or not is_violet(v):
                raise ValidationError(f"edge {k}: bad violet endpoint {v!r}")
            if e not in nodes or not is_emerald(e):
                raise ValidationError(f"edge {k}: bad emerald endpoint {e!r}")

        incident = {node: [] for node in nodes}
        for k, (v, e) in enumerate(self.edges):
            incident[v].append(k)
            incident[e].append(k)

        if set(self._rotation) != nodes:
            missing = nodes.symmetric_difference(self._rotation)
            raise ValidationError(f"rotation node set mismatch: {sorted(missing)}")
        for node in nodes:
            if sorted(self._rotation[node]) != sorted(incident[node]):
                raise ValidationError(
                    f"rotation at {node} does not list its incident edges exactly once"
                )

        b0, beta0 = self.basis
        if b0 not in nodes:
            raise ValidationError(f"basis node {b0!r} does not exist")
        if beta0 not in incident[b0]:
            raise ValidationError(f"basis edge {beta0} is not incident to {b0}")

        if not connected(((k, v, e) for k, (v, e) in enumerate(self.edges)), len(nodes)):
            raise ValidationError("underlying bipartite graph is disconnected")

    # -- serialization -----------------------------------------------------

    def render(self) -> str:
        """Canonical text form; ``load(render(g))`` reproduces ``g`` exactly."""
        lines = [
            f"violet: {self.violet_count}",
            f"emerald: {self.emerald_count}",
            "edges: ["
            + ", ".join(f"[{node_index(v)}, {node_index(e)}]" for v, e in self.edges)
            + "]",
            "rotation:",
        ]
        for node, rot in self.rotations:
            lines.append(f"  {node}: [{', '.join(str(k) for k in rot)}]")
        lines.append(f"basis: [{self.basis[0]}, {self.basis[1]}]")
        return "\n".join(lines) + "\n"


_KEYS = {"violet", "emerald", "edges", "rotation", "basis"}


def is_int(x) -> bool:
    """True for integers proper; YAML booleans are not integers."""
    return isinstance(x, int) and not isinstance(x, bool)


def yaml_mapping(text: str, required) -> dict:
    """Parse a YAML document that must be a mapping holding every key of
    ``required``; raise ParseError otherwise."""
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ParseError(f"invalid syntax: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("input file must be a mapping")
    missing = set(required) - set(data)
    if missing:
        raise ParseError(f"missing keys: {sorted(missing)}")
    return data


def load(text: str) -> RibbonGraph:
    """Parse and validate an instance file (see ``render`` for the format)."""
    data = yaml_mapping(text, _KEYS)
    unknown = set(data) - _KEYS
    if unknown:
        raise ParseError(f"unknown keys: {sorted(unknown)}")

    nv, ne = data["violet"], data["emerald"]
    if not is_int(nv) or not is_int(ne):
        raise ParseError("violet/emerald counts must be integers")
    raw_edges = data["edges"]
    if not isinstance(raw_edges, list):
        raise ParseError("edges must be a list of [v_idx, e_idx] pairs")
    edges = []
    for entry in raw_edges:
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(is_int(x) for x in entry)
        ):
            raise ParseError(f"bad edge entry {entry!r}")
        edges.append((violet(entry[0]), emerald(entry[1])))

    raw_rot = data["rotation"]
    if not isinstance(raw_rot, dict):
        raise ParseError("rotation must be a mapping node -> [edge, ...]")
    rotation = {}
    for node, rot in raw_rot.items():
        if (
            not isinstance(node, str)
            or not re.fullmatch("[ve][0-9]+", node)
            or not isinstance(rot, list)
            or not all(is_int(k) for k in rot)
        ):
            raise ParseError(f"bad rotation entry for {node!r}")
        rotation[node] = rot

    raw_basis = data["basis"]
    if (
        not isinstance(raw_basis, list)
        or len(raw_basis) != 2
        or not isinstance(raw_basis[0], str)
        or not is_int(raw_basis[1])
    ):
        raise ParseError("basis must be [node, edge_idx]")

    return RibbonGraph.build(nv, ne, edges, rotation, tuple(raw_basis))


def load_path(path) -> RibbonGraph:
    with open(path, encoding="utf-8") as fh:
        return load(fh.read())
