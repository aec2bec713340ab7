"""Bipartite ribbon graphs: violet/emerald nodes, rotation systems, and a basis.

A hypergraph is represented by its bipartite graph.  Nodes are named
``"v0", "v1", ...`` (violet, the vertex class) and ``"e0", "e1", ...``
(emerald, the hyperedge class).  Edges are integers indexing into the edge
list; parallel edges are allowed.  Every node carries a cyclic rotation of
its incident edges, and a basis ``(b0, beta0)`` fixes the starting
node-edge pair for tours.  Instances are immutable and validated eagerly.

The rotations are also kept as one permutation of darts (half-edges),
the combinatorial map on which tours run: dart ``2k`` is edge k at its
violet end and dart ``2k+1`` edge k at its emerald end, so ``d >> 1`` is
a dart's edge, ``d & 1`` the colour of its node (1 for emerald) and
``d ^ 1`` the dart at the edge's other end.  ``sigma[d]`` is the next
dart around d's node, and ``basis_dart`` is the basis pair's dart.

Instance files are read in :meth:`RibbonGraph.render`'s line form by
``read_rendered``, with plain string methods; any other YAML text goes
through PyYAML (``yaml_mapping``), imported only then.  Both give the
same mapping, and ``load`` checks it the same way.

Also here, on (edge, u, v) triples: adjacency, reachability and
connectivity.  Walks up a reachability map, a node's successor in its
rotation and the other test oracles are in ``tests/oracles.py``.
"""

from __future__ import annotations


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


def reach(adj: dict, start, avoid=(), until=()) -> dict:
    """Every node reachable from ``start`` in an :func:`adjacency` map
    without crossing an edge of ``avoid``, mapped to the edge it was
    first reached by (``None`` for ``start``).

    The search stops at the first node of ``until`` it reaches, which is
    then the last key of the map."""
    via = {start: None}
    if start in until:
        return via
    stack = [start]
    while stack:
        node = stack.pop()
        for k, other in adj.get(node, ()):
            if other not in via and k not in avoid:
                via[other] = k
                if other in until:
                    return via
                stack.append(other)
    return via


def connected(edges, n_nodes: int) -> bool:
    """True if the (edge, u, v) triples join ``n_nodes`` nodes into one
    component: a node on no edge disconnects, at most one node is connected."""
    if n_nodes <= 1:
        return True
    adj = adjacency(edges)
    return len(adj) == n_nodes and len(reach(adj, next(iter(adj)))) == n_nodes


class Frozen:
    """An immutable value.  A subclass names in ``_fields`` the arguments
    of its ``__init__``, which sets them and what it derives from them
    once, through :meth:`_set`; assigning or deleting an attribute later
    raises AttributeError.  Equality, hashing and the ``repr`` read those
    fields alone, and ``pickle`` and ``copy`` rebuild the value from them."""

    __slots__ = ()
    _fields = ()

    def _set(self, **values):
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class RibbonGraph(Frozen):
    """A connected bipartite ribbon graph with a distinguished basis.

    ``edges[k]`` is the pair ``(violet_node, emerald_node)`` of edge ``k``.
    ``rotations`` stores, per node, the cyclic list of incident edge ids;
    the first entry is not semantically distinguished.  ``basis`` is a
    ``(node, edge)`` pair with the edge incident to the node; the node may
    be violet or emerald.  ``sigma`` and ``basis_dart`` are the rotations
    and the basis on darts (see the module docstring).  ``derived`` holds
    what is computed from the graph, read and filled through
    :func:`hypertrees.cached` only.

    Instances are immutable (:class:`Frozen`).  Equality, hashing and the
    ``repr`` read the five fields ``violet_count``, ``emerald_count``,
    ``edges``, ``rotations`` and ``basis``; ``pickle`` and ``copy``
    rebuild and revalidate a graph from them, so a copy starts with an
    empty ``derived``.
    """

    _fields = ("violet_count", "emerald_count", "edges", "rotations", "basis")
    __slots__ = _fields + ("sigma", "basis_dart", "derived", "__weakref__")

    def __init__(self, violet_count: int, emerald_count: int, edges: tuple,
                 rotations: tuple, basis: tuple):
        self._set(violet_count=violet_count, emerald_count=emerald_count, edges=edges,
                  rotations=rotations, basis=basis)
        self._validate()
        sigma = [0] * (2 * len(edges))
        for node, rot in rotations:
            side = is_emerald(node)
            for edge, nxt in zip(rot, rot[1:] + rot[:1]):
                sigma[2 * edge + side] = 2 * nxt + side
        self._set(sigma=tuple(sigma), basis_dart=self.dart(*basis), derived={})

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

    def dart(self, node: str, edge: int) -> int:
        """The dart of ``edge`` at ``node``."""
        if is_int(edge) and 0 <= edge < len(self.edges) and node in self.edges[edge]:
            return 2 * edge + self.edges[edge].index(node)
        raise NotIncident(f"edge {edge} is not incident to {node}")

    def node_edge(self, dart: int) -> tuple[str, int]:
        """The (node, edge) pair of a dart."""
        return self.edges[dart >> 1][dart & 1], dart >> 1

    # -- validation --------------------------------------------------------

    def _validate(self):
        if self.violet_count < 1 or self.emerald_count < 1:
            raise ValidationError("need at least one violet and one emerald node")
        count = self.violet_count + self.emerald_count
        if count > len(self.edges) + 1:  # refused before a name is built
            raise ValidationError(
                f"underlying bipartite graph is disconnected: {count} nodes"
                f" need at least {count - 1} edges, not {len(self.edges)}"
            )
        nodes = set(self.nodes)
        for k, (v, e) in enumerate(self.edges):
            if v not in nodes or not is_violet(v):
                raise ValidationError(f"edge {k}: bad violet endpoint {v!r}")
            if e not in nodes or not is_emerald(e):
                raise ValidationError(f"edge {k}: bad emerald endpoint {e!r}")

        incident = {node: [] for node in nodes}
        for k, (v, e) in enumerate(self.edges):
            incident[v].append(k)
            incident[e].append(k)

        rotation = dict(self.rotations)
        if set(rotation) != nodes:
            missing = sorted(nodes.symmetric_difference(rotation))
            more = f" and {len(missing) - 5} more" if len(missing) > 5 else ""
            raise ValidationError(f"rotation node set mismatch: {missing[:5]}{more}")
        for node in nodes:
            if sorted(rotation[node]) != sorted(incident[node]):
                raise ValidationError(
                    f"rotation at {node} does not list its incident edges exactly once"
                )

        b0, beta0 = self.basis
        if b0 not in nodes:
            raise ValidationError(f"basis node {b0!r} does not exist")
        if not is_int(beta0) or beta0 not in incident[b0]:
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


def _decimal(token: str) -> bool:
    # YAML 1.1 reads "010" as 8 and "1_0" as 10: only these forms are read here
    return token.isdigit() and token.isascii() and (token == "0" or token[0] != "0")


def _is_name(token: str) -> bool:
    return token[:1] in ("v", "e") and _decimal(token[1:])


def _int_list(text: str):
    """``[0, 12, ...]`` as a list of integers, or None."""
    items = text[1:-1].split(", ")
    if text[:1] == "[" and text[-1:] == "]" and all(map(_decimal, items)):
        return [int(x) for x in items]
    return None


def read_rendered(text: str):
    """The mapping ``yaml.safe_load(text)`` returns when ``text`` is in
    :meth:`RibbonGraph.render`'s line form: the five keys in order, at
    least one rotation line, ``": "`` and ``", "`` as the separators,
    decimal integers without a leading zero, node names ``v``/``e`` and
    such an integer, and one final newline.  None for any other text."""
    lines = text.split("\n")
    if len(lines) < 7 or lines.pop() or lines[3] != "rotation:":
        return None
    heads = [line.partition(": ") for line in lines[:3] + lines[-1:]]
    if [key for key, _, _ in heads] != ["violet", "emerald", "edges", "basis"]:
        return None
    nv, ne, edges, basis = (value for _, _, value in heads)
    pairs = [_int_list(f"[{pair}]") for pair in edges[2:-2].split("], [")]
    node, _, edge = basis[1:-1].partition(", ")
    if not (_decimal(nv) and _decimal(ne) and edges[:2] == "[[" and edges[-2:] == "]]"
            and None not in pairs and basis[:1] == "[" and basis[-1:] == "]"
            and _is_name(node) and _decimal(edge)):
        return None
    rotation = {}
    for line in lines[4:-1]:
        name, _, rot = line[2:].partition(": ")
        rotation[name] = _int_list(rot)
        if line[:2] != "  " or not _is_name(name) or rotation[name] is None:
            return None
    return {"violet": int(nv), "emerald": int(ne), "edges": pairs,
            "rotation": rotation, "basis": [node, int(edge)]}


_KEYS = {"violet", "emerald", "edges", "rotation", "basis"}


def is_int(x) -> bool:
    """True for integers proper; YAML booleans are not integers."""
    return isinstance(x, int) and not isinstance(x, bool)


def yaml_mapping(text: str, required) -> dict:
    """Parse a YAML document that must be a mapping holding every key of
    ``required``; raise ParseError otherwise."""
    import yaml  # only a parse needs it

    try:
        # The pure-Python loader, not libyaml's CSafeLoader: the C loader
        # parses the fixtures about 7 times faster, but it kills the
        # interpreter with SIGSEGV on a list nested 100,000 deep, where
        # this one raises RecursionError, which exits 2.
        data = yaml.safe_load(text)
    except (yaml.YAMLError, RecursionError) as exc:
        raise ParseError(f"invalid syntax: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("input file must be a mapping")
    missing = set(required) - set(data)
    if missing:
        raise ParseError(f"missing keys: {sorted(missing)}")
    return data


def load(text: str) -> RibbonGraph:
    """Parse and validate an instance file (see ``render`` for the format).

    Text in ``render``'s line form is read by :func:`read_rendered`, any
    other YAML by :func:`yaml_mapping`; both give the same mapping, which
    the same checks then turn into a graph or a ParseError."""
    data = read_rendered(text) or yaml_mapping(text, _KEYS)
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
            or node[:1] not in ("v", "e")
            or not (node[1:].isdigit() and node[1:].isascii())
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
