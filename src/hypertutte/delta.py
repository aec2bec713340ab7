"""Decision-tree (Delta) activities for matroids and polymatroids.

A decision tree assigns each basis its own element order: at a node
labeled e, a basis with b(e)=i descends into the (i+1)-th child, and the
order is the label sequence along the branch.  Delta activities use the
MAX rule (an element is active if it cannot be exchanged with a larger
one); the minimum-rule kernel is also provided for activity notions that
fix an order per basis directly, as in the parallel-edge counterexample.

Also here: the Crapo partition check for an arbitrary activity
assignment (on crapo's verifier), the realizability obstruction (some
element must be nontrivially active for no basis), and exhaustive search
for a decision tree realizing a given assignment.  The search lists no
decision trees: under the MAX rule a node's activities depend only on
its label, the elements not labeled above it and the basis, so it
solves each (remaining elements, bases routed to the node) subproblem
once and returns the first matching tree in enumeration order.  Its
memo of solved subproblems is capped (``_MEMO_CAP`` entries), which
bounds its memory whatever the number of decision trees.  Listing,
counting and drawing decision trees are test oracles, in
``tests/oracles.py``.

The exchange axiom is written once (:func:`exchange_witness`) and checked
only where bases are loaded (:func:`check_exchange`): hypertree sets
(Kálmán) and cycle matroids are polymatroids by construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .model import ParseError, emerald, is_int, yaml_mapping
from .hypertrees import cached, enumerate_hypertrees
from .tours import spanning_trees


class BasisOutOfRange(ValueError):
    """Basis vector exceeds the rank cap of some element."""


class SearchSpaceTooLarge(ValueError):
    """The search needs more subproblems than its memo may hold."""


class InvalidDecisionTree(ValueError):
    """Branch misses an element, repeats one, or has wrong arity."""


_MEMO_CAP = 100_000  # solved subproblems the search may keep


@dataclass(frozen=True)
class PolymatroidBases:
    """Explicit polymatroid: named ground set and the set of base vectors,
    checked for one coordinate sum here and for exchange by :func:`check_exchange`."""

    ground: tuple
    bases: frozenset
    _ranks: tuple = field(init=False, repr=False, compare=False, default=None)
    _floors: tuple = field(init=False, repr=False, compare=False, default=None)
    _positions: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if not self.bases:
            raise ValueError("empty base set")
        sums = {sum(b) for b in self.bases}
        if len(sums) != 1:
            raise ValueError("bases have differing coordinate sums")
        columns = tuple(zip(*self.bases))
        object.__setattr__(self, "_ranks", tuple(map(max, columns)))
        object.__setattr__(self, "_floors", tuple(map(min, columns)))
        positions = {}
        for i, e in enumerate(self.ground):
            positions.setdefault(e, i)  # a repeated name maps to its first place
        object.__setattr__(self, "_positions", positions)

    def rank(self, e) -> int:
        """mu({e}): the greatest value of coordinate e over the bases."""
        return self._ranks[self.index(e)]

    def index(self, e) -> int:
        try:
            return self._positions[e]
        except (KeyError, TypeError):
            raise ValueError(f"{e!r} is not in the ground set") from None

    def value(self, b, e) -> int:
        return b[self.index(e)]


def _shift(b, up, down):
    out = list(b)
    out[up] += 1
    out[down] -= 1
    return tuple(out)


def exchange_witness(P: PolymatroidBases, b, b2, e):
    """The first index f with b(f) > b2(f) such that b + 1_e - 1_f and
    b2 - 1_e + 1_f are both bases, or None."""
    for f in range(len(P.ground)):
        if b[f] > b2[f] and _shift(b, e, f) in P.bases and _shift(b2, f, e) in P.bases:
            return f
    return None


def check_exchange(P: PolymatroidBases):
    """Exchange axiom: whenever b(e) < b'(e) there is an
    :func:`exchange_witness`; ValueError at the first (b, b', e) without one."""
    for b, b2 in itertools.product(P.bases, repeat=2):
        for e in range(len(P.ground)):
            if b[e] < b2[e] and exchange_witness(P, b, b2, e) is None:
                raise ValueError(f"exchange axiom fails for {b}, {b2} at {P.ground[e]}")


def load_bases(text: str) -> PolymatroidBases:
    data = yaml_mapping(text, ("ground", "bases"))
    ground, bases = data["ground"], data["bases"]
    if not isinstance(ground, list) or not isinstance(bases, list) or not all(
        isinstance(b, list) and all(map(is_int, b)) for b in bases
    ):
        raise ParseError("ground must be a list and bases a list of integer vectors")
    ground = tuple(str(e) for e in ground)
    bases = frozenset(tuple(b) for b in bases)
    if len(set(ground)) != len(ground):
        raise ValueError("ground elements must be distinct")
    if any(len(b) != len(ground) for b in bases):
        raise ValueError("basis length does not match ground set")
    if any(x < 0 for b in bases for x in b):
        raise ValueError("basis coordinates must be non-negative")
    P = PolymatroidBases(ground, bases)
    check_exchange(P)
    return P


def bases_from_hypertrees(g) -> PolymatroidBases:
    """The hypergraphic polymatroid of a ribbon graph instance, built once
    per graph; a polymatroid by Kálmán's theorem, so not checked."""

    def build(g):
        ground = tuple(emerald(j) for j in range(g.emerald_count))
        return PolymatroidBases(ground, frozenset(enumerate_hypertrees(g)))

    return cached(g, "bases", build)


@dataclass(frozen=True)
class DecisionTree:
    """Node labeled ``label`` with an ordered tuple of child subtrees."""

    label: str
    children: tuple

    @staticmethod
    def from_dict(data) -> "DecisionTree":
        if not isinstance(data, dict) or "label" not in data:
            raise ParseError(f"decision tree node without a label: {data!r}")
        children = data.get("children") or []
        if not isinstance(children, list):
            raise ParseError(f"children of {data['label']!r} must be a list")
        return DecisionTree(
            str(data["label"]), tuple(DecisionTree.from_dict(ch) for ch in children)
        )


def load_decision_tree(text: str) -> DecisionTree:
    return DecisionTree.from_dict(yaml_mapping(text, ("label",)))


def validate_decision_tree(tree: DecisionTree, P: PolymatroidBases):
    """Every branch lists every ground element exactly once; every
    non-final node has r(label)+1 children."""
    n = len(P.ground)

    def walk(node, seen):
        if node.label not in P.ground:
            raise InvalidDecisionTree(f"unknown element {node.label!r}")
        if node.label in seen:
            raise InvalidDecisionTree(f"element {node.label!r} repeats on a branch")
        seen = seen | {node.label}
        if len(seen) == n:
            if node.children:
                raise InvalidDecisionTree("branch longer than the ground set")
            return
        arity = P.rank(node.label) + 1
        if len(node.children) != arity:
            raise InvalidDecisionTree(
                f"node {node.label!r} needs {arity} children, has {len(node.children)}"
            )
        for child in node.children:
            walk(child, seen)

    walk(tree, frozenset())


def order_of_basis(tree: DecisionTree, P: PolymatroidBases, b) -> tuple:
    """Label sequence along the branch selected by basis b."""
    b = tuple(b)
    order = []
    node = tree
    while True:
        order.append(node.label)
        if not node.children:
            break
        value = P.value(b, node.label)
        if value < 0 or value >= len(node.children):
            raise BasisOutOfRange(
                f"b({node.label}) = {value} out of range for arity "
                f"{len(node.children)}"
            )
        node = node.children[value]
    return tuple(order)


def max_rule_activities(P: PolymatroidBases, b, order):
    """e internally active iff no f > e with b - 1_e + 1_f a basis;
    externally active iff no f > e with b + 1_e - 1_f a basis."""
    return _rule_activities(P, b, order, later=True)


def min_rule_activities(P: PolymatroidBases, b, order):
    """Same with f < e quantification (the fixed-order convention)."""
    return _rule_activities(P, b, order, later=False)


def _rule_activities(P, b, order, later):
    b = tuple(b)
    at = [P.index(e) for e in order]  # each element's coordinate, in order
    internal, external = set(), set()
    for pos, (e, ei) in enumerate(zip(order, at)):
        others = at[pos + 1:] if later else at[:pos]
        if not any(_shift(b, f, ei) in P.bases for f in others):
            internal.add(e)
        if not any(_shift(b, ei, f) in P.bases for f in others):
            external.add(e)
    return frozenset(internal), frozenset(external)


def nontrivial(P: PolymatroidBases, b, internal, external):
    """Filter to elements whose value actually varies in the active
    direction across the base set: some basis is lower at an internal
    element, which is b(e) above the least value of e over the bases,
    or higher at an external one, which is b(e) below its rank."""
    b = tuple(b)
    ni = frozenset(e for e in internal if b[P.index(e)] > P._floors[P.index(e)])
    ne = frozenset(e for e in external if b[P.index(e)] < P._ranks[P.index(e)])
    return ni, ne


@dataclass(frozen=True)
class BasisActivity:
    internal: frozenset
    external: frozenset
    nontrivial_internal: frozenset
    nontrivial_external: frozenset


def check_order(P: PolymatroidBases, order):
    """ValueError unless ``order`` lists every ground element of P
    exactly once."""
    try:
        places = sorted(map(P.index, order))
    except ValueError:
        places = None
    if places != list(range(len(P.ground))):
        raise ValueError(
            f"order {tuple(order)} must list every element of {P.ground} exactly once"
        )


def _assignment(P: PolymatroidBases, rule, order_of) -> dict:
    """basis -> BasisActivity, b's activities taken by ``rule`` on ``order_of(b)``."""
    out = {}
    for b in sorted(P.bases):
        internal, external = rule(P, b, order_of(b))
        out[b] = BasisActivity(internal, external, *nontrivial(P, b, internal, external))
    return out


def assignment_from_delta(tree: DecisionTree, P: PolymatroidBases) -> dict:
    """basis -> BasisActivity under the decision tree's MAX-rule orders."""
    return _assignment(P, max_rule_activities, lambda b: order_of_basis(tree, P, b))


def assignment_from_orders(P: PolymatroidBases, order_map: dict) -> dict:
    """basis -> BasisActivity from explicit per-basis orders, MIN rule;
    each order must list every ground element once (:func:`check_order`)."""
    for b in P.bases:
        check_order(P, order_map[b])
    return _assignment(P, min_rule_activities, lambda b: order_map[b])


def obstruction_check(assignment: dict) -> tuple:
    """('EXEMPT', e) if some element is nontrivially active for no basis
    (necessary for Delta-realizability); ('NO_EXEMPT', None) otherwise."""
    elements = set()
    active = set()
    for record in assignment.values():
        active |= record.nontrivial_internal | record.nontrivial_external
        elements |= record.internal | record.external
    exempt = sorted(elements - active)
    if exempt:
        return ("EXEMPT", exempt[0])
    return ("NO_EXEMPT", None)


def basis_interval(P: PolymatroidBases, b, record: BasisActivity):
    """The Delta-Crapo interval of basis b: excess only on externally
    active coordinates, deficit only on internally active ones.  As a
    :class:`crapo.CrapoInterval`, coordinate i is named e_i."""
    from .crapo import CrapoInterval

    def coords(elements):
        return frozenset(emerald(P.index(e)) for e in elements)

    return CrapoInterval(tuple(b), coords(record.internal), coords(record.external))


def crapo_verify(P: PolymatroidBases, assignment: dict, box=None) -> dict:
    """Check that the intervals of an activity assignment partition the
    box and that the covering basis attains both one-sided distances
    (:func:`crapo.verify_intervals`)."""
    from .crapo import box_around, verify_intervals

    if box is None:
        box = box_around(P.bases, 2, 2)
    intervals = [basis_interval(P, b, rec) for b, rec in assignment.items()]
    points, violations = verify_intervals(intervals, box)
    return {
        "kind": "delta-crapo",
        "status": "PASS" if not violations else "FAIL",
        "points": points,
        "violations": violations,
    }


def graph_matroid(graph) -> PolymatroidBases:
    """Cycle matroid of an ordinary graph: bases are the 0/1 indicator
    vectors of its spanning trees, over the named edge ground set."""
    edges = [(i, u, v) for i, (_, u, v) in enumerate(graph.edges)]
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


def exhaustive_delta_search(P: PolymatroidBases, target: dict):
    """The first decision tree whose MAX-rule nontrivial activity sets
    equal the target assignment's, or None if no decision tree has them.
    Trees are ordered by root label in ground order, then by their
    children's subtrees in turn, each in the same order.

    Activity sets of a Delta always differ trivially from MIN-rule ones
    (the branch maximum vs. minimum is forced active), so assignments
    are compared on their nontrivial sets, which both conventions aim at.

    The elements after a node's label e on every branch through it are
    the elements R not labeled above it, less e.  So whether e is
    nontrivially active for a basis routed there depends on (e, R, b)
    alone, and the children of a node are independent subproblems.  Each
    subproblem (R, bases routed to the node) is solved once: its answer
    is the first label in ground order on which every routed basis agrees
    with the target and whose children are all solvable, each child
    taking its own first answer.  A child no basis reaches takes the
    first tree of its enumeration.  The memo keeps at most ``_MEMO_CAP``
    solved subproblems; one more raises :class:`SearchSpaceTooLarge`.
    """
    bases = sorted(P.bases)
    for b in bases:
        if any(v < 0 for v in b):
            raise BasisOutOfRange(f"basis {b} has a negative coordinate")
    ranks = {e: P.rank(e) for e in P.ground}
    want = {
        b: (target[b].nontrivial_internal, target[b].nontrivial_external)
        for b in bases
    }
    if any(not (ni | ne) <= set(P.ground) for ni, ne in want.values()):
        return None  # no branch can make an element outside the ground active

    def agrees(e, rest, b):
        """e's nontrivial activity for b, with ``rest`` after it, is the target's."""
        internal, external = max_rule_activities(P, b, (e,) + rest)
        ni, ne = want[b]
        return nontrivial(P, b, internal & {e}, external & {e}) == (ni & {e}, ne & {e})

    memo = {}

    def solve(elems, group):
        """First tree over ``elems`` agreeing on every basis of ``group``."""
        key = (elems, group)
        if key not in memo:
            tree = first_tree(elems, group)
            if len(memo) >= _MEMO_CAP:
                raise SearchSpaceTooLarge(f"more than {_MEMO_CAP} subproblems")
            memo[key] = tree
        return memo[key]

    def first_tree(elems, group):
        for e in elems:
            rest = tuple(x for x in elems if x != e)
            if not all(agrees(e, rest, b) for b in group):
                continue
            if not rest:
                return DecisionTree(e, ())
            i = P.index(e)
            children = []
            for value in range(ranks[e] + 1):
                child = solve(rest, tuple(b for b in group if b[i] == value))
                if child is None:
                    break
                children.append(child)
            else:
                return DecisionTree(e, tuple(children))
        return None

    return solve(tuple(P.ground), tuple(bases))
