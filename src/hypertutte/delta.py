"""Decision-tree (Delta) activities for matroids and polymatroids.

A decision tree assigns each basis its own element order: at a node
labeled e, a basis with b(e)=i descends into the (i+1)-th child, and the
order is the label sequence along the branch.  Delta activities use the
MAX rule (an element is active if it cannot be exchanged with a larger
one); the MIN rule serves orders fixed per basis, as in the parallel-edge
counterexample and the Jaeger activities.  Both apply one per-element
test, :func:`_active`, the MAX rule as the MIN rule over the reversed
order, and :meth:`BasisActivity.of` builds every activity record.
Whether b - 1_e + 1_f or b + 1_e - 1_f is a basis depends on b, e and f
alone, never on the order, so the test reads the exchange table of b
(:meth:`PolymatroidBases.exchanges`): bit masks built once per basis in
n(n-1) lookups and memoised on the polymatroid, whose row a caller
fetches once and hands to every test on b.  An element is active
against the mask of the elements before it (MIN) or after it (MAX) when
a mask AND is empty, so each further order of a basis costs O(n).  A
hypergraphic polymatroid is kept per hypertree set, not per graph
(:func:`bases_from_hypertrees`): the graphs with that set, such as the
embeddings of one hypergraph, share it and its rows, while their orders
and activities stay their own.

A record holds four bit masks over P's coordinates, which every layer
reads as they are; :func:`names` turns a mask back into element names
only for what the CLI prints.  One builder makes every assignment,
:func:`assignment_from_orders`, from one order per basis: the embedding
and Jaeger orders as the tour searches recorded them, and a decision
tree's branch orders reversed (:func:`assignment_from_delta`).

Also here: the Crapo partition check for an arbitrary activity
assignment (on crapo's verifier), whose distance attainment test
(:func:`exchange_free`) is the same rule on the same table, the
realizability obstruction (some element of P must be nontrivially
active for no basis), and exhaustive search for a decision tree
realizing a given assignment.  The search
lists no decision trees: under the MAX rule a node's activities depend
only on its label, the elements not labeled above it and the basis, so
it solves each (remaining elements, bases routed to the node) subproblem
once, checking the label alone against the mask of the rest, two ANDs
per basis, and returns the first matching tree in enumeration order.
Its memo of solved subproblems is capped (``_MEMO_CAP`` entries), which
bounds its memory whatever the number of decision trees.  Listing,
counting and drawing decision trees are test oracles, in
``tests/oracles.py``.

A base set's shape is checked once, by the :class:`PolymatroidBases`
constructor.  The exchange axiom is written once (:func:`exchange_witness`,
on the exchange tables, the one lookup of shifted bases) and checked
only where bases are loaded (:func:`check_exchange`, O(|B|·n² + |B|²·n)
for |B| bases): hypertree sets are polymatroids by Kálmán's theorem.
The rule that looks each shifted basis up afresh, against which the
exchange tables are checked, the cycle matroid of a graph and the
per-tree orders of the parallel-edge counterexample (fig6) are test
oracles, in ``tests/oracles.py``.
"""

from __future__ import annotations

import itertools
import weakref
from collections import namedtuple

from .model import Frozen, ParseError, emerald, is_int, yaml_mapping
from .hypertrees import cached, enumerate_hypertrees


class BasisOutOfRange(ValueError):
    """Basis vector exceeds the rank cap of some element."""


class SearchSpaceTooLarge(ValueError):
    """The search needs more subproblems than its memo may hold."""


class InvalidDecisionTree(ValueError):
    """Branch misses an element, repeats one, or has wrong arity."""


_MEMO_CAP = 100_000  # solved subproblems the search may keep


class PolymatroidBases(Frozen):
    """Explicit polymatroid: named ground set and the set of base vectors.
    The constructor is the one check of their shape: at least one basis,
    distinct names, one non-negative coordinate per name, one coordinate
    sum; exchange is checked where bases are loaded (:func:`check_exchange`).

    Instances are immutable (:class:`model.Frozen`).  Equality, hashing
    and the ``repr`` read ``ground`` and ``bases`` alone; ``pickle`` and
    ``copy`` rebuild and recheck a polymatroid from them, so a copy
    starts with no exchange rows memoised."""

    _fields = ("ground", "bases")
    __slots__ = _fields + ("_ranks", "_floors", "_positions", "_exchange_rows", "__weakref__")

    def __init__(self, ground: tuple, bases: frozenset):
        if not bases:
            raise ValueError("empty base set")
        if len(set(ground)) != len(ground):
            raise ValueError("ground elements must be distinct")
        if any(len(b) != len(ground) for b in bases):
            raise ValueError("basis length does not match ground set")
        columns = tuple(zip(*bases))
        floors = tuple(map(min, columns))
        if any(x < 0 for x in floors):
            raise ValueError("basis coordinates must be non-negative")
        if len({sum(b) for b in bases}) != 1:
            raise ValueError("bases have differing coordinate sums")
        self._set(ground=ground, bases=bases, _ranks=tuple(map(max, columns)), _floors=floors,
                  _positions={e: i for i, e in enumerate(ground)}, _exchange_rows={})

    def rank(self, e) -> int:
        """mu({e}): the greatest value of coordinate e over the bases."""
        return self._ranks[self.index(e)]

    def index(self, e) -> int:
        try:
            return self._positions[e]
        except (KeyError, TypeError):
            raise ValueError(f"{e!r} is not in the ground set") from None

    def exchanges(self, b) -> tuple:
        """The exchange table of basis b, two tuples of bit masks over the
        coordinates: ``down[i]`` has bit f set iff b - 1_i + 1_f is a
        basis, ``up[i]`` iff b + 1_i - 1_f is.  Built in one pass over
        the pairs (i, f), each hit recorded in both, and memoised per
        basis, so the memo holds at most one row per basis; a vector
        that is no basis raises ValueError.  A move past P's floor or
        rank at a coordinate leaves the bases: no lookup."""
        row = self._exchange_rows.get(b)
        if row is not None:
            return row
        if b not in self.bases:
            raise ValueError(f"{b!r} is not a basis")
        bases, floors, ranks = self.bases, self._floors, self._ranks
        n = len(b)
        down, up = [0] * n, [0] * n
        for i in range(n):
            if b[i] <= floors[i]:
                continue
            for f in range(n):
                if f != i and b[f] < ranks[f] and _shift(b, f, i) in bases:
                    down[i] |= 1 << f
                    up[f] |= 1 << i
        self._exchange_rows[b] = row = (tuple(down), tuple(up))
        return row


def _shift(b, up, down):
    out = list(b)
    out[up] += 1
    out[down] -= 1
    return tuple(out)


def exchange_witness(P: PolymatroidBases, b, b2, e):
    """For bases b and b2 with b(e) < b2(e), the first index f with
    b(f) > b2(f) such that b + 1_e - 1_f and b2 - 1_e + 1_f are both
    bases, or None: one :func:`_active` test per f on the exchange rows
    of b and b2."""
    row = P.exchanges(b)
    row2 = P.exchanges(b2)
    for f in range(len(b)):
        bit = 1 << f
        if b[f] > b2[f] and not _active(row, e, bit)[1] and not _active(row2, e, bit)[0]:
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
    P = PolymatroidBases(tuple(str(e) for e in ground), frozenset(tuple(b) for b in bases))
    check_exchange(P)
    return P


# base set -> its hypergraphic polymatroid, while something (a graph's cache) holds it
_hypergraphic = weakref.WeakValueDictionary()


def bases_from_hypertrees(g) -> PolymatroidBases:
    """The hypergraphic polymatroid of a ribbon graph instance; a
    polymatroid by Kálmán's theorem, so not checked.  It depends on the
    hypertree set alone, so graphs with one hypertree set, such as the
    embeddings of one hypergraph, share one polymatroid and its exchange
    rows (:func:`_hypergraphic_polymatroid`).  Each graph keeps it in
    its own cache (:func:`hypertrees.cached`), so it dies with the last
    graph that reads it."""
    return cached(g, "bases", _hypergraphic_polymatroid)


def _hypergraphic_polymatroid(g) -> PolymatroidBases:
    """The polymatroid registered for g's hypertree set, built and
    registered if no live graph holds one: at most one per base set."""
    bases = frozenset(enumerate_hypertrees(g))
    P = _hypergraphic.get(bases)
    if P is None:
        ground = tuple(emerald(j) for j in range(g.emerald_count))
        _hypergraphic[bases] = P = PolymatroidBases(ground, bases)
    return P


class DecisionTree(namedtuple("DecisionTree", "label children")):
    """Node labeled ``label`` with an ordered tuple of child subtrees."""

    __slots__ = ()

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
    full = (1 << len(P.ground)) - 1

    def visit(node, seen):
        if node.label not in P.ground:
            raise InvalidDecisionTree(f"unknown element {node.label!r}")
        bit = 1 << P.index(node.label)
        if seen & bit:
            raise InvalidDecisionTree(f"element {node.label!r} repeats on a branch")
        seen |= bit
        if seen == full:
            if node.children:
                raise InvalidDecisionTree("branch longer than the ground set")
            return
        arity = P.rank(node.label) + 1
        if len(node.children) != arity:
            raise InvalidDecisionTree(
                f"node {node.label!r} needs {arity} children, has {len(node.children)}"
            )
        for child in node.children:
            visit(child, seen)

    visit(tree, 0)


def order_of_basis(tree: DecisionTree, P: PolymatroidBases, b) -> tuple:
    """Label sequence along the branch selected by basis b."""
    b = tuple(b)
    order = []
    node = tree
    while True:
        order.append(node.label)
        if not node.children:
            break
        value = b[P.index(node.label)]
        if value < 0 or value >= len(node.children):
            raise BasisOutOfRange(
                f"b({node.label}) = {value} out of range for arity "
                f"{len(node.children)}"
            )
        node = node.children[value]
    return tuple(order)


def activity_masks(P: PolymatroidBases, b, order) -> tuple:
    """The coordinates of basis b internally and externally active under
    the MIN rule, as two bit masks: each element of ``order`` is tested
    by :func:`_active` against the mask of the elements before it, on
    b's exchange row, fetched once.  The MAX rule is the same test over
    the reversed order."""
    row = P.exchanges(tuple(b))
    internal = external = passed = 0
    for i in map(P.index, order):
        inside, outside = _active(row, i, passed)
        bit = 1 << i
        if inside:
            internal |= bit
        if outside:
            external |= bit
        passed |= bit
    return internal, external


def _active(row, i, others) -> tuple:
    """The one activity rule: is the element at coordinate i of basis b
    internally active against the coordinates in the bit mask ``others``
    (no f there makes b - 1_e + 1_f a basis), and externally (nor
    b + 1_e - 1_f)?  Two ANDs on ``row``, b's exchange table
    (:meth:`PolymatroidBases.exchanges`), which the caller fetches once."""
    down, up = row
    return not down[i] & others, not up[i] & others


def exchange_free(P: PolymatroidBases, b, lower, upper) -> bool:
    """No coordinate i in the bit mask ``lower`` and f in ``upper`` make
    b - 1_i + 1_f a basis: each such i is internally active against
    ``upper`` (:func:`_active`).  The Crapo decider's attainment test
    (:func:`crapo._attains`)."""
    if not lower:
        return True  # no coordinate to test: b's row stays unbuilt
    row = P.exchanges(b)
    return all(_active(row, i, upper)[0] for i in range(len(b)) if lower >> i & 1)


def _movable(P: PolymatroidBases, b) -> tuple:
    """``(lower, higher)``: the bit masks of the coordinates of basis b
    where some basis is lower, which is b(e) above the least value of e
    over the bases, and where some basis is higher, b(e) below its rank.
    The one rule of :func:`nontrivial`."""
    lower = higher = 0
    for i, (v, floor, rank) in enumerate(zip(b, P._floors, P._ranks)):
        lower |= (v > floor) << i
        higher |= (v < rank) << i
    return lower, higher


def nontrivial(P: PolymatroidBases, b, internal, external) -> tuple:
    """Filter the masks to coordinates whose value actually varies in the
    active direction across the base set (:func:`_movable`): some basis
    is lower at an internal one, or higher at an external one."""
    lower, higher = _movable(P, b)
    return internal & lower, external & higher


def names(P: PolymatroidBases, mask) -> tuple:
    """The elements of P at the coordinates in the bit mask, in ground
    order: the one way back from a mask to names, for print."""
    return tuple(e for i, e in enumerate(P.ground) if mask >> i & 1)


class BasisActivity(namedtuple(
        "BasisActivity", "internal external nontrivial_internal nontrivial_external")):
    """The activities of one basis and their :func:`nontrivial` parts,
    each a bit mask over P's coordinates."""

    __slots__ = ()

    @classmethod
    def of(cls, P: PolymatroidBases, b, internal, external) -> "BasisActivity":
        """The record of basis b whose rule gave the masks ``internal`` and ``external``."""
        return cls(internal, external, *nontrivial(P, b, internal, external))


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


def assignment_from_orders(P: PolymatroidBases, order_map: dict) -> dict:
    """basis -> BasisActivity from explicit per-basis orders, in sorted
    basis order: b's activities by :func:`activity_masks` (the MIN rule)
    on ``order_map[b]``, which must list every ground element once
    (:func:`check_order`)."""
    for b in P.bases:
        check_order(P, order_map[b])
    return {b: BasisActivity.of(P, b, *activity_masks(P, b, order_map[b])) for b in sorted(P.bases)}


def assignment_from_delta(tree: DecisionTree, P: PolymatroidBases) -> dict:
    """basis -> BasisActivity under the decision tree's MAX-rule orders:
    the MIN rule on each branch's order reversed."""
    return assignment_from_orders(P, {b: order_of_basis(tree, P, b)[::-1] for b in P.bases})


def obstruction_check(P: PolymatroidBases, assignment: dict) -> tuple:
    """('EXEMPT', e) if some element of P, the least name of those, is
    nontrivially active for no basis (necessary for Delta-realizability);
    ('NO_EXEMPT', None) otherwise."""
    active = 0
    for record in assignment.values():
        active |= record.nontrivial_internal | record.nontrivial_external
    exempt = names(P, ~active)
    if exempt:
        return ("EXEMPT", min(exempt))
    return ("NO_EXEMPT", None)


def crapo_verify(P: PolymatroidBases, assignment: dict) -> dict:
    """The Delta-Crapo report: the intervals of an activity assignment of
    exactly P's bases partition their default box, distances attained
    (:func:`crapo.verify_assignment`, which refuses any other assignment)."""
    from .crapo import verify_assignment

    return {"kind": "delta-crapo", **verify_assignment(P, assignment)}


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
    alone, one :func:`_active` test on the mask of R, and the children
    of a node are independent subproblems.  Each subproblem (R, bases routed to the
    node) is solved once: its answer is the first label in ground order
    on which every routed basis agrees with the target and whose children
    are all solvable, each child taking its own first answer.  A child no
    basis reaches takes the first tree of its enumeration.  The memo
    keeps at most ``_MEMO_CAP`` solved subproblems; one more raises
    :class:`SearchSpaceTooLarge`.
    """
    bases = sorted(P.bases)
    n = len(P.ground)
    want = {b: (target[b].nontrivial_internal, target[b].nontrivial_external) for b in bases}
    if any((ni | ne) >> n for ni, ne in want.values()):
        return None  # no branch can make an element outside the ground active
    ranks = P._ranks
    movable = {b: _movable(P, b) for b in bases}

    def agrees(i, rest, b):
        """Coordinate i, with the mask ``rest`` after it, is nontrivially active for b as wanted."""
        internal, external = _active(P.exchanges(b), i, rest)
        lower, higher = movable[b]
        ni, ne = want[b]
        bit = 1 << i
        return (lower & bit if internal else 0, higher & bit if external else 0) == (
            ni & bit, ne & bit)

    memo = {}

    def solve(elems, group):
        """First tree over the coordinates in the mask ``elems`` agreeing on every basis of ``group``."""
        key = (elems, group)
        if key not in memo:
            tree = first_tree(elems, group)
            if len(memo) >= _MEMO_CAP:
                raise SearchSpaceTooLarge(f"more than {_MEMO_CAP} subproblems")
            memo[key] = tree
        return memo[key]

    def first_tree(elems, group):
        for i in range(n):
            if not elems >> i & 1:
                continue
            rest = elems & ~(1 << i)
            if not all(agrees(i, rest, b) for b in group):
                continue
            if not rest:
                return DecisionTree(P.ground[i], ())
            children = []
            for value in range(ranks[i] + 1):
                child = solve(rest, tuple(b for b in group if b[i] == value))
                if child is None:
                    break
                children.append(child)
            else:
                return DecisionTree(P.ground[i], tuple(children))
        return None

    return solve((1 << n) - 1, tuple(bases))
