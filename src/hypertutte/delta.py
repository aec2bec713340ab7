"""Decision-tree (Delta) activities on the bases of a :mod:`polymatroid`.

A decision tree assigns each basis its own element order: at a node
labeled e, a basis with b(e)=i descends into the (i+1)-th child, and the
order is the label sequence along the branch.  Delta activities are the
MAX rule on that order (:func:`assignment_from_delta`).

Also here: the Crapo partition check for an arbitrary activity
assignment (on crapo's verifier), the realizability obstruction (some
element of P must be nontrivially active for no basis), and exhaustive
search for a decision tree realizing a given assignment.  The search
lists no decision trees: under the MAX rule a node's activities depend
only on its label, the elements not labeled above it and the basis, so
it solves each (remaining elements, bases routed to the node) subproblem
once, checking the label alone against the mask of the rest, two ANDs
per basis, and returns the first matching tree in enumeration order.
Its memo of solved subproblems is capped (``_MEMO_CAP`` entries), which
bounds its memory whatever the number of decision trees.  The test
oracles (``tests/oracles.py``) list, count and draw decision trees.
"""

from __future__ import annotations

from collections import namedtuple

from .model import ParseError, yaml_mapping
from .polymatroid import PolymatroidBases, active, assignment_from_orders, movable, names
from .polymatroid import BasisActivity, bases_from_hypertrees, nontrivial  # perfbench reads these (ROADMAP item 1a)
from .crapo import verify_assignment

__all__ = ["BasisOutOfRange", "SearchSpaceTooLarge", "InvalidDecisionTree", "DecisionTree",
           "load_decision_tree", "validate_decision_tree", "order_of_basis", "assignment_from_delta",
           "obstruction_check", "crapo_verify", "exhaustive_delta_search",
           "BasisActivity", "bases_from_hypertrees", "nontrivial"]


class BasisOutOfRange(ValueError):
    """Basis vector exceeds the rank cap of some element."""


class SearchSpaceTooLarge(ValueError):
    """The search needs more subproblems than its memo may hold."""


class InvalidDecisionTree(ValueError):
    """Branch misses an element, repeats one, or has wrong arity."""


_MEMO_CAP = 100_000  # solved subproblems the search may keep


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


def validate_decision_tree(tree: DecisionTree, P: PolymatroidBases) -> DecisionTree:
    """The tree, once every branch lists every ground element exactly
    once and every non-final node has r(label)+1 children."""
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
    return tree


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


def assignment_from_delta(tree: DecisionTree, P: PolymatroidBases) -> dict:
    """basis -> BasisActivity under the decision tree's MAX-rule orders:
    the MIN rule on each branch's order reversed."""
    return assignment_from_orders(P, {b: order_of_basis(tree, P, b)[::-1] for b in P.bases})


def obstruction_check(P: PolymatroidBases, assignment: dict) -> tuple:
    """('EXEMPT', e) if some element of P, the least name of those, is
    nontrivially active for no basis (necessary for Delta-realizability);
    ('NO_EXEMPT', None) otherwise."""
    covered = 0
    for record in assignment.values():
        covered |= record.nontrivial_internal | record.nontrivial_external
    exempt = names(P, ~covered)
    if exempt:
        return ("EXEMPT", min(exempt))
    return ("NO_EXEMPT", None)


def crapo_verify(P: PolymatroidBases, assignment: dict) -> dict:
    """The Delta-Crapo report: the intervals of an activity assignment of
    exactly P's bases partition their default box, distances attained
    (:func:`crapo.verify_assignment`, which refuses any other assignment)."""
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
    alone, one :func:`polymatroid.active` test on the mask of R, and the children
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
    ranks = tuple(map(P.rank, P.ground))
    moves = {b: movable(P, b) for b in bases}

    def agrees(i, rest, b):
        """Coordinate i, with the mask ``rest`` after it, is nontrivially active for b as wanted."""
        internal, external = active(P.exchanges(b), i, rest)
        lower, higher = moves[b]
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
