"""The polymatroid layer beneath jaeger, crapo, tutte and delta.

The MIN rule (an element is active if it cannot be exchanged with a
smaller one) serves orders fixed per basis; Delta's MAX rule is the MIN
rule over the reversed order.  Both apply one per-element test,
:func:`active`, and :meth:`BasisActivity.of` builds every activity
record.  Whether b - 1_e + 1_f or b + 1_e - 1_f is a basis depends on
b, e and f alone, never on the order, so the test reads the exchange
table of b (:meth:`PolymatroidBases.exchanges`): bit masks built once
per basis in n(n-1) lookups and memoised on the polymatroid, whose row
a caller fetches once and hands to every test on b.  An element is
active against the mask of the elements before it (MIN) or after it
(MAX) when a mask AND is empty, so each further order of a basis costs
O(n).  A hypergraphic polymatroid is kept per hypertree set, not per
graph (:func:`bases_from_hypertrees`): the graphs with that set, such
as the embeddings of one hypergraph, share it and its rows, while their
orders and activities stay their own.

A record holds four bit masks over P's coordinates, which every layer
reads as they are; :func:`names` turns a mask back into element names
only for what the CLI prints.  One builder makes every assignment,
:func:`assignment_from_orders`, from one order per basis: the embedding
and Jaeger orders as the tour searches recorded them, and a decision
tree's branch orders reversed (:func:`delta.assignment_from_delta`).

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
    bases, or None: one :func:`active` test per f on the exchange rows
    of b and b2."""
    row = P.exchanges(b)
    row2 = P.exchanges(b2)
    for f in range(len(b)):
        bit = 1 << f
        if b[f] > b2[f] and not active(row, e, bit)[1] and not active(row2, e, bit)[0]:
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


def activity_masks(P: PolymatroidBases, b, order) -> tuple:
    """The coordinates of basis b internally and externally active under
    the MIN rule, as two bit masks: each element of ``order`` is tested
    by :func:`active` against the mask of the elements before it, on
    b's exchange row, fetched once.  The MAX rule is the same test over
    the reversed order."""
    row = P.exchanges(tuple(b))
    internal = external = passed = 0
    for i in map(P.index, order):
        inside, outside = active(row, i, passed)
        bit = 1 << i
        if inside:
            internal |= bit
        if outside:
            external |= bit
        passed |= bit
    return internal, external


def active(row, i, others) -> tuple:
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
    ``upper`` (:func:`active`).  The Crapo decider's attainment test
    (:func:`crapo._attains`)."""
    if not lower:
        return True  # no coordinate to test: b's row stays unbuilt
    row = P.exchanges(b)
    return all(active(row, i, upper)[0] for i in range(len(b)) if lower >> i & 1)


def movable(P: PolymatroidBases, b) -> tuple:
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
    active direction across the base set (:func:`movable`): some basis
    is lower at an internal one, or higher at an external one."""
    lower, higher = movable(P, b)
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
