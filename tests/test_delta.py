"""Decision-tree activities, the realizability obstruction, and search."""

import itertools
import random

import pytest

from hypertutte import delta, fixture_path, harness
from hypertutte.delta import (
    BasisActivity,
    BasisOutOfRange,
    DecisionTree,
    InvalidDecisionTree,
    PolymatroidBases,
    SearchSpaceTooLarge,
    activity_masks,
    assignment_from_delta,
    assignment_from_orders,
    bases_from_hypertrees,
    check_exchange,
    crapo_verify,
    exchange_witness,
    exhaustive_delta_search,
    load_bases,
    load_decision_tree,
    names,
    nontrivial,
    obstruction_check,
    order_of_basis,
    validate_decision_tree,
)
from hypertutte.crapo import intervals, verify_assignment
from hypertutte.jaeger import embedding_assignment
from hypertutte.model import ParseError, RibbonGraph, emerald, violet
from oracles import (
    Graph, basis_name, count_decision_trees, enumerate_decision_trees,
    fixed_tree_order_activities, graph_matroid, interval_contains, perturbed,
    random_decision_tree, shift, shifted_rule_activities,
)


@pytest.fixture(scope="module")
def small_matroid():
    return load_bases(fixture_path("delta_fig.matroid").read_text())


@pytest.fixture(scope="module")
def small_tree(small_matroid):
    tree = load_decision_tree(fixture_path("delta_fig.tree").read_text())
    validate_decision_tree(tree, small_matroid)
    return tree


def test_load_bases(small_matroid):
    assert small_matroid.ground == ("a", "b", "c")
    assert small_matroid.bases == frozenset({(0, 1, 1), (1, 0, 1), (1, 1, 0)})
    assert small_matroid.rank("a") == 1


def test_bases_must_satisfy_exchange():
    """Loaded bases must satisfy the exchange axiom; every base set needs
    one coordinate sum and at least one basis."""
    with pytest.raises(ValueError, match="exchange axiom fails"):
        load_bases("ground: [a, b]\nbases: [[2, 0], [0, 2]]\n")
    with pytest.raises(ValueError):
        PolymatroidBases(("a", "b"), frozenset({(1, 0), (1, 1)}))
    with pytest.raises(ValueError):
        PolymatroidBases(("a",), frozenset())


def test_bases_from_hypertrees(fig2):
    from hypertutte.hypertrees import enumerate_hypertrees

    P = bases_from_hypertrees(fig2)
    assert P.ground == ("e0", "e1", "e2", "e3")
    assert P.bases == frozenset(enumerate_hypertrees(fig2))


def test_polymatroid_built_once_per_graph(fig2, monkeypatch):
    """Single-hypertree callers share one polymatroid per graph."""
    from hypertutte import crapo, jaeger, tutte

    built = []
    init = PolymatroidBases.__init__
    monkeypatch.setattr(
        PolymatroidBases, "__init__", lambda P, *args: built.append(P) or init(P, *args)
    )
    g = perturbed(fig2, random.Random(3))  # a graph no other test caches
    assert g != fig2
    for h in bases_from_hypertrees(g).bases:
        jaeger.embedding_activities(g, h)
    crapo.verify_crapo_partition(g)
    tutte.tutte_embedding(g)
    assert len(built) == 1


def test_exchange_witness_and_check():
    P = PolymatroidBases(("a", "b"), frozenset({(2, 0), (0, 2)}))
    assert exchange_witness(P, (0, 2), (2, 0), 0) is None
    with pytest.raises(ValueError, match="exchange axiom fails for"):
        check_exchange(P)
    Q = load_bases(fixture_path("delta_fig.matroid").read_text())
    assert exchange_witness(Q, (0, 1, 1), (1, 1, 0), 0) == 2
    assert exchange_witness(Q, (1, 1, 0), (0, 1, 1), 2) == 0


def test_exchange_tables_match_shifted_bases(all_hg, small_matroid, fig6_graph):
    """Each basis's exchange table holds exactly the shifted vectors that
    are bases, and the MIN and MAX rules on it agree with the rule that
    looks each shifted basis up, under every order of the ground set:
    on every bundled fixture, 50 random instances, fig6's cycle matroid
    and U(1,6)."""
    polymatroids = [bases_from_hypertrees(g) for g in all_hg.values()]
    polymatroids += [bases_from_hypertrees(harness.random_instance(seed=s)) for s in range(50)]
    polymatroids += [small_matroid, graph_matroid(fig6_graph), uniform_rank_one(6)[0]]
    for P in polymatroids:
        n = len(P.ground)
        orders = list(itertools.permutations(P.ground))
        for b in sorted(P.bases):
            down, up = P.exchanges(b)
            for i, f in itertools.product(range(n), repeat=2):
                assert (down[i] >> f & 1) == (f != i and shift(b, f, i) in P.bases), (b, i, f)
                assert (up[i] >> f & 1) == (f != i and shift(b, i, f) in P.bases), (b, i, f)
            for order in orders:
                assert activity_masks(P, b, order) == shifted_rule_activities(
                    P, b, order, later=False), (b, order)
                assert max_rule(P, b, order) == shifted_rule_activities(
                    P, b, order, later=True), (b, order)


def test_nontrivial_masks_match_exchange_rows(all_hg, small_matroid, fig6_graph):
    """The masks :func:`nontrivial` filters by, read off the floors and
    ranks, are the exchange-row form: b(i) is above its least value over
    the bases iff some b - 1_i + 1_f is a basis (``down[i] != 0``), and
    below its greatest iff some b + 1_i - 1_f is (``up[i] != 0``).  On
    every bundled fixture, delta_fig.matroid, fig6's cycle matroid and 50
    random instances."""
    polymatroids = [bases_from_hypertrees(g) for g in all_hg.values()]
    polymatroids += [bases_from_hypertrees(harness.random_instance(seed=s)) for s in range(50)]
    polymatroids += [small_matroid, graph_matroid(fig6_graph)]
    for P in polymatroids:
        n = len(P.ground)
        columns = list(zip(*P.bases))
        for b in sorted(P.bases):
            lower, higher = nontrivial(P, b, (1 << n) - 1, (1 << n) - 1)
            down, up = P.exchanges(b)
            for i in range(n):
                assert bool(lower >> i & 1) == (b[i] > min(columns[i])) == (down[i] != 0), (b, i)
                assert bool(higher >> i & 1) == (b[i] < max(columns[i])) == (up[i] != 0), (b, i)


def test_exchange_table_only_for_bases(small_matroid):
    """A vector that is no basis has no exchange table, and asking for
    one keeps no row, so the memo holds at most one row per basis."""
    P = PolymatroidBases(small_matroid.ground, small_matroid.bases)
    for v in [(1, 1, 1), (0, 0, 2), (2, 0, 0), (0, 1)]:
        with pytest.raises(ValueError, match="is not a basis"):
            P.exchanges(v)
    assert P.exchanges((0, 1, 1)) == ((0, 0b001, 0b001), (0b110, 0, 0))
    for b in P.bases:
        P.exchanges(b)
    assert len(P._exchange_rows) == len(P.bases)


def test_activity_masks_refuse_unknown_elements(small_matroid):
    """An element outside the ground set, or an unhashable one, raises
    ValueError wherever it stands in the order, whether or not the
    basis's exchange row was fetched before."""
    P = PolymatroidBases(small_matroid.ground, small_matroid.bases)
    b = min(P.bases)
    for _ in range(2):  # the second round runs with b's row fetched
        for order in [("z",), ("a", "b", "z"), ("a", ["b"], "c"), ("c", 0)]:
            with pytest.raises(ValueError, match="is not in the ground set"):
                activity_masks(P, b, order)
        assert activity_masks(P, b, P.ground) == shifted_rule_activities(
            P, b, P.ground, later=False)


def test_built_polymatroids_are_not_rechecked(fig2, fig6_graph, monkeypatch):
    """Hypertree sets and cycle matroids are polymatroids by construction:
    only loading bases runs the exchange check."""
    from hypertutte import crapo, tutte

    def refuse(P):
        raise AssertionError("exchange axiom checked")

    monkeypatch.setattr(delta, "check_exchange", refuse)
    with pytest.raises(AssertionError):
        load_bases(fixture_path("delta_fig.matroid").read_text())
    g = perturbed(fig2, random.Random(5))  # a graph no other test caches
    assert g != fig2
    assert tutte.tutte_embedding(g).evaluate(1, 1) == len(bases_from_hypertrees(g).bases)
    assert crapo.verify_crapo_partition(g)["status"] == "PASS"
    P, assignment = embedding_assignment(g)
    exhaustive_delta_search(P, assignment)
    assert len(graph_matroid(fig6_graph).bases) == 5


def test_decision_tree_validation(small_matroid):
    leaf_b = DecisionTree("b", ())
    leaf_c = DecisionTree("c", ())
    with pytest.raises(InvalidDecisionTree):  # wrong arity at the root
        validate_decision_tree(
            DecisionTree("a", (DecisionTree("b", (leaf_c, leaf_c)),)),
            small_matroid,
        )
    with pytest.raises(InvalidDecisionTree):  # repeated label on a branch
        validate_decision_tree(
            DecisionTree(
                "a",
                (
                    DecisionTree("b", (DecisionTree("a", ()), leaf_c)),
                    DecisionTree("c", (leaf_b, leaf_b)),
                ),
            ),
            small_matroid,
        )
    with pytest.raises(InvalidDecisionTree):  # unknown element
        validate_decision_tree(DecisionTree("z", ()), small_matroid)


def test_orders_of_bases(small_matroid, small_tree):
    assert order_of_basis(small_tree, small_matroid, (0, 1, 1)) == ("a", "b", "c")
    assert order_of_basis(small_tree, small_matroid, (1, 0, 1)) == ("a", "c", "b")
    assert order_of_basis(small_tree, small_matroid, (1, 1, 0)) == ("a", "c", "b")


def test_order_of_basis_out_of_range(small_matroid, small_tree):
    with pytest.raises(BasisOutOfRange):
        order_of_basis(small_tree, small_matroid, (2, 0, 0))


def max_rule(P, b, order) -> tuple:
    """The MAX rule's masks, as the decision trees take them: the MIN
    rule of ``activity_masks`` over the reversed order."""
    return activity_masks(P, b, tuple(order)[::-1])


def test_max_rule_small(small_matroid):
    internal, external = max_rule(small_matroid, (0, 1, 1), ("a", "b", "c"))
    assert names(small_matroid, internal) == ("a", "b", "c")
    assert names(small_matroid, external) == ("b", "c")


def test_last_element_always_both_active(small_matroid):
    for b in small_matroid.bases:
        for order in (("a", "b", "c"), ("c", "a", "b")):
            last, first = (1 << small_matroid.index(order[k]) for k in (-1, 0))
            internal, external = max_rule(small_matroid, b, order)
            assert internal & last and external & last
            internal, external = activity_masks(small_matroid, b, order)
            assert internal & first and external & first


def test_small_assignment_nontrivial_sets(small_matroid, small_tree):
    assignment = assignment_from_delta(small_tree, small_matroid)
    union = {
        b: set(names(small_matroid, rec.nontrivial_internal | rec.nontrivial_external))
        for b, rec in assignment.items()
    }
    assert union == {
        (0, 1, 1): {"b", "c"},
        (1, 0, 1): {"b"},
        (1, 1, 0): {"b"},
    }


def test_small_assignment_root_exempt(small_matroid, small_tree):
    assignment = assignment_from_delta(small_tree, small_matroid)
    assert obstruction_check(small_matroid, assignment) == ("EXEMPT", "a")


def test_obstruction_counts_every_element(small_matroid, small_tree):
    """Every element of P is a candidate for the obstruction, not only
    those some record lists as active: with the root a dropped from every
    raw internal and external mask, the nontrivial masks kept, a is still
    nontrivially active for no basis, and the search still realises the
    target, so it must not read as not Delta-realisable."""
    a = 1 << small_matroid.index("a")
    target = {
        b: BasisActivity(rec.internal & ~a, rec.external & ~a,
                         rec.nontrivial_internal, rec.nontrivial_external)
        for b, rec in assignment_from_delta(small_tree, small_matroid).items()
    }
    assert not any((rec.internal | rec.external) & a for rec in target.values())
    assert obstruction_check(small_matroid, target) == ("EXEMPT", "a")
    assert exhaustive_delta_search(small_matroid, target) is not None


def test_small_assignment_crapo(small_matroid, small_tree):
    assignment = assignment_from_delta(small_tree, small_matroid)
    report = crapo_verify(small_matroid, assignment)
    assert report["status"] == "PASS"
    assert report["violations"] == []


def test_graph_matroid_fig6(fig6_graph):
    P = graph_matroid(fig6_graph)
    assert P.ground == ("a", "b", "c", "d")
    assert {basis_name(P, b) for b in P.bases} == {"ac", "ad", "bc", "bd", "cd"}


def test_graph_matroid_loops_and_connectivity():
    """A loop is in no spanning tree, even as the lowest edge, and a
    disconnected graph is refused by name rather than by an empty min()."""
    looped = Graph(3, (("a", 0, 0), ("b", 0, 1), ("c", 1, 2)))
    assert graph_matroid(looped).bases == frozenset({(0, 1, 1)})
    with pytest.raises(ValueError, match="connected graph"):
        graph_matroid(Graph(3, (("a", 0, 1),)))


def test_rank_is_the_greatest_coordinate(all_hg, single_edge, fig6_graph, small_matroid):
    """rank(e), read from the table built once per polymatroid, is the
    greatest value of coordinate e over the bases."""
    polymatroids = [bases_from_hypertrees(g) for g in [*all_hg.values(), single_edge]]
    polymatroids += [graph_matroid(fig6_graph), small_matroid]
    for P in polymatroids:
        for i, e in enumerate(P.ground):
            assert P.rank(e) == max(b[i] for b in P.bases)


FIG6_NONTRIVIAL = {
    "cd": {"a", "b"},
    "bd": {"a"},
    "bc": {"a", "c"},
    "ac": {"a"},
    "ad": {"a", "d"},
}

FIG6_COVERING = {
    (0, 0, 0, 0): "ad", (0, 0, 0, 1): "ad", (0, 0, 1, 0): "ac",
    (0, 0, 1, 1): "cd", (0, 1, 0, 0): "bc", (0, 1, 0, 1): "bd",
    (0, 1, 1, 0): "bc", (0, 1, 1, 1): "cd", (1, 0, 0, 0): "ad",
    (1, 0, 0, 1): "ad", (1, 0, 1, 0): "ac", (1, 0, 1, 1): "cd",
    (1, 1, 0, 0): "bc", (1, 1, 0, 1): "bd", (1, 1, 1, 0): "bc",
    (1, 1, 1, 1): "cd",
}


def test_fig6_nontrivial_sets(fig6_graph, fig6_orders):
    P, assignment = fixed_tree_order_activities(fig6_graph, fig6_orders)
    union = {
        basis_name(P, b): set(names(P, rec.nontrivial_internal | rec.nontrivial_external))
        for b, rec in assignment.items()
    }
    assert union == FIG6_NONTRIVIAL


def test_fig6_covering_table(fig6_graph, fig6_orders):
    P, assignment = fixed_tree_order_activities(fig6_graph, fig6_orders)
    fig6_intervals = intervals(assignment)
    for point, name in FIG6_COVERING.items():
        covering = [
            basis_name(P, iv.center)
            for iv in fig6_intervals
            if interval_contains(iv, point)
        ]
        assert covering == [name], point


def test_fig6_crapo(fig6_graph, fig6_orders):
    P, assignment = fixed_tree_order_activities(fig6_graph, fig6_orders)
    assert verify_assignment(P, assignment, [(0, 1)] * 4)["status"] == "PASS"
    assert crapo_verify(P, assignment)["status"] == "PASS"


def test_fig6_crapo_detects_mutation(fig6_graph, fig6_orders):
    """Swapping one basis's internal and external masks must fail the
    Crapo check."""
    P, assignment = fixed_tree_order_activities(fig6_graph, fig6_orders)
    b = next(b for b, rec in sorted(assignment.items()) if rec.internal != rec.external)
    rec = assignment[b]
    assignment[b] = BasisActivity(
        rec.external, rec.internal, rec.nontrivial_external, rec.nontrivial_internal
    )
    report = crapo_verify(P, assignment)
    assert report["status"] == "FAIL"
    assert report["violations"]


def test_delta_crapo_rejects_empty_box(small_matroid):
    assignment = assignment_from_orders(
        small_matroid, {b: ("a", "b", "c") for b in small_matroid.bases}
    )
    with pytest.raises(ValueError):
        verify_assignment(small_matroid, assignment, [(0, 1), (2, 1), (0, 1)])


def test_load_bases_rejects_malformed():
    with pytest.raises(ParseError):
        load_bases("ground: [a, b]\n")
    with pytest.raises(ParseError):
        load_bases("ground: [a, b]\nbases: [[1, x]]\n")


def test_load_bases_rejects_repeated_names_and_negative_coordinates():
    """A repeated name would always index its first coordinate, and no
    polymatroid basis has a negative coordinate; both load otherwise."""
    with pytest.raises(ValueError, match="distinct"):
        load_bases("ground: [a, a]\nbases: [[1, 0], [0, 1]]\n")
    with pytest.raises(ValueError, match="non-negative"):
        load_bases("ground: [a, b]\nbases: [[-1, 2], [0, 1]]\n")
    assert load_bases("ground: [a, b]\nbases: [[1, 0], [0, 1]]\n").ground == ("a", "b")


def test_load_decision_tree_rejects_malformed():
    with pytest.raises(ParseError):
        load_decision_tree("children: []\n")
    with pytest.raises(ParseError):
        load_decision_tree("label: a\nchildren: [{children: []}]\n")


def test_decision_tree_counts(fig6_graph, fig5):
    P6 = graph_matroid(fig6_graph)
    assert count_decision_trees(P6.ground, {e: P6.rank(e) for e in P6.ground}) == 576
    P5 = bases_from_hypertrees(fig5)
    assert count_decision_trees(P5.ground, {e: P5.rank(e) for e in P5.ground}) == 2496


def test_enumeration_matches_count(small_matroid):
    ranks = {e: small_matroid.rank(e) for e in small_matroid.ground}
    trees = list(enumerate_decision_trees(small_matroid.ground, ranks))
    assert len(trees) == count_decision_trees(small_matroid.ground, ranks)
    for tree in trees[:5]:
        validate_decision_tree(tree, small_matroid)


def test_planted_tree_recovered(small_matroid):
    rng = random.Random(7)
    ranks = {e: small_matroid.rank(e) for e in small_matroid.ground}
    planted = random_decision_tree(small_matroid.ground, ranks, rng)
    validate_decision_tree(planted, small_matroid)
    target = assignment_from_delta(planted, small_matroid)
    found = exhaustive_delta_search(small_matroid, target)
    assert found is not None
    assert assignment_from_delta(found, small_matroid) == target


def test_search_fails_on_fig6(fig6_graph, fig6_orders):
    P, assignment = fixed_tree_order_activities(fig6_graph, fig6_orders)
    assert exhaustive_delta_search(P, assignment) is None


def first_match_by_enumeration(P, target):
    """The first decision tree in enumeration order whose MAX-rule
    nontrivial activity sets equal the target's, found by checking every
    tree in turn: the reference for exhaustive_delta_search."""
    ranks = {e: P.rank(e) for e in P.ground}
    want = {
        b: (rec.nontrivial_internal, rec.nontrivial_external)
        for b, rec in target.items()
    }
    bases = sorted(P.bases)
    for tree in enumerate_decision_trees(P.ground, ranks):
        ok = True
        for b in bases:
            internal, external = max_rule(P, b, order_of_basis(tree, P, b))
            if nontrivial(P, b, internal, external) != want[b]:
                ok = False
                break
        if ok:
            return tree
    return None


def assert_search_matches_enumeration(P, target):
    found = exhaustive_delta_search(P, target)
    assert found == first_match_by_enumeration(P, target)
    return found


def ribbon_graph(nv, ne, pairs, rng):
    """Bipartite ribbon graph on the (violet, emerald) index ``pairs``,
    rotations and basis shuffled by ``rng``."""
    edges = [(violet(i), emerald(j)) for i, j in pairs]
    rotation = {}
    for k, (v, e) in enumerate(edges):
        rotation.setdefault(v, []).append(k)
        rotation.setdefault(e, []).append(k)
    return perturbed(RibbonGraph.build(nv, ne, edges, rotation, ("v0", 0)), rng)


def random_embedding(rng):
    """Connected, 2-4 violet and 2-4 emerald nodes: every further node
    hangs off a placed node of the other colour, then 2-5 new pairs."""
    nv, ne = rng.randint(2, 4), rng.randint(2, 4)
    pairs = [(0, 0)]
    placed = {"v": [0], "e": [0]}
    rest = [("v", i) for i in range(1, nv)] + [("e", j) for j in range(1, ne)]
    rng.shuffle(rest)
    for kind, i in rest:
        other = rng.choice(placed["e" if kind == "v" else "v"])
        pairs.append((i, other) if kind == "v" else (other, i))
        placed[kind].append(i)
    missing = [(i, j) for i in range(nv) for j in range(ne) if (i, j) not in pairs]
    pairs += rng.sample(missing, min(len(missing), rng.randint(2, 5)))
    return ribbon_graph(nv, ne, pairs, rng)


def test_search_matches_enumeration_on_fixtures(
    fig2, fig5, fig6_graph, fig6_orders, small_matroid, small_tree
):
    for g in (fig2, fig5):
        assert assert_search_matches_enumeration(*embedding_assignment(g)) is None
    assert assert_search_matches_enumeration(
        *fixed_tree_order_activities(fig6_graph, fig6_orders)
    ) is None
    planted = assignment_from_delta(small_tree, small_matroid)
    assert assert_search_matches_enumeration(small_matroid, planted) is not None
    assert_search_matches_enumeration(
        small_matroid,
        assignment_from_orders(
            small_matroid, {b: ("c", "b", "a") for b in small_matroid.bases}
        ),
    )
    b = min(planted)
    rec = planted[b]
    outside = dict(planted)  # one more nontrivial element, outside the ground
    outside[b] = BasisActivity(
        rec.internal, rec.external, rec.nontrivial_internal | 1 << len(small_matroid.ground),
        rec.nontrivial_external,
    )
    assert assert_search_matches_enumeration(small_matroid, outside) is None


def test_k34_search_lists_no_decision_tree(monkeypatch):
    """K3,4 has 55,296 decision trees; the search solves fewer than 100
    subproblems and returns the first match of the enumeration."""
    g = ribbon_graph(3, 4, [(i, j) for i in range(3) for j in range(4)], random.Random(1))
    P, target = embedding_assignment(g)
    assert count_decision_trees(P.ground, {e: P.rank(e) for e in P.ground}) == 55_296
    expected = first_match_by_enumeration(P, target)
    assert expected is not None
    monkeypatch.setattr(delta, "_MEMO_CAP", 100)
    assert exhaustive_delta_search(P, target) == expected


def test_search_matches_enumeration_random():
    """Embedding and planted random-tree targets on 40 random embeddings
    with at most 50,000 decision trees each, and on those with at most
    5,000 also the planted target with one nontrivial membership flipped,
    which most often has no tree."""
    rng = random.Random(0)
    checked = found = flipped = 0
    while checked < 40:
        P, target = embedding_assignment(random_embedding(rng))
        ranks = {e: P.rank(e) for e in P.ground}
        size = count_decision_trees(P.ground, ranks)
        if size > 50_000:
            continue
        planted = assignment_from_delta(random_decision_tree(P.ground, ranks, rng), P)
        goals = [target, planted]
        if size <= 5_000:
            b, e = rng.choice(sorted(planted)), rng.choice(P.ground)
            rec = planted[b]
            goals.append(dict(planted))
            goals[-1][b] = BasisActivity(
                rec.internal, rec.external, rec.nontrivial_internal ^ 1 << P.index(e),
                rec.nontrivial_external,
            )
            flipped += 1
        for goal in goals:
            found += assert_search_matches_enumeration(P, goal) is not None
        checked += 1
    # planted targets always have a tree; some others have none
    assert 40 <= found < 80 + flipped


def assert_search_realises(g, trees):
    """The search finds a decision tree for g's embedding activities, in
    a space of ``trees`` decision trees, and that tree reproduces every
    nontrivial activity set, some of them non-empty."""
    P, target = embedding_assignment(g)
    ranks = {e: P.rank(e) for e in P.ground}
    assert count_decision_trees(P.ground, ranks) == trees
    assert any(rec.nontrivial_internal | rec.nontrivial_external for rec in target.values())
    tree = exhaustive_delta_search(P, target)
    assert tree is not None
    validate_decision_tree(tree, P)
    got = assignment_from_delta(tree, P)
    for b, rec in target.items():
        assert got[b].nontrivial_internal == rec.nontrivial_internal, b
        assert got[b].nontrivial_external == rec.nontrivial_external, b


def test_fig1_search(fig1):
    """fig1's space of 1,658,880 decision trees, out of reach of the
    enumeration, is searched node by node."""
    assert_search_realises(fig1, 1_658_880)


def test_search_answers_past_two_million_trees():
    """A space of more than 2·10⁶ decision trees costs the search no more
    than a small one: a random instance with 4,180,320 is answered."""
    assert_search_realises(harness.random_instance(seed=226), 4_180_320)


def test_search_rejects_negative_coordinate():
    P = PolymatroidBases(("a", "b"), frozenset({(-1, 1), (0, 0)}))
    empty = BasisActivity(0, 0, 0, 0)
    with pytest.raises(BasisOutOfRange):
        exhaustive_delta_search(P, {b: empty for b in P.bases})


def uniform_rank_one(n):
    """U(1,n) over the ground a, b, ..., and the target that wants no
    nontrivial activity for any basis."""
    bases = frozenset(tuple(1 if i == k else 0 for i in range(n)) for k in range(n))
    P = PolymatroidBases(tuple("abcdefghijklmnop"[:n]), bases)
    empty = BasisActivity(0, 0, 0, 0)
    return P, {b: empty for b in P.bases}


def test_search_guard(monkeypatch):
    """The search's memory is bounded by its memo cap.  U(1,6) with no
    nontrivial activity wanted keeps 63 solved subproblems and finds no
    tree; a cap of 62 refuses it."""
    P, target = uniform_rank_one(6)
    monkeypatch.setattr(delta, "_MEMO_CAP", 63)
    assert exhaustive_delta_search(P, target) is None
    monkeypatch.setattr(delta, "_MEMO_CAP", 62)
    with pytest.raises(SearchSpaceTooLarge):
        exhaustive_delta_search(P, target)


def tree_text(tree):
    """A decision tree as its labels, each node's children in brackets."""
    if not tree.children:
        return tree.label
    return f"{tree.label}({','.join(map(tree_text, tree.children))})"


FIG1_TREE = ("e3(e0(e1(e2(e4,e4),e2(e4,e4)),e4(e1(e2,e2),e2(e1,e1))),"
             "e2(e1(e0(e4,e4),e4(e0,e0)),e1(e4(e0,e0),e0(e4,e4))))")
K34_TREE = ("e0(e3(e1(e2,e2,e2),e1(e2,e2,e2),e1(e2,e2,e2)),"
            "e3(e1(e2,e2,e2),e1(e2,e2,e2),e1(e2,e2,e2)),"
            "e1(e2(e3,e3,e3),e2(e3,e3,e3),e2(e3,e3,e3)))")


def test_search_checks_one_element_at_a_time(
    fig1, fig2, fig5, fig6_graph, fig6_orders, monkeypatch
):
    """Each check of the search tests a node's label alone against the
    elements after it, in O(n): it never computes a whole branch's
    activities, nor filters them through ``nontrivial``.  The answers are
    those of the whole-branch check: the trees below for fig1 and a
    seeded K3,4, each reproducing every nontrivial set, and none for
    fig2, fig5, fig6's fixed-tree assignment (A9) and U(1,6) with no
    nontrivial activity wanted."""
    k34 = ribbon_graph(3, 4, [(i, j) for i in range(3) for j in range(4)], random.Random(1))
    cases = [(*embedding_assignment(g), want)
             for g, want in ((fig1, FIG1_TREE), (fig2, None), (fig5, None), (k34, K34_TREE))]
    cases.append((*fixed_tree_order_activities(fig6_graph, fig6_orders), None))
    cases.append((*uniform_rank_one(6), None))

    def refuse(*args):
        raise AssertionError("a whole branch's activities were computed")

    with monkeypatch.context() as patched:
        for name in ("activity_masks", "nontrivial"):
            patched.setattr(delta, name, refuse)
        found = [exhaustive_delta_search(P, target) for P, target, _ in cases]
    for (P, target, want), tree in zip(cases, found):
        assert (tree and tree_text(tree)) == want
        if tree is not None:
            got = assignment_from_delta(tree, P)
            for b, rec in target.items():
                assert got[b].nontrivial_internal == rec.nontrivial_internal, b
                assert got[b].nontrivial_external == rec.nontrivial_external, b


def test_random_deltas_satisfy_partition_and_exemption(fig6_graph):
    """Random decision trees over small matroids: the activity intervals
    partition the box, and the root element is never nontrivially
    active."""
    graphs = [
        fig6_graph,
        Graph(3, (("a", 0, 1), ("b", 1, 2), ("c", 0, 2))),
        Graph(2, (("a", 0, 1), ("b", 0, 1), ("c", 0, 1))),
    ]
    rng = random.Random(0)
    for graph in graphs:
        P = graph_matroid(graph)
        ranks = {e: P.rank(e) for e in P.ground}
        for _ in range(8):
            tree = random_decision_tree(P.ground, ranks, rng)
            validate_decision_tree(tree, P)
            assignment = assignment_from_delta(tree, P)
            assert crapo_verify(P, assignment)["status"] == "PASS"
            for rec in assignment.values():
                assert tree.label not in names(P, rec.nontrivial_internal)
                assert tree.label not in names(P, rec.nontrivial_external)


def test_min_rule_assignment_from_orders(small_matroid):
    orders = {b: ("a", "b", "c") for b in small_matroid.bases}
    assignment = assignment_from_orders(small_matroid, orders)
    assert set(assignment) == set(small_matroid.bases)
    for rec in assignment.values():
        assert "a" in names(small_matroid, rec.internal)
        assert "a" in names(small_matroid, rec.external)
