"""Lattice distances, Crapo intervals, and the partition decider."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertutte.crapo import (
    BudgetExceeded,
    box_around,
    box_size,
    default_box,
    verify_assignment,
    verify_crapo_partition,
)
from hypertutte import crapo, delta, fixture_path, polymatroid
from hypertutte.polymatroid import BasisActivity, PolymatroidBases
from hypertutte.hypertrees import enumerate_hypertrees
from hypertutte.jaeger import NotAHypertree, embedding_activities, embedding_assignment
from oracles import (
    attains_against_all, d1, d1_greater, d1_less, graph_matroid, interval_contains,
    one_sided, random_decision_tree,
)
from test_delta import ribbon_graph
from test_oracle import ribbon_graphs


def test_distances_single_hypertree():
    h = (0, 0, 1, 1)
    assert d1([h], (2, 0, 0, 1)) == 3
    assert d1_less([h], (2, 0, 0, 1)) == 2
    assert d1_greater([h], (2, 0, 0, 1)) == 1
    assert d1([h], h) == 0


def test_distances_over_set(fig2):
    hs = enumerate_hypertrees(fig2)
    assert d1(hs, (0, 0, 1, 1)) == 0
    assert d1(hs, (5, 0, 0, 0)) == min(d1([h], (5, 0, 0, 0)) for h in hs)
    assert d1_less(hs, (-1, -1, -1, -1)) == 0
    assert d1_greater(hs, (9, 9, 9, 9)) == 0


def test_distance_triangle_decomposition(fig2):
    hs = enumerate_hypertrees(fig2)
    for h in hs:
        for c in ((3, -1, 0, 2), (0, 0, 0, 0), (-2, 4, 1, 1)):
            assert d1([h], c) == d1_less([h], c) + d1_greater([h], c)
    # over a set the two sides need not be attained together, but bound d1
    c = (1, 1, 1, 1)
    assert d1(hs, c) >= max(d1_less(hs, c), d1_greater(hs, c))


def test_interval_fig2(fig2):
    P, assignment = embedding_assignment(fig2)
    h = (1, 1, 0, 0)
    record = assignment[h]
    assert record.internal == 0b1101  # e0, e2 and e3 internally active
    assert record.external == 0b0001  # e0 externally active
    assert interval_contains(h, record, (1, 1, 0, 0))
    assert interval_contains(h, record, (2, 1, -1, -3))  # e0 up, e2/e3 down
    assert not interval_contains(h, record, (1, 2, 0, 0))  # e1 not externally active
    assert not interval_contains(h, record, (1, 0, 0, 0))  # e1 not internally active


def test_interval_requires_hypertree(fig2):
    """Only a hypertree has activities, hence an interval."""
    with pytest.raises(NotAHypertree):
        embedding_activities(fig2, (2, 0, 0, 0))


def test_default_box(fig2):
    hs = enumerate_hypertrees(fig2)
    assert default_box(hs) == [(-2, 3), (-2, 4), (-2, 3), (-2, 3)]
    assert box_around(hs, 0, 0) == [(0, 1), (0, 2), (0, 1), (0, 1)]


def test_partition_fig2(fig2):
    report = verify_crapo_partition(fig2, box=[(-2, 4)] * 4)
    assert report["status"] == "PASS"
    assert report["points"] == 7 ** 4
    assert report["hypertrees"] == 7
    assert report["violations"] == []


def test_partition_all_fixtures(all_hg, single_edge):
    for g in list(all_hg.values()) + [single_edge]:
        report = verify_crapo_partition(g)
        assert report["status"] == "PASS", report


def test_partition_single_edge_wide_box(single_edge):
    report = verify_crapo_partition(single_edge, box=[(-3, 5)])
    assert report["status"] == "PASS"
    assert report["points"] == 9


def test_partition_box_growth_stable(fig5):
    """Growing the box only adds points, never violations."""
    for margin in (1, 2, 3):
        box = box_around(enumerate_hypertrees(fig5), margin, margin)
        report = verify_crapo_partition(fig5, box=box)
        assert report["status"] == "PASS"


def test_partition_budget(fig2, monkeypatch):
    """Only visited points are budgeted.  fig2 passes on [-50, 50]^4,
    whose 101^4 points are far over the budget, with no point left to
    list: the lister's one budget check is for 0 points.  With e0
    toggled in the external mask of its last basis, the same box is
    listed: 127,449 violations, of which those in the default box are the
    oracle's 18.  With two bases' activity records exchanged, the regions
    left to list hold more points than the budget, and the box is refused
    before any of them is listed."""
    box = [(-50, 50)] * 4
    P, assignment = embedding_assignment(fig2)
    assert box_size(box) == 101 ** 4 > crapo._BOX_BUDGET
    with monkeypatch.context() as patched:
        budgeted = budget_calls(patched)
        report = verify_crapo_partition(fig2, box=box)
    assert (report["status"], report["points"], report["violations"]) == ("PASS", 101 ** 4, [])
    assert budgeted == [(0, "listing")]
    toggled_last = toggled(assignment, len(assignment) - 1, "external")
    listed = verify_assignment(P, toggled_last, box)["violations"]
    inner = default_box(P.bases)
    _, want = reference_verify(toggled_last.items(), inner)
    assert len(listed) == 127_449 and len(want) == 18
    assert [v for v in listed
            if all(lo <= x <= hi for x, (lo, hi) in zip(v["point"], inner))] == want
    first, second = next(
        (b, c) for b, c in itertools.combinations(sorted(assignment), 2)
        if assignment[b] != assignment[c])
    planted = {**assignment, first: assignment[second], second: assignment[first]}
    assert verify_assignment(P, planted)["status"] == "FAIL"
    monkeypatch.setattr(crapo, "embedding_assignment", lambda g: (P, planted))
    with pytest.raises(BudgetExceeded, match="listing of 38890050 points exceeds budget"):
        verify_crapo_partition(fig2, box=box)


def test_usage_errors_before_graph_work(fig1, monkeypatch):
    """An empty box is refused before the activities of any hypertree
    are computed."""

    def refuse(g):
        raise AssertionError("embedding_assignment called")

    monkeypatch.setattr(crapo, "embedding_assignment", refuse)
    with pytest.raises(ValueError, match="empty box"):
        verify_crapo_partition(fig1, box=[(5, 2)] * fig1.emerald_count)


def test_assignment_not_of_the_bases_is_refused(fig2, monkeypatch):
    """An assignment with a basis dropped, or with a key that is no
    basis, is refused by verify_assignment and delta.crapo_verify before
    any box is built, measured or cut: the exchange-table test is exact
    only on an assignment of exactly P's bases."""
    P, assignment = embedding_assignment(fig2)
    first = next(iter(assignment))
    cases = [{b: rec for b, rec in assignment.items() if b != first},
             {**assignment, (9, 9, 9, 9): assignment[first]}]

    def refuse(*args):
        raise AssertionError("box work")

    for name in ("default_box", "box_size", "_region"):
        monkeypatch.setattr(crapo, name, refuse)
    for case in cases:
        for box in (None, [(0, 1)] * 4):
            with pytest.raises(ValueError, match="exactly the polymatroid's bases"):
                verify_assignment(P, case, box)
        with pytest.raises(ValueError, match="exactly the polymatroid's bases"):
            delta.crapo_verify(P, case)


def test_partition_detects_mutation(fig2):
    """Swapping one basis's internal and external masks must fail the
    Crapo check, with the oracle's violations."""
    P, assignment = embedding_assignment(fig2)
    broken = swapped(assignment, {list(assignment).index((1, 1, 0, 0))})
    box = [(-1, 2)] * 4
    report = verify_assignment(P, broken, box)
    assert report["points"] == 4 ** 4
    assert report["violations"]
    assert report == oracle_report(broken, box)


def test_partition_rejects_empty_box(fig2):
    with pytest.raises(ValueError):
        verify_crapo_partition(fig2, box=[(5, 2)] * 4)
    with pytest.raises(ValueError):
        verify_crapo_partition(fig2, box=[(0, 1), (0, 1), (1, 0), (1, 0)])


def test_delta_default_box_is_the_partition_box(all_hg):
    """Delta-Crapo's default box is the Crapo partition's: on the embedding
    assignment both check the same number of points."""
    for name, g in all_hg.items():
        P, assignment = embedding_assignment(g)
        report = delta.crapo_verify(P, assignment)
        assert report["status"] == "PASS", name
        assert report["points"] == verify_crapo_partition(g)["points"] > 0, name


def reference_verify(records, box):
    """The per-point oracle on ``(basis, activity record)`` pairs, as an
    assignment's ``items()`` gives them: every point of the box in
    itertools.product order, one interval_contains call per pair and one
    one_sided call per center."""
    records = list(records)
    centers = [k for k, _ in records]
    violations = []
    points = list(itertools.product(*(range(lo, hi + 1) for lo, hi in box)))
    for c in points:
        covering = [k for k, record in records if interval_contains(k, record, c)]
        if len(covering) != 1:
            violations.append({"point": list(c), "covered_by": list(map(list, covering))})
            continue
        sides = [one_sided(h, c) for h in centers]
        if one_sided(covering[0], c) != tuple(map(min, zip(*sides))):
            violations.append({"point": list(c), "covered_by": [list(covering[0])],
                               "distance": "not attained"})
    return len(points), violations


def swapped(assignment, which):
    """The assignment with the internal and external masks of the bases
    at positions ``which`` exchanged."""
    return {b: rec._replace(internal=rec.external, external=rec.internal) if k in which else rec
            for k, (b, rec) in enumerate(assignment.items())}


def toggled(assignment, k, side):
    """The assignment with coordinate 0 toggled in one mask,
    ``"internal"`` or ``"external"``, of the basis at position k."""
    return {b: rec._replace(**{side: getattr(rec, side) ^ 1}) if j == k else rec
            for j, (b, rec) in enumerate(assignment.items())}


def assignment_mutations(assignment):
    """The assignment as it is, then with internal and external masks
    swapped for the first basis and for all, and with e0 toggled in the
    internal mask of the first and in the external mask of the last:
    each holds exactly the assignment's bases."""
    return [assignment, swapped(assignment, {0}), swapped(assignment, range(len(assignment))),
            toggled(assignment, 0, "internal"),
            toggled(assignment, len(assignment) - 1, "external")]


def boxes(centers):
    """The boxes of margin 0, 1 and 2 around the centers, one that leaves
    out every center that is least on some coordinate, the lowest and the
    highest two-point-wide corner of the margin-1 box, which leave out
    most centers."""
    wide = box_around(centers, 1, 1)
    return [*(box_around(centers, m, m) for m in (0, 1, 2)),
            [(lo + 1, hi) for lo, hi in box_around(centers, 0, 1)],
            [(lo, lo + 1) for lo, _ in wide],
            [(hi - 1, hi) for _, hi in wide]]


def report_of(points, violations):
    """The PASS/FAIL report of :func:`crapo.verify_assignment` for a
    ``(points, violations)`` pair."""
    return {"status": "PASS" if not violations else "FAIL", "points": points,
            "violations": violations}


def oracle_report(assignment, box):
    """The per-point oracle's report on the intervals of an assignment."""
    return report_of(*reference_verify(assignment.items(), box))


def assert_matches_reference(g):
    """On the embedding assignment of g and its :func:`assignment_mutations`,
    over every one of the :func:`boxes`: the reports of
    ``verify_assignment``, ``verify_crapo_partition`` (fed the
    assignment) and, on the default box, ``delta.crapo_verify``, passing
    or failing, equal the per-point oracle."""
    P, assignment = embedding_assignment(g)
    with pytest.MonkeyPatch.context() as patched:
        for case in assignment_mutations(assignment):
            patched.setattr(crapo, "embedding_assignment", lambda _, case=case: (P, case))
            for box in boxes(P.bases):
                want = oracle_report(case, box)
                assert verify_assignment(P, case, box) == want
                report = verify_crapo_partition(g, box)
                assert {key: report[key] for key in want} == want
                if box == default_box(P.bases):
                    assert delta.crapo_verify(P, case) == {"kind": "delta-crapo", **want}


def test_sweep_matches_per_point_oracle(all_hg, single_edge):
    """Same points and the same violations in the same order as the
    per-point oracle, on the embedding assignments and their mutations,
    passing or failing.  The oracle alone checks the intervals with
    the first doubled, which no assignment holds."""
    for g in [*all_hg.values(), single_edge]:
        assert_matches_reference(g)
        P, assignment = embedding_assignment(g)
        box = box_around(P.bases, 1, 1)
        assert oracle_report(swapped(assignment, {0}), box)["violations"] or len(P.bases) == 1
        assert oracle_report(toggled(assignment, 0, "internal"), box)["violations"]
        records = list(assignment.items())
        doubled = reference_verify([*records, records[0]], box)[1]
        first = list(records[0][0])
        assert {"point": first, "covered_by": [first] * 2} in doubled


@settings(max_examples=40, deadline=None)
@given(ribbon_graphs())
def test_certificate_matches_oracle_on_random_instances(g):
    assert_matches_reference(g)


def budget_calls(patched) -> list:
    """The ``(points, what)`` of every :func:`crapo.check_budget` call made
    through ``crapo`` while ``patched`` (a monkeypatch) holds, in order."""
    calls = []
    check = crapo.check_budget

    def spy(points, what="box"):
        calls.append((points, what))
        return check(points, what)

    patched.setattr(crapo, "check_budget", spy)
    return calls


def test_pass_visits_no_point(all_hg, single_edge, monkeypatch):
    """A box that passes leaves the lister no point to list, through
    every route: its one budget check is for 0 points."""
    budgeted = budget_calls(monkeypatch)
    for g in [*all_hg.values(), single_edge]:
        P, assignment = embedding_assignment(g)
        for box in boxes(P.bases):
            want = report_of(box_size(box), [])
            budgeted.clear()
            assert verify_assignment(P, assignment, box) == want
            assert budgeted == [(0, "listing")]
            budgeted.clear()
            report = verify_crapo_partition(g, box)
            assert {key: report[key] for key in want} == want
            assert budgeted == [(0, "listing")]
        budgeted.clear()
        assert delta.crapo_verify(P, assignment)["status"] == "PASS"
        assert budgeted == [(0, "listing")]


def test_certifies_k66_default_box_without_sweeping(monkeypatch):
    """A seeded K6,6 (252 hypertrees) passes on its default box of 10^6
    points from the exchange tables, well within a tenth of a CPU second
    once its hypertrees and Jaeger trees are built; a seeded K7,7 (924
    hypertrees) and K8,8 (3,432 hypertrees) pass on their default boxes
    of 19,487,171 and 429,981,696 points, beyond the budget, which only
    listed points are held to: no point is left to list."""
    budgeted = budget_calls(monkeypatch)
    cases = [(6, 10 ** 6, 252, 0.1), (7, 19_487_171, 924, 2.0), (8, 429_981_696, 3432, 1.0)]
    for n, points, hypertrees, seconds in cases:
        g = ribbon_graph(n, n, [(i, j) for i in range(n) for j in range(n)], random.Random(1))
        embedding_assignment(g)
        budgeted.clear()
        start = time.process_time()
        report = verify_crapo_partition(g)
        elapsed = time.process_time() - start
        assert (report["status"], report["points"], report["hypertrees"]) == (
            "PASS", points, hypertrees)
        assert budgeted == [(0, "listing")]
        assert elapsed < seconds, (n, elapsed)


def test_assignment_missing_a_basis_is_swept(fig2):
    """An assignment without one of P's bases is swept by the per-point
    oracle alone, which passes it on some boxes and fails it on others:
    verify_assignment refuses it, since the exchange-table test is exact
    only on an assignment of exactly P's bases."""
    P, assignment = embedding_assignment(fig2)
    verdicts = set()
    for dropped in assignment:
        case = {b: rec for b, rec in assignment.items() if b != dropped}
        verdicts |= {oracle_report(case, box)["status"] for box in boxes(P.bases)}
        with pytest.raises(ValueError, match="exactly the polymatroid's bases"):
            verify_assignment(P, case)
    assert verdicts == {"PASS", "FAIL"}


def test_delta_planted_failure_matches_reference(fig6_graph):
    """Two bases' activity records exchanged in a random decision tree's
    assignment on fig6's cycle matroid: the Delta-Crapo check fails with
    the oracle's violations, in the oracle's order."""
    P = graph_matroid(fig6_graph)
    ranks = {e: P.rank(e) for e in P.ground}
    tree = random_decision_tree(P.ground, ranks, random.Random(3))
    assignment = delta.assignment_from_delta(tree, P)
    first, second = next(
        (b, c) for b, c in itertools.combinations(sorted(assignment), 2)
        if (assignment[b].internal, assignment[b].external)
        != (assignment[c].internal, assignment[c].external))
    planted = {**assignment, first: assignment[second], second: assignment[first]}
    assert delta.crapo_verify(P, assignment)["status"] == "PASS"
    points, violations = reference_verify(planted.items(), default_box(P.bases))
    assert violations
    assert delta.crapo_verify(P, planted) == {"kind": "delta-crapo",
                                              **report_of(points, violations)}


def attainment_cases(P, rng, draws=40):
    """(basis, part) pairs for every basis of P and every one of the
    :func:`boxes` around P's bases: the basis's nonempty part of the box
    under ``draws`` random below and above masks, with every coordinate
    free and none."""
    n = len(P.ground)
    full = (1 << n) - 1
    masks = [(0, 0), (full, full), (full, 0), (0, full)]
    masks += [(rng.getrandbits(n), rng.getrandbits(n)) for _ in range(draws)]
    for box in boxes(P.bases):
        for k in sorted(P.bases):
            for below, above in masks:
                part = crapo._region(box, k, below, above)
                if all(a <= b for a, b in part):
                    yield k, part


def test_attainment_matches_all_pairs_oracle(all_hg, single_edge, fig6_graph):
    """The exchange-table attainment test equals the test against every
    other basis on random parts of the boxes of margin 0-2 and those that
    leave centers out, on every fixture, fig6's cycle matroid and
    delta_fig.matroid; both verdicts occur."""
    polymatroids = [polymatroid.bases_from_hypertrees(g) for g in [*all_hg.values(), single_edge]]
    polymatroids += [graph_matroid(fig6_graph),
                     polymatroid.load_bases(fixture_path("delta_fig.matroid").read_text())]
    rng = random.Random(0)
    verdicts = set()
    for P in polymatroids:
        for k, part in attainment_cases(P, rng):
            got = crapo._attains(P, k, part)
            assert got == attains_against_all(part, k, P.bases), (P.ground, k, part)
            verdicts.add(got)
    assert verdicts == {True, False}


@settings(max_examples=60, deadline=None)
@given(ribbon_graphs(), st.integers(0, 2 ** 32))
def test_attainment_matches_all_pairs_oracle_on_random_instances(g, seed):
    P = polymatroid.bases_from_hypertrees(g)
    for k, part in attainment_cases(P, random.Random(seed), draws=8):
        assert crapo._attains(P, k, part) == attains_against_all(part, k, P.bases)


def test_fail_lists_reference_violations_in_order(fig2):
    """A box that fails lists the oracle's violations in the oracle's
    order.  One case leaves points uncovered, the other covers points
    twice; test_sweep_checks_both_sides has distances not attained."""
    P, assignment = embedding_assignment(fig2)
    box = box_around(P.bases, 1, 1)
    uncovered, twice = toggled(assignment, 2, "external"), swapped(assignment, {6})
    for case, covers in ((uncovered, 0), (twice, 2)):
        report = verify_assignment(P, case, box)
        assert report == oracle_report(case, box)
        assert any(len(v["covered_by"]) == covers for v in report["violations"])


def test_certificate_edge_cases():
    """Intervals of the bases (0, 1) and (1, 0) at the decider's edges:
    parts that meet in one point and miss another, so their sizes still
    sum to the box's, which a count of sizes alone would pass; and the
    basis (0, 1) outside the box, whose part is empty, on a box that
    fails and on one that passes."""
    P = PolymatroidBases(("a", "b"), frozenset({(0, 1), (1, 0)}))

    def assignment(first, second):
        return {(0, 1): BasisActivity(*first, 0, 0), (1, 0): BasisActivity(*second, 0, 0)}

    cases = [
        (assignment((0, 0b01), (0, 0b10)), [(0, 1), (0, 1)],
         [{"point": [0, 0], "covered_by": []},
          {"point": [1, 1], "covered_by": [[0, 1], [1, 0]]}]),
        (assignment((0, 0), (0, 0)), [(1, 2), (-1, 0)],
         [{"point": [1, -1], "covered_by": []}, {"point": [2, -1], "covered_by": []},
          {"point": [2, 0], "covered_by": []}]),
        (assignment((0, 0), (0b10, 0b01)), [(1, 2), (-1, 0)], []),
    ]
    for case, box, violations in cases:
        got = verify_assignment(P, case, box)
        assert got == oracle_report(case, box) == report_of(box_size(box), violations)


def test_sweep_one_coordinate_box(single_edge, fig2):
    """A one-coordinate box lists the oracle's violations in the oracle's
    order, and so does a box whose first side is one value."""
    P, assignment = embedding_assignment(single_edge)
    box = [(-3, 5)]
    for case in (assignment, swapped(assignment, {0})):
        assert verify_assignment(P, case, box) == oracle_report(case, box)
    assert verify_assignment(P, assignment, box) == report_of(9, [])
    fig2_bases, fig2_assignment = embedding_assignment(fig2)
    cases = [(P, toggled(assignment, 0, "internal"), box),
             (fig2_bases, swapped(fig2_assignment, {1, 4}), [(0, 0), (-1, 2), (-1, 2), (-1, 2)])]
    for Q, case, where in cases:
        want = oracle_report(case, where)
        assert want["violations"]
        assert verify_assignment(Q, case, where) == want


def test_sweep_box_missing_centers(fig2):
    """An explicit box that leaves some centers outside."""
    P, assignment = embedding_assignment(fig2)
    box = [(1, 3), (-1, 0), (0, 0), (1, 2)]
    assert any(not all(lo <= x <= hi for x, (lo, hi) in zip(b, box)) for b in P.bases)
    for case in (assignment, swapped(assignment, {2})):
        assert verify_assignment(P, case, box) == oracle_report(case, box)


@settings(max_examples=100, deadline=None)
@given(ribbon_graphs(), st.data())
def test_one_sided_difference_is_coordinate_sum(g, data):
    """Every hypertree sums to #violet - 1, so d1< - d1> to any one of
    them is sum(c) - (#violet - 1): the identity corank_nullity counts
    by."""
    for _ in range(5):
        c = data.draw(st.lists(st.integers(-3, 5), min_size=g.emerald_count,
                               max_size=g.emerald_count))
        for h in enumerate_hypertrees(g):
            less, greater = one_sided(h, c)
            assert less - greater == sum(c) - (g.violet_count - 1)


@settings(max_examples=100, deadline=None)
@given(ribbon_graphs(), st.data())
def test_clamping_into_the_hypertree_box_shifts_every_distance_alike(g, data):
    """For any c and every hypertree h, one_sided(h, c) is one_sided(h, p)
    for c clamped into the hypertrees' bounding box [m, M] plus the same
    offset (sum (c - M)+, sum (m - c)+): the fact corank_nullity counts the
    window outside that box by."""
    hs = enumerate_hypertrees(g)
    core = box_around(hs, 0, 0)
    for _ in range(5):
        c = data.draw(st.lists(st.integers(-4, 6), min_size=g.emerald_count,
                               max_size=g.emerald_count))
        p = [min(max(x, lo), hi) for x, (lo, hi) in zip(c, core)]
        up = sum(max(0, x - hi) for x, (_, hi) in zip(c, core))
        down = sum(max(0, lo - x) for x, (lo, _) in zip(c, core))
        for h in hs:
            less, greater = one_sided(h, p)
            assert one_sided(h, c) == (less + up, greater + down)


def test_sweep_box_without_sides():
    """A box with no sides holds the one empty point.  The polymatroid
    on no elements, whose one basis is (), passes on it; the lister finds
    the point covered by no interval when the assignment is empty."""
    P = PolymatroidBases((), frozenset({()}))
    assert verify_assignment(P, {(): BasisActivity(0, 0, 0, 0)}, []) == report_of(1, [])
    for case in ({}, {(): BasisActivity(0, 0, 0, 0)}):
        assert crapo._violations(P, case, []) == reference_verify(case.items(), [])[1]


def test_sweep_checks_both_sides():
    """The basis (1, 0) free on every side and (0, 1) covering itself
    only: at (-1, 1), covered by (1, 0) alone, (1, 0) misses both d1< (1
    against 0 at (0, 1)) and d1> (2 against 1).  All bases share one
    coordinate sum, so d1< - d1> is the same for each, and the one
    attainment test settles both sides."""
    P = PolymatroidBases(("a", "b"), frozenset({(0, 1), (1, 0)}))
    case = {(0, 1): BasisActivity(0, 0, 0, 0), (1, 0): BasisActivity(0b11, 0b11, 0, 0)}
    box = [(-1, 2), (-1, 2)]
    report = verify_assignment(P, case, box)
    assert report == oracle_report(case, box)
    assert {"point": [-1, 1], "covered_by": [[1, 0]], "distance": "not attained"} in report[
        "violations"]
    assert (one_sided((1, 0), (-1, 1)), one_sided((0, 1), (-1, 1))) == ((1, 2), (0, 1))
