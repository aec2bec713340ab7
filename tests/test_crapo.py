"""Lattice distances, Crapo intervals, and the partition certificate."""

import itertools
import os
import random
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertutte.crapo import (
    BudgetExceeded,
    CrapoInterval,
    box_around,
    box_size,
    default_box,
    sweep,
    verify_assignment,
    verify_crapo_partition,
    verify_intervals,
)
from hypertutte import crapo, delta, fixture_path
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
    [iv] = crapo.intervals({(1, 1, 0, 0): assignment[(1, 1, 0, 0)]})
    assert iv.below == 0b1101  # e0, e2 and e3 internally active
    assert iv.above == 0b0001  # e0 externally active
    assert interval_contains(iv, (1, 1, 0, 0))
    assert interval_contains(iv, (2, 1, -1, -3))  # e0 up, e2/e3 down
    assert not interval_contains(iv, (1, 2, 0, 0))  # e1 not externally active
    assert not interval_contains(iv, (1, 0, 0, 0))  # e1 not internally active


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


def test_partition_parallel_matches_serial(fig2):
    box = [(-1, 3)] * 4
    serial = verify_crapo_partition(fig2, box=box)
    parallel = verify_crapo_partition(fig2, box=box, jobs=2)
    assert parallel["status"] == serial["status"] == "PASS"
    assert parallel["points"] == serial["points"]


def test_partition_budget(fig2, monkeypatch):
    """Only swept points are budgeted: fig2 passes on [-50, 50]^4, whose
    101^4 points are far over the budget, without a sweep.  With two
    bases' activity records exchanged the certificate fails, and the same
    box is refused before its violations are listed."""
    box = [(-50, 50)] * 4
    P, assignment = embedding_assignment(fig2)
    first, second = next(
        (b, c) for b, c in itertools.combinations(sorted(assignment), 2)
        if assignment[b] != assignment[c])
    planted = {**assignment, first: assignment[second], second: assignment[first]}
    assert verify_assignment(P, planted)["status"] == "FAIL"
    assert box_size(box) == 101 ** 4 > crapo._BOX_BUDGET
    monkeypatch.setattr(crapo, "sweep", no_sweep)
    report = verify_crapo_partition(fig2, box=box)
    assert (report["status"], report["points"], report["violations"]) == ("PASS", 101 ** 4, [])
    monkeypatch.setattr(crapo, "embedding_assignment", lambda g: (P, planted))
    with pytest.raises(BudgetExceeded, match=f"box of {101 ** 4} points exceeds budget"):
        verify_crapo_partition(fig2, box=box)


def test_usage_errors_before_graph_work(fig1, monkeypatch):
    """A bad ``jobs`` or an empty box is refused before the activities of
    any hypertree are computed."""

    def refuse(g):
        raise AssertionError("embedding_assignment called")

    monkeypatch.setattr(crapo, "embedding_assignment", refuse)
    with pytest.raises(ValueError, match="jobs"):
        verify_crapo_partition(fig1, jobs=0)
    with pytest.raises(ValueError, match="empty box"):
        verify_crapo_partition(fig1, box=[(5, 2)] * fig1.emerald_count)


def test_partition_detects_mutation(fig2):
    """Swapping one interval's free masks must break the certificate."""
    real = embedding_intervals(fig2)
    broken = swapped(real, {[iv.center for iv in real].index((1, 1, 0, 0))})
    points, violations = verify_intervals(broken, [(-1, 2)] * 4)
    assert points == 4 ** 4
    assert violations
    _, serial = verify_intervals(broken, [(-1, 2)] * 4)
    _, parallel = verify_intervals(broken, [(-1, 2)] * 4, jobs=2)
    assert parallel == serial


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


def reference_verify(intervals, box):
    """The per-point oracle: every point of the box in itertools.product
    order, one interval_contains call per interval and one one_sided call
    per center."""
    centers = [iv.center for iv in intervals]
    violations = []
    points = list(itertools.product(*(range(lo, hi + 1) for lo, hi in box)))
    for c in points:
        covering = [iv.center for iv in intervals if interval_contains(iv, c)]
        if len(covering) != 1:
            violations.append({"point": list(c), "covered_by": list(map(list, covering))})
            continue
        sides = [one_sided(h, c) for h in centers]
        if one_sided(covering[0], c) != tuple(map(min, zip(*sides))):
            violations.append({"point": list(c), "covered_by": [list(covering[0])],
                               "distance": "not attained"})
    return len(points), violations


def embedding_intervals(g):
    return crapo.intervals(embedding_assignment(g)[1])


def swapped(intervals, which):
    """The intervals with the free masks of those at positions ``which``
    exchanged, below for above."""
    return [
        CrapoInterval(iv.center, iv.above, iv.below) if k in which else iv
        for k, iv in enumerate(intervals)
    ]


def toggled(intervals, k, side):
    """The intervals with coordinate 0 toggled in one free mask,
    ``"below"`` or ``"above"``, of the one at position k."""
    iv = intervals[k]
    below, above = iv.below, iv.above
    if side == "below":
        below = below ^ 1
    else:
        above = above ^ 1
    return [*intervals[:k], CrapoInterval(iv.center, below, above), *intervals[k + 1:]]


def assignment_mutations(assignment):
    """The assignment as it is, then with internal and external masks
    swapped for the first basis and for all, with e0 toggled in the
    internal mask of the first and in the external mask of the last, and
    with the first basis dropped."""
    bases = list(assignment)

    def changed(which, edit):
        return {b: edit(rec) if b in which else rec for b, rec in assignment.items()}

    def swap(rec):
        return replace(rec, internal=rec.external, external=rec.internal)

    return [
        assignment,
        changed(bases[:1], swap),
        changed(bases, swap),
        changed(bases[:1], lambda rec: replace(rec, internal=rec.internal ^ 1)),
        changed(bases[-1:], lambda rec: replace(rec, external=rec.external ^ 1)),
        {b: assignment[b] for b in bases[1:]},
    ]


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


def assert_matches_reference(g):
    """On the embedding assignment of g and its :func:`assignment_mutations`,
    over every one of the :func:`boxes`: the lister ``verify_intervals``,
    and the reports of ``verify_assignment``, ``verify_crapo_partition``
    (fed the assignment) and, on the default box, ``delta.crapo_verify``,
    certified or swept, equal the per-point oracle; so does the lister on
    the intervals with the first duplicated."""
    P, assignment = embedding_assignment(g)
    real = crapo.intervals(assignment)
    with pytest.MonkeyPatch.context() as patched:
        for case in assignment_mutations(assignment):
            patched.setattr(crapo, "embedding_assignment", lambda _, case=case: (P, case))
            ivs = crapo.intervals(case)
            for box in boxes(P.bases):
                want = reference_verify(ivs, box)
                assert verify_intervals(ivs, box) == want
                assert verify_assignment(P, case, box) == report_of(*want)
                report = verify_crapo_partition(g, box)
                assert {key: report[key] for key in ("status", "points", "violations")
                        } == report_of(*want)
                if box == default_box(P.bases):
                    assert delta.crapo_verify(P, case) == {"kind": "delta-crapo",
                                                           **report_of(*want)}
    doubled = [*real, real[0]]
    for box in boxes(P.bases):
        assert verify_intervals(doubled, box) == reference_verify(doubled, box)


def test_sweep_matches_per_point_oracle(all_hg, single_edge):
    """Same points and the same violations in the same order as the
    per-point oracle, on the embedding assignments and their mutations,
    certified or swept."""
    for g in [*all_hg.values(), single_edge]:
        assert_matches_reference(g)
        intervals = embedding_intervals(g)
        box = box_around(enumerate_hypertrees(g), 1, 1)
        assert reference_verify(swapped(intervals, {0}), box)[1] or len(intervals) == 1
        assert reference_verify(toggled(intervals, 0, "below"), box)[1]


@settings(max_examples=40, deadline=None)
@given(ribbon_graphs())
def test_certificate_matches_oracle_on_random_instances(g):
    assert_matches_reference(g)


def no_sweep(*args, **kwargs):
    raise AssertionError("a passing box was swept")


def test_pass_visits_no_point(all_hg, single_edge, monkeypatch):
    """A box that passes on an assignment of exactly P's bases is
    certified from the intervals alone, through every route: the sweep is
    never entered."""
    monkeypatch.setattr(crapo, "sweep", no_sweep)
    for g in [*all_hg.values(), single_edge]:
        P, assignment = embedding_assignment(g)
        for box in boxes(P.bases):
            want = report_of(box_size(box), [])
            assert verify_assignment(P, assignment, box) == want
            report = verify_crapo_partition(g, box)
            assert {key: report[key] for key in want} == want
        assert delta.crapo_verify(P, assignment)["status"] == "PASS"


def test_certifies_k66_default_box_without_sweeping(monkeypatch):
    """A seeded K6,6 (252 hypertrees) passes on its default box of 10^6
    points from the exchange tables, well within a tenth of a CPU second
    once its hypertrees and Jaeger trees are built; a seeded K7,7 (924
    hypertrees) passes on its default box of 19,487,171 points, beyond
    the budget, which only swept points are held to."""
    monkeypatch.setattr(crapo, "sweep", no_sweep)
    cases = [(6, 10 ** 6, 252, 0.1), (7, 19_487_171, 924, 2.0)]
    for n, points, hypertrees, seconds in cases:
        g = ribbon_graph(n, n, [(i, j) for i in range(n) for j in range(n)], random.Random(1))
        embedding_assignment(g)
        start = time.process_time()
        report = verify_crapo_partition(g)
        elapsed = time.process_time() - start
        assert (report["status"], report["points"], report["hypertrees"]) == (
            "PASS", points, hypertrees)
        assert elapsed < seconds, (n, elapsed)


def test_assignment_missing_a_basis_is_swept(fig2, monkeypatch):
    """An assignment without one of P's bases is never certified: every
    box is swept, whether it passes or fails, with the oracle's report."""
    P, assignment = embedding_assignment(fig2)
    walks = []

    def counted(*args, **kwargs):
        walks.append(1)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(crapo, "sweep", counted)
    verdicts = set()
    for dropped in assignment:
        case = {b: rec for b, rec in assignment.items() if b != dropped}
        for box in boxes(P.bases):
            walks.clear()
            report = verify_assignment(P, case, box)
            assert report == report_of(*reference_verify(crapo.intervals(case), box))
            assert walks, (dropped, box)
            verdicts.add(report["status"])
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
    points, violations = reference_verify(crapo.intervals(planted), default_box(P.bases))
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
    polymatroids = [delta.bases_from_hypertrees(g) for g in [*all_hg.values(), single_edge]]
    polymatroids += [graph_matroid(fig6_graph),
                     delta.load_bases(fixture_path("delta_fig.matroid").read_text())]
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
    P = delta.bases_from_hypertrees(g)
    for k, part in attainment_cases(P, random.Random(seed), draws=8):
        assert crapo._attains(P, k, part) == attains_against_all(part, k, P.bases)


def test_fail_lists_reference_violations_in_order(fig2):
    """A box that fails is swept, and lists the oracle's violations in the
    oracle's order.  One case leaves points uncovered, the other covers
    points twice; test_sweep_checks_both_sides has distances not
    attained."""
    intervals = embedding_intervals(fig2)
    box = box_around(enumerate_hypertrees(fig2), 1, 1)
    for case in (toggled(intervals, 2, "above"), [*intervals, intervals[3]]):
        points, violations = verify_intervals(case, box)
        assert violations and (points, violations) == reference_verify(case, box)


def test_certificate_edge_cases():
    """One-coordinate intervals at the certificate's edges: parts that
    partition the box while the covering center misses d1> (at the low
    end of its range) or d1< (at the high end); parts that meet in one
    point and miss another, so their sizes still sum to the box's; and a
    center outside the box, whose part is empty.  The free masks of a
    one-coordinate interval are 1 (coordinate 0 free) or 0."""
    def iv(center, below, above):
        return CrapoInterval((center,), below, above)

    cases = [
        ([iv(2, 1, 1), iv(0, 1, 0)], [(1, 3)],
         [{"point": [1], "covered_by": [[2]], "distance": "not attained"}]),
        ([iv(0, 1, 1), iv(2, 0, 1)], [(-1, 1)],
         [{"point": [1], "covered_by": [[0]], "distance": "not attained"}]),
        ([iv(1, 1, 0), iv(1, 0, 0)], [(0, 2)],
         [{"point": [1], "covered_by": [[1], [1]]}, {"point": [2], "covered_by": []}]),
        ([iv(1, 0, 0), iv(0, 0, 0)], [(1, 2)],
         [{"point": [2], "covered_by": []}]),
    ]
    for intervals, box, violations in cases:
        got = verify_intervals(intervals, box)
        assert got == reference_verify(intervals, box) == (box_size(box), violations)


def test_jobs_below_one_rejected(fig2):
    intervals = embedding_intervals(fig2)
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs"):
            verify_intervals(intervals, default_box(enumerate_hypertrees(fig2)), jobs=jobs)


def test_sweep_parallel_matches_oracle(fig2):
    intervals = swapped(embedding_intervals(fig2), {1, 4})
    box = [(-1, 2)] * 4
    points, violations = reference_verify(intervals, box)
    assert violations
    assert verify_intervals(intervals, box, jobs=2) == (points, violations)


def test_jobs_are_capped_at_the_cpu_count(fig2, monkeypatch):
    """However many jobs are asked for, a failing box is listed by at most
    one worker per CPU, cut into slabs for that many, and reported as
    with one job.  The pool is a stand-in that maps in this process and
    records the workers asked for and the slabs handed out."""
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, work):
            work = list(work)
            started.append(len(work))
            return map(fn, work)

    monkeypatch.setattr(crapo, "ProcessPoolExecutor", SerialPool)
    intervals = swapped(embedding_intervals(fig2), {1, 4})
    box = [(-1, 2)] * 4
    serial = verify_intervals(intervals, box)
    assert serial[1]
    # two CPUs: two workers, one slab per value of the first side; an
    # unknown count: one worker, no pool
    for cpus, workers in ((2, [2, 4]), (None, [])):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        for jobs in (2, 5000):
            started.clear()
            assert verify_intervals(intervals, box, jobs=jobs) == serial
            assert started == workers


def test_sweep_one_coordinate_box(single_edge, fig2):
    """A one-coordinate box is cut into its points, and lists the oracle's
    violations in the oracle's order for every number of jobs; so do the
    box without sides and a box whose first side is one value, which
    is cut on its second coordinate."""
    intervals = embedding_intervals(single_edge)
    broken = toggled(intervals, 0, "below")
    box = [(-3, 5)]
    for case in (intervals, swapped(intervals, {0})):
        assert verify_intervals(case, box) == reference_verify(case, box)
    assert verify_intervals(intervals, box, jobs=2) == (9, [])
    fig2_broken = swapped(embedding_intervals(fig2), {1, 4})
    cases = [(broken, box), ([], []),
             (fig2_broken, [(0, 0), (-1, 2), (-1, 2), (-1, 2)])]
    for case, where in cases:
        points, violations = reference_verify(case, where)
        assert violations
        for jobs in (1, 2, 3):
            assert verify_intervals(case, where, jobs=jobs) == (points, violations), jobs


def test_slabs_fix_leading_coordinates_in_product_order():
    """At least ``count`` slabs where the box has that many points, cut on
    as few leading coordinates as that takes; together they hold the
    box's points in itertools.product order."""
    box = [(0, 0), (-1, 1), (2, 3)]
    cases = [(1, 1, 0), (2, 3, 2), (3, 3, 2), (4, 6, 3), (7, 6, 3)]
    for count, slabs, fixed in cases:
        got = crapo._slabs(box, count)
        assert len(got) == slabs
        assert all(lo == hi for slab in got for lo, hi in slab[:fixed])
        assert all(slab[fixed:] == box[fixed:] for slab in got)
        points = [c for slab in got for c in itertools.product(
            *(range(lo, hi + 1) for lo, hi in slab))]
        assert points == list(itertools.product(*(range(lo, hi + 1) for lo, hi in box)))
    assert crapo._slabs([], 3) == [[]]


def test_sweep_box_missing_centers(fig2):
    """An explicit box that leaves some centers outside."""
    intervals = embedding_intervals(fig2)
    box = [(1, 3), (-1, 0), (0, 0), (1, 2)]
    assert any(not all(lo <= x <= hi for x, (lo, hi) in zip(iv.center, box))
               for iv in intervals)
    for case in (intervals, swapped(intervals, {2})):
        assert verify_intervals(case, box) == reference_verify(case, box)


def test_sweep_yields_one_sided_distances(fig2):
    """The kernel's sides are one_sided at every point, in
    itertools.product order."""
    centers = enumerate_hypertrees(fig2)
    box = [(-1, 1), (0, 2), (1, 1), (-1, 2)]
    walked = list(sweep(box, centers))
    assert [c for c, _ in walked] == list(
        itertools.product(*(range(lo, hi + 1) for lo, hi in box)))
    for c, sides in walked:
        assert sides == [one_sided(h, c) for h in centers]
    assert list(sweep([], [(), ()])) == [((), [(0, 0), (0, 0)])]


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
    """A box with no sides holds the one empty point."""
    empty = CrapoInterval((), 0, 0)
    for case in ([], [empty], [empty, empty]):
        assert verify_intervals(case, []) == reference_verify(case, [])
    assert verify_intervals([empty], [], jobs=2) == (1, [])


def test_sweep_checks_both_sides():
    """Hand-made intervals where the covering center attains one side
    only: at (-1, 2), (2, 2) attains d1< (0) but not d1> (3 against 2 at
    (1, 2)); at (2, -1), (0, 0) attains d1> (1) but not d1< (2 against 1
    at (1, 0))."""
    cases = [
        ([CrapoInterval((2, 1), 0b11, 0b01),
          CrapoInterval((1, 2), 0b00, 0b10),
          CrapoInterval((2, 2), 0b01, 0b11)],
         {"point": [-1, 2], "covered_by": [[2, 2]], "distance": "not attained"}),
        ([CrapoInterval((1, 0), 0b10, 0b00),
          CrapoInterval((0, 1), 0b01, 0b11),
          CrapoInterval((0, 0), 0b10, 0b01)],
         {"point": [2, -1], "covered_by": [[0, 0]], "distance": "not attained"}),
    ]
    box = [(-1, 3), (-1, 3)]
    for intervals, one_side in cases:
        points, violations = verify_intervals(intervals, box)
        assert (points, violations) == reference_verify(intervals, box)
        assert one_side in violations
