"""Lattice distances, Crapo intervals, and the partition certificate."""

import itertools

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
    verify_crapo_partition,
    verify_intervals,
)
from hypertutte import crapo, delta
from hypertutte.hypertrees import enumerate_hypertrees
from hypertutte.jaeger import NotAHypertree, embedding_activities, embedding_assignment
from oracles import d1, d1_greater, d1_less, interval_contains, one_sided
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
    assert default_box(hs, margin=0) == [(0, 1), (0, 2), (0, 1), (0, 1)]


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
        report = verify_crapo_partition(fig5, box=default_box(enumerate_hypertrees(fig5), margin))
        assert report["status"] == "PASS"


def test_partition_parallel_matches_serial(fig2):
    box = [(-1, 3)] * 4
    serial = verify_crapo_partition(fig2, box=box)
    parallel = verify_crapo_partition(fig2, box=box, jobs=2)
    assert parallel["status"] == serial["status"] == "PASS"
    assert parallel["points"] == serial["points"]


def test_partition_budget(fig2):
    with pytest.raises(BudgetExceeded):
        verify_crapo_partition(fig2, box=[(-50, 50)] * 4)


def test_usage_errors_before_graph_work(fig1, monkeypatch):
    """A bad ``jobs`` or an over-budget box is refused before the
    activities of any hypertree are computed."""

    def refuse(g):
        raise AssertionError("embedding_assignment called")

    monkeypatch.setattr(crapo, "embedding_assignment", refuse)
    with pytest.raises(ValueError, match="jobs"):
        verify_crapo_partition(fig1, jobs=0)
    with pytest.raises(BudgetExceeded):
        verify_crapo_partition(fig1, box=[(-50, 50)] * fig1.emerald_count)


def test_partition_detects_mutation(fig2):
    """Swapping one interval's free masks must break the certificate."""
    real = embedding_intervals(fig2)
    broken = swapped(real, {[iv.center for iv in real].index((1, 1, 0, 0))})
    points, violations = verify_intervals(broken, [(-1, 2)] * 4)
    assert points == 4 ** 4
    assert violations
    _, serial = verify_intervals(broken, [(-1, 2)] * 4)
    _, parallel = verify_intervals(broken, [(-1, 2)] * 4, jobs=2)
    assert sorted(map(str, parallel)) == sorted(map(str, serial))


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


def mutations(intervals):
    """The intervals as they are, then with free masks swapped in one and in
    all, with e0 toggled in a free mask of the first and of the last, with
    the first dropped and with the first duplicated."""
    return [
        intervals,
        swapped(intervals, {0}),
        swapped(intervals, range(len(intervals))),
        toggled(intervals, 0, "below"),
        toggled(intervals, len(intervals) - 1, "above"),
        intervals[1:],
        [*intervals, intervals[0]],
    ]


def boxes(intervals):
    """The boxes of margin 0, 1 and 2 around the centers, one that leaves
    out every center that is least on some coordinate, the lowest and the
    highest two-point-wide corner of the margin-1 box, which leave out
    most centers."""
    centers = [iv.center for iv in intervals]
    wide = box_around(centers, 1, 1)
    return [*(box_around(centers, m, m) for m in (0, 1, 2)),
            [(lo + 1, hi) for lo, hi in box_around(centers, 0, 1)],
            [(lo, lo + 1) for lo, _ in wide],
            [(hi - 1, hi) for _, hi in wide]]


def assert_matches_reference(intervals):
    for case in mutations(intervals):
        for box in boxes(intervals):
            assert verify_intervals(case, box) == reference_verify(case, box)


def test_sweep_matches_per_point_oracle(all_hg, single_edge):
    """Same points and the same violations in the same order as the
    per-point oracle, on the embedding intervals and their mutations,
    certified or swept."""
    for g in [*all_hg.values(), single_edge]:
        intervals = embedding_intervals(g)
        assert_matches_reference(intervals)
        box = default_box(enumerate_hypertrees(g), 1)
        assert reference_verify(swapped(intervals, {0}), box)[1] or len(intervals) == 1
        assert reference_verify(toggled(intervals, 0, "below"), box)[1]


@settings(max_examples=40, deadline=None)
@given(ribbon_graphs())
def test_certificate_matches_oracle_on_random_instances(g):
    assert_matches_reference(embedding_intervals(g))


def test_pass_visits_no_point(all_hg, single_edge, monkeypatch):
    """A box that passes is certified from the intervals alone: the sweep
    is never entered."""
    def no_sweep(*args, **kwargs):
        raise AssertionError("a passing box was swept")

    monkeypatch.setattr(crapo, "sweep", no_sweep)
    for g in [*all_hg.values(), single_edge]:
        intervals = embedding_intervals(g)
        for box in boxes(intervals):
            assert verify_intervals(intervals, box) == (box_size(box), [])
        P, assignment = embedding_assignment(g)
        assert delta.crapo_verify(P, assignment)["status"] == "PASS"


def test_fail_lists_reference_violations_in_order(fig2):
    """A box that fails is swept, and lists the oracle's violations in the
    oracle's order.  One case leaves points uncovered, the other covers
    points twice; test_sweep_checks_both_sides has distances not
    attained."""
    intervals = embedding_intervals(fig2)
    box = default_box(enumerate_hypertrees(fig2), 1)
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
    got_points, got = verify_intervals(intervals, box, jobs=2)
    assert violations and got_points == points
    assert sorted(map(str, got)) == sorted(map(str, violations))


def test_sweep_one_coordinate_box(single_edge):
    """A one-coordinate box has the empty prefix only, so its points are
    dealt out among the workers."""
    intervals = embedding_intervals(single_edge)
    broken = toggled(intervals, 0, "below")
    box = [(-3, 5)]
    for case in (intervals, swapped(intervals, {0}), broken):
        assert verify_intervals(case, box) == reference_verify(case, box)
    assert verify_intervals(intervals, box, jobs=2) == (9, [])
    centers = [iv.center for iv in broken]
    free = [(iv.below, iv.above) for iv in broken]
    dealt = [[c for c, _, _ in sweep(box, centers, free, start=i, step=2)] for i in range(2)]
    assert all(dealt) and sorted(dealt[0] + dealt[1]) == [(v,) for v in range(-3, 6)]
    points, violations = reference_verify(broken, box)
    got_points, got = verify_intervals(broken, box, jobs=2)
    assert violations and got_points == points
    assert sorted(map(str, got)) == sorted(map(str, violations))


def test_sweep_box_missing_centers(fig2):
    """An explicit box that leaves some centers outside."""
    intervals = embedding_intervals(fig2)
    box = [(1, 3), (-1, 0), (0, 0), (1, 2)]
    assert any(not all(lo <= x <= hi for x, (lo, hi) in zip(iv.center, box))
               for iv in intervals)
    for case in (intervals, swapped(intervals, {2})):
        assert verify_intervals(case, box) == reference_verify(case, box)


def test_sweep_yields_one_sided_distances(fig2):
    """The kernel's sides and inside flags are one_sided and
    interval_contains at every point, in itertools.product order."""
    intervals = swapped(embedding_intervals(fig2), {3})
    centers = [iv.center for iv in intervals]
    free = [(iv.below, iv.above) for iv in intervals]
    box = [(-1, 1), (0, 2), (1, 1), (-1, 2)]
    walked = list(sweep(box, centers, free))
    assert [c for c, _, _ in walked] == list(
        itertools.product(*(range(lo, hi + 1) for lo, hi in box)))
    for c, sides, inside in walked:
        assert sides == [one_sided(h, c) for h in centers]
        assert inside == [interval_contains(iv, c) for iv in intervals]
    assert all(inside is None for _, _, inside in sweep(box, centers))


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
