"""Lattice distances, Crapo intervals, and the partition certificate."""

import pytest

from hypertutte.crapo import (
    BudgetExceeded,
    CrapoInterval,
    EmptySet,
    crapo_interval,
    d1,
    d1_greater,
    d1_less,
    default_box,
    interval_contains,
    verify_crapo_partition,
    verify_intervals,
)
from hypertutte import delta
from hypertutte.hypertrees import enumerate_hypertrees
from hypertutte.jaeger import NotAHypertree, embedding_assignment


def test_distances_single_hypertree():
    h = (0, 0, 1, 1)
    assert d1(h, (2, 0, 0, 1)) == 3
    assert d1_less(h, (2, 0, 0, 1)) == 2
    assert d1_greater(h, (2, 0, 0, 1)) == 1
    assert d1(h, h) == 0


def test_distances_over_set(fig2):
    hs = enumerate_hypertrees(fig2)
    assert d1(hs, (0, 0, 1, 1)) == 0
    assert d1(hs, (5, 0, 0, 0)) == min(d1(h, (5, 0, 0, 0)) for h in hs)
    assert d1_less(hs, (-1, -1, -1, -1)) == 0
    assert d1_greater(hs, (9, 9, 9, 9)) == 0


def test_distance_triangle_decomposition(fig2):
    hs = enumerate_hypertrees(fig2)
    for h in hs:
        for c in ((3, -1, 0, 2), (0, 0, 0, 0), (-2, 4, 1, 1)):
            assert d1(h, c) == d1_less(h, c) + d1_greater(h, c)
    # over a set the two sides need not be attained together, but bound d1
    c = (1, 1, 1, 1)
    assert d1(hs, c) >= max(d1_less(hs, c), d1_greater(hs, c))


def test_empty_set_rejected():
    with pytest.raises(EmptySet):
        d1((), (0,))


def test_interval_fig2(fig2):
    iv = crapo_interval(fig2, (1, 1, 0, 0))
    assert iv.internal_free == frozenset({"e0", "e2", "e3"})
    assert iv.external_free == frozenset({"e0"})
    assert interval_contains(iv, (1, 1, 0, 0))
    assert interval_contains(iv, (2, 1, -1, -3))  # e0 up, e2/e3 down
    assert not interval_contains(iv, (1, 2, 0, 0))  # e1 not external-free
    assert not interval_contains(iv, (1, 0, 0, 0))  # e1 not internal-free


def test_interval_requires_hypertree(fig2):
    with pytest.raises(NotAHypertree):
        crapo_interval(fig2, (2, 0, 0, 0))


def test_default_box(fig2):
    assert default_box(fig2) == [(-2, 3), (-2, 4), (-2, 3), (-2, 3)]
    assert default_box(fig2, margin=0) == [(0, 1), (0, 2), (0, 1), (0, 1)]


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
        report = verify_crapo_partition(fig5, box=default_box(fig5, margin))
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


def test_partition_detects_mutation(fig2):
    """Swapping one interval's free sets must break the certificate."""
    real = crapo_interval(fig2, (1, 1, 0, 0))
    broken = CrapoInterval(real.center, real.external_free, real.internal_free)
    hs = enumerate_hypertrees(fig2)
    intervals = [
        broken if h == (1, 1, 0, 0) else crapo_interval(fig2, h) for h in hs
    ]
    points, violations = verify_intervals(intervals, [(-1, 2)] * 4)
    assert points == 4 ** 4
    assert violations
    _, serial = verify_intervals(intervals, [(-1, 2)] * 4)
    _, parallel = verify_intervals(intervals, [(-1, 2)] * 4, jobs=2)
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
