from __future__ import annotations

import pytest

from playtrace.geometry import Rect
from playtrace.lifespan import TestOpportunity
from playtrace.metrics import (
    box_iou,
    compute_metrics,
    interval_iou,
    pairwise_stability,
)
from playtrace.reporting import opportunities_to_dict


def _opp(tid, box, start, end):
    return TestOpportunity(tid, box, start, end)


def test_interval_iou_values():
    assert interval_iou((0, 100), (0, 100)) == 1.0
    assert interval_iou((0, 100), (100, 200)) == 0.0
    assert interval_iou((0, 100), (200, 300)) == 0.0
    assert interval_iou((0, 100), (50, 150)) == pytest.approx(50 / 150)
    assert interval_iou((0, 400), (100, 200)) == pytest.approx(0.25)


def test_box_iou_values():
    a = Rect(0, 0, 10, 10)
    assert box_iou(a, a) == 1.0
    assert box_iou(a, Rect(20, 20, 30, 30)) == 0.0
    # half overlap: inter 50, union 150
    assert box_iou(a, Rect(5, 0, 15, 10)) == pytest.approx(50 / 150)


def test_stability_identical_runs():
    run = [
        _opp("a", Rect(0, 0, 100, 100), 0, 5000),
        _opp("b", Rect(200, 0, 300, 100), 1000, 4000),
    ]
    assert pairwise_stability(run, run) == pytest.approx(1.0)


def test_stability_empty_runs():
    assert pairwise_stability([], []) == 1.0
    run = [_opp("a", Rect(0, 0, 10, 10), 0, 1000)]
    assert pairwise_stability(run, []) == 0.0
    assert pairwise_stability([], run) == 0.0


def test_stability_hand_case():
    # same box, half-overlapping window (iou 1/3): one matched pair,
    # similarity 1/3, denominator 1 + 1 - 1
    a = [_opp("a", Rect(0, 0, 10, 10), 0, 2000)]
    b = [_opp("a", Rect(0, 0, 10, 10), 1000, 3000)]
    assert pairwise_stability(a, b) == pytest.approx(1 / 3)
    # add an unmatched extra to b: denominator 1 + 2 - 1 = 2
    b2 = b + [_opp("z", Rect(50, 50, 60, 60), 0, 1000)]
    assert pairwise_stability(a, b2) == pytest.approx(1 / 6)


def test_stability_ignores_cross_trackable_pairs():
    a = [_opp("a", Rect(0, 0, 10, 10), 0, 1000)]
    b = [_opp("b", Rect(0, 0, 10, 10), 0, 1000)]
    assert pairwise_stability(a, b) == 0.0


def test_matching_is_one_to_one():
    # two candidates in b overlap the single a; only the better one may match
    a = [_opp("a", Rect(0, 0, 10, 10), 0, 1000)]
    b = [
        _opp("a", Rect(0, 0, 10, 10), 0, 1000),
        _opp("a", Rect(0, 0, 10, 10), 900, 1900),
    ]
    # pair similarity 1.0, denom 1 + 2 - 1 = 2
    assert pairwise_stability(a, b) == pytest.approx(0.5)


def test_compute_metrics_single_run():
    run = [
        _opp("a", Rect(0, 0, 10, 10), 0, 3000),
        _opp("b", Rect(0, 0, 10, 10), 0, 1000),
    ]
    m = compute_metrics([run], (100, 100))
    assert m.avg_plane_duration_s == pytest.approx(2.0)
    assert m.opportunity_count == 2
    assert m.mutual_stability is None
    assert m.mean_overlap_area_ratio is None


def test_compute_metrics_empty_single_run():
    m = compute_metrics([[]], (100, 100))
    assert m.avg_plane_duration_s == 0.0
    assert m.opportunity_count == 0


def test_compute_metrics_requires_runs():
    with pytest.raises(ValueError):
        compute_metrics([], (100, 100))


def test_compute_metrics_multi_run_hand_case():
    # two runs, one trackable; boxes overlap in a 10x10 square on a 100x100
    # screen -> overlap ratio (100 / 10000) / 1 = 0.01
    r1 = [_opp("a", Rect(0, 0, 20, 10), 0, 2000)]
    r2 = [_opp("a", Rect(10, 0, 30, 10), 0, 2000)]
    m = compute_metrics([r1, r2], (100, 100))
    assert m.opportunity_count == 1
    # t_iou 1.0, box iou 100/300
    assert m.mutual_stability == pytest.approx(1 / 3)
    assert m.mean_overlap_area_ratio == pytest.approx(0.01)
    assert m.avg_plane_duration_s == pytest.approx(2.0)


def test_compute_metrics_normalizes_by_largest_run():
    shared = _opp("a", Rect(0, 0, 100, 100), 0, 2000)
    extra = _opp("b", Rect(0, 0, 10, 10), 0, 2000)
    m = compute_metrics([[shared], [shared, extra]], (100, 100))
    # one full-group match covering the whole screen, largest run has 2
    assert m.opportunity_count == 1
    assert m.mean_overlap_area_ratio == pytest.approx(0.5)


def test_metrics_to_dict_round_trip():
    m = compute_metrics([[_opp("a", Rect(0, 0, 10, 10), 0, 1000)]], (50, 50))
    d = opportunities_to_dict([], {}, m)["metrics"]
    assert d == {
        "avg_plane_duration_s": 1.0,
        "opportunity_count": 1,
        "mutual_stability": None,
        "mean_overlap_area_ratio": None,
    }
