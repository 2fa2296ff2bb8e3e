from __future__ import annotations

import math
import random

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from playtrace.geometry import Rect
from playtrace.lifespan import (
    TestOpportunity,
    cross_run_matches,
    filter_by_duration,
    intersect_runs,
    life_spans,
)
from playtrace.metrics import compute_metrics

import oracles

SCREEN = (200, 100)  # 20000 px^2


def _r(x0, y0, x1, y1):
    return Rect(float(x0), float(y0), float(x1), float(y1))


def _opp(tid, box, start, end):
    return TestOpportunity(tid, box, start, end)


# ------------------------------------------------------------------- spans

def _spans(boxes, min_visibility=0.10):
    """life_spans of Rect | None slots, with list members as the oracles give them."""
    return [(box, list(members))
            for box, members in life_spans(oracles.box_rows(boxes), SCREEN, min_visibility)]

def test_single_stable_span():
    boxes = [_r(0, 0, 100, 50)] * 4
    spans = _spans(boxes)
    assert len(spans) == 1
    box, members = spans[0]
    assert box == _r(0, 0, 100, 50)
    assert members == [0, 1, 2, 3]


def test_opening_requires_own_threshold():
    small = _r(0, 0, 40, 40)          # 1600 px^2 = 8%
    big = _r(0, 0, 100, 50)
    spans = _spans([small, big, big])
    assert len(spans) == 1
    assert spans[0][1] == [1, 2]


def test_none_closes_and_is_consumed():
    big = _r(0, 0, 100, 50)
    spans = _spans([big, None, big, big])
    assert [m for _, m in spans] == [[0], [2, 3]]


def test_violating_frame_reopens():
    left = _r(0, 0, 100, 50)
    right = _r(100, 0, 200, 50)       # disjoint from left, usable on its own
    spans = _spans([left, left, right, right])
    assert [m for _, m in spans] == [[0, 1], [2, 3]]
    assert spans[1][0] == right


def test_boxes_clamped_to_screen():
    hung_over = _r(-100, -50, 100, 50)
    spans = _spans([hung_over])
    assert spans[0][0] == _r(0, 0, 100, 50)


def test_shrinking_drift_closes_when_intersection_dips():
    # walk right 30 px per frame; the running intersection erodes
    boxes = [_r(x, 0, x + 100, 40) for x in range(0, 151, 30)]
    spans = _spans(boxes)
    # threshold 2000 px^2 = 50 px wide at height 40
    assert len(spans) >= 2
    for box, members in spans:
        assert box.width * box.height >= 2000.0 - 1e-9
        assert members == sorted(members)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_life_spans_match_reference_scan(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 40)
    boxes = []
    x, y, w, h = 20.0, 10.0, 120.0, 60.0
    for _ in range(n):
        roll = rng.random()
        if roll < 0.12:
            boxes.append(None)
            continue
        if roll < 0.22:     # teleport
            x, y = rng.uniform(-60, 160), rng.uniform(-40, 90)
            w, h = rng.uniform(10, 180), rng.uniform(10, 90)
        else:               # drift and breathe
            x += rng.uniform(-25, 25)
            y += rng.uniform(-15, 15)
            w = max(5.0, w + rng.uniform(-12, 12))
            h = max(5.0, h + rng.uniform(-8, 8))
        boxes.append(_r(x, y, x + w, y + h))
    got = _spans(boxes)
    want = oracles.life_spans_reference(boxes, SCREEN, 0.10)
    assert len(got) == len(want)
    for (box, members), (ref_box, ref_members) in zip(got, want):
        assert members == ref_members
        assert (box.x_min, box.y_min, box.x_max, box.y_max) == ref_box


def _assert_spans_match_the_scalar_scans(boxes, min_visibility):
    got = life_spans(oracles.box_rows(boxes), SCREEN, min_visibility)
    scalar = oracles.life_spans(boxes, SCREEN, min_visibility)
    reference = oracles.life_spans_reference(boxes, SCREEN, min_visibility)
    assert len(got) == len(scalar) == len(reference)
    for (box, members), (s_box, s_members), (r_box, r_members) in zip(got, scalar, reference):
        assert isinstance(members, range)
        assert list(members) == s_members == r_members
        assert oracles.same_bits(box.as_list(), s_box.as_list()), (box, s_box)
        assert tuple(box.as_list()) == r_box
    return got


# edges on, off and at the screen's (200 x 100), with -0.0 and 0.0 both; areas on
# this grid land exactly on the thresholds below (2000 px^2 is 10 % of the screen)
_XS = [-50.0, -10.0, -0.0, 0.0, 10.0, 50.0, 100.0, 150.0, 200.0, 210.0, 250.0]
_YS = [-30.0, -5.0, -0.0, 0.0, 10.0, 20.0, 50.0, 100.0, 105.0, 130.0]


@st.composite
def _slots(draw):
    """Rect | None slots: gaps, repeats and jumps, edges touching and off the screen."""
    boxes = []
    for _ in range(draw(st.integers(0, 50))):
        kind = draw(st.sampled_from(["none", "same", "new", "new"]))
        if kind == "none":
            boxes.append(None)
        elif kind == "same" and boxes and boxes[-1] is not None:
            boxes.append(boxes[-1])
        else:
            x0, x1 = sorted(draw(st.lists(st.sampled_from(_XS), min_size=2, max_size=2)))
            y0, y1 = sorted(draw(st.lists(st.sampled_from(_YS), min_size=2, max_size=2)))
            boxes.append(Rect(x0, y0, x1, y1))
    return boxes


@settings(max_examples=200, deadline=None)
@given(_slots(), st.sampled_from([0.0, 0.02, 0.05, 0.10, 0.25, 1.0]))
def test_array_life_spans_match_the_scalar_scans(boxes, min_visibility):
    _assert_spans_match_the_scalar_scans(boxes, min_visibility)


@settings(max_examples=200, deadline=None)
@given(_slots(), st.sampled_from([0.0, 0.02, 0.05, 0.10, 0.25, 1.0]))
def test_a_row_below_the_threshold_acts_as_no_box(boxes, min_visibility):
    # the box pass keeps boxes of any size: life_spans alone applies min_visibility
    rows = oracles.box_rows(boxes)
    w, h = SCREEN
    x0, y0 = np.maximum(rows[:, 0], 0.0), np.maximum(rows[:, 1], 0.0)
    x1, y1 = np.minimum(rows[:, 2], w), np.minimum(rows[:, 3], h)
    meets = (x0 <= x1) & (y0 <= y1) & ((x1 - x0) * (y1 - y0) / (w * h) >= min_visibility)
    blanked = np.where(meets[:, None], rows, np.nan)
    got = life_spans(rows, SCREEN, min_visibility)
    want = life_spans(blanked, SCREEN, min_visibility)
    assert [m for _, m in got] == [m for _, m in want]
    for (box, _), (want_box, _) in zip(got, want):
        assert oracles.same_bits(box.as_list(), want_box.as_list())


def test_array_life_spans_keep_the_scalar_signed_zeros():
    # clamped, -0.0 edges become 0.0 at the screen's low sides and stay -0.0 where a box
    # ends there; zero-extent boxes are usable at min_visibility 0 and touch their neighbours
    boxes = [Rect(-50.0, -30.0, -0.0, -0.0), Rect(-0.0, -0.0, 0.0, 0.0),
             Rect(-0.0, 0.0, 10.0, 20.0), None, Rect(0.0, -0.0, 10.0, 10.0),
             Rect(10.0, 10.0, 20.0, 20.0)]
    spans = _assert_spans_match_the_scalar_scans(boxes, 0.0)
    assert [list(m) for _, m in spans] == [[0, 1, 2], [4, 5]]
    assert [math.copysign(1.0, v) for v in spans[0][0].as_list()] == [1.0, 1.0, -1.0, -1.0]


def test_array_life_spans_restart_on_the_closing_frame():
    left, right = _r(0, 0, 100, 50), _r(100, 0, 200, 50)   # touching: area 0 together
    exactly = _r(0, 0, 100, 20)                            # 2000 px^2: exactly 10 %
    spans = _assert_spans_match_the_scalar_scans([left, right, right, exactly, left, None], 0.10)
    assert [(box, list(m)) for box, m in spans] == [
        (left, [0]), (right, [1, 2]), (exactly, [3, 4])]


def test_array_life_spans_split_a_long_run_of_short_spans():
    # more than 10,000 frames of one- and two-frame spans: every span restarts the scan
    rng = random.Random(16)
    sides = [_r(0, 0, 100, 50), _r(100, 0, 200, 50)]
    boxes = []
    while len(boxes) < 10_050:
        if rng.random() < 0.1:
            boxes.append(None)
        sides.reverse()
        boxes += [sides[0]] * rng.choice([1, 2])
    spans = _assert_spans_match_the_scalar_scans(boxes, 0.10)
    assert len(spans) > 5000
    assert {len(m) for _, m in spans} == {1, 2}


def test_life_spans_take_nan_rows_as_no_box():
    rows = np.array([[0.0, 0.0, 100.0, 50.0], [np.nan] * 4, [0.0, np.nan, 100.0, 50.0],
                     [0.0, 0.0, 100.0, 50.0]])
    spans = life_spans(rows, SCREEN, 0.10)
    assert [(box, list(m)) for box, m in spans] == [
        (_r(0, 0, 100, 50), [0]), (_r(0, 0, 100, 50), [3])]
    assert life_spans(np.empty((0, 4)), SCREEN, 0.10) == []


# ----------------------------------------------------------------- duration

def test_filter_by_duration_inclusive():
    spans = [(_r(0, 0, 100, 50), [0, 1, 2])]
    ts = [0, 1000, 2000]
    kept = filter_by_duration("t", spans, ts, min_lifespan_s=2.0)
    assert len(kept) == 1
    o = kept[0]
    assert (o.start_ms, o.end_ms) == (0, 2000)
    assert o.duration_ms == 2000
    assert filter_by_duration("t", spans, ts, min_lifespan_s=2.001) == []


def test_filter_uses_timestamps_not_frame_count():
    spans = [(_r(0, 0, 100, 50), [0, 1])]
    assert filter_by_duration("t", spans, [0, 5000], 2.0)
    assert filter_by_duration("t", spans, [0, 500], 2.0) == []


# ---------------------------------------------------------------- cross-run

def test_cross_run_matches_pairs_by_overlap():
    a = _opp("t", _r(0, 0, 50, 50), 0, 5000)
    b = _opp("t", _r(0, 0, 50, 50), 4000, 9000)
    c = _opp("t", _r(0, 0, 50, 50), 6000, 9000)
    assert len(cross_run_matches([[a], [b]])) == 1
    assert cross_run_matches([[a], [c]]) == []          # windows disjoint
    assert cross_run_matches([[a], [b], [c]]) == []     # no common window
    # ids must match in every run
    d = _opp("u", _r(0, 0, 50, 50), 0, 5000)
    assert cross_run_matches([[a], [d]]) == []


# windows on a 500 ms grid, so touching and nested windows are common
_window = st.tuples(st.integers(0, 8), st.integers(0, 4)).map(
    lambda t: (t[0] * 500, (t[0] + t[1]) * 500)
)
_box = st.sampled_from([_r(0, 0, 100, 50), _r(50, 0, 150, 50), _r(120, 60, 200, 100)])


@st.composite
def _opportunity_runs(draw):
    runs = []
    for _ in range(draw(st.integers(1, 5))):
        run = [
            _opp(tid, draw(_box), *draw(_window))
            for tid in "abc"
            for _ in range(draw(st.integers(0, 4)))
        ]
        runs.append(draw(st.permutations(run)))
    return runs


@settings(max_examples=200, deadline=None)
@given(_opportunity_runs())
def test_cross_run_join_matches_bruteforce_product(runs):
    got = cross_run_matches(runs)
    want = oracles.cross_run_matches_bruteforce(runs)
    # same groups of the very same objects, in the same order
    assert [tuple(map(id, c)) for c in got] == [tuple(map(id, c)) for c in want]


def test_cross_run_join_scales_with_matches_not_runs():
    # 16 runs x 4 windows each: 4^16 candidate groups, of which only the 4
    # groups of aligned windows overlap in time
    windows = [(0, 2000), (3000, 5000), (6000, 8000), (9000, 11000)]
    runs = [
        [
            _opp("t", _r(r, 0, 100 + r, 50), start, end)
            for w, (start, end) in enumerate(windows)
        ]
        for r in range(16)
    ]
    matches = cross_run_matches(runs)
    assert len(matches) == 4
    for (start, end), combo in zip(windows, matches):
        assert [(o.start_ms, o.end_ms) for o in combo] == [(start, end)] * 16

    out = intersect_runs(runs, SCREEN, 0.10, 2.0)
    assert [(o.start_ms, o.end_ms) for o in out] == windows
    for o in out:
        assert o.stable_box == _r(15, 0, 100, 50)

    m = compute_metrics(runs, SCREEN)
    assert m.opportunity_count == 4
    assert m.avg_plane_duration_s == 2.0
    # each group's common box is 85 x 50 px of a 200 x 100 screen
    assert m.mean_overlap_area_ratio == pytest.approx(85 * 50 / 20000)
    # runs i and j agree on every window; their boxes are offset by d = |i - j|
    ious = [(100 - (j - i)) / (100 + (j - i)) for i in range(16) for j in range(i + 1, 16)]
    assert m.mutual_stability == pytest.approx(sum(ious) / len(ious))


def test_intersect_runs_single_run_sorted():
    a = _opp("b", _r(0, 0, 60, 60), 3000, 6000)
    b = _opp("a", _r(0, 0, 60, 60), 0, 4000)
    out = intersect_runs([[a, b]], SCREEN)
    assert [o.trackable_id for o in out] == ["a", "b"]


def test_intersect_runs_identical():
    o = _opp("t", _r(0, 0, 100, 50), 0, 6000)
    out = intersect_runs([[o], [o]], SCREEN, 0.10, 2.0)
    assert len(out) == 1
    assert out[0].stable_box == o.stable_box
    assert (out[0].start_ms, out[0].end_ms) == (0, 6000)


def test_intersect_runs_shrinks_and_filters():
    a = _opp("t", _r(0, 0, 100, 50), 0, 6000)
    shifted = _opp("t", _r(60, 0, 160, 50), 1000, 7000)
    out = intersect_runs([[a], [shifted]], SCREEN, 0.10, 2.0)
    # overlap is 40 x 50 = 2000 px^2, exactly the 10% threshold (inclusive)
    assert len(out) == 1
    assert out[0].stable_box == _r(60, 0, 100, 50)
    assert (out[0].start_ms, out[0].end_ms) == (1000, 6000)

    barely = _opp("t", _r(61, 0, 161, 50), 1000, 7000)
    assert intersect_runs([[a], [barely]], SCREEN, 0.10, 2.0) == []

    brief = _opp("t", _r(0, 0, 100, 50), 4500, 9000)
    assert intersect_runs([[a], [brief]], SCREEN, 0.10, 2.0) == []


def test_intersect_runs_needs_input():
    with pytest.raises(ValueError):
        intersect_runs([], SCREEN)
