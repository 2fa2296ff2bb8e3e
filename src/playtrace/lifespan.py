"""Life span analysis: turning per-frame boxes into test opportunities.

A life span is a maximal run of frames over which one trackable keeps a
stable usable region: the running intersection of its per-frame boxes stays
above the visibility threshold.  A trackable's boxes come as one (frames, 4)
float64 array of (x_min, y_min, x_max, y_max) rows, NaN where it has no box,
and only the spans found in it become Rects.  Spans that last long enough
become test opportunities; opportunities from repeated runs of the same
recording are intersected so that only regions stable across runs survive.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Rect, rect_area, rect_intersect

DEFAULT_MIN_VISIBILITY = 0.10
DEFAULT_MIN_LIFESPAN_S = 2.0

# frames of the first window a span's running intersection grows over
SPAN_WINDOW_FRAMES = 16

Span = tuple[Rect, range]  # (stable box, member frames)


@dataclass(frozen=True)
class TestOpportunity:
    """A screen region of one trackable that stays usable over a time window."""

    __test__ = False  # not a test class, despite the name

    trackable_id: str
    stable_box: Rect
    start_ms: int
    end_ms: int

    @property
    def duration_ms(self) -> int:
        return self.end_ms - self.start_ms


def opportunity_sort_key(o: TestOpportunity) -> tuple[int, str, int]:
    """The order opportunities are reported, scheduled and drawn in."""
    return (o.start_ms, o.trackable_id, o.end_ms)


def life_spans(
    boxes: np.ndarray,
    screen: tuple[int, int],
    min_visibility: float = DEFAULT_MIN_VISIBILITY,
) -> list[Span]:
    """Split one trackable's per-frame boxes into stable spans.

    boxes is an (n, 4) array with one (x_min, y_min, x_max, y_max) row per
    frame, NaN where the trackable produced no box there.  Boxes are clamped
    to the screen first, and one that then misses the screen is no box.  A
    span opens at a frame whose clamped box alone meets the visibility
    threshold, and grows while the running intersection keeps meeting it.
    When frame i would drag the intersection below the threshold, the span
    closes at frame i-1 and frame i immediately tries to open a fresh span;
    a frame with no usable box of its own closes the span and opens none.
    The recorded stable box is the intersection over the span's member
    frames only.  Returns (stable box, member frame range) pairs.

    From each opener the running intersection is a cumulative max/min over
    windows of SPAN_WINDOW_FRAMES frames and then twice as many each time,
    so the work stays O(frames) however many spans a run splits into.  The
    clamp and the stable box keep the first of equal values (the screen
    edge, then the earliest member frame's), as Python's max and min do, so
    -0.0 edges come out as in a scalar scan.
    """
    w, h = float(screen[0]), float(screen[1])
    screen_px = w * h
    b = np.asarray(boxes, dtype=float).reshape(-1, 4)
    full = np.array([0.0, 0.0, w, h])
    c = np.where(np.concatenate([b[:, :2] > full[:2], b[:, 2:] < full[2:]], axis=1), b, full)

    def meets(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        area = (hi[..., 0] - lo[..., 0]) * (hi[..., 1] - lo[..., 1])
        return (lo <= hi).all(axis=-1) & (area / screen_px >= min_visibility)

    usable = meets(c[:, :2], c[:, 2:]) & ~np.isnan(b).any(axis=1)
    openers = np.flatnonzero(usable).tolist()
    n = len(c)
    spans: list[Span] = []
    k = 0
    while k < len(openers):
        start = openers[k]
        lo, hi = c[start, :2], c[start, 2:]
        end, window = start + 1, SPAN_WINDOW_FRAMES
        while end < n:
            stop = min(end + window, n)
            run_lo = np.maximum(lo, np.maximum.accumulate(c[end:stop, :2]))
            run_hi = np.minimum(hi, np.minimum.accumulate(c[end:stop, 2:]))
            closing = np.flatnonzero(~(usable[end:stop] & meets(run_lo, run_hi)))
            if closing.size:
                end += int(closing[0])
                break
            lo, hi = run_lo[-1], run_hi[-1]
            end, window = stop, 2 * window
        rows = c[start:end]
        edges = np.concatenate([rows[:, :2].max(axis=0), rows[:, 2:].min(axis=0)])
        box = rows[(rows == edges).argmax(axis=0), np.arange(4)]
        spans.append((Rect(*box.tolist()), range(start, end)))
        # the closing frame opens the next span when it is usable on its own
        k = bisect.bisect_left(openers, end, k + 1)
    return spans


def filter_by_duration(
    trackable_id: str,
    spans: Sequence[Span],
    timestamps_ms: Sequence[int],
    min_lifespan_s: float = DEFAULT_MIN_LIFESPAN_S,
) -> list[TestOpportunity]:
    """Keep spans that last at least min_lifespan_s, as test opportunities.

    timestamps_ms maps frame index to trace time; a span's duration is the
    timestamp difference between its last and first frames, inclusive at
    the threshold.
    """
    min_ms = min_lifespan_s * 1000.0
    out: list[TestOpportunity] = []
    for stable_box, members in spans:
        if not members:
            continue
        start = timestamps_ms[members[0]]
        end = timestamps_ms[members[-1]]
        if end - start >= min_ms:
            out.append(TestOpportunity(trackable_id, stable_box, int(start), int(end)))
    return out


def cross_run_matches(
    runs: Sequence[Sequence[TestOpportunity]],
) -> list[tuple[TestOpportunity, ...]]:
    """Groups of opportunities, one per run, that share a trackable and overlap in time.

    Groups grow one run at a time and are dropped once their common window
    is empty, so the work follows the overlapping groups, not the product of
    the per-run counts.  They come out in itertools.product order over each
    run's opportunities in opportunity_sort_key order, which for one
    trackable is by (start, end).
    """
    if not runs:
        return []
    matches: list[tuple[TestOpportunity, ...]] = []
    # a trackable missing from any run empties its partial groups there
    for tid in sorted({o.trackable_id for o in runs[0]}):
        # partial groups with their common [start, end] window
        partial = [((), -math.inf, math.inf)]
        for run in runs:
            candidates = sorted((o for o in run if o.trackable_id == tid), key=opportunity_sort_key)
            grown = []
            for combo, start, end in partial:
                for o in candidates:
                    if o.start_ms > end:
                        break  # every later candidate starts later still
                    lo, hi = max(start, o.start_ms), min(end, o.end_ms)
                    if lo <= hi:
                        grown.append((combo + (o,), lo, hi))
            partial = grown
        matches.extend(combo for combo, _, _ in partial)
    return matches


def common_box(combo: Sequence[TestOpportunity]) -> Rect | None:
    """Intersection of the stable boxes of one cross-run group, None when empty."""
    box: Rect | None = combo[0].stable_box
    for o in combo[1:]:
        box = rect_intersect(box, o.stable_box)
    return box


def intersect_runs(
    runs: Sequence[Sequence[TestOpportunity]],
    screen: tuple[int, int],
    min_visibility: float = DEFAULT_MIN_VISIBILITY,
    min_lifespan_s: float = DEFAULT_MIN_LIFESPAN_S,
) -> list[TestOpportunity]:
    """Opportunities that survive across every run.

    Each surviving opportunity intersects the time windows and the stable
    boxes of one opportunity per run (same trackable), and is kept only
    when the result still meets both the visibility and the duration
    thresholds.  With a single run the input is returned as-is (sorted).
    """
    if not runs:
        raise ValueError("need at least one run")
    if len(runs) == 1:
        return sorted(runs[0], key=opportunity_sort_key)
    w, h = screen
    screen_px = float(w) * float(h)
    min_ms = min_lifespan_s * 1000.0
    out: list[TestOpportunity] = []
    for combo in cross_run_matches(runs):
        box = common_box(combo)
        if box is None or rect_area(box) / screen_px < min_visibility:
            continue
        start = max(o.start_ms for o in combo)
        end = min(o.end_ms for o in combo)
        if end - start < min_ms:
            continue
        out.append(TestOpportunity(combo[0].trackable_id, box, start, end))
    out.sort(key=opportunity_sort_key)
    return out
