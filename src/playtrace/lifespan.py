"""Life span analysis: turning per-frame boxes into test opportunities.

A life span is a maximal run of frames over which one trackable keeps a
stable usable region: the running intersection of its per-frame boxes stays
above the visibility threshold.  Spans that last long enough become test
opportunities; opportunities from repeated runs of the same recording are
intersected so that only regions stable across runs survive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .geometry import Rect, rect_area, rect_intersect

DEFAULT_MIN_VISIBILITY = 0.10
DEFAULT_MIN_LIFESPAN_S = 2.0

Span = tuple[Rect, list[int]]


@dataclass(frozen=True)
class TestOpportunity:
    """A screen region of one trackable that stays usable over a time window."""

    __test__ = False  # not a test class, despite the name

    trackable_id: str
    stable_box: Rect
    start_ms: int
    end_ms: int
    frame_indices: tuple[int, ...]

    @property
    def duration_ms(self) -> int:
        return self.end_ms - self.start_ms


def opportunity_sort_key(o: TestOpportunity) -> tuple[int, str, int]:
    """The order opportunities are reported, scheduled and drawn in."""
    return (o.start_ms, o.trackable_id, o.end_ms)


def life_spans(
    boxes: Sequence[Rect | None],
    screen: tuple[int, int],
    min_visibility: float = DEFAULT_MIN_VISIBILITY,
) -> list[Span]:
    """Split one trackable's per-frame box sequence into stable spans.

    boxes[i] is the trackable's box in frame i, or None when it produced no
    box there.  Boxes are clamped to the screen first.  A span opens at a
    frame whose clamped box alone meets the visibility threshold, and grows
    while the running intersection keeps meeting it.  When frame i would
    drag the intersection below the threshold, the span closes at frame
    i-1 and frame i immediately tries to open a fresh span.  The recorded
    stable box is the intersection over the span's member frames only.
    """
    w, h = screen
    screen_px = float(w) * float(h)
    full = Rect(0.0, 0.0, float(w), float(h))

    def clamped(b: Rect | None) -> Rect | None:
        return rect_intersect(full, b) if b is not None else None

    def usable(r: Rect | None) -> bool:
        return r is not None and rect_area(r) / screen_px >= min_visibility

    spans: list[Span] = []
    stable: Rect | None = None
    members: list[int] = []
    i = 0
    n = len(boxes)
    while i < n:
        b = clamped(boxes[i])
        if stable is None:
            if usable(b):
                stable = b
                members = [i]
            i += 1
            continue
        if not usable(b):
            spans.append((stable, members))
            stable = None
            members = []
            i += 1
            continue
        cand = rect_intersect(stable, b)
        if not usable(cand):
            # close at the previous frame; frame i retries as a span opener
            spans.append((stable, members))
            stable = None
            members = []
            continue
        stable = cand
        members.append(i)
        i += 1
    if stable is not None:
        spans.append((stable, members))
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
            out.append(
                TestOpportunity(
                    trackable_id=trackable_id,
                    stable_box=stable_box,
                    start_ms=int(start),
                    end_ms=int(end),
                    frame_indices=tuple(members),
                )
            )
    return out


def cross_run_matches(
    runs: Sequence[Sequence[TestOpportunity]],
) -> list[tuple[TestOpportunity, ...]]:
    """Groups of opportunities, one per run, that share a trackable and overlap in time.

    Groups grow one run at a time and are dropped once their common window
    is empty, so the work follows the overlapping groups, not the product of
    the per-run counts.  They come out in itertools.product order over each
    run's opportunities sorted by (start, end).
    """
    if not runs:
        return []
    matches: list[tuple[TestOpportunity, ...]] = []
    # a trackable missing from any run empties its partial groups there
    for tid in sorted({o.trackable_id for o in runs[0]}):
        # partial groups with their common [start, end] window
        partial = [((), -math.inf, math.inf)]
        for run in runs:
            candidates = sorted(
                (o for o in run if o.trackable_id == tid), key=lambda o: (o.start_ms, o.end_ms)
            )
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

    Each surviving opportunity intersects the time windows, the stable
    boxes and the frame index sets of one opportunity per run (same
    trackable), and is kept only when the result still meets both the
    visibility and the duration thresholds.  With a single run the input
    is returned as-is (sorted).
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
        frames = set(combo[0].frame_indices)
        for o in combo[1:]:
            frames &= set(o.frame_indices)
        out.append(
            TestOpportunity(
                trackable_id=combo[0].trackable_id,
                stable_box=box,
                start_ms=start,
                end_ms=end,
                frame_indices=tuple(sorted(frames)),
            )
        )
    out.sort(key=opportunity_sort_key)
    return out
