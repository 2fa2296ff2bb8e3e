"""End-to-end analysis pipeline.

Chains the pieces together: resample a trace to the analysis rate, compute
per-frame visible boxes, split them into life spans, keep the long ones as
test opportunities, and intersect several runs of the same recording when
more than one is available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .geometry import Rect
from .lifespan import (
    DEFAULT_MIN_LIFESPAN_S,
    DEFAULT_MIN_VISIBILITY,
    TestOpportunity,
    filter_by_duration,
    intersect_runs,
    life_spans,
    opportunity_sort_key,
)
from .metrics import VideoMetrics, compute_metrics
from .trace import PlaybackTrace, sample_frames
from .visibility import analyze_frame

DEFAULT_ANALYSIS_FPS = 10.0


@dataclass(frozen=True)
class AnalysisParams:
    fps: float = DEFAULT_ANALYSIS_FPS
    min_visibility: float = DEFAULT_MIN_VISIBILITY
    min_lifespan_s: float = DEFAULT_MIN_LIFESPAN_S

    def __post_init__(self) -> None:
        # chained comparisons are False for NaN, so NaN fails every check
        if not 0 < self.fps < math.inf:
            raise ValueError(f"fps must be finite and > 0, got {self.fps}")
        if not 0 <= self.min_visibility <= 1:
            raise ValueError(f"min_visibility must be in [0, 1], got {self.min_visibility}")
        if not 0 <= self.min_lifespan_s < math.inf:
            raise ValueError(f"min_lifespan_s must be finite and >= 0, got {self.min_lifespan_s}")


def trackable_box_sequences(
    sampled: PlaybackTrace, min_visibility: float = DEFAULT_MIN_VISIBILITY
) -> dict[str, list[Rect | None]]:
    """Per-trackable box per frame over an already-sampled trace.

    The dict is keyed in order of first appearance; each value has one slot
    per frame, None where the trackable produced no usable box.
    """
    n = len(sampled.frames)
    sequences: dict[str, list[Rect | None]] = {}
    for idx, frame in enumerate(sampled.frames):
        for vb in analyze_frame(frame, min_visibility=min_visibility):
            seq = sequences.get(vb.trackable_id)
            if seq is None:
                seq = [None] * n
                sequences[vb.trackable_id] = seq
            seq[idx] = vb.box
    return sequences


def analyze_run(
    trace: PlaybackTrace, params: AnalysisParams = AnalysisParams()
) -> list[TestOpportunity]:
    """Test opportunities of a single trace."""
    sampled = sample_frames(trace, params.fps)
    screen = (sampled.frames[0].screen_w, sampled.frames[0].screen_h)
    timestamps = [f.timestamp_ms for f in sampled.frames]
    opportunities: list[TestOpportunity] = []
    for tid, boxes in trackable_box_sequences(sampled, params.min_visibility).items():
        spans = life_spans(boxes, screen, params.min_visibility)
        opportunities.extend(
            filter_by_duration(tid, spans, timestamps, params.min_lifespan_s)
        )
    opportunities.sort(key=opportunity_sort_key)
    return opportunities


def analyze_runs(
    traces: Sequence[PlaybackTrace], params: AnalysisParams = AnalysisParams()
) -> tuple[list[list[TestOpportunity]], list[TestOpportunity], VideoMetrics]:
    """Analyze several runs of one recording and intersect the results.

    Returns (per-run opportunity lists, surviving opportunities, metrics).
    With a single trace the surviving set is just that run's own result.
    """
    if not traces:
        raise ValueError("need at least one trace")
    screens = sorted({(f.screen_w, f.screen_h) for t in traces for f in t.frames})
    if len(screens) > 1:
        raise ValueError(f"runs must share one screen size, got {screens}")
    screen = screens[0]
    per_run = [analyze_run(t, params) for t in traces]
    final = intersect_runs(per_run, screen, params.min_visibility, params.min_lifespan_s)
    return per_run, final, compute_metrics(per_run, screen)
