"""End-to-end analysis pipeline.

Chains the pieces together: compute per-frame visible boxes of the frames
a producer kept at the analysis rate, split them into life spans, keep the
long ones as test opportunities, and intersect several runs of the same
recording when more than one is available.  Both producers, the trace
reader (iter_blocks) and the renderer (render_frames), yield the frames
they keep as column blocks (FrameBlock), each with one screen; the strides
of its matrices keep the producer's order.  The blocks pass through one
loop (run_boxes) as they arrive, which holds them to the reader's run rule
(one screen, strictly increasing t_ms), so a run costs memory for its boxes
and for one block of frames, not for all its frames.  A run's boxes are one
float64 array per trackable, a row per frame with NaN for "no box"; Rects
are made only for the life spans found in them.  The boxes depend on the
frames alone: AnalysisParams reaches the producer's walk (fps) and
analyze_boxes (the visibility and duration thresholds), not run_boxes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

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
from .trace import FrameBlock, TraceValidationError, _after, blocks, join_blocks
from .visibility import block_pieces, fit_boxes

DEFAULT_ANALYSIS_FPS = 10.0
# Frames analysed together (block_pieces, then fit_boxes): run_boxes joins the
# blocks it is given until they hold this many, and render_frames yields
# blocks of this many, which run_boxes takes as they are.
BOX_BLOCK_FRAMES = 128


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


@dataclass(frozen=True)
class RunBoxes:
    """What the analysis keeps of one run: its boxes, not its frames."""

    # per trackable in order of first appearance, a (len(timestamps_ms), 4) float64
    # array of (x_min, y_min, x_max, y_max) rows, NaN where it has no box
    boxes: dict[str, np.ndarray]
    timestamps_ms: list[int]             # of the frames analysed
    screen: tuple[int, int]


def run_boxes(frames: Iterable[FrameBlock]) -> RunBoxes:
    """The one frame loop: find the boxes of every frame given, a block at a time.

    frames is a stream of blocks of one run, as both producers yield them
    (iter_blocks, render_frames), already decimated by a deadline_walk;
    each frame is analysed.  The blocks are joined until they hold
    BOX_BLOCK_FRAMES frames (blocks), and each joined block goes through
    one block_pieces and one fit_boxes call.  An error from the stream is
    raised after the blocks before it are analysed, so an error those
    frames raise comes first, as it would one frame at a time.  The boxes
    dict is keyed in order of first appearance; each value has one row per
    frame, NaN where the trackable produced no box.  Each block is held to
    the reader's run rule (_after): the first block's screen and strictly
    increasing t_ms.  A block that breaks it is a TraceValidationError at
    "frame at <t> ms", raised before the joined block that holds it is
    analysed.
    """
    screen, prev = None, -math.inf   # the first block's screen, the previous frame's t_ms
    chunks: dict[str, list[np.ndarray]] = {}   # per trackable, its rows of each block
    timestamps: list[int] = []
    for parts in blocks(frames, BOX_BLOCK_FRAMES, lambda b: len(b.t_ms)):
        for b in parts:
            screen, prev = _after(b, screen, prev)
        block = join_blocks(parts)
        tids, frame_of, found = fit_boxes(block_pieces(block), *screen)
        for tid in tids:
            if tid not in chunks:
                chunks[tid] = [np.full((len(timestamps), 4), np.nan)]
        rows = np.full((len(chunks), len(block.t_ms), 4), np.nan)
        column = {tid: k for k, tid in enumerate(chunks)}
        rows[[column[tid] for tid in tids], frame_of] = found
        for seq, part in zip(chunks.values(), rows):
            seq.append(part)
        timestamps += block.t_ms
        del parts, b, block  # this block's frames go before the next block is read
    if screen is None:
        raise TraceValidationError("cannot analyze an empty trace")
    boxes = {tid: np.concatenate(seq) for tid, seq in chunks.items()}
    return RunBoxes(boxes, timestamps, screen)


def analyze_boxes(
    runs: Sequence[RunBoxes], params: AnalysisParams = AnalysisParams()
) -> tuple[list[list[TestOpportunity]], list[TestOpportunity], VideoMetrics]:
    """Opportunities of several runs of one recording, intersected.

    Returns (per-run opportunity lists, surviving opportunities, metrics).
    With a single run the surviving set is just that run's own result.
    """
    if not runs:
        raise ValueError("need at least one trace")
    screens = sorted({r.screen for r in runs})
    if len(screens) > 1:
        raise ValueError(f"runs must share one screen size, got {screens}")
    screen = screens[0]
    per_run = []
    for run in runs:
        opportunities: list[TestOpportunity] = []
        for tid, boxes in run.boxes.items():
            spans = life_spans(boxes, screen, params.min_visibility)
            opportunities.extend(
                filter_by_duration(tid, spans, run.timestamps_ms, params.min_lifespan_s)
            )
        opportunities.sort(key=opportunity_sort_key)
        per_run.append(opportunities)
    final = intersect_runs(per_run, screen, params.min_visibility, params.min_lifespan_s)
    return per_run, final, compute_metrics(per_run, screen)
