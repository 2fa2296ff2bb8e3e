"""End-to-end analysis pipeline.

Chains the pieces together: compute per-frame visible boxes of the frames
a producer kept at the analysis rate, split them into life spans, keep the
long ones as test opportunities, and intersect several runs of the same
recording when more than one is available.  Both producers, the trace
reader (TraceFile.read_blocks) and the renderer (render_frames), yield
the frames they keep as column blocks (FrameBlock), each with one screen;
the strides of its matrices keep the producer's order.  The blocks pass through one
loop (run_boxes) as they arrive, which holds them to the reader's run rule
(one screen, strictly increasing t_ms), so a run costs memory for its boxes
and for one block of frames, not for all its frames.  The box stage gives
a row per trackable row of a block, placed by trackable id and frame: a
run's boxes are one float64 array per trackable it lists, a row per frame
with NaN for "no box"; Rects are made only for the life spans found in
them.  The boxes depend on the frames alone: AnalysisParams reaches the
producer's walk (fps) and analyze_boxes (the visibility and duration
thresholds), not run_boxes.  Several trace files are independent runs until
analyze_boxes, so trace_runs computes them on one process per usable CPU
and hands them back in argument order.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import signal
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Iterator, Sequence

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
from .trace import (FrameBlock, TraceFile, TraceValidationError, _after, blocks, deadline_walk,
                    join_blocks)
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

    # per trackable the run lists, in order of first appearance, a (len(timestamps_ms), 4)
    # float64 array of (x_min, y_min, x_max, y_max) rows, NaN where it has no box
    boxes: dict[str, np.ndarray]
    timestamps_ms: list[int]             # of the frames analysed
    screen: tuple[int, int]


def run_boxes(frames: Iterable[FrameBlock]) -> RunBoxes:
    """The one frame loop: find the boxes of every frame given, a block at a time.

    frames is a stream of blocks of one run, as both producers yield them
    (TraceFile.read_blocks, render_frames), already decimated by a
    deadline_walk; each frame is analysed.  The blocks are joined until they hold
    BOX_BLOCK_FRAMES frames (blocks), and each joined block goes through
    one block_pieces and one fit_boxes call.  An error from the stream is
    raised after the blocks before it are analysed, so an error those
    frames raise comes first, as it would one frame at a time.  A block's
    box rows are placed by block.ids and by the frame of each row, so the
    boxes dict has a key for every trackable the frames list, in order of
    first appearance; each value has one row per frame, NaN where the
    trackable is absent or has no box.  Each block is held to the reader's
    run rule (_after): the first block's screen and strictly increasing
    t_ms.  A block that breaks it is a TraceValidationError at "frame at
    <t> ms", raised before the joined block that holds it is analysed.
    """
    screen, prev = None, -math.inf   # the first block's screen, the previous frame's t_ms
    columns: dict[str, int] = {}   # per trackable in order of first appearance, its column
    chunks: list[list[np.ndarray]] = []   # per column, its rows of each block
    timestamps: list[int] = []
    for parts in blocks(frames, BOX_BLOCK_FRAMES, lambda b: len(b.t_ms)):
        for b in parts:
            screen, prev = _after(b, screen, prev)
        block = join_blocks(parts)
        found = fit_boxes(block_pieces(block), len(block.ids), *screen)
        column = [columns.setdefault(tid, len(columns)) for tid in block.ids]
        for _ in range(len(chunks), len(columns)):   # the trackables new in this block
            chunks.append([np.full((len(timestamps), 4), np.nan)])
        rows = np.full((len(columns), len(block.t_ms), 4), np.nan)
        rows[column, np.repeat(np.arange(len(block.t_ms)), block.n_trackables)] = found
        for seq, part in zip(chunks, rows):
            seq.append(part)
        timestamps += block.t_ms
        del parts, b, block  # this block's frames go before the next block is read
    if screen is None:
        raise TraceValidationError("cannot analyze an empty trace")
    boxes = {tid: np.concatenate(seq) for tid, seq in zip(columns, chunks)}
    return RunBoxes(boxes, timestamps, screen)


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the system cannot say or cannot fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def trace_runs(paths: Sequence[str], fps: float) -> Iterator[tuple[RunBoxes, int]]:
    """Each trace file's boxes at fps and the t_ms of its last frame, in argument order.

    The runs are spread over w = min(len(paths), usable_cpus()) processes:
    this one computes runs i = 0 (mod w), and each of w - 1 helpers, forked
    at the first next(), computes runs i = k (mod w) and pickles each result
    to its own pipe, or None when the run raised an Exception.  A run a
    helper answered None for, or could not answer (it died, or could not be
    forked), is computed here, so every error is raised by this process, for
    the first faulty run in argument order, as the one-process loop raises
    it.  Closing the generator, or any exception out of it, kills and reaps
    every helper.  The helpers are forked, not spawned, because a spawned
    one imports numpy and the package again, which costs more than a run;
    at the fork the only other threads are numpy's OpenBLAS pool, which
    OpenBLAS shuts down before any fork.
    """
    def run(path: str) -> tuple[RunBoxes, int]:
        with TraceFile(path) as trace:
            walk = deadline_walk(trace.fps, fps)
            return run_boxes(trace.read_blocks(walk)), walk.last_ms

    workers = min(len(paths), usable_cpus())
    helpers: list[int] = []
    pipes: list[BinaryIO | None] = [None] * workers   # per helper k, its pipe's read end
    try:
        for k in range(1, workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:   # no helper k: this process computes its runs
                os.close(read)
                os.close(write)
                continue
            if pid == 0:   # helper k: never returns into the caller's code
                try:
                    with open(write, "wb") as out:
                        for path in paths[k::workers]:
                            try:
                                result = run(path)
                            except Exception:   # the caller runs it again and raises
                                result = None
                            pickle.dump(result, out, pickle.HIGHEST_PROTOCOL)
                            out.flush()
                finally:
                    os._exit(0)
            helpers.append(pid)
            os.close(write)
            pipes[k] = open(read, "rb")
        for i, path in enumerate(paths):
            result, pipe = None, pipes[i % workers]
            if pipe is not None:
                with contextlib.suppress(EOFError, pickle.UnpicklingError):
                    result = pickle.load(pipe)
            yield run(path) if result is None else result
    finally:
        for pid in helpers:
            os.kill(pid, signal.SIGKILL)   # an unreaped helper is there to kill, even when it ended
            os.waitpid(pid, 0)
        for pipe in pipes:
            if pipe is not None:
                pipe.close()


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
