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
analyze_boxes, and a frame's boxes depend on that frame alone, so
trace_runs computes the runs on one process per usable CPU, cutting a file
into byte ranges when there are more CPUs than files, and hands them back
in argument order, each as one walk over its whole file gives it.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import signal
import stat
from dataclasses import dataclass
from itertools import chain
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence, TypeVar

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
from .trace import (FrameBlock, TraceFile, TraceValidationError, _after, _take, blocks,
                    deadline_walk, join_blocks)
from .visibility import block_pieces, fit_boxes

DEFAULT_ANALYSIS_FPS = 10.0
# Frames analysed together (block_pieces, then fit_boxes): run_boxes joins the
# blocks it is given until they hold this many, and render_frames yields
# blocks of this many, which run_boxes takes as they are.
BOX_BLOCK_FRAMES = 128

T = TypeVar("T")
R = TypeVar("R")


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


def _spread(tasks: Sequence[T], work: Callable[[T], R], cpus: int) -> Iterator[R]:
    """work(task) of each task, in order, on w = min(len(tasks), cpus) processes.

    This process computes tasks i = 0 (mod w), and each of w - 1 helpers,
    forked at the first next(), computes tasks i = k (mod w) and pickles
    each answer to its own pipe, in a 1-tuple, or None when work raised an
    Exception.  A task a helper answered None for, or could not answer (it
    died, or could not be forked), is computed here, so every error is
    raised by this process, for the first faulty task in order, as a
    one-process loop raises it.  Closing the generator, or any exception
    out of it, kills and reaps every helper.  The helpers are forked, not
    spawned, because a spawned one imports numpy and the package again,
    which costs more than a task; at the fork the only other threads are
    numpy's OpenBLAS pool, which OpenBLAS shuts down before any fork.
    """
    workers = min(len(tasks), cpus)
    helpers: list[int] = []
    pipes: list[BinaryIO | None] = [None] * workers   # per helper k, its pipe's read end
    try:
        for k in range(1, workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:   # no helper k: this process computes its tasks
                os.close(read)
                os.close(write)
                continue
            if pid == 0:   # helper k: never returns into the caller's code
                try:
                    with open(write, "wb") as out:
                        for task in tasks[k::workers]:
                            try:
                                answer = (work(task),)
                            except Exception:   # the caller runs it again and raises
                                answer = None
                            pickle.dump(answer, out, pickle.HIGHEST_PROTOCOL)
                            out.flush()
                finally:
                    os._exit(0)
            helpers.append(pid)
            os.close(write)
            pipes[k] = open(read, "rb")
        for i, task in enumerate(tasks):
            answer, pipe = None, pipes[i % workers]
            if pipe is not None:
                with contextlib.suppress(EOFError, pickle.UnpicklingError):
                    answer = pickle.load(pipe)
            yield work(task) if answer is None else answer[0]
    finally:
        for pid in helpers:
            os.kill(pid, signal.SIGKILL)   # an unreaped helper is there to kill, even when it ended
            os.waitpid(pid, 0)
        for pipe in pipes:
            if pipe is not None:
                pipe.close()


def _walked(trace: TraceFile, fps: float) -> tuple[RunBoxes, int]:
    """The boxes of a trace's frames at fps and the t_ms of its last frame: one walk over all."""
    walk = deadline_walk(trace.fps, fps)
    return run_boxes(trace.read_blocks(walk)), walk.last_ms


# A byte range's boxes at fps, walked from its first frame: that frame's, those of the
# frames after it that its walk keeps (None when it keeps no other), and its last t_ms.
RangeBoxes = tuple[RunBoxes, RunBoxes | None, int]


def _range_boxes(trace: TraceFile, span: tuple[int, int | None], fps: float) -> RangeBoxes | None:
    """The RangeBoxes of one of trace.spans(), or None when reading or boxing it raises an
    Exception: the whole file's read then raises it, at the line one process names."""
    try:
        walk = deadline_walk(trace.fps, fps)
        frames = trace.read_blocks(walk, span)
        block = next(frames)   # a fresh walk keeps the range's first frame
        head = [True] + [False] * (len(block.t_ms) - 1)
        first = run_boxes([_take(block, head)])
        rest = chain([_take(block, [not h for h in head])] if len(head) > 1 else [], frames)
        del block
        after = next(rest, None)
        return first, None if after is None else run_boxes(chain([after], rest)), walk.last_ms
    except Exception:
        return None


def walk_joins(source_fps: float, fps: float, kept_ms: int, first_ms: int) -> bool | None:
    """How one deadline_walk over a whole file takes first_ms, the first frame of a range,
    when the last frame it kept before the range is kept_ms.

    True when it keeps first_ms: then it and the range's own walk, which
    keeps its first frame too, are in one state.  False when it drops
    first_ms and a walk asked only about first_ms ends with the deadline it
    has: the two are again in one state once the range's first frame is
    dropped.  None otherwise: the range's walk cannot stand for the file's.
    A walk's state is the deadline its last kept timestamp set.
    """
    walk = deadline_walk(source_fps, fps)
    walk(kept_ms)
    if walk(first_ms):
        return True
    own = deadline_walk(source_fps, fps)
    own(first_ms)
    return False if own.deadline == walk.deadline else None


def _joined(parts: Sequence[RunBoxes]) -> RunBoxes:
    """The frames of parts, in order, as one run: a column per trackable in order of first
    appearance across the parts, with NaN rows where a part does not list it."""
    if len(parts) == 1:
        return parts[0]
    boxes = {tid: np.concatenate([p.boxes[tid] if tid in p.boxes
                                  else np.full((len(p.timestamps_ms), 4), np.nan) for p in parts])
             for tid in dict.fromkeys(chain.from_iterable(p.boxes for p in parts))}
    return RunBoxes(boxes, [t for p in parts for t in p.timestamps_ms], parts[0].screen)


def _stitched(ranges: Sequence[RangeBoxes | None], source_fps: float,
              fps: float) -> tuple[RunBoxes, int] | None:
    """The run of a file from the RangeBoxes of its ranges in order, and its last t_ms, as one
    walk over the whole file gives them; None when a range raised (None) or they do not join.

    Every range must have the first one's screen and start after the t_ms
    the one before ends at.  A range's first frame is kept or dropped as
    walk_joins says, and its other frames are kept as they are; its first
    frame is a part of its own, so a dropped one leaves no column behind.
    """
    if any(r is None for r in ranges):
        return None
    parts: list[RunBoxes] = []
    end = -math.inf
    for first, rest, last_ms in ranges:
        if parts and (first.screen != parts[0].screen or not end < first.timestamps_ms[0]):
            return None
        join = True if not parts else walk_joins(
            source_fps, fps, parts[-1].timestamps_ms[-1], first.timestamps_ms[0])
        if join is None:
            return None
        parts += ([first] if join else []) + ([rest] if rest is not None else [])
        end = last_ms
    return _joined(parts), end


def _opened(path: str, files: contextlib.ExitStack) -> TraceFile | None:
    """path opened as a TraceFile held by files, when it is a regular file whose header
    reads; None otherwise, and the one-process read of path raises what is wrong."""
    with contextlib.suppress(Exception):
        if stat.S_ISREG(os.stat(path).st_mode):
            return files.enter_context(TraceFile(path))
    return None


def trace_runs(paths: Sequence[str], fps: float) -> Iterator[tuple[RunBoxes, int]]:
    """Each trace file's boxes at fps and the t_ms of its last frame, in argument order.

    The unit of work is a byte range of a file.  With c usable CPUs each
    regular file whose header reads is opened here once and cut into
    max(1, c // len(paths)) ranges (TraceFile.spans); any other path, and
    every path when there are no more CPUs than paths, is one whole-file
    task, opened where it runs.  _spread computes the tasks on one process
    per usable CPU.  A range is read and boxed as a file of its own frames
    (_range_boxes), and a file's ranges are joined in order (_stitched): the
    boxes of a frame depend on that frame alone, and walk_joins resyncs
    each range's walk with the file's.  A range that raised, or ranges that
    do not join, leave the whole file to this process's one-walk read on the
    same open, so every error text, exit code and first fault is the one
    the one-process loop gives.
    """
    cpus = usable_cpus()
    per_file = max(1, cpus // (len(paths) or 1))
    with contextlib.ExitStack() as files:
        opened = [_opened(path, files) if per_file > 1 else None for path in paths]
        spans = [[None] if trace is None else trace.spans(per_file) for trace in opened]

        def work(task: tuple[int, tuple[int, int | None] | None]):
            i, span = task
            if span is not None:
                return _range_boxes(opened[i], span, fps)
            with TraceFile(paths[i]) as trace:
                return _walked(trace, fps)

        answers = files.enter_context(contextlib.closing(
            _spread([(i, span) for i, cuts in enumerate(spans) for span in cuts], work, cpus)))
        for trace, cuts in zip(opened, spans):
            got = [next(answers) for _ in cuts]
            yield got[0] if trace is None else _stitched(got, trace.fps, fps) or _walked(trace, fps)


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
