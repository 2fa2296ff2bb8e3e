"""Spans and counters recorded from outside the program.

The tracer replaces module-level names that playtrace's modules call (for
example ``pipeline.analyze_frame``) with wrappers that record a span per
call: id, parent span, name, start, end and pass id.  Spans stay in memory
until the run ends.  Counters are taken at the same boundaries, from the
arguments and results of the wrapped calls, so they depend on the inputs
and outputs only and repeat exactly from run to run.

A name missing from the program (renamed or inlined by a later change) is
skipped and listed in ``Tracer.missing``; metrics that rest on it read 0.
"""

from __future__ import annotations

import importlib
import math
import os
import time
from collections import defaultdict
from typing import Any, Callable

import numpy as np
from playtrace.trace import TrackingState

Counts = dict[str, float]
CountHook = Callable[[Counts, tuple, dict, Any], None]


def _count_load(c: Counts, args: tuple, kwargs: dict, result: Any) -> None:
    c["trace.frames_loaded"] += len(result.frames)
    c["trace.bytes_read"] += os.path.getsize(args[0])


def _count_sample(c: Counts, args: tuple, kwargs: dict, result: Any) -> None:
    c["trace.frames_in"] += len(args[0].frames)
    c["trace.frames_kept"] += len(result.frames)


def _count_frame(c: Counts, args: tuple, kwargs: dict, result: Any) -> None:
    c["visibility.frames"] += 1
    c["visibility.trackable_frames"] += sum(
        1 for t in args[0].trackables if t.tracking_state == TrackingState.TRACKING
    )
    c["visibility.boxes"] += len(result)


def _count_inscribed(c: Counts, args: tuple, kwargs: dict, result: Any) -> None:
    c["geometry.inscribed_rect.calls"] += 1
    c["geometry.inscribed_rect.none"] += result is None


def _count_spans(c: Counts, args: tuple, kwargs: dict, result: Any) -> None:
    c["lifespan.spans"] += len(result)


def _count_kept(c: Counts, args: tuple, kwargs: dict, result: Any) -> None:
    c["lifespan.kept"] += len(result)


def cross_run_tuples(runs) -> int:
    """Candidate groups across runs: per common trackable, the product of per-run counts."""
    if len(runs) < 2:
        return 0
    per_run = [defaultdict(int) for _ in runs]
    for counts, run in zip(per_run, runs):
        for o in run:
            counts[o.trackable_id] += 1
    common = set.intersection(*(set(c) for c in per_run))
    return sum(math.prod(c[tid] for c in per_run) for tid in common)


def _count_tuples(c: Counts, args: tuple, kwargs: dict, result: Any) -> None:
    c["lifespan.cross_run_tuples"] += cross_run_tuples(args[0])


def _count_matches(c: Counts, args: tuple, kwargs: dict, result: Any) -> None:
    # with two or more runs, opportunity_count is the number of cross-run matches
    if len(args[0]) >= 2:
        c["lifespan.matches"] += result.opportunity_count


def _count_events(key: str) -> CountHook:
    def hook(c: Counts, args: tuple, kwargs: dict, result: Any) -> None:
        c[key] += len(result.events)

    return hook


def _count_rendered(c: Counts, args: tuple, kwargs: dict, result: Any) -> None:
    c["simulator.frames_rendered"] += len(result.frames)


def _count_gestures(c: Counts, args: tuple, kwargs: dict, result: Any) -> None:
    c["simulator.gestures"] += len(args[1].events)


def _count_hit_test(c: Counts, args: tuple, kwargs: dict, result: Any) -> None:
    c["simulator.hit_test_batch.calls"] += 1
    c["simulator.hit_test_points"] += np.asarray(args[2]).size // 2
    recast = args[3] if len(args) > 3 else kwargs.get("ignore_detection", False)
    c["simulator.recasts"] += bool(recast)


# (module, attribute, span name, counter): the names playtrace's modules call
# through their own globals, so replacing the attribute reaches every caller
HOOKS: tuple[tuple[str, str, str, CountHook | None], ...] = (
    ("cli", "load_trace", "trace.load_trace", _count_load),
    ("cli", "analyze_runs", "pipeline.analyze_runs", None),
    ("cli", "generate_trace", "simulator.generate_trace", _count_rendered),
    ("cli", "schedule_guided", "scheduler.schedule_guided", _count_events("scheduler.guided_events")),
    ("cli", "schedule_random", "scheduler.schedule_random", _count_events("scheduler.random_events")),
    ("cli", "execute_schedule", "simulator.execute_schedule", _count_gestures),
    ("cli", "write_report", "reporting.write_report", None),
    ("cli", "render_gantt", "reporting.render_gantt", None),
    ("cli", "dump_json", "reporting.dump_json", None),
    ("reporting", "dump_json", "reporting.dump_json", None),
    ("pipeline", "sample_frames", "trace.sample_frames", _count_sample),
    ("pipeline", "analyze_frame", "visibility.analyze_frame", _count_frame),
    ("pipeline", "life_spans", "lifespan.life_spans", _count_spans),
    ("pipeline", "filter_by_duration", "lifespan.filter_by_duration", _count_kept),
    ("pipeline", "intersect_runs", "lifespan.intersect_runs", _count_tuples),
    ("pipeline", "compute_metrics", "metrics.compute_metrics", _count_matches),
    ("lifespan", "cross_run_matches", "lifespan.cross_run_matches", None),
    ("metrics", "cross_run_matches", "lifespan.cross_run_matches", None),
    ("visibility", "project_trackable", "visibility.project_trackable", None),
    ("visibility", "subtract_occluders", "geometry.subtract_occluders", None),
    ("visibility", "inscribed_rect", "geometry.inscribed_rect", _count_inscribed),
    ("simulator", "hit_test_batch", "simulator.hit_test_batch", _count_hit_test),
)


class Tracer:
    """Records spans and counters while installed; one pass at a time."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float, int]] = []
        self.counts: list[Counts] = []   # one dict per pass
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._next_id = 0
        self._pass = -1
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable, count: CountHook | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, self._pass))
            if count is not None:
                count(self.counts[self._pass], args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for mod_name, attr, span, count in HOOKS:
            module = importlib.import_module(f"playtrace.{mod_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.add(f"{mod_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(span, fn, count))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def begin_pass(self) -> int:
        self.counts.append(defaultdict(float))
        self._pass = len(self.counts) - 1
        return self._pass


def pass_layers(spans, counts: Counts, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its spans and counters."""
    busy: dict[str, float] = defaultdict(float)
    child: dict[int, float] = defaultdict(float)
    for sid, parent, name, start, end, _ in spans:
        busy[name] += end - start
        if parent >= 0:
            child[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    top_s = 0.0
    for sid, parent, name, start, end, _ in spans:
        self_s[name] += end - start - child[sid]
        if parent < 0:
            top_s += end - start
    c = defaultdict(float, counts)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    return {
        "trace.load_trace.busy_s": busy["trace.load_trace"],
        "trace.frames_loaded": c["trace.frames_loaded"],
        "trace.bytes_read": c["trace.bytes_read"],
        "trace.load_us_per_frame": 1e6 * ratio(busy["trace.load_trace"], c["trace.frames_loaded"]),
        "trace.sample_frames.busy_s": busy["trace.sample_frames"],
        "trace.decimation_kept_ratio": ratio(c["trace.frames_kept"], c["trace.frames_in"]),
        "visibility.analyze_frame.busy_s": busy["visibility.analyze_frame"],
        "visibility.frames": c["visibility.frames"],
        "visibility.us_per_frame": 1e6 * ratio(busy["visibility.analyze_frame"], c["visibility.frames"]),
        "visibility.boxes_per_trackable_frame": ratio(
            c["visibility.boxes"], c["visibility.trackable_frames"]
        ),
        "visibility.project_trackable.busy_s": busy["visibility.project_trackable"],
        "geometry.subtract_occluders.busy_s": busy["geometry.subtract_occluders"],
        "geometry.inscribed_rect.busy_s": busy["geometry.inscribed_rect"],
        "geometry.inscribed_rect.calls": c["geometry.inscribed_rect.calls"],
        "geometry.inscribed_rect.none_ratio": ratio(
            c["geometry.inscribed_rect.none"], c["geometry.inscribed_rect.calls"]
        ),
        "lifespan.life_spans.busy_s": busy["lifespan.life_spans"],
        "lifespan.spans": c["lifespan.spans"],
        "lifespan.kept_ratio": ratio(c["lifespan.kept"], c["lifespan.spans"]),
        "lifespan.intersect_runs.busy_s": busy["lifespan.intersect_runs"],
        "metrics.compute_metrics.busy_s": busy["metrics.compute_metrics"],
        "lifespan.cross_run_matches.busy_s": busy["lifespan.cross_run_matches"],
        "lifespan.cross_run_tuples": c["lifespan.cross_run_tuples"],
        "lifespan.match_yield": ratio(c["lifespan.matches"], c["lifespan.cross_run_tuples"]),
        "scheduler.schedule_guided.busy_s": busy["scheduler.schedule_guided"],
        "scheduler.schedule_random.busy_s": busy["scheduler.schedule_random"],
        "scheduler.guided_events": c["scheduler.guided_events"],
        "scheduler.random_events": c["scheduler.random_events"],
        "simulator.generate_trace.busy_s": busy["simulator.generate_trace"],
        "simulator.frames_rendered": c["simulator.frames_rendered"],
        "simulator.execute_schedule.busy_s": busy["simulator.execute_schedule"],
        "simulator.gestures": c["simulator.gestures"],
        "simulator.us_per_gesture": 1e6 * ratio(busy["simulator.execute_schedule"], c["simulator.gestures"]),
        "simulator.hit_test_batch.calls": c["simulator.hit_test_batch.calls"],
        "simulator.hit_test_batch.busy_s": busy["simulator.hit_test_batch"],
        "simulator.hit_test_points": c["simulator.hit_test_points"],
        "simulator.recast_ratio": ratio(c["simulator.recasts"], c["simulator.hit_test_batch.calls"]),
        "reporting.write_report.busy_s": busy["reporting.write_report"],
        "reporting.render_gantt.busy_s": busy["reporting.render_gantt"],
        "reporting.dump_json.busy_s": busy["reporting.dump_json"],
        "reporting.bytes_written": c["reporting.bytes_written"],
        "pipeline.analyze_runs.self_s": self_s["pipeline.analyze_runs"],
        "cli.main.self_s": self_s["cli.main"],
        "tracing.span_coverage": ratio(top_s, wall_s),
    }
