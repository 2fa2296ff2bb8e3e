"""Command line interface.

Subcommands:
  analyze    traces -> opportunity report (JSON + Gantt SVG)
  schedule   opportunity report -> guided gesture schedule
  simulate   scene + schedule -> gesture outcomes
  compare    scene -> guided vs random success rates over several seeds
  scenes     write the built-in benchmark scene pack to disk

Exit codes: 0 on success, 1 for validation problems in the inputs, 2 for
I/O failures such as missing files.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path
from typing import Sequence

from .jsonin import dump_json, integer
from .lifespan import DEFAULT_MIN_LIFESPAN_S, DEFAULT_MIN_VISIBILITY
from .pipeline import (
    DEFAULT_ANALYSIS_FPS, AnalysisParams, RunBoxes, analyze_boxes, run_boxes, trace_runs,
)
from .reporting import load_report, render_gantt, write_report
from .scenes import benchmark_scenes
from .scheduler import (
    DEFAULT_MIN_GAP_MS,
    GestureKind,
    load_schedule,
    save_schedule,
    schedule_guided,
    schedule_random,
)
from .simulator import (
    Jitter,
    SimScene,
    execute_schedule,
    frame_times,
    gsr_summary,
    jitter_from_dict,
    load_scene,
    outcomes_to_dict,
    render_frames,
    scene_from_dict,
    save_scene,
)
from .trace import TraceFile, deadline_walk

MAX_RUNS = 1_000  # runs one analyze or compare may take: each run is a whole trace


def parse_mix(text: str) -> dict[GestureKind, float]:
    """Parse "TAP=0.55,DRAG=0.25,PINCH=0.1,ROTATE=0.1" into a mix dict; each kind once."""
    mix: dict[GestureKind, float] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad mix entry {part!r}, expected KIND=WEIGHT")
        name, raw = part.split("=", 1)
        try:
            kind = GestureKind(name.strip().upper())
        except ValueError:
            raise ValueError(f"unknown gesture kind {name.strip()!r}") from None
        if kind in mix:
            raise ValueError(f"gesture kind {kind.value} given twice in the mix")
        mix[kind] = float(raw)
    if not mix:
        raise ValueError("empty gesture mix")
    return mix


def _check_runs(runs: int, what: str = "--runs") -> None:
    if not 1 <= runs <= MAX_RUNS:
        raise ValueError(f"{what} must be between 1 and {MAX_RUNS}, the budget of runs, got {runs}")


def _check_jitter_seeds(flag: str, seeds: Sequence[int]) -> None:
    """Jitter seeds go to numpy's generator, which takes no negative seed."""
    if min(seeds) < 0:
        raise ValueError(f"{flag} must be non-negative, got {min(seeds)}")


def _check_seed_spacing(seeds: Sequence[int], runs: int) -> None:
    """Run r of compare seed s renders with jitter seed 100 * s + r: no two seeds may share one."""
    ordered = sorted(seeds)
    for s, t in zip(ordered, ordered[1:]):
        if 100 * s + runs > 100 * t:
            raise ValueError(f"--seeds {s} and {t} share jitter seeds with --runs {runs} "
                             "(run r of seed s uses jitter seed 100 * s + r)")


def _generated_runs(scene: SimScene, jitter: Jitter, seeds: range, fps: float) -> list[RunBoxes]:
    """The boxes of the runs rendered with the given jitter seeds, one RunBoxes per seed.

    A run's frames depend on its jitter seed only when the jitter draws
    (Jitter.draws), so every seed is rendered when it draws, and only the
    first when it does not: then every seed's run is that one RunBoxes.
    Each render analyses only the frames its walk, at fps, keeps.
    """
    drawn = [run_boxes(render_frames(scene, seed, jitter, deadline_walk(scene.fps, fps)))
             for seed in (seeds if jitter.draws else seeds[:1])]
    return drawn if jitter.draws else drawn * len(seeds)


def cmd_analyze(args: argparse.Namespace) -> int:
    _check_runs(args.runs)
    _check_runs(len(args.traces), "the number of trace files")
    if args.runs > 1 and len(args.traces) > 1:
        raise ValueError(f"--runs {args.runs} regenerates the runs of one trace, "
                         f"got {len(args.traces)} traces")
    _check_jitter_seeds("--jitter-seed-base", [args.jitter_seed_base])
    params = AnalysisParams(
        fps=args.fps,
        min_visibility=args.min_visibility,
        min_lifespan_s=args.min_lifespan,
    )
    if args.runs > 1:
        with TraceFile(args.traces[0]) as trace:
            # the frames go unused, but a bad one rejects the trace: read and check every line
            for _ in trace.read_blocks(keep=lambda t: False):
                pass
        if "scene" not in trace.meta:
            raise ValueError(
                "multi-run analysis of a single trace needs a scene description "
                "embedded in the trace metadata"
            )
        scene = scene_from_dict(trace.meta["scene"])
        # the recorded jitter, which need not be the scene's default
        jitter = jitter_from_dict(trace.meta.get("jitter", {}))
        base = args.jitter_seed_base
        runs = _generated_runs(scene, jitter, range(base, base + args.runs), params.fps)
        ends = [frame_times(scene)[-1]]  # where every render's walk ends
    else:
        runs, ends = map(list, zip(*trace_runs(args.traces, params.fps)))
    per_run, final, metrics = analyze_boxes(runs, params)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    params_dict = {**dataclasses.asdict(params), "runs": len(runs)}
    write_report(final, params_dict, out / "report.json", metrics=metrics)
    # the chart starts at 0 ms, or at the first frame when that is earlier
    start = min(0, min(r.timestamps_ms[0] for r in runs))
    end = max(max(ends), start + 1)
    (out / "gantt.svg").write_text(render_gantt(final, end, start), encoding="utf-8")
    print(f"{len(final)} opportunities across {len(runs)} run(s) -> {out}")
    return 0


def cmd_schedule(args: argparse.Namespace) -> int:
    integer(args.seed, "--seed")  # the rule load_schedule holds a saved seed to
    opps, _params = load_report(args.report)
    duration = args.duration_ms
    if duration is None:
        duration = max((o.end_ms for o in opps), default=0)
    elif duration < 0:
        raise ValueError(f"--duration-ms must be >= 0, got {duration}")
    mix = parse_mix(args.mix) if args.mix else None
    sched = schedule_guided(
        opps, duration, args.seed, mix=mix, min_gap_ms=args.min_gap_ms
    )
    save_schedule(sched, args.out)
    print(f"{len(sched.events)} guided gestures -> {args.out}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    scene = load_scene(args.scene)
    sched = load_schedule(args.schedule)
    outcomes, summary = execute_schedule(scene, sched)
    dump_json(outcomes_to_dict(outcomes, summary), args.out)
    overall = summary["overall"]
    shown = "n/a" if overall is None else f"{overall:.1%}"
    print(f"{len(outcomes)} gestures, overall success {shown} -> {args.out}")
    return 0


def _fmt_rate(v: float | None) -> str:
    return " n/a" if v is None else f"{v:5.1%}"


def cmd_compare(args: argparse.Namespace) -> int:
    _check_runs(args.runs)
    _check_jitter_seeds("--seeds", args.seeds)
    _check_seed_spacing(args.seeds, args.runs)
    scene = load_scene(args.scene)
    params = AnalysisParams()
    per_seed = []
    pooled_guided = []
    pooled_random = []
    runs: list[RunBoxes] = []
    for seed in args.seeds:
        if not runs or scene.default_jitter.draws:   # else each seed's runs are the first's
            seeds = range(100 * seed, 100 * seed + args.runs)
            runs = _generated_runs(scene, scene.default_jitter, seeds, params.fps)
        _per_run, final, _metrics = analyze_boxes(runs, params)
        guided = schedule_guided(final, scene.duration_ms, seed)
        rand = schedule_random(
            (scene.screen_w, scene.screen_h), scene.duration_ms, seed
        )
        g_out, g_sum = execute_schedule(scene, guided)
        r_out, r_sum = execute_schedule(scene, rand)
        pooled_guided.extend(g_out)
        pooled_random.extend(r_out)
        per_seed.append(
            {
                "seed": seed,
                "opportunity_count": len(final),
                "guided": {"events": len(g_out), "gsr": g_sum},
                "random": {"events": len(r_out), "gsr": r_sum},
            }
        )
    result = {
        "scene": scene.name,
        "seeds": list(args.seeds),
        "runs": args.runs,
        "per_seed": per_seed,
        "aggregate": {
            "guided": {"events": len(pooled_guided), "gsr": gsr_summary(pooled_guided)},
            "random": {"events": len(pooled_random), "gsr": gsr_summary(pooled_random)},
        },
    }
    if args.out:
        dump_json(result, args.out)
    kinds = [k.value for k in GestureKind] + ["overall"]
    print(f"scene: {scene.name}")
    header = "generator events " + " ".join(f"{k:>7}" for k in kinds)
    print(header)
    for label, pool in (("guided", pooled_guided), ("random", pooled_random)):
        summary = gsr_summary(pool)
        cells = " ".join(f"{_fmt_rate(summary[k]):>7}" for k in kinds)
        print(f"{label:<9} {len(pool):6d} {cells}")
    return 0


def cmd_scenes(args: argparse.Namespace) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for scene in benchmark_scenes():
        save_scene(scene, out / f"{scene.name}.json")
    print(f"{len(benchmark_scenes())} scenes -> {out}")
    return 0


@functools.cache   # one parser per process: parsing leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="playtrace",
        description="Find stable interactive areas in AR playback traces and schedule gestures into them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="turn traces into an opportunity report")
    p.add_argument("traces", nargs="+", help="trace files (several files = several runs)")
    p.add_argument("--fps", type=float, default=DEFAULT_ANALYSIS_FPS)
    p.add_argument("--min-visibility", type=float, default=DEFAULT_MIN_VISIBILITY)
    p.add_argument("--min-lifespan", type=float, default=DEFAULT_MIN_LIFESPAN_S)
    p.add_argument(
        "--runs",
        type=int,
        default=1,
        help="with a single simulator trace: regenerate this many jittered runs",
    )
    p.add_argument("--jitter-seed-base", type=int, default=1)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("schedule", help="build a guided gesture schedule from a report")
    p.add_argument("report", help="report.json from the analyze step")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mix", help="e.g. TAP=0.55,DRAG=0.25,PINCH=0.10,ROTATE=0.10")
    p.add_argument("--min-gap-ms", type=int, default=DEFAULT_MIN_GAP_MS)
    p.add_argument("--duration-ms", type=int, default=None)
    p.add_argument("--out", required=True, help="output schedule file")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("simulate", help="execute a schedule against a scene")
    p.add_argument("scene", help="scene description file")
    p.add_argument("--schedule", required=True)
    p.add_argument("--out", required=True, help="output outcome file")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="guided vs random gestures on one scene")
    p.add_argument("scene", help="scene description file")
    p.add_argument("--seeds", type=int, nargs="+", default=[1])
    p.add_argument("--runs", type=int, default=3)
    p.add_argument("--out", help="optional output JSON file")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("scenes", help="write the benchmark scene pack")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_scenes)

    return parser


# the characters str.splitlines breaks at, each mapped to its escape: '\n' -> '\\n'
_LINE_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand; a failure is one "error: " line on stderr, ids and paths escaped."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:   # a TraceError and a SceneError are ValueErrors
        print(f"error: {str(exc).translate(_LINE_BREAKS)}", file=sys.stderr)
        return 2 if isinstance(exc, OSError) else 1


if __name__ == "__main__":
    sys.exit(main())
