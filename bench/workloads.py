"""The benchmark's three workloads: how their inputs are rendered and which
CLI invocations run on them.

Inputs are made from the workload seed alone, so equal seeds give
byte-identical input files.  ``render_inputs`` runs in the set-up process;
the measuring process only builds argument lists and reads outputs, and
never renders.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

WORKLOADS = ("pack-compare", "long-session", "many-runs")

COMPARE_RUNS = 3            # jittered runs per seed in `playtrace compare`
LONG_SESSION_MS = 600_000   # ten minutes at the scene's 30 fps: 18,000 frames
LEG_MS = 30_000             # the camera drifts one way per leg, then back
MANY_RUNS = 8
# Each pad keeps exactly this many spans of 2 s or more in every run, so the
# cross-run candidate set holds 3 pads x 5^8 tuples whatever the seed.  The
# simulator's own dropout draws frames independently, which makes that count
# swing fourfold between seeds (2.4e5 to 1.0e6 tuples on seeds 1-10).
LONG_SPANS_PER_PAD = 5
_BLOCK_FRAMES = 3           # 30 fps frames per 100 ms analysis sample
# Gesture schedules replayed on each analyze workload's report, guided and
# random alike: enough that each side pools about 600 gestures or more.
ANSWER_SCHEDULES = {"long-session": 1, "many-runs": 8}


@dataclass(frozen=True)
class Invocation:
    """One `playtrace` command line and the files it writes (relative to the work dir)."""

    argv: tuple[str, ...]
    outputs: tuple[str, ...]


def _scene_names() -> list[str]:
    from playtrace.scenes import benchmark_scenes

    return [s.name for s in benchmark_scenes()]


def long_session_scene():
    """drift-trio's planes under a camera that drifts back and forth for ten minutes."""
    from playtrace.scenes import benchmark_scene

    base = benchmark_scene("drift-trio")
    there, back = base.camera_path
    keys = tuple(
        replace(there if i % 2 == 0 else back, t_ms=i * LEG_MS)
        for i in range(LONG_SESSION_MS // LEG_MS + 1)
    )
    return replace(base, name="drift-trio-10min", duration_ms=LONG_SESSION_MS, camera_path=keys)


def _dropped_blocks(rng, first: int, end: int) -> set[int]:
    """100 ms blocks in [first, end) where one pad is missing from the trace.

    The pad's time is cut into LONG_SPANS_PER_PAD equal slots.  Each slot
    opens with a dropped block and holds a head span of up to 1 s, another
    dropped block, one long span of 3 s or more, a dropped block and a tail
    span of up to 1 s.  Head and tail fall under the 2 s minimum life span;
    only the long spans become opportunities, and in every run the long span
    of slot j overlaps the long span of slot j in every other run by at
    least 2 s, and no other.
    """
    slot = (end - first) // LONG_SPANS_PER_PAD
    dropped = set(range(first + LONG_SPANS_PER_PAD * slot, end))
    for j in range(LONG_SPANS_PER_PAD):
        start = first + j * slot
        head, tail = (int(v) for v in rng.integers(0, 11, size=2))
        dropped.update((start, start + head + 1, start + slot - tail - 1))
    return dropped


def _with_dropout(trace, scene, rng):
    """The trace with every pad dropped in the blocks _dropped_blocks picks for it."""
    from playtrace.trace import PlaybackTrace

    n_blocks = -(-len(trace.frames) // _BLOCK_FRAMES)
    drops = {
        p.plane_id: _dropped_blocks(rng, -(-p.detect_delay_ms // 100), n_blocks)
        for p in scene.planes
    }
    frames = tuple(
        replace(
            f,
            trackables=tuple(
                t for t in f.trackables if i // _BLOCK_FRAMES not in drops[t.trackable_id]
            ),
        )
        for i, f in enumerate(trace.frames)
    )
    return PlaybackTrace(frames=frames, source_fps=trace.source_fps, metadata=trace.metadata)


def schedule_seeds(workload: str, seed: int) -> list[int]:
    return [seed * 100 + k for k in range(ANSWER_SCHEDULES.get(workload, 0))]


def render_inputs(workload: str, seed: int, inputs: Path) -> None:
    """Write every input file of one workload and seed into ``inputs``."""
    import numpy as np

    from playtrace.scenes import benchmark_scene, benchmark_scenes
    from playtrace.scheduler import save_schedule, schedule_random
    from playtrace.simulator import Jitter, generate_trace, save_scene
    from playtrace.trace import save_trace

    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "pack-compare":
        for scene in benchmark_scenes():
            save_scene(scene, inputs / f"{scene.name}.json")
        return
    if workload == "long-session":
        scene = long_session_scene()
        save_trace(generate_trace(scene, seed, scene.default_jitter), inputs / "session.jsonl")
    elif workload == "many-runs":
        scene = benchmark_scene("noisy-trio")
        clean = Jitter(vertex_noise_m=scene.default_jitter.vertex_noise_m, dropout_prob=0.0)
        for r in range(MANY_RUNS):
            trace = generate_trace(scene, seed * 100 + r, clean)
            rng = np.random.default_rng([seed, r])
            save_trace(_with_dropout(trace, scene, rng), inputs / f"run{r}.jsonl")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    save_scene(scene, inputs / "scene.json")
    # the random baseline needs no analysis, so it is an input like the traces
    for k in schedule_seeds(workload, seed):
        rand = schedule_random((scene.screen_w, scene.screen_h), scene.duration_ms, k)
        save_schedule(rand, inputs / f"random{k}.json")


def timed_invocations(workload: str, seed: int, work: Path) -> list[Invocation]:
    """The command lines one measured pass runs, in order."""
    inp = work / "in"
    if workload == "pack-compare":
        return [
            Invocation(
                (
                    "compare", str(inp / f"{name}.json"), "--seeds", str(seed),
                    "--runs", str(COMPARE_RUNS), "--out", str(work / "out" / f"{name}.json"),
                ),
                (f"out/{name}.json",),
            )
            for name in _scene_names()
        ]
    if workload == "long-session":
        traces = [str(inp / "session.jsonl")]
    else:
        traces = [str(inp / f"run{r}.jsonl") for r in range(MANY_RUNS)]
    return [
        Invocation(
            ("analyze", *traces, "--out", str(work / "out")),
            ("out/report.json", "out/gantt.svg"),
        )
    ]


def answer_invocations(workload: str, seed: int, work: Path) -> list[Invocation]:
    """Untimed commands that turn an analyze report into gesture outcomes.

    pack-compare needs none: `compare` already replays guided and random
    gestures.  The analyze workloads schedule guided gestures into their
    report and replay them, and the random schedule rendered in set-up,
    against the ground-truth scene.
    """
    if workload == "pack-compare":
        return []
    inp, out = work / "in", work / "out"
    scene = str(inp / "scene.json")
    duration = json.loads((inp / "scene.json").read_text(encoding="utf-8"))["duration_ms"]
    invocations = []
    for k in schedule_seeds(workload, seed):
        guided = str(out / f"guided{k}.json")
        invocations += [
            Invocation(
                (
                    "schedule", str(out / "report.json"), "--seed", str(k),
                    "--duration-ms", str(duration), "--out", guided,
                ),
                (f"out/guided{k}.json",),
            ),
            Invocation(
                ("simulate", scene, "--schedule", guided, "--out", str(out / f"guided{k}_outcomes.json")),
                (f"out/guided{k}_outcomes.json",),
            ),
            Invocation(
                (
                    "simulate", scene, "--schedule", str(inp / f"random{k}.json"),
                    "--out", str(out / f"random{k}_outcomes.json"),
                ),
                (f"out/random{k}_outcomes.json",),
            ),
        ]
    return invocations


def pooled_gsr(workload: str, seed: int, work: Path) -> tuple[float, float]:
    """Overall (guided, random) gesture success rates, pooled over every output."""
    out = work / "out"
    won = {"guided": 0, "random": 0}
    total = {"guided": 0, "random": 0}
    if workload == "pack-compare":
        for name in _scene_names():
            agg = json.loads((out / f"{name}.json").read_text(encoding="utf-8"))["aggregate"]
            for side in won:
                n = agg[side]["events"]
                rate = agg[side]["gsr"]["overall"] or 0.0
                total[side] += n
                won[side] += round(rate * n)
    else:
        for side in won:
            for k in schedule_seeds(workload, seed):
                doc = json.loads((out / f"{side}{k}_outcomes.json").read_text(encoding="utf-8"))
                total[side] += len(doc["outcomes"])
                won[side] += sum(1 for o in doc["outcomes"] if o["success"])
    return won["guided"] / total["guided"], won["random"] / total["random"]
