"""Acceptance gate: nine end-to-end checks over the whole package.

Each test prints one "criterion N: PASS/FAIL (...)" line with its key
numbers, then asserts.  Run with -s to see the lines as they happen:

    pytest tests/test_acceptance.py -s
"""

from __future__ import annotations

import itertools
import json
import random
import time

import numpy as np
import pytest

import oracles
from oracles import clip_polygon, frame_blocks
from playtrace import geometry as g
from playtrace.cli import main as cli_main
from playtrace.geometry import polygon_area
from playtrace.lifespan import life_spans
from playtrace.pipeline import AnalysisParams, analyze_boxes, run_boxes
from playtrace.scenes import benchmark_scene, benchmark_scenes
from playtrace.scheduler import GestureKind, schedule_guided, schedule_random
from playtrace.simulator import (
    Jitter,
    execute_schedule,
    generate_trace,
    save_scene,
)
from playtrace.trace import save_trace

SCREEN = (1920, 1080)
COVERAGE_EXEMPT = 0.40
MULTI_FINGER = (GestureKind.PINCH, GestureKind.ROTATE)


def _runs(traces, fps=AnalysisParams().fps):
    """The RunBoxes of in-memory traces, each decimated to fps."""
    return [run_boxes(frame_blocks(oracles.decimate(t.frames, t.source_fps, fps))) for t in traces]


def _analyze(traces, params=AnalysisParams()):
    """(per-run opportunities, surviving opportunities, metrics) of in-memory traces."""
    return analyze_boxes(_runs(traces, params.fps), params)


def _report(n: int, ok: bool, detail: str) -> str:
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


# ---------------------------------------------------------------- criterion 1


def test_c1_clipping_matches_monte_carlo_oracle():
    rng = random.Random(20260811)
    mc_rng = np.random.default_rng(915)
    t0 = time.perf_counter()
    checked = 0
    attempts = 0
    worst_rel = 0.0
    while checked < 100:
        attempts += 1
        assert attempts < 400, "could not draw enough overlapping polygon pairs"
        subject = oracles.random_convex(rng, (0.0, 0.0), 100.0)
        clip = oracles.random_convex(
            rng, (rng.uniform(-40.0, 40.0), rng.uniform(-20.0, 20.0)), 100.0
        )
        out = clip_polygon(subject, clip)
        area = polygon_area(out) if len(out) >= 3 else 0.0
        # keep pairs with a substantial overlap so the sampling oracle has
        # a tight relative error (p >= 0.3 over the joint bounding box)
        bx0 = max(min(p[0] for p in subject), min(p[0] for p in clip))
        bx1 = min(max(p[0] for p in subject), max(p[0] for p in clip))
        by0 = max(min(p[1] for p in subject), min(p[1] for p in clip))
        by1 = min(max(p[1] for p in subject), max(p[1] for p in clip))
        bbox_area = max(0.0, bx1 - bx0) * max(0.0, by1 - by0)
        if bbox_area <= 0.0 or area < 0.3 * bbox_area:
            continue
        mc_area = oracles.mc_intersection_area(subject, clip, mc_rng, 500_000)
        rel = abs(area - mc_area) / mc_area
        worst_rel = max(worst_rel, rel)
        for v in out:
            assert oracles.contains(clip, v, eps=1e-6), f"vertex {v} escapes the clip"
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst_rel < 0.01 and elapsed < 60.0
    line = _report(
        1,
        ok,
        f"{checked} convex pairs, worst area deviation {worst_rel:.3%}, "
        f"vertices inside clip at 1e-6 px, {elapsed:.1f}s",
    )
    assert ok, line


# ---------------------------------------------------------------- criterion 2


def test_c2_inscribed_rectangle_containment():
    rng = random.Random(411)
    worst_passes = 0
    checked = 0
    for _ in range(120):
        r_lo = rng.uniform(60.0, 150.0)
        r_hi = rng.uniform(r_lo + 40.0, 280.0)
        cx = rng.uniform(r_hi + 10.0, SCREEN[0] - r_hi - 10.0)
        cy = rng.uniform(r_hi + 10.0, SCREEN[1] - r_hi - 10.0)
        poly = oracles.random_star(rng, (cx, cy), r_lo, r_hi, rng.randrange(6, 16))
        rows, (passes,) = g.inscribed_rects(*oracles.poly_rows([poly]), *SCREEN)
        (rect,) = oracles.rects_of(rows)
        assert rect is not None, "no rectangle found in a star with a fat kernel"
        assert rect.width > 0 and rect.height > 0
        for corner in itertools.product((rect.x_min, rect.x_max), (rect.y_min, rect.y_max)):
            assert oracles.contains(poly, corner, eps=1e-6), (
                f"corner {corner} outside polygon"
            )
        worst_passes = max(worst_passes, passes)
        checked += 1
    ok = checked >= 100 and worst_passes <= 200
    line = _report(
        2,
        ok,
        f"{checked} star polygons, all corners inside at 1e-6, "
        f"max shrink passes {worst_passes} <= 200",
    )
    assert ok, line


# ---------------------------------------------------------------- criterion 3


def _random_box_sequence(rng: random.Random, n: int, w: float, h: float):
    boxes = []
    prev = None
    for _ in range(n):
        r = rng.random()
        if r < 0.15:
            boxes.append(None)
            prev = None
            continue
        if prev is None or r < 0.45:
            x0, x1 = sorted((rng.uniform(-50, w + 50), rng.uniform(-50, w + 50)))
            y0, y1 = sorted((rng.uniform(-30, h + 30), rng.uniform(-30, h + 30)))
        else:
            dx, dy = rng.uniform(-15, 15), rng.uniform(-10, 10)
            grow = rng.uniform(-8.0, 8.0)
            x0, x1 = prev.x_min + dx - grow, prev.x_max + dx + grow
            y0, y1 = prev.y_min + dy - grow, prev.y_max + dy + grow
            if x1 < x0:
                x0, x1 = x1, x0
            if y1 < y0:
                y0, y1 = y1, y0
        box = g.Rect(x0, y0, max(x1, x0 + rng.uniform(0.5, 20)), max(y1, y0 + rng.uniform(0.5, 20)))
        boxes.append(box)
        prev = box
    return boxes


def test_c3_life_spans_match_reference_scan():
    rng = random.Random(77)
    screen = (200, 100)
    thresholds = (0.05, 0.10, 0.20)
    sequences = 0
    spans_total = 0
    for i in range(1000):
        boxes = _random_box_sequence(rng, rng.randrange(0, 40), *screen)
        theta = thresholds[i % len(thresholds)]
        got = life_spans(oracles.box_rows(boxes), screen, theta)
        want = oracles.life_spans_reference(boxes, screen, theta)
        assert len(got) == len(want), f"sequence {i}: span count differs"
        for (rect, members), (coords, ref_members) in zip(got, want):
            assert list(members) == ref_members, f"sequence {i}: frame sets differ"
            assert (rect.x_min, rect.y_min, rect.x_max, rect.y_max) == coords, (
                f"sequence {i}: stable box differs"
            )
        sequences += 1
        spans_total += len(got)
    ok = sequences >= 1000
    line = _report(
        3,
        ok,
        f"{sequences} random sequences, {spans_total} spans, "
        f"boxes and frame sets bit-equal to the reference scan",
    )
    assert ok, line


# ---------------------------------------------------------------- criterion 4


def _interval_contained(strict, loose) -> str | None:
    for s in strict:
        if not any(
            l.trackable_id == s.trackable_id
            and l.start_ms <= s.start_ms
            and s.end_ms <= l.end_ms
            for l in loose
        ):
            return f"{s.trackable_id}[{s.start_ms},{s.end_ms}]"
    return None


def test_c4_threshold_monotonicity():
    violations = []
    traces_checked = 0
    for scene in benchmark_scenes():
        variants = [generate_trace(scene, 0, Jitter())]
        if scene.default_jitter != Jitter():
            variants.append(generate_trace(scene, 7, scene.default_jitter))
            variants.append(generate_trace(scene, 11, scene.default_jitter))
        for trace in variants:
            traces_checked += 1
            runs = _runs([trace])   # the boxes take no threshold: one box pass serves all six
            by_vis = {
                mv: analyze_boxes(runs, AnalysisParams(min_visibility=mv))[1]
                for mv in (0.05, 0.10, 0.20)
            }
            by_life = {
                ls: analyze_boxes(runs, AnalysisParams(min_lifespan_s=ls))[1]
                for ls in (1.0, 2.0, 3.0)
            }
            for strict, loose in (
                (by_vis[0.20], by_vis[0.10]),
                (by_vis[0.10], by_vis[0.05]),
                (by_life[3.0], by_life[2.0]),
                (by_life[2.0], by_life[1.0]),
            ):
                bad = _interval_contained(strict, loose)
                if bad is not None:
                    violations.append(f"{scene.name}: {bad}")
    ok = not violations
    line = _report(
        4,
        ok,
        f"{traces_checked} traces, 4 threshold pairs each, "
        + ("all opportunity sets nested" if ok else "; ".join(violations[:3])),
    )
    assert ok, line


# ---------------------------------------------------------------- criterion 5


def _grid_points(box: g.Rect, pitch: float = 5.0) -> np.ndarray:
    xs = np.arange(box.x_min, box.x_max + 1e-9, pitch)
    if xs[-1] < box.x_max - 1e-9:
        xs = np.append(xs, box.x_max)
    ys = np.arange(box.y_min, box.y_max + 1e-9, pitch)
    if ys[-1] < box.y_max - 1e-9:
        ys = np.append(ys, box.y_max)
    gx, gy = np.meshgrid(xs, ys)
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


def test_c5_stable_boxes_land_on_their_planes():
    params = AnalysisParams()
    opportunities = 0
    points_checked = 0
    misses = []
    for scene in benchmark_scenes():
        (run,) = _runs([generate_trace(scene, 0, Jitter())], params.fps)
        times = np.array(run.timestamps_ms)
        for opp in analyze_boxes([run], params)[1]:
            opportunities += 1
            pts = _grid_points(opp.stable_box)
            # the frames of the opportunity's window: for one run, its span's members
            for t in times[(opp.start_ms <= times) & (times <= opp.end_ms)].tolist():
                ids = oracles.hit_ids(scene, float(t), pts)
                points_checked += len(ids)
                wrong = len(ids) - ids.count(opp.trackable_id)
                if wrong:
                    misses.append(
                        f"{scene.name}/{opp.trackable_id}@{t}ms: "
                        f"{wrong}/{len(ids)} off-plane"
                    )
    ok = opportunities > 0 and not misses
    line = _report(
        5,
        ok,
        f"{opportunities} opportunities, {points_checked} grid point tests, "
        + ("100% on the owning plane" if ok else "; ".join(misses[:3])),
    )
    assert ok, line


# ------------------------------------------------------- criteria 6 and 7


def _screen_coverage(scene) -> float:
    xs = (np.arange(48) + 0.5) * scene.screen_w / 48.0
    ys = (np.arange(27) + 0.5) * scene.screen_h / 27.0
    gx, gy = np.meshgrid(xs, ys)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    fracs = []
    for t in range(0, scene.duration_ms, 1000):
        ids = oracles.hit_ids(scene, float(t), pts)
        fracs.append(sum(1 for i in ids if i is not None) / len(ids))
    return float(np.mean(fracs))


def _rate(outcomes, kinds) -> float | None:
    pool = [o for o in outcomes if o.event.kind in kinds]
    if not pool:
        return None
    return sum(1 for o in pool if o.success) / len(pool)


@pytest.fixture(scope="module")
def benchmark_sweep():
    """Guided vs random gestures on every benchmark scene, three seeds each."""
    t0 = time.perf_counter()
    results = {}
    for scene in benchmark_scenes():
        guided_outcomes = []
        random_outcomes = []
        counts = []
        for seed in (1, 2, 3):
            traces = [
                generate_trace(scene, seed * 100 + r, scene.default_jitter)
                for r in range(3)
            ]
            _per_run, final, _metrics = _analyze(traces)
            guided = schedule_guided(final, scene.duration_ms, seed)
            rand = schedule_random(
                (scene.screen_w, scene.screen_h), scene.duration_ms, seed
            )
            g_out, _ = execute_schedule(scene, guided)
            r_out, _ = execute_schedule(scene, rand)
            guided_outcomes.extend(g_out)
            random_outcomes.extend(r_out)
            counts.append((len(guided.events), len(rand.events)))
        results[scene.name] = {
            "coverage": _screen_coverage(scene),
            "guided": guided_outcomes,
            "random": random_outcomes,
            "counts": counts,
        }
    results["elapsed"] = time.perf_counter() - t0
    return results


def test_c6_guided_gestures_beat_random(benchmark_sweep):
    problems = []
    gaps = []
    for scene in benchmark_scenes():
        r = benchmark_sweep[scene.name]
        tap = _rate(r["guided"], (GestureKind.TAP,))
        if tap != 1.0:
            problems.append(f"{scene.name}: guided TAP {tap}")
        for kind in (GestureKind.DRAG, GestureKind.PINCH, GestureKind.ROTATE):
            rate = _rate(r["guided"], (kind,))
            if rate is not None and rate < 0.85:
                problems.append(f"{scene.name}: guided {kind.value} {rate:.0%}")
        if r["coverage"] <= COVERAGE_EXEMPT:
            g_mf = _rate(r["guided"], MULTI_FINGER)
            r_mf = _rate(r["random"], MULTI_FINGER)
            if g_mf is None or r_mf is None:
                problems.append(f"{scene.name}: no multi-finger attempts")
            elif g_mf - r_mf < 0.30:
                problems.append(
                    f"{scene.name}: multi-finger gap {g_mf - r_mf:.0%} < 30pp"
                )
            else:
                gaps.append(g_mf - r_mf)
    elapsed = benchmark_sweep["elapsed"]
    ok = not problems and elapsed < 300.0
    detail = (
        f"9 scenes x 3 seeds, guided TAP 100%, "
        f"min multi-finger gap {min(gaps):.0%} on sub-40%-coverage scenes, "
        f"{elapsed:.0f}s"
        if ok
        else "; ".join(problems[:3]) + f", {elapsed:.0f}s"
    )
    line = _report(6, ok, detail)
    assert ok, line


def test_c7_guided_never_schedules_more_than_random(benchmark_sweep):
    violations = []
    pairs = 0
    for scene in benchmark_scenes():
        for n_guided, n_random in benchmark_sweep[scene.name]["counts"]:
            pairs += 1
            if n_guided > n_random:
                violations.append(f"{scene.name}: {n_guided} > {n_random}")
    ok = not violations
    line = _report(
        7,
        ok,
        f"{pairs} scene/seed runs, guided event count <= random in every one"
        if ok
        else "; ".join(violations[:3]),
    )
    assert ok, line


# ---------------------------------------------------------------- criterion 8


def test_c8_cli_outputs_are_byte_identical(tmp_path):
    scene = benchmark_scene("noisy-trio")
    trace_path = tmp_path / "run.jsonl"
    save_trace(generate_trace(scene, 5, scene.default_jitter), trace_path)
    scene_path = tmp_path / "scene.json"
    save_scene(benchmark_scene("static-center"), scene_path)

    identical = []
    for name, argv, outputs in (
        (
            "analyze",
            lambda d: ["analyze", str(trace_path), "--runs", "3", "--out", str(d)],
            ("report.json", "gantt.svg"),
        ),
        (
            "schedule",
            lambda d: [
                "schedule",
                str(tmp_path / "a0" / "report.json"),
                "--seed",
                "9",
                "--out",
                str(d / "sched.json"),
            ],
            ("sched.json",),
        ),
        (
            "compare",
            lambda d: [
                "compare",
                str(scene_path),
                "--seeds",
                "2",
                "--runs",
                "2",
                "--out",
                str(d / "compare.json"),
            ],
            ("compare.json",),
        ),
    ):
        dirs = []
        for i in (0, 1):
            d = tmp_path / f"{name[0]}{i}"
            d.mkdir(exist_ok=True)
            assert cli_main(argv(d)) == 0
            dirs.append(d)
        same = all(
            (dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes() for f in outputs
        )
        identical.append((name, same))
    ok = all(same for _, same in identical)
    line = _report(
        8,
        ok,
        "repeat analyze/schedule/compare runs byte-identical (JSON and SVG)"
        if ok
        else "differs: " + ", ".join(n for n, same in identical if not same),
    )
    assert ok, line


# ---------------------------------------------------------------- criterion 9


def test_c9_stability_metric_tracks_run_agreement():
    scene = benchmark_scene("noisy-trio")
    clean = generate_trace(scene, 1, Jitter())
    _, _, metrics_same = _analyze([clean, clean, clean])
    flaky = Jitter(
        vertex_noise_m=scene.default_jitter.vertex_noise_m, dropout_prob=0.10
    )
    flaky_traces = [generate_trace(scene, 100 + r, flaky) for r in range(3)]
    _, _, metrics_flaky = _analyze(flaky_traces)
    same = metrics_same.mutual_stability
    degraded = metrics_flaky.mutual_stability
    ok = same == 1.0 and degraded is not None and degraded < 1.0
    line = _report(
        9,
        ok,
        f"identical runs stability {same}, dropout 0.10 stability "
        f"{degraded if degraded is None else round(degraded, 3)} < 1.0",
    )
    assert ok, line
