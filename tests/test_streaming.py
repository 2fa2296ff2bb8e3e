"""Streamed `analyze` and rendered runs against the eager reference, and their memory bounds."""

from __future__ import annotations

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

import oracles
from oracles import frame_blocks, iter_blocks
from playtrace import pipeline, simulator
from playtrace import trace as trace_module
from playtrace.cli import _generated_runs, main
from playtrace.pipeline import AnalysisParams, run_boxes
from playtrace.scenes import benchmark_scene, benchmark_scenes
from playtrace.simulator import (
    CameraKeyframe,
    Jitter,
    ScenePlane,
    SimScene,
    frame_times,
    generate_trace,
    render_frames,
    save_scene,
)
from playtrace.trace import deadline_walk, load_trace, save_trace


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize(
    "name, fps",
    [("pan-exit", 30.0), ("noisy-trio", 30.0), ("static-duo", 10.0)],
    ids=["pan-exit", "noisy-trio", "static-duo-10fps"],
)
def test_streamed_analyze_matches_eager_reference(tmp_path, name, fps, seed):
    # at 10 fps the recording rate equals --fps, so decimation keeps every frame
    scene = dataclasses.replace(benchmark_scene(name), fps=fps)
    paths = []
    for r in range(2):
        paths.append(tmp_path / f"run{r}.jsonl")
        save_trace(generate_trace(scene, seed * 100 + r), paths[-1])
    loaded = [load_trace(p) for p in paths]
    for tag in (1, 2):
        assert main(["analyze", *map(str, paths[:tag]), "--out", str(tmp_path / f"s{tag}")]) == 0
        oracles.eager_outputs(loaded[:tag], tmp_path / f"e{tag}")
        oracles.assert_same_outputs(tmp_path / f"s{tag}", tmp_path / f"e{tag}")


@pytest.mark.parametrize("name", [s.name for s in benchmark_scenes()])
def test_analyze_matches_the_scalar_span_oracle_on_the_pack(tmp_path, name):
    # the oracle keeps Rect | None slots and splits them with the scalar life_spans
    scene = benchmark_scene(name)
    path = tmp_path / "run.jsonl"
    save_trace(generate_trace(scene, 4, scene.default_jitter), path)
    assert main(["analyze", str(path), "--out", str(tmp_path / "s")]) == 0
    trace = load_trace(path)
    oracles.eager_outputs([trace], tmp_path / "e")
    oracles.assert_same_outputs(tmp_path / "s", tmp_path / "e")

    params = AnalysisParams()
    run = run_boxes(iter_blocks(path, deadline_walk(trace.source_fps, params.fps)))
    sequences, timestamps = oracles.eager_boxes(trace, params.fps)
    assert run.timestamps_ms == timestamps
    assert list(run.boxes) == list(sequences)
    for tid, rows in run.boxes.items():
        assert rows.dtype == np.float64 and rows.shape == (len(timestamps), 4), tid
        assert np.isnan(rows).all(axis=1).tolist() == [b is None for b in sequences[tid]], tid
        assert oracles.same_bits(rows, oracles.box_rows(sequences[tid])), tid


def test_streamed_multi_run_regeneration_matches_eager_reference(tmp_path):
    # static-duo's jitter draws nothing, so its three runs are one shared render; the
    # chart still ends at the last frame of the recording
    for name in ("drift-trio", "static-duo"):
        scene = benchmark_scene(name)
        path = tmp_path / f"{name}.jsonl"
        save_trace(generate_trace(scene, 7), path)
        argv = ["analyze", str(path), "--runs", "3", "--jitter-seed-base", "5"]
        assert main([*argv, "--out", str(tmp_path / f"s-{name}")]) == 0
        traces = [generate_trace(scene, 5 + r, scene.default_jitter) for r in range(3)]
        oracles.eager_outputs(traces, tmp_path / f"e-{name}")
        oracles.assert_same_outputs(tmp_path / f"s-{name}", tmp_path / f"e-{name}")


def test_block_sizes_change_no_byte(tmp_path, monkeypatch):
    # the reader's blocks of lines and the box stage's blocks of frames are sizes to cut
    # the work by, not answers: every size gives the bytes of analyze, walked and at the
    # full rate, of the schedule and the replay of its report, and of compare; analyze forks
    # its helpers after the patch, so they run at each size too
    scene = dataclasses.replace(benchmark_scene("noisy-trio"), duration_ms=6000)
    assert scene.default_jitter.vertex_noise_m > 0 and scene.default_jitter.dropout_prob > 0
    paths = [str(tmp_path / f"run{r}.jsonl") for r in range(3)]
    for r, path in enumerate(paths):
        save_trace(generate_trace(scene, r), path)
    scene_path = str(tmp_path / "scene.json")
    save_scene(scene, scene_path)
    names = ("report.json", "gantt.svg", "full/report.json", "full/gantt.svg", "schedule.json",
             "outcomes.json", "compare.json")
    outputs = {}
    for size in ("default", 1, 2, 3, 7, 10**6):
        if size != "default":
            monkeypatch.setattr(trace_module, "INGEST_BLOCK_LINES", size)
            monkeypatch.setattr(pipeline, "BOX_BLOCK_FRAMES", size)
            monkeypatch.setattr(simulator, "BOX_BLOCK_FRAMES", size)
        out = tmp_path / f"size-{size}"
        assert main(["analyze", *paths, "--out", str(out)]) == 0
        # at the recorded rate every frame is kept
        assert main(["analyze", *paths, "--fps", str(scene.fps), "--out", str(out / "full")]) == 0
        assert main(["schedule", str(out / "report.json"), "--out", str(out / "schedule.json")]) == 0
        assert main(["simulate", scene_path, "--schedule", str(out / "schedule.json"),
                     "--out", str(out / "outcomes.json")]) == 0
        assert main(["compare", scene_path, "--out", str(out / "compare.json")]) == 0
        outputs[size] = [(out / name).read_bytes() for name in names]
    default = outputs.pop("default")
    assert json.loads(default[4])["events"]   # the replay has gestures to check
    for size, got in outputs.items():
        assert got == default, size


def test_block_sizes_change_no_byte_of_a_saved_trace(tmp_path, monkeypatch):
    # a trace is written a block at a time: a render's blocks, records stacked into blocks
    # of INGEST_BLOCK_LINES, and the reader's blocks of a loaded trace all give one text
    scene = dataclasses.replace(benchmark_scene("noisy-trio"), duration_ms=3000)
    texts = {}
    for size in ("default", 1, 2, 3, 7, 10**6):
        if size != "default":
            monkeypatch.setattr(trace_module, "INGEST_BLOCK_LINES", size)
            monkeypatch.setattr(simulator, "BOX_BLOCK_FRAMES", size)
        rendered = generate_trace(scene, 4)
        paths = [tmp_path / f"{size}-{how}.jsonl" for how in ("rendered", "records", "loaded")]
        save_trace(rendered, paths[0])
        save_trace(dataclasses.replace(rendered, frames=list(rendered.frames)), paths[1])
        save_trace(load_trace(paths[0]), paths[2])
        texts[size] = [p.read_bytes() for p in paths]
    default = texts.pop("default")
    assert default[0] == default[1] == default[2]
    for size, got in texts.items():
        assert got == default, size


@pytest.mark.parametrize("name", ["drift-trio", "noisy-trio", "pan-long"])
def test_rendered_runs_equal_the_runs_of_full_traces(name):
    # only the kept frames are rendered, but the runs are those of the decimated full
    # traces, and every render ends at the scene's last frame, past the last kept one;
    # pan-long's jitter draws nothing, so its runs are one render
    scene = benchmark_scene(name)
    params = AnalysisParams()
    runs = _generated_runs(scene, scene.default_jitter, range(5, 7), params.fps)
    assert (runs[0] is runs[1]) == (not scene.default_jitter.draws)
    for r, run in enumerate(runs):
        full = generate_trace(scene, 5 + r, scene.default_jitter)
        oracles.assert_same_run(
            run, run_boxes(frame_blocks(
                oracles.decimate(full.frames, full.source_fps, params.fps))))
        assert frame_times(scene)[-1] == full.duration_ms > run.timestamps_ms[-1]


@pytest.mark.parametrize(
    "name, jitter",
    [("pan-long", None), ("pan-long", Jitter(vertex_noise_m=0.004)),
     ("pan-long", Jitter(dropout_prob=0.05)), ("noisy-trio", None)],
    ids=["jitter-free", "noise-only", "dropout-only", "noisy-trio"],
)
def test_shared_runs_equal_the_per_run_renders(name, jitter):
    # the runs of compare --seeds 1 2 --runs 3: a jitter that draws nothing renders one
    # run per seed and shares it, a jitter that draws renders each of the three
    scene = benchmark_scene(name)
    jitter = jitter or scene.default_jitter
    fps = AnalysisParams().fps
    for seed in (1, 2):
        runs = _generated_runs(scene, jitter, range(100 * seed, 100 * seed + 3), fps)
        want = oracles.generated_runs_reference(scene, jitter, 100 * seed, 3, fps)
        assert len(runs) == len(want) == 3
        for got, ref in zip(runs, want):
            oracles.assert_same_run(got, ref)
        assert len({id(run) for run in runs}) == (3 if jitter.draws else 1)


@pytest.mark.parametrize("target_fps", [10.0, 30.0])
def test_each_producer_asks_its_walk_about_every_timestamp_once_in_order(tmp_path, target_fps):
    # 3 s at 30 fps: at 10 fps the walk keeps 2900 ms and drops the last frame, 2967 ms
    scene = dataclasses.replace(benchmark_scene("noisy-trio"), duration_ms=3000)
    times = frame_times(scene)
    full = generate_trace(scene, 3)
    path = tmp_path / "run.jsonl"
    save_trace(full, path)
    for produce in (lambda keep: iter_blocks(path, keep),
                    lambda keep: render_frames(scene, 3, keep=keep)):
        walk = deadline_walk(scene.fps, target_fps)
        asked = []
        kept = [t for b in produce(lambda t: asked.append(t) or walk(t)) for t in b.t_ms]
        assert asked == times
        assert walk.last_ms == times[-1] == full.frames[-1].timestamp_ms
        assert kept == oracles.decimate_reference(times, scene.fps, target_fps)
    assert (kept[-1] < times[-1]) == (target_fps < scene.fps)
    run = run_boxes(frame_blocks(full.frames))  # undecimated: every frame is analysed
    assert run.timestamps_ms == times
    assert run.boxes and all(len(boxes) == len(times) for boxes in run.boxes.values())


def _static_scene(frames: int) -> SimScene:
    """One table under a still camera, recorded for the given number of 30 fps frames."""
    table = ScenePlane(
        plane_id="table",
        center=np.array([0.0, 0.0, 0.0]),
        normal=np.array([0.0, 1.0, 0.0]),
        axis_u=np.array([1.0, 0.0, 0.0]),
        axis_v=np.array([0.0, 0.0, 1.0]),
        extent_u=0.6,
        extent_v=0.5,
    )
    key = CameraKeyframe(0, np.array([0.0, 2.0, 0.0]), np.zeros(3), np.array([0.0, 0.0, -1.0]))
    return SimScene(
        name="memory", screen_w=1920, screen_h=1080, fps=30.0,
        duration_ms=frames * 100 // 3, fov_y_deg=60.0, near_m=0.01, far_m=100.0,
        camera_path=(key,), planes=(table,),
    )


def test_analyze_memory_grows_with_boxes_not_frames(tmp_path):
    n = 600
    paths = {}
    for frames in (n, 2 * n):
        paths[frames] = tmp_path / f"{frames}.jsonl"
        save_trace(generate_trace(_static_scene(frames)), paths[frames])

    def peak(frames: int) -> int:
        tracemalloc.start()
        try:
            assert main(["analyze", str(paths[frames]), "--out", str(tmp_path / f"o{frames}")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(n)  # first call: imports and caches
    growth = peak(2 * n) - peak(n)
    # holding a parsed frame costs about 5 KB; n more frames may cost a tenth of that
    assert growth < n * 500, f"peak grew by {growth} B for {n} more frames"


def test_rendered_runs_memory_grows_with_boxes_not_frames(tmp_path):
    # analyze --runs 2 streams the file it is given, then renders two runs of its scene
    n = 600
    paths = {}
    for frames in (n, 2 * n):
        paths[frames] = tmp_path / f"{frames}.jsonl"
        save_trace(generate_trace(_static_scene(frames)), paths[frames])

    def peak(frames: int) -> int:
        argv = ["analyze", str(paths[frames]), "--runs", "2", "--out", str(tmp_path / f"o{frames}")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(n)  # first call: imports and caches
    growth = peak(2 * n) - peak(n)
    # holding a rendered trace costs about 2 KB a frame; n more frames may cost a quarter of that
    assert growth < n * 500, f"peak grew by {growth} B for {n} more frames"
