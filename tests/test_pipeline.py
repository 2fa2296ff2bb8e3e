from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from oracles import decimate, frame_blocks, frames_block, iter_blocks
from playtrace.pipeline import AnalysisParams, analyze_boxes, run_boxes
from playtrace.simulator import (
    CameraKeyframe, Jitter, ScenePlane, SimScene, generate_trace, render_frames,
)
from playtrace.trace import TraceValidationError, save_trace


def _scene(duration=6000, planes=None, jitter=None):
    if planes is None:
        planes = [
            ScenePlane(
                plane_id="table",
                center=np.array([0.0, 0.0, 0.0]),
                normal=np.array([0.0, 1.0, 0.0]),
                axis_u=np.array([1.0, 0.0, 0.0]),
                axis_v=np.array([0.0, 0.0, 1.0]),
                extent_u=0.6,
                extent_v=0.5,
            )
        ]
    key = CameraKeyframe(
        0,
        np.array([0.0, 2.0, 0.0]),
        np.array([0.0, 0.0, 0.0]),
        np.array([0.0, 0.0, -1.0]),
    )
    return SimScene(
        name="pipe-test",
        screen_w=1920,
        screen_h=1080,
        fps=30.0,
        duration_ms=duration,
        fov_y_deg=60.0,
        near_m=0.01,
        far_m=100.0,
        camera_path=(key,),
        planes=tuple(planes),
        default_jitter=jitter or Jitter(),
    )


def _analyze(traces, params=AnalysisParams()):
    return analyze_boxes(
        [run_boxes(frame_blocks(decimate(t.frames, t.source_fps, params.fps))) for t in traces],
        params)


def test_box_sequences_cover_every_frame():
    trace = generate_trace(_scene())
    sampled = list(decimate(trace.frames, trace.source_fps, 10.0))
    run = run_boxes(frame_blocks(sampled))
    assert set(run.boxes) == {"table"}
    boxes = run.boxes["table"]
    assert boxes.dtype == np.float64 and boxes.shape == (len(sampled), 4)
    assert not np.isnan(boxes).any()
    assert run.timestamps_ms == [f.timestamp_ms for f in sampled]


def test_analyze_run_finds_full_span_opportunity():
    trace = generate_trace(_scene())
    opps = _analyze([trace])[1]
    assert len(opps) == 1
    opp = opps[0]
    assert opp.trackable_id == "table"
    assert opp.start_ms == 0
    assert opp.end_ms >= 5000
    # stable box stays well inside the screen
    assert 0 <= opp.stable_box.x_min < opp.stable_box.x_max <= 1920
    assert 0 <= opp.stable_box.y_min < opp.stable_box.y_max <= 1080


def test_analyze_run_respects_min_lifespan():
    # plane only tracked for the last 1.5 s of a 6 s trace
    plane = ScenePlane(
        plane_id="late",
        center=np.array([0.0, 0.0, 0.0]),
        normal=np.array([0.0, 1.0, 0.0]),
        axis_u=np.array([1.0, 0.0, 0.0]),
        axis_v=np.array([0.0, 0.0, 1.0]),
        extent_u=0.6,
        extent_v=0.5,
        detect_delay_ms=4500,
    )
    trace = generate_trace(_scene(planes=[plane]))
    assert _analyze([trace])[1] == []
    kept = _analyze([trace], AnalysisParams(min_lifespan_s=1.0))[1]
    assert len(kept) == 1
    assert kept[0].start_ms >= 4500


def test_analyze_runs_single_trace_passthrough():
    trace = generate_trace(_scene())
    per_run, final, metrics = _analyze([trace])
    assert per_run == [final]
    assert metrics.opportunity_count == 1
    assert metrics.mutual_stability is None


def test_analyze_runs_intersects_jittered_runs():
    scene = _scene(jitter=Jitter(vertex_noise_m=0.004))
    traces = [generate_trace(scene, jitter_seed=s) for s in (1, 2, 3)]
    per_run, final, metrics = _analyze(traces)
    assert all(len(r) == 1 for r in per_run)
    assert len(final) == 1
    assert metrics.mutual_stability is not None
    assert metrics.mutual_stability > 0.8
    # the surviving box fits inside every per-run box
    box = final[0].stable_box
    for run in per_run:
        other = run[0].stable_box
        assert box.x_min >= other.x_min - 1e-9
        assert box.x_max <= other.x_max + 1e-9


def test_analyze_runs_requires_traces():
    with pytest.raises(ValueError):
        analyze_boxes([])


def test_analyze_runs_rejects_mixed_screens():
    scene = _scene()
    big = generate_trace(scene)
    small = generate_trace(dataclasses.replace(scene, screen_w=960, screen_h=540))
    with pytest.raises(ValueError, match="screen"):
        _analyze([big, small])
    # a screen that changes inside one in-memory run is caught as its frames pass
    mixed = dataclasses.replace(big, frames=big.frames[:90] + small.frames[90:])
    at = small.frames[90].timestamp_ms
    message = f"frame at {at} ms: screen 960x540 differs from the first frame's 1920x1080"
    with pytest.raises(ValueError, match=message):
        _analyze([mixed])
    # run_boxes checks the screen of the blocks it is given, however they were made
    with pytest.raises(ValueError, match=message):
        run_boxes([frames_block(big.frames[:90]), frames_block(small.frames[90:93])])


def test_run_boxes_analyses_a_stream_of_both_producers_blocks(tmp_path):
    # the reader's matrices are column-major views and the renderer's in C order; joined,
    # both are read as they are stored, and a block of another screen is still rejected
    scene = _scene(duration=1000)
    path = tmp_path / "run.jsonl"
    save_trace(generate_trace(scene), path)
    read, rendered = list(iter_blocks(path)), list(render_frames(scene))
    small = list(render_frames(dataclasses.replace(scene, screen_w=960, screen_h=540)))
    for first, second in ((read, rendered), (rendered, read)):
        shift = first[-1].t_ms[-1] + 1   # the second producer's frames come after the first's
        second = [b._replace(t_ms=[t + shift for t in b.t_ms]) for b in second]
        alone = [run_boxes(first), run_boxes(second)]
        mixed = run_boxes(first + second)
        assert mixed.screen == (1920, 1080)
        assert mixed.timestamps_ms == alone[0].timestamps_ms + alone[1].timestamps_ms
        assert list(mixed.boxes) == list(alone[0].boxes) == list(alone[1].boxes)
        for tid, boxes in mixed.boxes.items():
            want = np.concatenate([run.boxes[tid] for run in alone])
            assert np.isfinite(want).any()
            np.testing.assert_allclose(boxes, want, rtol=1e-12, atol=1e-9)
        message = (f"^frame at {small[0].t_ms[0]} ms: screen 960x540 differs "
                   "from the first frame's 1920x1080$")
        with pytest.raises(ValueError, match=message):
            run_boxes(first + second + small)


def test_run_boxes_rejects_timestamps_that_repeat_or_go_back():
    # the reader's run rule, at the first frame whose t_ms is not above the one before
    (block,) = render_frames(_scene(duration=1000))
    t = block.t_ms
    repeated = block._replace(t_ms=t[:5] + t[4:-1])
    back = block._replace(t_ms=t[:7] + [t[5]] + t[8:])
    for stream, prev, at in (([block, block], t[-1], t[0]), ([repeated], t[4], t[4]),
                             ([back], t[6], t[5])):
        message = (f"^frame at {at} ms: timestamps must be strictly increasing "
                   f"\\({prev} then {at}\\)$")
        with pytest.raises(TraceValidationError, match=message):
            run_boxes(stream)
