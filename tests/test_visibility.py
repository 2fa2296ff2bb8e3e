from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import oracles
from playtrace import geometry as g
from playtrace.lifespan import DEFAULT_MIN_VISIBILITY
from playtrace.pipeline import AnalysisParams, run_boxes
from playtrace.scenes import benchmark_scene, benchmark_scenes
from playtrace.simulator import generate_trace, perspective_matrix
from playtrace.trace import (
    FrameRecord,
    TrackableSnapshot,
    TrackingState,
    decimate,
    load_trace,
    save_trace,
)
from playtrace.visibility import (
    facing_camera,
    frame_pieces,
    project_trackable,
    screen_clip_polygon,
)

W, H = 1920, 1080


def _frame(planes, cam=(0.0, 2.0, 0.0), t_ms=0):
    eye = np.array(cam, dtype=float)
    view = oracles.look_at_per_time(eye, np.array([0.0, 0.0, 0.0]), np.array([0.0, 0.0, -1.0]))
    proj = perspective_matrix(60.0, W / H, 0.1, 100.0)
    return FrameRecord(
        timestamp_ms=t_ms,
        view=view,
        projection=proj,
        camera_position=eye,
        screen_w=W,
        screen_h=H,
        trackables=tuple(planes),
    )


def _plane(pid, center, half_u, half_v, normal=(0.0, 1.0, 0.0),
           state=TrackingState.TRACKING):
    pose = np.eye(4)
    pose[:3, 3] = center
    verts = ((-half_u, -half_v), (half_u, -half_v), (half_u, half_v), (-half_u, half_v))
    return TrackableSnapshot(
        trackable_id=pid,
        pose=pose,
        local_vertices=verts,
        center_world=np.array(center, dtype=float),
        normal_world=np.array(normal, dtype=float),
        tracking_state=state,
    )


def _px_per_m(depth):
    # straight-down pinhole: 60 degree vertical fov on a 1080 px tall screen
    return 540.0 * math.sqrt(3.0) / depth


def test_facing_camera_sign():
    cam = np.array([0.0, 2.0, 0.0])
    assert facing_camera(_plane("a", (0, 0, 0), 1, 1, normal=(0, 1, 0)), cam)
    assert not facing_camera(_plane("a", (0, 0, 0), 1, 1, normal=(0, -1, 0)), cam)
    # edge-on does not count
    assert not facing_camera(_plane("a", (0, 0, 0), 1, 1, normal=(1, 0, 0)), cam)


def test_screen_clip_polygon_shape():
    assert screen_clip_polygon(10, 5) == [(0.0, 5.0), (10.0, 5.0), (10.0, 0.0), (0.0, 0.0)]


def test_project_trackable_straight_down():
    f = _frame([_plane("t", (0, 0, 0), 1.0, 0.5)])
    poly = project_trackable(f.trackables[0], f)
    px = _px_per_m(2.0)
    expected = [
        (960 - px, 540 - 0.5 * px),
        (960 + px, 540 - 0.5 * px),
        (960 + px, 540 + 0.5 * px),
        (960 - px, 540 + 0.5 * px),
    ]
    for got, want in zip(poly, expected):
        assert got == pytest.approx(want, abs=1e-6)


def test_project_trackable_behind_camera():
    above = _plane("t", (0.0, 3.0, 0.0), 0.5, 0.5)
    f = _frame([above])
    assert project_trackable(above, f) is None
    assert oracles.frame_boxes(f, DEFAULT_MIN_VISIBILITY) == []


def test_single_plane_box():
    f = _frame([_plane("table", (0, 0, 0), 1.0, 0.5)])
    boxes = oracles.frame_boxes(f, min_visibility=0.10)
    assert len(boxes) == 1
    vb = boxes[0]
    px = _px_per_m(2.0)
    assert vb.trackable_id == "table"
    assert vb.camera_distance == pytest.approx(2.0)
    assert vb.box.x_min == pytest.approx(960 - px, abs=1e-6)
    assert vb.box.x_max == pytest.approx(960 + px, abs=1e-6)
    assert vb.box.y_min == pytest.approx(540 - 0.5 * px, abs=1e-6)
    assert vb.box.y_max == pytest.approx(540 + 0.5 * px, abs=1e-6)
    expected_ratio = (2 * px) * px / (W * H)
    assert vb.visibility_ratio == pytest.approx(expected_ratio, rel=1e-9)


def test_min_visibility_excludes():
    f = _frame([_plane("table", (0, 0, 0), 1.0, 0.5)])
    assert oracles.frame_boxes(f, min_visibility=0.10)
    assert oracles.frame_boxes(f, min_visibility=0.30) == []


def test_paused_and_stopped_ignored():
    f = _frame([
        _plane("p", (0, 0, 0), 1.0, 1.0, state=TrackingState.PAUSED),
        _plane("s", (0, 0, 0), 1.0, 1.0, state=TrackingState.STOPPED),
    ])
    assert oracles.frame_boxes(f, min_visibility=0.01) == []


def test_back_facing_yields_no_box_but_occludes():
    # "shade" hangs at y=1 facing up, i.e. away from the camera above it
    shade = _plane("shade", (0.0, 1.0, 0.0), 0.3, 0.3, normal=(0.0, -1.0, 0.0))
    floor = _plane("floor", (0.0, 0.0, 0.0), 1.0, 0.5)
    boxes = oracles.frame_boxes(_frame([floor, shade]), min_visibility=0.02)
    ids = [b.trackable_id for b in boxes]
    assert "shade" not in ids
    assert ids == ["floor"]
    # the floor box must sit beside the shade's projected square
    hole_half = 0.3 * _px_per_m(1.0)
    box = boxes[0].box
    assert box.x_max <= 960 - hole_half + 1e-6 or box.x_min >= 960 + hole_half - 1e-6
    # without the shade the floor box spans the full projection
    full = oracles.frame_boxes(_frame([floor]), min_visibility=0.02)[0].box
    assert full.width > box.width


def test_paused_plane_does_not_occlude():
    shade = _plane("shade", (0.0, 1.0, 0.0), 0.3, 0.3, normal=(0.0, -1.0, 0.0),
                   state=TrackingState.PAUSED)
    floor = _plane("floor", (0.0, 0.0, 0.0), 1.0, 0.5)
    with_paused = oracles.frame_boxes(_frame([floor, shade]), min_visibility=0.02)[0].box
    alone = oracles.frame_boxes(_frame([floor]), min_visibility=0.02)[0].box
    assert with_paused == alone


def test_nearer_plane_unaffected_by_farther():
    near = _plane("near", (0.0, 1.0, 0.0), 0.35, 0.35)
    far = _plane("far", (0.0, 0.0, 0.0), 1.0, 0.6)
    boxes = oracles.frame_boxes(_frame([far, near]), min_visibility=0.02)
    by_id = {b.trackable_id: b for b in boxes}
    assert set(by_id) == {"near", "far"}
    near_alone = oracles.frame_boxes(_frame([near]), min_visibility=0.02)[0].box
    assert by_id["near"].box == near_alone
    # results come back ordered near to far
    assert [b.trackable_id for b in boxes] == ["near", "far"]
    assert by_id["near"].camera_distance < by_id["far"].camera_distance


def test_offscreen_plane_clipped_away():
    f = _frame([_plane("gone", (50.0, 0.0, 0.0), 0.5, 0.5)])
    assert oracles.frame_boxes(f, min_visibility=0.001) == []


# ------------------------------------------------ against the per-vertex path

def _rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    return q * np.sign(np.diag(r))


@pytest.mark.parametrize("order", ["C", "F"])
def test_project_trackable_bit_equal_to_per_vertex(order):
    # general rotations, where a (4, n) matmul or einsum rounds differently
    rng = np.random.default_rng(7)
    proj = perspective_matrix(60.0, W / H, 0.05, 100.0)
    for _ in range(200):
        eye = rng.normal(size=3) * 2.0
        eye[1] = abs(eye[1]) + 2.0
        view = oracles.look_at_per_time(eye, rng.normal(size=3) * 0.2, np.array([0.0, 1.0, 0.0]))
        pose = np.eye(4)
        pose[:3, :3] = _rotation(rng) * 0.1
        pose[:3, 3] = rng.normal(size=3) * 0.2
        verts = tuple(map(tuple, rng.uniform(-1.0, 1.0, size=(int(rng.integers(3, 9)), 2)).tolist()))
        t = TrackableSnapshot("t", np.asarray(pose, order=order), verts, np.zeros(3),
                              np.array([0.0, 1.0, 0.0]), TrackingState.TRACKING)
        f = FrameRecord(0, np.asarray(view, order=order), np.asarray(proj, order=order),
                        eye, W, H, (t,))
        assert project_trackable(t, f) == oracles.project_per_vertex(t, f)


def test_project_trackable_first_bad_vertex_decides():
    # local z runs along world y, so local (0, 5) sits above the camera
    pose = np.array([[1.0, 0, 0, 0], [0, 0, 1.0, 0], [0, 1.0, 0, 0], [0, 0, 0, 1.0]])
    t = TrackableSnapshot("t", pose, (), np.zeros(3), np.array([0.0, 1.0, 0.0]),
                          TrackingState.TRACKING)
    f = _frame([t])
    behind_then_huge = dataclasses.replace(t, local_vertices=((0.0, 0.0), (0.0, 5.0), (1e308, 0.0)))
    assert project_trackable(behind_then_huge, f) is None
    huge_then_behind = dataclasses.replace(t, local_vertices=((0.0, 0.0), (1e308, 0.0), (0.0, 5.0)))
    with pytest.raises(ArithmeticError, match=r"vertex \(1e\+308, 0\.0, 0\.0, 1\.0\)"):
        project_trackable(huge_then_behind, f)


@pytest.mark.parametrize("scene", [s.name for s in benchmark_scenes()])
def test_analyze_frame_matches_per_vertex_pipeline(tmp_path, scene):
    sc = benchmark_scene(scene)
    for seed in (1, 2):
        trace = generate_trace(sc, jitter_seed=seed, jitter=sc.default_jitter)
        path = tmp_path / f"{seed}.jsonl"
        save_trace(trace, path)
        # rendered frames hold C-order matrices, loaded ones column-major views
        for tr in (trace, load_trace(path)):
            for i, f in enumerate(decimate(tr.frames, tr.source_fps, 10.0)):
                assert oracles.frame_boxes(f, 0.0) == oracles.analyze_frame_per_vertex(f, 0.0), i


@pytest.mark.parametrize("scene", [s.name for s in benchmark_scenes()])
def test_inscribed_rects_match_scalar_search_on_pack_pieces(scene):
    sc = benchmark_scene(scene)
    for seed in (1, 2):
        trace = generate_trace(sc, jitter_seed=seed, jitter=sc.default_jitter)
        screen = g.clip_loop(screen_clip_polygon(sc.screen_w, sc.screen_h))
        pieces = [p for f in decimate(trace.frames, trace.source_fps, 10.0)
                  for _, _, ps in frame_pieces(f, screen) for p in ps]
        rects, passes = g.inscribed_rects(pieces, sc.screen_w, sc.screen_h)
        assert rects == [oracles.inscribed_rect_pip(p, sc.screen_w, sc.screen_h) for p in pieces]
        assert max(passes, default=0) <= g.MAX_SHRINK_PASSES


def test_screen_clip_is_checked_once_per_run(monkeypatch):
    checked = []
    real = g.is_convex
    monkeypatch.setattr(g, "is_convex", lambda poly: checked.append(list(poly)) or real(poly))
    planes = [_plane("a", (-0.6, 0.0, 0.0), 0.3, 0.3), _plane("b", (0.6, 0.0, 0.0), 0.3, 0.3),
              _plane("c", (0.0, 0.5, 0.0), 0.2, 0.2)]
    frames = [_frame(planes, t_ms=100 * k) for k in range(5)]
    run = run_boxes(frames, 10.0, AnalysisParams(fps=10.0, min_visibility=0.0))
    assert set(run.boxes) == {"a", "b", "c"}
    assert all(None not in boxes for boxes in run.boxes.values())
    assert len(run.timestamps_ms) == len(frames)
    assert checked.count(screen_clip_polygon(W, H)) == 1
