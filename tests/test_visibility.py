from __future__ import annotations

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from playtrace import geometry as g
from playtrace import visibility
from playtrace.lifespan import life_spans
from playtrace.pipeline import run_boxes
from playtrace.scenes import benchmark_scene, benchmark_scenes
from playtrace.simulator import generate_trace, perspective_matrix, render_frames
from playtrace.trace import (
    FrameRecord,
    TrackableSnapshot,
    TrackingState,
    TraceValidationError,
    deadline_walk,
    load_trace,
    save_trace,
)
from playtrace.visibility import _project, block_pieces, fit_boxes, screen_clip_polygon
from oracles import decimate, facing_camera, frame_blocks, frames_block, project_trackable

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


def _xz(rows):
    """(x, z) rows as a snapshot holds them: a read-only (n, 2) float64 array."""
    verts = np.array(rows, dtype=float).reshape(-1, 2)
    verts.flags.writeable = False
    return verts


def _plane(pid, center, half_u, half_v, normal=(0.0, 1.0, 0.0),
           state=TrackingState.TRACKING):
    pose = np.eye(4)
    pose[:3, 3] = center
    return TrackableSnapshot(
        trackable_id=pid,
        pose=pose,
        local_vertices=_xz([(-half_u, -half_v), (half_u, -half_v), (half_u, half_v),
                            (-half_u, half_v)]),
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
    assert oracles.frame_boxes(f) == [("t", None)]


def test_single_plane_box():
    f = _frame([_plane("table", (0, 0, 0), 1.0, 0.5)])
    boxes = oracles.frame_boxes(f)
    assert len(boxes) == 1
    tid, box = boxes[0]
    px = _px_per_m(2.0)
    assert tid == "table"
    assert box.x_min == pytest.approx(960 - px, abs=1e-6)
    assert box.x_max == pytest.approx(960 + px, abs=1e-6)
    assert box.y_min == pytest.approx(540 - 0.5 * px, abs=1e-6)
    assert box.y_max == pytest.approx(540 + 0.5 * px, abs=1e-6)
    expected_ratio = (2 * px) * px / (W * H)
    assert g.rect_area(box) / (W * H) == pytest.approx(expected_ratio, rel=1e-9)


def test_min_visibility_excludes():
    # the box covers about 14 % of the screen; the life spans alone apply the threshold
    f = _frame([_plane("table", (0, 0, 0), 1.0, 0.5)])
    ((_, box),) = oracles.frame_boxes(f)
    rows = oracles.box_rows([box])
    assert [members for _, members in life_spans(rows, (W, H), 0.10)] == [range(0, 1)]
    assert life_spans(rows, (W, H), 0.30) == []


def test_paused_and_stopped_ignored():
    f = _frame([
        _plane("p", (0, 0, 0), 1.0, 1.0, state=TrackingState.PAUSED),
        _plane("s", (0, 0, 0), 1.0, 1.0, state=TrackingState.STOPPED),
    ])
    assert oracles.frame_boxes(f) == [("p", None), ("s", None)]


def test_back_facing_yields_no_box_but_occludes():
    # "shade" hangs at y=1 facing up, i.e. away from the camera above it
    shade = _plane("shade", (0.0, 1.0, 0.0), 0.3, 0.3, normal=(0.0, -1.0, 0.0))
    floor = _plane("floor", (0.0, 0.0, 0.0), 1.0, 0.5)
    boxes = oracles.frame_boxes(_frame([floor, shade]))
    assert [(tid, box is None) for tid, box in boxes] == [("floor", False), ("shade", True)]
    # the floor box must sit beside the shade's projected square
    hole_half = 0.3 * _px_per_m(1.0)
    box = boxes[0][1]
    assert box.x_max <= 960 - hole_half + 1e-6 or box.x_min >= 960 + hole_half - 1e-6
    # without the shade the floor box spans the full projection
    full = oracles.frame_boxes(_frame([floor]))[0][1]
    assert full.width > box.width


def test_paused_plane_does_not_occlude():
    shade = _plane("shade", (0.0, 1.0, 0.0), 0.3, 0.3, normal=(0.0, -1.0, 0.0),
                   state=TrackingState.PAUSED)
    floor = _plane("floor", (0.0, 0.0, 0.0), 1.0, 0.5)
    with_paused = oracles.frame_boxes(_frame([floor, shade]))[0][1]
    alone = oracles.frame_boxes(_frame([floor]))[0][1]
    assert with_paused == alone


def test_nearer_plane_unaffected_by_farther():
    near = _plane("near", (0.0, 1.0, 0.0), 0.35, 0.35)
    far = _plane("far", (0.0, 0.0, 0.0), 1.0, 0.6)
    boxes = oracles.frame_boxes(_frame([far, near]))
    by_id = dict(boxes)
    assert set(by_id) == {"near", "far"}
    near_alone = oracles.frame_boxes(_frame([near]))[0][1]
    assert by_id["near"] == near_alone
    # one result per trackable, in the frame's order
    assert [tid for tid, _ in boxes] == ["far", "near"]


def test_offscreen_plane_clipped_away():
    f = _frame([_plane("gone", (50.0, 0.0, 0.0), 0.5, 0.5)])
    assert oracles.frame_boxes(f) == [("gone", None)]


def _by_row(frames, per_frame):
    """A per-frame reference's (trackable id, answer) entries placed on the rows of the
    frames' block, None for a trackable the reference does not list."""
    return [dict(entries).get(t.trackable_id)
            for f, entries in zip(frames, per_frame) for t in f.trackables]


def _assert_reference_pieces(pieces, frames, screen=None):
    """block_pieces' rows of the frames' block are oracles.frame_pieces' pieces, to the bit, row
    by row ([] where the reference lists the trackable as None or not at all)."""
    want = [p or [] for p in _by_row(frames, (oracles.frame_pieces(f, screen or SCREEN)
                                              for f in frames))]
    assert repr(oracles.pieces_by_row(pieces, len(want))) == repr(want)


# ------------------------------------------------ against the per-vertex path

def _rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    return q * np.sign(np.diag(r))


@pytest.mark.parametrize("order", ["C", "F"])
def test_project_trackable_bit_equal_to_per_vertex(order):
    # general rotations, where a (4, n) matmul or einsum rounds differently
    rng = np.random.default_rng(7)
    proj = perspective_matrix(60.0, W / H, 0.05, 100.0)
    frames = []
    for _ in range(200):
        eye = rng.normal(size=3) * 2.0
        eye[1] = abs(eye[1]) + 2.0
        view = oracles.look_at_per_time(eye, rng.normal(size=3) * 0.2, np.array([0.0, 1.0, 0.0]))
        tracks = []
        for j in range(int(rng.integers(1, 4))):
            pose = np.eye(4)
            pose[:3, :3] = _rotation(rng) * 0.1
            pose[:3, 3] = rng.normal(size=3) * 0.2
            verts = _xz(rng.uniform(-1.0, 1.0, size=(int(rng.integers(3, 9)), 2)))
            tracks.append(TrackableSnapshot(f"t{j}", np.asarray(pose, order=order), verts,
                                            np.zeros(3), np.array([0.0, 1.0, 0.0]),
                                            TrackingState.TRACKING))
        frames.append(FrameRecord(0, np.asarray(view, order=order), np.asarray(proj, order=order),
                                  eye, W, H, tuple(tracks)))
    for f in frames:
        for t in f.trackables:
            assert project_trackable(t, f) == oracles.project_per_vertex(t, f)
    # the block projection, over blocks that mix vertex counts and views
    for b in range(0, len(frames), 25):
        block = frames[b:b + 25]
        tracks = [t for f in block for t in f.trackables]
        owner = [i for i, f in enumerate(block) for _ in f.trackables]
        counts = [len(t.local_vertices) for t in tracks]
        track_of = np.repeat(np.arange(len(tracks)), counts)
        column = np.concatenate([np.arange(n) for n in counts])
        columns = frames_block(block)
        x, y, behind = _project(columns, np.arange(len(tracks)), np.array(owner), columns.verts,
                                track_of, column)
        xy = list(zip(x.tolist(), y.tolist()))
        ends = np.cumsum(counts).tolist()
        for t, i, n, end in zip(tracks, owner, counts, ends):
            assert not behind[end - n:end].any()
            assert xy[end - n:end] == oracles.project_per_vertex(t, block[i])


def test_project_trackable_first_bad_vertex_decides():
    # local z runs along world y, so local (0, 5) sits above the camera
    pose = np.array([[1.0, 0, 0, 0], [0, 0, 1.0, 0], [0, 1.0, 0, 0], [0, 0, 0, 1.0]])
    t = TrackableSnapshot("t", pose, _xz([]), np.zeros(3), np.array([0.0, 1.0, 0.0]),
                          TrackingState.TRACKING)
    f = _frame([t])
    behind_then_huge = dataclasses.replace(t, local_vertices=_xz([(0, 0), (0, 5.0), (1e308, 0)]))
    assert project_trackable(behind_then_huge, f) is None
    huge_then_behind = dataclasses.replace(t, local_vertices=_xz([(0, 0), (1e308, 0), (0, 5.0)]))
    with pytest.raises(ArithmeticError, match=r"vertex \(1e\+308, 0\.0, 0\.0, 1\.0\)"):
        project_trackable(huge_then_behind, f)


@pytest.mark.parametrize("scene", [s.name for s in benchmark_scenes()])
def test_analyze_frame_matches_per_vertex_pipeline(tmp_path, scene):
    sc = benchmark_scene(scene)
    screen = g.clip_loop(screen_clip_polygon(sc.screen_w, sc.screen_h))   # for frame_pieces
    for seed in (1, 2):
        trace = generate_trace(sc, jitter_seed=seed, jitter=sc.default_jitter)
        path = tmp_path / f"{seed}.jsonl"
        save_trace(trace, path)
        # rendered frames hold C-order matrices, loaded ones column-major views
        for tr in (trace, load_trace(path)):
            frames = list(decimate(tr.frames, tr.source_fps, 10.0))
            block = frames_block(frames)
            pieces = block_pieces(block)
            rows = fit_boxes(pieces, len(block.ids), sc.screen_w, sc.screen_h)
            assert oracles.rects_of(rows) == _by_row(
                frames, map(oracles.analyze_frame_per_vertex, frames))
            _assert_reference_pieces(pieces, frames, screen)


@pytest.mark.parametrize("scene", [s.name for s in benchmark_scenes()])
def test_inscribed_rects_match_scalar_search_on_pack_pieces(scene):
    sc = benchmark_scene(scene)
    for seed in (1, 2):
        trace = generate_trace(sc, jitter_seed=seed, jitter=sc.default_jitter)
        x, y, counts, _ = block_pieces(
            frames_block(list(decimate(trace.frames, trace.source_fps, 10.0))))
        pieces = oracles.split_rows(x, y, counts)
        rows, passes = g.inscribed_rects(x, y, counts, sc.screen_w, sc.screen_h)
        assert oracles.rects_of(rows) == [
            oracles.inscribed_rect_pip(p, sc.screen_w, sc.screen_h) for p in pieces]
        assert max(passes, default=0) <= g.MAX_SHRINK_PASSES


def test_screen_clip_rows_match_clip_by_loop_on_pack_polygons():
    # every projected polygon of the pack in front of the camera, on screen or not
    clipped = 0
    for sc in benchmark_scenes():
        loop = g.clip_loop(screen_clip_polygon(sc.screen_w, sc.screen_h))
        for block in render_frames(sc, 1, keep=deadline_walk(sc.fps, 10.0)):
            counts = block.n_verts
            track_of = np.repeat(np.arange(len(counts)), counts)
            column = np.arange(len(track_of)) - (np.cumsum(counts) - counts)[track_of]
            owner = np.repeat(np.arange(len(block.t_ms)), block.n_trackables)
            x, y, behind = _project(block, np.arange(len(counts)), owner, block.verts,
                                    track_of, column)
            xy = list(zip(x.tolist(), y.tolist()))
            ends = np.cumsum(counts).tolist()
            polys = [xy[a:b] for a, b in zip([0, *ends], ends)
                     if not behind[a:b].any()]
            want = [oracles.clip_by_loop(p, *loop) for p in polys]
            assert repr(oracles.clip_rows_split(polys, loop)) == repr(want)
            clipped += sum(a != b for a, b in zip(polys, want))
    assert clipped > 100


def test_screen_clip_is_checked_once_per_run(monkeypatch):
    checked = []
    real = g.is_convex
    monkeypatch.setattr(g, "is_convex", lambda poly: checked.append(list(poly)) or real(poly))
    planes = [_plane("a", (-0.6, 0.0, 0.0), 0.3, 0.3), _plane("b", (0.6, 0.0, 0.0), 0.3, 0.3),
              _plane("c", (0.0, 0.5, 0.0), 0.2, 0.2)]
    frames = [_frame(planes, t_ms=100 * k) for k in range(5)]
    run = run_boxes(frame_blocks(frames))
    assert set(run.boxes) == {"a", "b", "c"}
    assert not any(np.isnan(boxes).any() for boxes in run.boxes.values())
    assert len(run.timestamps_ms) == len(frames)
    assert checked.count(screen_clip_polygon(W, H)) == 1


# ------------------------------------------ blocks against the per-frame path

SCREEN = g.clip_loop(screen_clip_polygon(W, H))   # the clip loop of the per-frame oracle
KINDS = ["flat", "tilted", "upright", "far", "nested", "twin"]


def _euler(rng):
    """A random rotation, Rz(a) Rx(b) Ry(c)."""
    (ca, sa), (cb, sb), (cc, sc) = ((math.cos(v), math.sin(v))
                                    for v in (rng.uniform(-math.pi, math.pi) for _ in range(3)))
    rz = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cb, -sb], [0.0, sb, cb]])
    ry = np.array([[cc, 0.0, sc], [0.0, 1.0, 0.0], [-sc, 0.0, cc]])
    return rz @ rx @ ry


def _outline(rng, size):
    """3 to 8 local (x, z) vertices: a convex polygon or a star, which may be concave."""
    n = rng.randint(3, 8)
    if rng.random() < 0.6:
        angles = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(n))
        return _xz([(size * math.cos(a), size * 0.7 * math.sin(a)) for a in angles])
    return _xz(oracles.random_star(rng, (0.0, 0.0), 0.4 * size, size, n))


def _random_block(seed, order):
    """A block of frames built to reach every branch of block_pieces.

    Trackables are TRACKING, PAUSED or STOPPED with 3 to 8 vertices.  Their
    planes may be tilted, straddle a screen edge, lie off screen, reach
    above the camera (vertices behind it), face away or lie edge-on, share
    the center of the one before (equal distances), or sit in a stack of
    shrinking copies nearer and nearer the camera (nested occluders).
    """
    rng = random.Random(seed)
    proj = perspective_matrix(60.0, W / H, 0.05, 100.0)
    frames = []
    for k in range(rng.randint(1, 6)):
        eye = np.array([rng.uniform(-1.0, 1.0), rng.uniform(1.5, 3.0), rng.uniform(-1.0, 1.0)])
        target = np.array([rng.uniform(-0.5, 0.5), 0.0, rng.uniform(-0.5, 0.5)])
        view = oracles.look_at_per_time(eye, target, np.array([0.0, 0.0, -1.0]))
        planes = []   # (rotation, center, outline)
        for _ in range(rng.randint(0, 5)):
            kind = rng.choice(KINDS)
            rot = np.eye(3)
            center = np.array([rng.uniform(-2.5, 2.5), rng.uniform(0.0, 0.8), rng.uniform(-2.0, 2.0)])
            size = rng.uniform(0.1, 1.2)
            if kind == "tilted":
                rot = _euler(rng)
            elif kind == "upright":
                # local z runs up the world y axis, from the floor to above the camera
                rot = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
                center = eye + np.array([rng.uniform(-0.5, 0.5), -eye[1], rng.uniform(-0.5, 0.5)])
                planes.append((rot, center, _xz([(-size, 0.0), (size, 0.0), (size, eye[1] + 1.0),
                                                 (-size, eye[1] + 1.0)])))
                continue
            elif kind == "far":
                center[0] = rng.choice([-30.0, 30.0])
            elif kind == "twin" and planes:
                center = planes[-1][1].copy()
            elif kind == "nested":
                # a star holds its scaled-down copies; each copy is lifted toward the camera,
                # over the point it looks at
                star = oracles.random_star(rng, (0.0, 0.0), 0.4 * size, size, rng.randint(3, 8))
                for level in range(rng.randint(2, 3)):
                    shrink = 0.5 ** level
                    planes.append((rot, target + np.array([0.0, 0.15 * level, 0.0]),
                                   _xz([(shrink * x, shrink * z) for x, z in star])))
                continue
            planes.append((rot, center, _outline(rng, size)))
        tracks = []
        for j, (rot, center, verts) in enumerate(planes):
            pose = np.eye(4)
            pose[:3, :3] = rot
            pose[:3, 3] = center
            normal = rot[:, 1].copy()
            facing = rng.random()
            if facing < 0.15:
                normal = -normal
            elif facing < 0.25:
                # to_camera has a zero z, so the dot product is exactly 0
                center = np.array([center[0], center[1], eye[2]])
                normal = np.array([0.0, 0.0, 1.0])
            state = rng.choice([TrackingState.TRACKING] * 4
                               + [TrackingState.PAUSED, TrackingState.STOPPED])
            tracks.append(TrackableSnapshot(f"p{j}", np.asarray(pose, order=order), verts,
                                            center, normal, state))
        frames.append(FrameRecord(100 * k, np.asarray(view, order=order),
                                  np.asarray(proj, order=order), eye, W, H, tuple(tracks)))
    return frames


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["C", "F"]))
def test_block_pieces_match_the_per_frame_reference(seed, order):
    frames = _random_block(seed, order)
    block = frames_block(frames)
    _assert_reference_pieces(block_pieces(block), frames)


def test_random_blocks_reach_every_case():
    seen = set()
    for seed in range(40):
        for f in _random_block(seed, "C"):
            candidates = []
            for t in f.trackables:
                seen.add(t.tracking_state)
                seen.add(len(t.local_vertices))
                if t.tracking_state != TrackingState.TRACKING:
                    continue
                poly = project_trackable(t, f)
                if poly is None:
                    seen.add("behind")
                    continue
                dot = float(np.dot(t.normal_world, f.camera_position - t.center_world))
                seen.add("back-facing" if dot < 0 else "edge-on" if dot == 0 else "facing")
                xs, ys = [p[0] for p in poly], [p[1] for p in poly]
                for name, vals, edge in (("left", xs, 0), ("right", xs, W), ("top", ys, 0),
                                         ("bottom", ys, H)):
                    if min(vals) < edge < max(vals):
                        seen.add(name)
                if len(oracles.clip_polygon(poly, screen_clip_polygon(W, H))) < 3:
                    seen.add("off screen")
                dist = float(np.linalg.norm(f.camera_position - t.center_world))
                if any(d == dist for d, _ in candidates):
                    seen.add("equal distance")
                candidates.append((dist, poly))
            for dist, poly in candidates:
                xs, ys = [p[0] for p in poly], [p[1] for p in poly]
                inside = [q for d, q in candidates if d < dist
                          and min(xs) < min(p[0] for p in q) and max(p[0] for p in q) < max(xs)
                          and min(ys) < min(p[1] for p in q) and max(p[1] for p in q) < max(ys)]
                if len(inside) >= 2:
                    seen.add("nested")
    wanted = {*TrackingState, *range(3, 9), "behind", "back-facing", "edge-on", "facing", "left",
              "right", "top", "bottom", "off screen", "equal distance", "nested"}
    assert wanted <= seen, wanted - seen


def test_random_blocks_reach_every_path_of_the_split(monkeypatch):
    # a row with a part to carve is (unchanged by convex_pieces, met by an occluder): the list
    # path calls subtract_occluders once a row, after convex_pieces unless the part is
    # unchanged; the one-piece path, (True, False), calls neither, so a block takes it when
    # more rows have pieces than subtract_occluders was called for
    seen, changed, calls = set(), [], []
    monkeypatch.setattr(visibility, "convex_pieces",
                        lambda part: changed.append(part) or g.convex_pieces(part))

    def subtract(pieces, occluders):
        seen.add((not changed, bool(occluders)))
        changed.clear()
        calls.append(pieces)
        return g.subtract_occluders(pieces, occluders)

    monkeypatch.setattr(visibility, "subtract_occluders", subtract)
    for seed in range(40):
        calls.clear()
        row = block_pieces(frames_block(_random_block(seed, "C")))[3]
        if len(set(row.tolist())) > len(calls):
            seen.add((True, False))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_fit_boxes_have_a_nan_row_exactly_where_the_reference_has_no_box():
    seen = set()
    for seed in range(40):
        frames = _random_block(seed, "C")
        block = frames_block(frames)
        pieces = block_pieces(block)
        rows = fit_boxes(pieces, len(block.ids), W, H)
        want = _by_row(frames, map(oracles.analyze_frame_per_vertex, frames))
        assert rows.shape == (len(block.ids), 4)
        assert oracles.rects_of(rows) == want   # None for a NaN row
        tracks = [(f, t) for f in frames for t in f.trackables]
        # the reference's pieces tell "off screen" (None) from "fully occluded" ([])
        entries = _by_row(frames, (oracles.frame_pieces(f, SCREEN) for f in frames))
        for (f, t), entry, box in zip(tracks, entries, want):
            if box is not None:
                continue
            if t.tracking_state != TrackingState.TRACKING:
                seen.add(t.tracking_state)
            elif project_trackable(t, f) is None:
                seen.add("behind")
            elif not facing_camera(t, f.camera_position):
                seen.add("back-facing")
            else:
                seen.add("off screen" if entry is None else "fully occluded" if entry == [] else
                         "no rect")
    wanted = {TrackingState.PAUSED, TrackingState.STOPPED, "behind", "back-facing", "off screen",
              "fully occluded", "no rect"}
    assert wanted <= seen, wanted - seen


def test_run_boxes_give_a_trackable_with_no_surface_an_all_nan_column():
    # "ghost" is listed from the second frame on, always PAUSED; "late" joins in the third
    table = _plane("table", (0.0, 0.0, 0.0), 1.0, 0.5)
    ghost = _plane("ghost", (0.5, 0.0, 0.0), 0.3, 0.3, state=TrackingState.PAUSED)
    late = _plane("late", (-1.5, 0.0, 0.0), 0.2, 0.2)
    frames = [_frame([table], t_ms=0), _frame([ghost, table], t_ms=100),
              _frame([late, table, ghost], t_ms=200)]
    run = run_boxes(frame_blocks(frames))
    assert list(run.boxes) == ["table", "ghost", "late"]
    assert not np.isnan(run.boxes["table"]).any()
    assert np.isnan(run.boxes["ghost"]).all() and run.boxes["ghost"].shape == (3, 4)
    assert np.isnan(run.boxes["late"]).all(axis=1).tolist() == [True, True, False]


# Frames whose view and projection are the identity, with trackables whose pose takes local
# (x, 0, z) to world (x, z, 0): a vertex lands where its local coordinates say in clip space,
# so polygons can be placed to the pixel, on a screen edge or at a box test's margin.
XZ_TO_XY = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
                     [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])


def _at_pixels(tid, poly_px, depth):
    """A trackable whose vertices land on the pixels poly_px of a frame from _pixel_frame."""
    local = _xz([(2.0 * px / W - 1.0, 1.0 - 2.0 * py / H) for px, py in poly_px])
    return TrackableSnapshot(tid, XZ_TO_XY, local, np.array([0.0, 0.0, -depth]),
                             np.array([0.0, 0.0, 1.0]), TrackingState.TRACKING)


def _pixel_frame(trackables, t_ms):
    return FrameRecord(t_ms, np.eye(4), np.eye(4), np.zeros(3), W, H, tuple(trackables))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_block_pieces_match_the_per_frame_reference_at_the_margins(seed):
    # subjects on a screen edge or corner, or with a side on one; occluders from overlapping
    # the subject's box to just past the 1 px margin of the box test, nearer, level or farther
    rng = random.Random(seed)
    frames = []
    for k in range(4):
        center = (rng.choice([0.0, W, rng.uniform(0.0, W)]), rng.choice([0.0, H, rng.uniform(0.0, H)]))
        if rng.random() < 0.3:
            x0, y0 = rng.choice([0.0, rng.uniform(0.0, W - 300.0)]), rng.uniform(0.0, H - 300.0)
            subject = [(x0, y0), (x0 + 300.0, y0), (x0 + 300.0, y0 + 200.0), (x0, y0 + 200.0)]
        elif rng.random() < 0.5:
            subject = oracles.random_star(rng, center, 80.0, 200.0, rng.randrange(3, 9))
        else:
            subject = oracles.random_convex(rng, center, 200.0, rng.randrange(3, 9))
        tracks = [_at_pixels("subject", subject, 5.0)]
        for j in range(rng.randrange(1, 4)):
            gap = rng.choice([-3.0, -0.5, -1e-3, 0.0, 1e-3, 0.5, 0.999, 1.0, 1.001, 3.0])
            band = oracles.band_beside(subject, rng.choice(["right", "left", "below", "above"]),
                                       gap, rng.uniform(1.0, 40.0))
            tracks.append(_at_pixels(f"band{j}", band, rng.choice([1.0, 2.0, 5.0, 7.0])))
        frames.append(_pixel_frame(tracks, 100 * k))
    _assert_reference_pieces(block_pieces(frames_block(frames)), frames)


def _huge_x(t):
    """t with column 0 of its pose scaled by 1e306: local x lands on non-finite pixels."""
    pose = t.pose.copy()
    pose[:, 0] *= 1e306
    return dataclasses.replace(t, pose=pose)


def test_block_pieces_raise_at_the_first_non_finite_projection():
    ok = _plane("ok", (0.0, 0.0, 0.0), 1.0, 1.0)
    huge = _huge_x(dataclasses.replace(ok, trackable_id="huge"))
    paused = dataclasses.replace(huge, tracking_state=TrackingState.PAUSED)
    frames = [_frame([ok, paused]), _frame([ok, huge], t_ms=100), _frame([huge], t_ms=200)]
    assert oracles.frame_pieces(frames[0], SCREEN)
    with pytest.raises(ArithmeticError):
        oracles.frame_pieces(frames[1], SCREEN)
    with pytest.raises(TraceValidationError,
                       match=r"^frame at 100 ms: trackable 'huge' vertex 0 \(-1\.0, -1\.0\) projects"):
        block_pieces(frames_block(frames))


@pytest.mark.parametrize("scale, raises", [(1e140, False), (1e155, True)])
def test_block_pieces_bound_huge_but_finite_pixels(scale, raises):
    # the lid sits 1 m above the table, between it and the camera; column 0 of its pose
    # scaled by 1e155 puts its pixels near 1e158, every one finite, where Python's ** 2 of
    # their differences overflows as the table's occluder is cut into convex pieces
    lid = _plane("lid", (0.0, 1.0, 0.0), 0.5, 0.5)
    pose = lid.pose.copy()
    pose[:, 0] *= scale
    frame = _frame([_plane("table", (0.0, 0.0, 0.0), 1.0, 1.0), dataclasses.replace(lid, pose=pose)])
    if not raises:
        _assert_reference_pieces(block_pieces(frames_block([frame])), [frame])
        return
    with pytest.raises(ArithmeticError):
        oracles.frame_pieces(frame, SCREEN)
    with pytest.raises(TraceValidationError) as exc:
        block_pieces(frames_block([frame]))
    assert str(exc.value) == ("frame at 0 ms: trackable 'lid' vertex 0 (-0.5, -0.5) projects to "
                              "screen coordinates that are not finite numbers within ±1e+150 px")
