from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np
import pytest

import oracles
from oracles import frame_blocks, frames_block, iter_blocks
from playtrace import simulator as simulator_module
from playtrace import trace as trace_module
from playtrace.pipeline import BOX_BLOCK_FRAMES, analyze_boxes, run_boxes
from playtrace.scenes import benchmark_scene, benchmark_scenes
from playtrace.scheduler import (
    DEFAULT_MIX,
    EventSchedule,
    GestureEvent,
    GestureKind,
    schedule_guided,
    schedule_random,
)
from playtrace.simulator import (
    CameraKeyframe,
    GestureOutcome,
    Jitter,
    OutcomeReason,
    SceneError,
    ScenePlane,
    SimScene,
    _cast,
    camera_poses,
    execute_schedule,
    frame_times,
    generate_trace,
    gsr_summary,
    load_scene,
    outcomes_to_dict,
    plane_detected,
    render_frames,
    save_scene,
    scene_from_dict,
    scene_to_dict,
)
from playtrace.trace import (
    FrameBlock,
    _take,
    block_records,
    deadline_walk,
    join_blocks,
    save_trace,
)

# straight-down camera at height 2 with a 60 degree vertical fov on a
# 1080px-tall screen puts 540*sqrt(3)/2 pixels on one meter at the floor
PX = 540.0 * math.sqrt(3.0) / 2.0


def _plane(pid="p", center=(0.0, 0.0, 0.0), eu=0.5, ev=0.4, **kw):
    return ScenePlane(
        plane_id=pid,
        center=np.array(center, dtype=float),
        normal=np.array([0.0, 1.0, 0.0]),
        axis_u=np.array([1.0, 0.0, 0.0]),
        axis_v=np.array([0.0, 0.0, 1.0]),
        extent_u=eu,
        extent_v=ev,
        **kw,
    )


def _scene(planes, duration=10000, fps=30.0, jitter=None, path=None):
    if path is None:
        path = (
            CameraKeyframe(
                0,
                np.array([0.0, 2.0, 0.0]),
                np.array([0.0, 0.0, 0.0]),
                np.array([0.0, 0.0, -1.0]),
            ),
        )
    return SimScene(
        name="test",
        screen_w=1920,
        screen_h=1080,
        fps=fps,
        duration_ms=duration,
        fov_y_deg=60.0,
        near_m=0.01,
        far_m=100.0,
        camera_path=path,
        planes=tuple(planes),
        default_jitter=jitter or Jitter(),
    )


def _screen(wx, wz):
    return (960.0 + PX * wx, 540.0 + PX * wz)


def test_scene_checks_itself_when_made():
    good = _scene([_plane()])
    for field, value in [
        ("screen_w", 0),
        ("fps", 0.0),
        ("fps", math.inf),
        ("fps", math.nan),
        ("duration_ms", -5),
        ("fov_y_deg", 180.0),
        ("near_m", 200.0),
        ("near_m", math.nan),
        ("far_m", math.inf),
        ("camera_path", ()),
        ("screen_w", 1920.5),
        ("screen_w", True),
        ("duration_ms", 6000.0),
        ("name", 5),
        ("planes", (_plane(5),)),
        ("planes", (_plane(""),)),
        ("camera_path", (dataclasses.replace(good.camera_path[0], t_ms=0.5),)),
        ("planes", (_plane(lost_intervals=((100, 200.5),)),)),
        # the type of each float field: a bool, a str or None is no number
        ("fps", "30"),
        ("fps", None),
        ("fps", True),
        ("fov_y_deg", "60"),
        ("near_m", None),
        ("far_m", True),
    ]:
        with pytest.raises(SceneError):
            dataclasses.replace(good, **{field: value})

    with pytest.raises(SceneError, match="duplicate"):
        _scene([_plane("a"), _plane("a", center=(2, 0, 0))])
    with pytest.raises(SceneError, match="unit length"):
        bad = _plane()
        object.__setattr__(bad, "normal", np.array([0.0, 2.0, 0.0]))
        _scene([bad])
    with pytest.raises(SceneError, match="orthogonal"):
        bad = _plane()
        object.__setattr__(bad, "axis_u", np.array([0.0, 1.0, 0.0]))
        _scene([bad])
    with pytest.raises(SceneError, match="extents"):
        _scene([_plane(eu=0.0)])
    with pytest.raises(SceneError, match="lost interval"):
        _scene([_plane(lost_intervals=((500, 400),))])


def test_scene_and_jitter_hold_their_float_fields_as_floats():
    # so a scene file's 30 is written back as 30.0, as when the loader converted it
    scene = dataclasses.replace(_scene([_plane()]), fps=30, near_m=1, far_m=100, fov_y_deg=60)
    assert [type(v) for v in (scene.fps, scene.fov_y_deg, scene.near_m, scene.far_m)] == [float] * 4
    assert [type(v) for v in dataclasses.astuple(Jitter(0, 1))] == [float, float]


@pytest.mark.parametrize("field", ["vertex_noise_m", "dropout_prob"])
@pytest.mark.parametrize("value", ["0.1", None, True], ids=["str", "none", "bool"])
def test_jitter_checks_the_type_of_each_field(field, value):
    with pytest.raises(SceneError, match=f"^jitter {field} must be a finite number, got "):
        Jitter(**{field: value})


@pytest.mark.parametrize("part, field, value, message", [
    ("plane", "center", np.array([0.0, 0.0]),
     "plane 'table' center must be a list of 3 finite numbers, got [0.0, 0.0]"),
    ("plane", "center", "abc", "plane 'table' center must be a list of 3 finite numbers, got 'abc'"),
    ("key", "position", np.array([0.0, 2.0]),
     "camera_path[0] pos must be a list of 3 finite numbers, got [0.0, 2.0]"),
    ("plane", "local_vertices", np.zeros((3, 3)),
     "plane 'table' verts must be a list of 2 finite numbers, got [0.0, 0.0, 0.0]"),
])
def test_scene_checks_the_shape_and_type_of_its_vectors(part, field, value, message):
    # each was accepted when made and failed later in numpy or as an AttributeError
    good = benchmark_scene("static-center")
    if part == "plane":
        change = {"planes": (dataclasses.replace(good.planes[0], **{field: value}),)}
    else:
        change = {"camera_path": (dataclasses.replace(good.camera_path[0], **{field: value}),)}
    with pytest.raises(SceneError) as exc:
        dataclasses.replace(good, **change)
    assert str(exc.value) == message


def test_scene_holds_its_vectors_as_read_only_float_arrays():
    # a list normal was an AttributeError, and tuple vertices are rows of 2 like an array's
    good = benchmark_scene("static-center")
    plane = dataclasses.replace(good.planes[0], normal=[0, 1, 0],
                                local_vertices=((-0.5, -0.5), (0.5, -0.5), (0, 0.5)))
    key = dataclasses.replace(good.camera_path[0], up=(0.0, 0.0, -1.0))
    scene = dataclasses.replace(good, planes=(plane,), camera_path=(key,))
    for v, shape in [(plane.normal, (3,)), (plane.center, (3,)), (plane.local_vertices, (3, 2)),
                     (key.up, (3,)), (key.position, (3,))]:
        assert isinstance(v, np.ndarray) and v.dtype == np.float64 and v.shape == shape
        assert not v.flags.writeable
    assert plane.normal.tolist() == [0.0, 1.0, 0.0]
    assert scene_to_dict(scene)["planes"][0]["verts"] == [[-0.5, -0.5], [0.5, -0.5], [0.0, 0.5]]


def test_keyframe_order_checked():
    k0 = CameraKeyframe(0, np.zeros(3) + (0, 2, 0), np.zeros(3), np.array([0.0, 0.0, -1.0]))
    k1 = CameraKeyframe(0, np.zeros(3) + (1, 2, 0), np.zeros(3), np.array([0.0, 0.0, -1.0]))
    with pytest.raises(SceneError, match="increasing"):
        _scene([_plane()], path=(k0, k1))


def test_scene_round_trip(tmp_path):
    scene = _scene(
        [
            _plane("a", detect_delay_ms=1500, lost_intervals=((3000, 4000),)),
            _plane("b", center=(1.5, 0.0, 0.2), eu=0.3, ev=0.3),
        ],
        jitter=Jitter(vertex_noise_m=0.004, dropout_prob=0.01),
    )
    d = scene_to_dict(scene)
    again = scene_from_dict(d)
    assert scene_to_dict(again) == d

    path = tmp_path / "scene.json"
    save_scene(scene, path)
    loaded = load_scene(path)
    assert scene_to_dict(loaded) == d
    # saving is deterministic
    save_scene(loaded, tmp_path / "b.json")
    assert (tmp_path / "b.json").read_bytes() == path.read_bytes()


def test_scene_from_dict_malformed():
    with pytest.raises(SceneError):
        scene_from_dict({"name": "x"})


def test_camera_pose_clamps_and_lerps():
    p0 = np.array([0.0, 2.0, 0.0])
    p1 = np.array([1.0, 2.0, 0.0])
    path = (
        CameraKeyframe(1000, p0, np.array([0.0, 0.0, 0.0]), np.array([0.0, 0.0, -1.0])),
        CameraKeyframe(3000, p1, np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, -1.0])),
    )
    scene = _scene([_plane()], path=path, duration=5000)
    eyes, _ = camera_poses(scene, [0, 4999, 2000])
    assert np.allclose(eyes[0], p0)
    assert np.allclose(eyes[1], p1)
    assert np.allclose(eyes[2], [0.5, 2.0, 0.0])


def test_frame_times_rounding():
    scene = _scene([_plane()], duration=100, fps=30.0)
    assert frame_times(scene) == [0, 33, 67]
    exact = _scene([_plane()], duration=1000, fps=10.0)
    assert frame_times(exact) == [0, 100, 200, 300, 400, 500, 600, 700, 800, 900]


def test_plane_detected_delay_and_loss():
    p = _plane(detect_delay_ms=1000, lost_intervals=((3000, 4000),))
    assert not plane_detected(p, 999)
    assert plane_detected(p, 1000)
    assert plane_detected(p, 2999)
    assert not plane_detected(p, 3000)
    assert not plane_detected(p, 3999)
    assert plane_detected(p, 4000)


def test_generate_trace_deterministic(tmp_path):
    scene = _scene([_plane()], jitter=Jitter(vertex_noise_m=0.01, dropout_prob=0.05))
    a = generate_trace(scene, jitter_seed=7)
    b = generate_trace(scene, jitter_seed=7)
    save_trace(a, tmp_path / "a.jsonl")
    save_trace(b, tmp_path / "b.jsonl")
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    c = generate_trace(scene, jitter_seed=8)
    save_trace(c, tmp_path / "c.jsonl")
    assert (tmp_path / "c.jsonl").read_bytes() != (tmp_path / "a.jsonl").read_bytes()


def test_generate_trace_clean_scene():
    scene = _scene([_plane()], duration=2000, fps=10.0)
    trace = generate_trace(scene)
    assert len(trace.frames) == 20
    for f in trace.frames:
        assert [t.trackable_id for t in f.trackables] == ["p"]
        assert f.trackables[0].local_vertices.tolist() == [
            [-0.5, -0.4], [0.5, -0.4], [0.5, 0.4], [-0.5, 0.4]]
    assert trace.metadata["scene"]["name"] == "test"
    assert trace.metadata["jitter"] == {"vertex_noise_m": 0.0, "dropout_prob": 0.0}


def test_generate_trace_detect_delay_and_loss():
    scene = _scene(
        [_plane(detect_delay_ms=500, lost_intervals=((1000, 1500),))],
        duration=2000,
        fps=10.0,
    )
    trace = generate_trace(scene)
    present = [f.timestamp_ms for f in trace.frames if f.trackables]
    expected = [t for t in range(0, 2000, 100) if 500 <= t and not (1000 <= t < 1500)]
    assert present == expected


def test_dropout_rate_is_plausible():
    scene = _scene([_plane()], duration=20000, fps=30.0)
    trace = generate_trace(scene, jitter_seed=3, jitter=Jitter(dropout_prob=0.2))
    n = len(trace.frames)
    assert n == 600
    missing = sum(1 for f in trace.frames if not f.trackables)
    sigma = math.sqrt(n * 0.2 * 0.8)
    assert abs(missing - n * 0.2) < 3 * sigma


def test_vertex_noise_perturbs_but_keeps_pose():
    scene = _scene([_plane()], duration=1000, fps=10.0)
    trace = generate_trace(scene, jitter_seed=1, jitter=Jitter(vertex_noise_m=0.01))
    clean = np.array([(-0.5, -0.4), (0.5, -0.4), (0.5, 0.4), (-0.5, 0.4)])
    for f in trace.frames:
        t = f.trackables[0]
        assert t.local_vertices.shape == clean.shape
        assert not np.array_equal(t.local_vertices, clean)
        assert (np.abs(t.local_vertices - clean) < 0.1).all()
        assert np.allclose(t.pose, _plane().pose())


def test_hit_test_center_and_corners():
    scene = _scene([_plane(eu=0.5, ev=0.4)])
    assert oracles.hit_ids(scene, 0, [(960.0, 540.0)]) == ["p"]
    assert oracles.hit_ids(scene, 0, [_screen(0.49, 0.39)]) == ["p"]
    assert oracles.hit_ids(scene, 0, [_screen(-0.49, -0.39)]) == ["p"]
    assert oracles.hit_ids(scene, 0, [_screen(0.52, 0.0)]) == [None]
    assert oracles.hit_ids(scene, 0, [_screen(0.0, 0.43)]) == [None]


def test_hit_test_prefers_nearest():
    below = _plane("floor", center=(0.0, 0.0, 0.0), eu=1.0, ev=1.0)
    above = _plane("shelf", center=(0.0, 0.5, 0.0), eu=0.2, ev=0.2)
    scene = _scene([below, above])
    assert oracles.hit_ids(scene, 0, [(960.0, 540.0)]) == ["shelf"]
    # past the shelf edge only the floor is under the ray
    assert oracles.hit_ids(scene, 0, [_screen(0.6, 0.0)]) == ["floor"]
    # on a tie between two planes at one depth the earlier plane wins
    left = _plane("left", center=(-0.2, 0.0, 0.0))
    right = _plane("right", center=(0.2, 0.0, 0.0))
    assert oracles.hit_ids(_scene([left, right]), 0, [(960.0, 540.0)]) == ["left"]
    assert oracles.hit_ids(_scene([right, left]), 0, [(960.0, 540.0)]) == ["right"]


def test_hit_test_detection_gate():
    scene = _scene([_plane(detect_delay_ms=5000)])
    assert oracles.hit_ids(scene, 1000, [(960.0, 540.0)]) == [None]
    # one pass also tells 'there but not tracked' from 'nothing there'
    best, over_any = _cast(scene, np.array([1000.0]), np.array([[[960.0, 540.0], [0.0, 0.0]]]))
    assert best.tolist() == [[-1, -1]]
    assert over_any.tolist() == [[True, False]]
    assert oracles.hit_ids(scene, 6000, [(960.0, 540.0)]) == ["p"]


def test_hit_test_polygon_plane():
    # right triangle occupying the u>=0, v>=0 quadrant corner
    tri = _plane(local_vertices=np.array([(0.0, 0.0), (0.4, 0.0), (0.0, 0.3)]))
    scene = _scene([tri])
    assert oracles.hit_ids(scene, 0, [_screen(0.05, 0.05)]) == ["p"]
    assert oracles.hit_ids(scene, 0, [_screen(0.3, 0.25)]) == [None]


def _sched(events):
    return EventSchedule("GUIDED", 0, dict(DEFAULT_MIX), tuple(events))


def _tap_event(point, t=1000):
    return GestureEvent(GestureKind.TAP, t, t + 50, (((t, point[0], point[1]),),), None)


def _drag_event(p0, p1, t=1000, dur=500):
    track = ((t, p0[0], p0[1]), (t + dur, p1[0], p1[1]))
    return GestureEvent(GestureKind.DRAG, t, t + dur, (track,), None)


def test_execute_schedule_hit_and_miss():
    scene = _scene([_plane()])
    ok = _tap_event((960.0, 540.0))
    sky = _tap_event(_screen(0.9, 0.0), t=2000)
    outcomes, summary = execute_schedule(scene, _sched([ok, sky]))
    assert [o.success for o in outcomes] == [True, False]
    assert outcomes[0].reason == OutcomeReason.HIT
    assert outcomes[1].reason == OutcomeReason.MISS_NO_PLANE
    assert summary["TAP"] == 0.5
    assert summary["overall"] == 0.5
    assert summary["DRAG"] is None


def test_execute_schedule_not_tracked():
    scene = _scene([_plane(detect_delay_ms=8000)])
    outcomes, _ = execute_schedule(scene, _sched([_tap_event((960.0, 540.0), t=1000)]))
    assert outcomes[0].reason == OutcomeReason.PLANE_NOT_TRACKED


def test_execute_schedule_left_plane():
    scene = _scene([_plane()])
    off = _drag_event(_screen(0.3, 0.0), _screen(0.8, 0.0))
    outcomes, _ = execute_schedule(scene, _sched([off]))
    assert outcomes[0].reason == OutcomeReason.LEFT_PLANE_MID_GESTURE
    assert not outcomes[0].success


def test_execute_schedule_split_targets():
    left = _plane("left", center=(-0.5, 0.0, 0.0), eu=0.5, ev=0.4)
    right = _plane("right", center=(0.5, 0.0, 0.0), eu=0.5, ev=0.4)
    scene = _scene([left, right])
    crossing = _drag_event(_screen(-0.3, 0.0), _screen(0.3, 0.0))
    outcomes, _ = execute_schedule(scene, _sched([crossing]))
    assert outcomes[0].reason == OutcomeReason.SPLIT_TARGETS


@pytest.mark.parametrize("name", ["static-duo", "drift-trio"])
def test_replay_reasons_match_two_pass_oracle(name):
    # static-duo detects its second mat late; drift-trio loses a pad mid-run
    scene = benchmark_scene(name)
    reasons = []
    for seed in (1, 2):
        sched = schedule_random((scene.screen_w, scene.screen_h), scene.duration_ms, seed)
        outcomes, _ = execute_schedule(scene, sched)
        for o in outcomes:
            assert o.reason.value == oracles.replay_reason_two_pass(scene, o.event)
            reasons.append(o.reason)
    assert OutcomeReason.PLANE_NOT_TRACKED in reasons
    assert OutcomeReason.MISS_NO_PLANE in reasons


def test_execute_schedule_past_duration():
    scene = _scene([_plane()], duration=2000)
    late = _tap_event((960.0, 540.0), t=1999)
    with pytest.raises(SceneError, match="past the scene duration"):
        execute_schedule(scene, _sched([late]))
    good = _tap_event((960.0, 540.0), t=100)
    late_drag = _drag_event((960.0, 540.0), (1000.0, 540.0), t=1800, dur=300)
    with pytest.raises(SceneError, match="past the scene duration"):
        execute_schedule(scene, _sched([good, late_drag]))


def test_gsr_summary_math():
    taps = [
        GestureOutcome(_tap_event((0, 0), t), ok, OutcomeReason.HIT if ok else OutcomeReason.MISS_NO_PLANE)
        for t, ok in ((100, True), (300, True), (500, False))
    ]
    drag = GestureOutcome(_drag_event((0, 0), (1, 1), 700), False, OutcomeReason.MISS_NO_PLANE)
    s = gsr_summary(taps + [drag])
    assert s["TAP"] == pytest.approx(2 / 3)
    assert s["DRAG"] == 0.0
    assert s["PINCH"] is None and s["ROTATE"] is None
    assert s["overall"] == pytest.approx(0.5)
    empty = gsr_summary([])
    assert empty["overall"] is None


def test_outcomes_to_dict_shape():
    scene = _scene([_plane()])
    outcomes, summary = execute_schedule(scene, _sched([_tap_event((960.0, 540.0))]))
    d = outcomes_to_dict(outcomes, summary)
    assert d["gsr"]["TAP"] == 1.0
    assert d["outcomes"] == [
        {
            "kind": "TAP",
            "t": [1000, 1050],
            "target": None,
            "success": True,
            "reason": "HIT",
        }
    ]


# ------------------------------------------- batched camera and replay vs oracles

PACK = [s.name for s in benchmark_scenes()]


def _assert_poses_match_oracle(scene, times):
    eyes, views = camera_poses(scene, times)
    assert eyes.shape == (len(times), 3) and views.shape == (len(times), 4, 4)
    for i, t in enumerate(times):
        eye, view = oracles.camera_pose_per_time(scene, t)
        assert np.array_equal(eyes[i], eye), (scene.name, t)
        assert np.array_equal(views[i], view), (scene.name, t)


@pytest.mark.parametrize("name", PACK)
def test_camera_poses_match_per_time_oracle(name):
    scene = benchmark_scene(name)
    first, last = scene.camera_path[0].t_ms, scene.camera_path[-1].t_ms
    keys = [k.t_ms for k in scene.camera_path]
    outside = [first - 250, first - 0.5, last + 0.5, last + 1000]
    _assert_poses_match_oracle(scene, frame_times(scene) + keys + outside)


def test_camera_poses_clamp_like_oracle():
    up = np.array([0.0, 0.0, -1.0])
    # 0.35 + (1.7 - 0.35) * 1.0 != 1.7: at 2000 ms the pose is the 1000-2000
    # segment's end, not the middle keyframe itself
    path = (
        CameraKeyframe(1000, np.array([0.35, 2.0, 0.0]), np.array([0.0, 0.0, 0.0]), up),
        CameraKeyframe(2000, np.array([1.7, 2.5, 0.3]), np.array([1.0, 0.0, 0.0]), up),
        CameraKeyframe(3000, np.array([1.0, 2.5, 0.3]), np.array([1.0, 0.0, 0.2]), up),
    )
    moving = _scene([_plane()], path=path, duration=5000)
    times = [0, 999.5, 1000, 1000.25, 1999, 2000, 2000.5, 2999, 3000, 3000.5, 4999]
    _assert_poses_match_oracle(moving, times)
    _assert_poses_match_oracle(_scene([_plane()]), [-100, 0, 0.5, 5000, 20000])


@pytest.mark.parametrize("name", PACK)
def test_replay_matches_per_sample_oracle(name):
    scene = benchmark_scene(name)
    for seed in (1, 2):
        trace = generate_trace(scene, seed * 100, scene.default_jitter)
        kept = oracles.decimate(trace.frames, trace.source_fps, 10.0)
        _per_run, final, _metrics = analyze_boxes([run_boxes(frame_blocks(kept))])
        guided = schedule_guided(final, scene.duration_ms, seed)
        rand = schedule_random((scene.screen_w, scene.screen_h), scene.duration_ms, seed)
        for sched in (guided, rand):
            expected = [
                GestureOutcome(ev, ok, OutcomeReason(reason))
                for ev, (ok, reason) in zip(sched.events, oracles.replay_per_sample(scene, sched))
            ]
            got = outcomes_to_dict(*execute_schedule(scene, sched))
            assert got == outcomes_to_dict(expected, gsr_summary(expected))


# SHA-256 of save_trace bytes, recorded before the camera path was batched:
# noisy-trio has dropout and vertex noise, orbit-one a moving camera.
_TRACE_DIGESTS = {
    ("noisy-trio", 1): "62f8fc2d50dcd4134e98e1eb91e3793befd04f4fc08125f36b873e5d6d8cf02b",
    ("noisy-trio", 2): "694c23dbc50dbf7b8d260417dc63cf42e6dd5e8fff71ba127fa0f357a8a9ff5e",
    ("orbit-one", 1): "2d3b512ad4c490d7c7159fb9acda6a491abc4708ec211460ab9bcc879f84d7ed",
    ("orbit-one", 2): "8531ce510e661acbbc456e082b64b9b945ad301b1d08742a1cdb395881d44256",
}


@pytest.mark.parametrize("name, seed", sorted(_TRACE_DIGESTS))
def test_trace_bytes_pinned(tmp_path, name, seed):
    path = tmp_path / "trace.jsonl"
    save_trace(generate_trace(benchmark_scene(name), jitter_seed=seed), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _TRACE_DIGESTS[(name, seed)]


def test_a_generated_trace_is_saved_without_records(tmp_path, monkeypatch):
    # generate_trace holds render_frames' blocks and save_trace writes them as they are
    def no_records(block):
        raise AssertionError("a FrameRecord was made")

    for module in (trace_module, simulator_module):   # the simulator imports none today
        monkeypatch.setattr(module, "block_records", no_records, raising=False)
    scene = benchmark_scene("noisy-trio")
    trace = generate_trace(scene, jitter_seed=1)
    path = tmp_path / "trace.jsonl"
    save_trace(trace, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _TRACE_DIGESTS[("noisy-trio", 1)]
    times = frame_times(scene)
    assert (trace.duration_ms, len(trace.frames)) == (times[-1], len(times))
    assert trace.frames is trace.frames
    monkeypatch.undo()
    assert trace.frames[0] is trace.frames[0]


def _assert_same_blocks(got, want):
    """Equal FrameBlocks, bit for bit and column for column, with one screen and order."""
    got, want = list(got), list(want)
    assert len(got) == len(want) > 0
    for a, b in zip(got, want):
        for name, x, y in zip(FrameBlock._fields, a, b):
            if type(y) is not np.ndarray:
                assert type(x) is type(y) and x == y, name
            else:
                assert x.dtype == y.dtype and x.shape == y.shape, name
                assert not x.size or x.strides[1:] == y.strides[1:], name   # a matrix's order
                assert x.tobytes() == y.tobytes(), name
                assert not x.flags.writeable, name


@pytest.mark.parametrize("name", PACK)
def test_render_frames_equal_the_decimated_full_render(name):
    # noisy-trio draws dropout and vertex noise: every draw of a dropped frame is still made
    scene = benchmark_scene(name)
    for seed in (1, 2):
        full = generate_trace(scene, seed)
        got = list(render_frames(scene, seed, keep=deadline_walk(scene.fps, 10.0)))
        assert all(len(b.t_ms) == BOX_BLOCK_FRAMES for b in got[:-1])
        assert not any(map(oracles.column_major, got))
        _assert_same_blocks(got, frame_blocks(oracles.decimate(full.frames, scene.fps, 10.0)))
        assert sum(len(b.t_ms) for b in got) < len(full.frames)


@pytest.mark.parametrize(
    "jitter",
    [Jitter(), Jitter(vertex_noise_m=0.004), Jitter(dropout_prob=0.2),
     Jitter(vertex_noise_m=0.004, dropout_prob=0.2)],
    ids=["none", "noise", "dropout", "both"],
)
@pytest.mark.parametrize("walked", [False, True], ids=["every-frame", "walked"])
def test_render_frames_draw_as_one_polygon_at_a_time(jitter, walked):
    # a run of polygons draws its noise at once, and the rows of frames the walk drops are
    # drawn and left out; planes of 4 and 3 vertices, one detected late, one lost a while
    tri = np.array([(0.0, 0.0), (0.4, 0.0), (0.0, 0.3)])
    scene = _scene([_plane("late", (-0.6, 0.0, 0.0), 0.3, 0.3, detect_delay_ms=400),
                    _plane("tri", (0.6, 0.0, 0.0), local_vertices=tri),
                    _plane("lost", (0.0, 0.0, 0.5), 0.2, 0.2, lost_intervals=((1000, 1600),))],
                   duration=30000)
    for seed in (1, 2, 3):
        keep = (lambda: deadline_walk(scene.fps, 10.0)) if walked else (lambda: None)
        got = list(render_frames(scene, seed, jitter, keep()))
        assert len(got) >= 2
        _assert_same_blocks(got, frame_blocks(oracles.render_per_polygon(scene, seed, jitter,
                                                                         keep())))


def test_one_normal_draw_is_its_split_draws_in_turn():
    # what render_frames' batched noise rests on: Generator.normal with a scalar loc and
    # scale fills its array element by element, so one draw of n rows equals draws of the
    # parts in turn, bit for bit, and leaves the generator where they leave it
    sizes = [4, 3, 1, 4, 7, 4] * 500
    one, split = np.random.default_rng(11), np.random.default_rng(11)
    whole = one.normal(0.0, 0.006, size=(sum(sizes), 2))
    parts = np.concatenate([split.normal(0.0, 0.006, size=(n, 2)) for n in sizes])
    assert whole.tobytes() == parts.tobytes()
    assert one.bit_generator.state == split.bit_generator.state
    assert one.random() == split.random()


@pytest.mark.parametrize("fps", [10.0, 7.5])
def test_render_frames_keep_every_frame_at_or_below_the_analysis_rate(fps):
    scene = dataclasses.replace(benchmark_scene("noisy-trio"), fps=fps)
    full = generate_trace(scene, 3)
    got = render_frames(scene, 3, keep=deadline_walk(fps, 10.0))
    _assert_same_blocks(got, frame_blocks(full.frames))


@pytest.mark.parametrize(
    "jitter", [Jitter(), Jitter(vertex_noise_m=0.004), Jitter(dropout_prob=0.2)],
    ids=["none", "noise-only", "dropout-only"],
)
def test_the_seed_changes_the_frames_only_when_the_jitter_draws(jitter):
    # Jitter.draws: a jitter that draws nothing leaves the generator unused, so two
    # seeds render bit-identical blocks, whole or walked
    scene = _scene([_plane()], duration=3000, jitter=jitter)
    assert jitter.draws == (jitter != Jitter())
    for keep in (lambda: None, lambda: deadline_walk(scene.fps, 10.0)):
        one, two = (list(render_frames(scene, seed, keep=keep())) for seed in (1, 2))
        columns = [[[c.tobytes() if type(c) is np.ndarray else c for c in b] for b in blocks]
                   for blocks in (one, two)]
        assert (columns[0] == columns[1]) == (not jitter.draws)
        if not jitter.draws:
            _assert_same_blocks(one, two)


def test_block_records_round_trip_the_blocks_of_both_producers(tmp_path):
    # the reader's blocks hold column-major matrices, walked ones taken rows;
    # the renderer's hold C-order ones and a broadcast projection
    scene = benchmark_scene("noisy-trio")
    path = tmp_path / "noisy.jsonl"
    save_trace(generate_trace(scene, 1), path)
    for produced in (iter_blocks(path), iter_blocks(path, deadline_walk(scene.fps, 10.0)),
                     render_frames(scene, 1), render_frames(scene, 2, keep=lambda t: t % 3 > 0)):
        produced = list(produced)
        _assert_same_blocks([frames_block(list(block_records(b))) for b in produced], produced)


def test_reader_blocks_are_column_major_and_rendered_ones_are_not(tmp_path):
    # on a screen of its own, so that no default stands in for it
    scene = dataclasses.replace(_scene([_plane()], duration=3000), screen_w=960, screen_h=540)
    path = tmp_path / "run.jsonl"
    save_trace(generate_trace(scene, 1), path)
    read = list(iter_blocks(path))
    rendered = list(render_frames(scene, 1))
    assert len(read) == 2 and len(rendered) == 1
    for blocks, col_major in ((read, True), (rendered, False)):
        assert {(b.screen, oracles.column_major(b)) for b in blocks} == {((960, 540), col_major)}
        # joined and walked blocks keep both
        joined = join_blocks([*blocks, *blocks])
        assert (joined.screen, oracles.column_major(joined)) == ((960, 540), col_major)
        taken = _take(joined, [k % 3 == 0 for k in range(len(joined.t_ms))])
        assert (taken.screen, oracles.column_major(taken)) == ((960, 540), col_major)
        assert taken.t_ms == joined.t_ms[::3]
    walked = list(iter_blocks(path, deadline_walk(scene.fps, 10.0)))
    assert {(b.screen, oracles.column_major(b)) for b in walked} == {((960, 540), True)}
    # blocks of both producers join in C order
    assert not oracles.column_major(join_blocks([*read, *rendered]))


def _assert_vertex_form(verts):
    """verts is what a snapshot holds: read-only float64 (n, 2) rows of (x, z), n >= 3."""
    assert type(verts) is np.ndarray and verts.dtype == np.float64
    assert verts.ndim == 2 and verts.shape[1] == 2 and len(verts) >= 3
    assert not verts.flags.writeable


def test_both_producers_yield_read_only_vertex_arrays(tmp_path):
    # noisy-trio draws vertex noise; a polygon plane joins its rectangles
    tri = _plane("tri", center=(0.0, 0.0, 1.0), local_vertices=np.array(
        [(0.0, 0.0), (0.4, 0.0), (0.0, 0.3)]))
    noisy = benchmark_scene("noisy-trio")
    noisy = dataclasses.replace(noisy, duration_ms=3000, planes=(*noisy.planes, tri))
    clean = dataclasses.replace(noisy, default_jitter=Jitter())
    path = tmp_path / "noisy.jsonl"
    save_trace(generate_trace(noisy, 1), path)
    produced = {"read": list(iter_blocks(path)), "rendered": list(render_frames(noisy, 1)),
                "clean": list(render_frames(clean, 1))}
    trackables = {kind: sum(len(b.ids) for b in blocks) for kind, blocks in produced.items()}
    assert trackables["read"] == trackables["rendered"] > 0
    # the blocks of both producers are read-only columns, and each frame's arrays view them
    for blocks in produced.values():
        for block in blocks:
            _assert_vertex_form(block.verts)
            assert not any(col.flags.writeable for col in block if isinstance(col, np.ndarray))
            for f in block_records(block):
                assert np.shares_memory(f.view, block.view)
                assert np.shares_memory(f.projection, block.proj)
                for t in f.trackables:
                    _assert_vertex_form(t.local_vertices)
                    assert np.shares_memory(t.local_vertices, block.verts)
                    assert np.shares_memory(t.pose, block.pose)


def test_execute_schedule_empty():
    outcomes, summary = execute_schedule(_scene([_plane()]), _sched([]))
    assert outcomes == []
    assert summary == {**{k.value: None for k in GestureKind}, "overall": None}


def _bad_camera_scene(path):
    return _scene([_plane()], duration=2000, path=path)


def test_camera_eye_on_target_rejected():
    up = np.array([0.0, 0.0, -1.0])
    # the eye and the target pass through (0, 1, 0) together at 1000 ms
    path = (
        CameraKeyframe(0, np.array([0.0, 2.0, 0.0]), np.array([0.0, 0.0, 0.0]), up),
        CameraKeyframe(2000, np.array([0.0, 0.0, 0.0]), np.array([0.0, 2.0, 0.0]), up),
    )
    still = (CameraKeyframe(0, np.array([0.0, 2.0, 0.0]), np.array([0.0, 2.0, 0.0]), up),)
    for scene in (_bad_camera_scene(path), _bad_camera_scene(still)):
        with pytest.raises(SceneError, match="coincide"):
            generate_trace(scene)
        with pytest.raises(SceneError, match="coincide"):
            execute_schedule(scene, _sched([_tap_event((960.0, 540.0), t=1000)]))


_HUGE_EYE = np.array([1.5e308, 1.5e308, 0.0])


@pytest.mark.parametrize(
    "path, message",
    [
        # keyframes whose own distances are finite interpolate past the float range
        ((CameraKeyframe(0, np.array([1e308, 2.0, 0.0]), np.array([1e308, 0.0, 0.0]),
                         np.array([0.0, 0.0, -1.0])),
          CameraKeyframe(2000, np.array([-1e308, 2.0, 0.0]), np.array([-1e308, 0.0, 0.0]),
                         np.array([0.0, 0.0, -1.0]))),
         "camera distance to the look-at target overflows a float"),
        # a finite view direction and right axis, but a translation s . eye past the range
        ((CameraKeyframe(0, _HUGE_EYE, _HUGE_EYE + (0.0, 0.0, -1.0), np.array([-0.8, 0.6, 0.0])),),
         "camera position is too far from the origin: its view matrix overflows a float"),
    ],
    ids=["interpolated", "translation"],
)
@pytest.mark.filterwarnings("error")  # an overflow warning escapes as an exception
def test_camera_past_the_float_range_rejected(path, message):
    with pytest.raises(SceneError) as exc:
        generate_trace(_bad_camera_scene(path))
    assert str(exc.value) == message


def test_camera_up_parallel_to_view_rejected():
    down = (
        CameraKeyframe(
            0, np.array([0.0, 2.0, 0.0]), np.array([0.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
        ),
    )
    scene = _bad_camera_scene(down)
    with pytest.raises(SceneError, match="parallel"):
        generate_trace(scene)
    with pytest.raises(SceneError, match="parallel"):
        execute_schedule(scene, _sched([_tap_event((960.0, 540.0), t=1000)]))
    with pytest.raises(SceneError, match="parallel"):
        camera_poses(scene, [500])
