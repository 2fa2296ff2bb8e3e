"""Synthetic scene simulator.

A scene is a handful of flat rectangular (or polygonal) surfaces in world
space plus a camera path.  From it the simulator renders a playback trace
(optionally with vertex noise and frame dropout), answers ground-truth hit
tests by casting rays against the surfaces, and executes gesture schedules
to measure how many gestures stay on a single tracked surface from start to
finish.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from enum import Enum
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .geometry import PARALLEL_EPS, EdgeLoops, dot_rows, odd_crossings, simple_polygons
from .jsonin import (
    UNIT_EPS, dump_json, finite, integer, load_json, non_empty_string, numbers, unit,
)
from .scheduler import EventSchedule, GestureEvent, GestureKind
from .pipeline import BOX_BLOCK_FRAMES
from .trace import (
    MAX_SCREEN_PX, FrameBlock, PlaybackTrace, TraceFrames, TrackingState, blocks,
)

_HIT_EPS_M = 1e-9         # slack when testing a hit point against surface bounds
MIN_PATH_SAMPLES = 10     # gesture paths are checked at no fewer points than this
MAX_SCENE_FRAMES = 1_000_000  # frames one rendered trace may hold: 9.3 h at 30 fps


class SceneError(ValueError):
    """The scene description is inconsistent."""


@dataclass(frozen=True)
class ScenePlane:
    """One flat surface: center, unit normal and two unit in-plane axes."""

    plane_id: str
    center: np.ndarray
    normal: np.ndarray
    axis_u: np.ndarray
    axis_v: np.ndarray
    extent_u: float           # half extent along axis_u, meters
    extent_v: float
    detect_delay_ms: int = 0
    lost_intervals: tuple[tuple[int, int], ...] = ()
    local_vertices: np.ndarray | None = None  # (n, 2) rows of (x, z); None = the full rectangle

    def vertices(self) -> np.ndarray:
        """The polygon as (n, 2) rows of (x, z): local_vertices or the full rectangle."""
        eu, ev = self.extent_u, self.extent_v
        return (np.array([(-eu, -ev), (eu, -ev), (eu, ev), (-eu, ev)])
                if self.local_vertices is None else self.local_vertices)

    def pose(self) -> np.ndarray:
        """Local (x, y, z) -> world, with y along the normal."""
        m = np.eye(4)
        m[:3, 0] = self.axis_u
        m[:3, 1] = self.normal
        m[:3, 2] = self.axis_v
        m[:3, 3] = self.center
        return m


@dataclass(frozen=True)
class CameraKeyframe:
    t_ms: int
    position: np.ndarray
    look_at: np.ndarray
    up: np.ndarray


@dataclass(frozen=True)
class Jitter:
    """Per-run recording imperfections."""

    vertex_noise_m: float = 0.0
    dropout_prob: float = 0.0

    def __post_init__(self) -> None:
        # comparisons with NaN are false, so NaN fails both checks
        if not 0.0 <= self.vertex_noise_m < math.inf:
            raise SceneError(
                f"jitter vertex_noise_m must be a finite number >= 0, got {self.vertex_noise_m}"
            )
        if not 0.0 <= self.dropout_prob <= 1.0:
            raise SceneError(f"jitter dropout_prob must be in [0, 1], got {self.dropout_prob}")

    @property
    def draws(self) -> bool:
        """Whether rendering draws from the jitter generator.

        A jitter that draws nothing renders the same frames for every seed.
        """
        return self.vertex_noise_m > 0.0 or self.dropout_prob > 0.0


@dataclass(frozen=True)
class SimScene:
    name: str
    screen_w: int
    screen_h: int
    fps: float
    duration_ms: int
    fov_y_deg: float
    near_m: float
    far_m: float
    camera_path: tuple[CameraKeyframe, ...]
    planes: tuple[ScenePlane, ...]
    default_jitter: Jitter = field(default_factory=Jitter)


def validate_scene(scene: SimScene) -> SimScene:
    """scene, when its fields are consistent; a SceneError names the first fault.

    scene_from_dict checks each field of a scene file as it enters; these
    checks also hold for scenes built in code.
    """
    try:
        _check_scene(scene)
    except ValueError as exc:  # a jsonin checker's, or a SceneError
        raise SceneError(str(exc)) from None
    return scene


def _check_scene(scene: SimScene) -> None:
    if not isinstance(scene.name, str):
        raise SceneError(f"name must be a string, got {scene.name!r}")
    integer(scene.screen_w, "screen")
    integer(scene.screen_h, "screen")
    integer(scene.duration_ms, "duration_ms")
    if not (0 < scene.screen_w <= MAX_SCREEN_PX and 0 < scene.screen_h <= MAX_SCREEN_PX):
        raise SceneError(f"screen dimensions must be positive (at most {MAX_SCREEN_PX})")
    # comparisons with NaN are false, so NaN fails these checks
    if not 0.0 < scene.fps < math.inf or scene.duration_ms <= 0:
        raise SceneError("fps and duration must be positive, and fps finite")
    if 1000.0 / scene.fps == math.inf:  # frame_times rounds k * 1000 / fps to an int
        raise SceneError(f"fps {scene.fps} is too small: its frame period overflows a float")
    # compared as duration_ms > budget * 1000 / fps, which is inf, not an error, for a tiny fps
    if scene.duration_ms > MAX_SCENE_FRAMES * 1000.0 / scene.fps:
        raise SceneError(
            f"fps {scene.fps} and duration_ms {scene.duration_ms} make more than "
            f"{MAX_SCENE_FRAMES} frames, the budget for one trace"
        )
    if not (0.0 < scene.fov_y_deg < 180.0):
        raise SceneError("fov_y_deg must be in (0, 180)")
    if not (0.0 < scene.near_m < scene.far_m < math.inf):
        raise SceneError("need 0 < near < far < inf")
    # perspective_matrix divides by the tangent of half the fov, which is 0 for a tiny fov
    if math.tan(math.radians(scene.fov_y_deg) / 2.0) == 0.0 or not np.isfinite(perspective_matrix(
            scene.fov_y_deg, scene.screen_w / scene.screen_h, scene.near_m, scene.far_m)).all():
        raise SceneError(f"fov_y_deg {scene.fov_y_deg}, near_m {scene.near_m} and far_m "
                         f"{scene.far_m} make a projection matrix past the float range")
    if not scene.camera_path:
        raise SceneError("camera path needs at least one keyframe")
    times = [integer(k.t_ms, f"camera_path[{i}] t_ms") for i, k in enumerate(scene.camera_path)]
    if times != sorted(times) or len(set(times)) != len(times):
        raise SceneError("camera keyframes must have strictly increasing times")
    if times[0] < 0 or times[-1] > scene.duration_ms:
        raise SceneError("camera keyframe times must lie within the scene duration")
    for i, k in enumerate(scene.camera_path):
        for name, v in (("pos", k.position), ("look_at", k.look_at), ("up", k.up)):
            for x in np.ravel(v).tolist():
                finite(x, f"camera_path[{i}] {name}")
    seen: set[str] = set()
    for p in scene.planes:
        non_empty_string(p.plane_id, "plane id")
        if p.plane_id in seen:
            raise SceneError(f"duplicate plane id '{p.plane_id}'")
        seen.add(p.plane_id)
        where = f"plane '{p.plane_id}'"
        for name, v in (
            ("center", p.center), ("normal", p.normal), ("axis_u", p.axis_u),
            ("axis_v", p.axis_v), ("extents", (p.extent_u, p.extent_v)),
            ("verts", () if p.local_vertices is None else p.local_vertices),
        ):
            for x in np.ravel(v).tolist():
                finite(x, f"{where} {name}")
        if p.local_vertices is not None and not (  # the trace reader's polygon rule
                len(p.local_vertices) >= 3 and simple_polygons([p.local_vertices])[0]):
            raise SceneError(f"{where} verts must be a simple polygon of at least 3 vertices, "
                             f"got {p.local_vertices.tolist()!r}")
        for name in ("normal", "axis_u", "axis_v"):
            unit(getattr(p, name), f"{where} {name}")
        for a, b, names in (
            (p.axis_u, p.normal, "axis_u/normal"),
            (p.axis_v, p.normal, "axis_v/normal"),
            (p.axis_u, p.axis_v, "axis_u/axis_v"),
        ):
            if abs(float(np.dot(a, b))) > UNIT_EPS:
                raise SceneError(f"plane '{p.plane_id}': {names} must be orthogonal")
        if p.extent_u <= 0 or p.extent_v <= 0:
            raise SceneError(f"plane '{p.plane_id}': extents must be positive")
        # times are compared with float arrays, so they must fit a float exactly
        integer(p.detect_delay_ms, f"{where} detect_delay_ms")
        for interval in p.lost_intervals:
            s, e = (integer(t, f"{where} lost_intervals") for t in interval)
            if not 0 <= s < e:
                raise SceneError(f"plane '{p.plane_id}': bad lost interval [{s}, {e}]")


def jitter_from_dict(jd: Any) -> Jitter:
    """Jitter from its JSON object (a scene's or a trace's); missing fields are 0."""
    if not isinstance(jd, dict):
        raise SceneError(f"jitter must be an object, got {type(jd).__name__}")
    return Jitter(
        vertex_noise_m=finite(jd.get("vertex_noise_m", 0.0), "jitter vertex_noise_m"),
        dropout_prob=finite(jd.get("dropout_prob", 0.0), "jitter dropout_prob"),
    )


def _plane_from_dict(pd: dict) -> ScenePlane:
    try:
        pid = non_empty_string(pd["id"], "plane id")
    except ValueError as exc:  # a SceneError, which scene_from_dict passes on unprefixed
        raise SceneError(str(exc)) from None
    where = f"plane '{pid}'"
    extent_u, extent_v = numbers(pd["extents"], 2, f"{where} extents").tolist()
    lost = pd.get("lost_intervals", [])
    if not (isinstance(lost, list) and all(isinstance(iv, list) and len(iv) == 2 for iv in lost)):
        raise ValueError(f"{where} lost_intervals must be a list of [start, end] pairs, "
                         f"got {lost!r}")
    return ScenePlane(
        plane_id=pid,
        center=numbers(pd["center"], 3, f"{where} center"),
        normal=numbers(pd["normal"], 3, f"{where} normal"),
        axis_u=numbers(pd["axis_u"], 3, f"{where} axis_u"),
        axis_v=numbers(pd["axis_v"], 3, f"{where} axis_v"),
        extent_u=extent_u,
        extent_v=extent_v,
        detect_delay_ms=integer(pd.get("detect_delay_ms", 0), f"{where} detect_delay_ms"),
        lost_intervals=tuple(
            (integer(s, f"{where} lost_intervals"), integer(e, f"{where} lost_intervals"))
            for s, e in lost
        ),
        local_vertices=(np.array([numbers(xz, 2, f"{where} verts") for xz in pd["verts"]])
                        .reshape(-1, 2) if "verts" in pd else None),
    )


def scene_from_dict(d: dict) -> SimScene:
    try:
        planes = tuple(_plane_from_dict(pd) for pd in d["planes"])
        path = tuple(
            CameraKeyframe(
                t_ms=integer(kd["t_ms"], f"camera_path[{i}] t_ms"),
                position=numbers(kd["pos"], 3, f"camera_path[{i}] pos"),
                look_at=numbers(kd["look_at"], 3, f"camera_path[{i}] look_at"),
                up=numbers(kd.get("up", [0.0, 1.0, 0.0]), 3, f"camera_path[{i}] up"),
            )
            for i, kd in enumerate(d["camera_path"])
        )
        scene = SimScene(
            name=d.get("name", ""),
            screen_w=integer(d["screen"][0], "screen"),
            screen_h=integer(d["screen"][1], "screen"),
            fps=finite(d["fps"], "fps"),
            duration_ms=integer(d["duration_ms"], "duration_ms"),
            fov_y_deg=finite(d["intrinsics"]["fov_y_deg"], "fov_y_deg"),
            near_m=finite(d["intrinsics"]["near_m"], "near_m"),
            far_m=finite(d["intrinsics"]["far_m"], "far_m"),
            camera_path=path,
            planes=planes,
            default_jitter=jitter_from_dict(d.get("jitter", {})),
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        if isinstance(exc, SceneError):
            raise
        raise SceneError(f"malformed scene: {exc}") from None
    return validate_scene(scene)


def scene_to_dict(scene: SimScene) -> dict:
    return {
        "name": scene.name,
        "screen": [scene.screen_w, scene.screen_h],
        "fps": scene.fps,
        "duration_ms": scene.duration_ms,
        "intrinsics": {
            "fov_y_deg": scene.fov_y_deg,
            "near_m": scene.near_m,
            "far_m": scene.far_m,
        },
        "camera_path": [
            {
                "t_ms": k.t_ms,
                "pos": [float(v) for v in k.position],
                "look_at": [float(v) for v in k.look_at],
                "up": [float(v) for v in k.up],
            }
            for k in scene.camera_path
        ],
        "planes": [
            {
                "id": p.plane_id,
                "center": [float(v) for v in p.center],
                "normal": [float(v) for v in p.normal],
                "axis_u": [float(v) for v in p.axis_u],
                "axis_v": [float(v) for v in p.axis_v],
                "extents": [p.extent_u, p.extent_v],
                "detect_delay_ms": p.detect_delay_ms,
                "lost_intervals": [[s, e] for s, e in p.lost_intervals],
                **({} if p.local_vertices is None else {"verts": p.local_vertices.tolist()}),
            }
            for p in scene.planes
        ],
        "jitter": asdict(scene.default_jitter),
    }


def load_scene(path: str | Path) -> SimScene:
    try:
        d = load_json(path)
    except ValueError as exc:
        raise SceneError(str(exc)) from None
    return scene_from_dict(d)


def save_scene(scene: SimScene, path: str | Path) -> None:
    dump_json(scene_to_dict(scene), path)


def perspective_matrix(fov_y_deg: float, aspect: float, near: float, far: float) -> np.ndarray:
    """Standard OpenGL-style perspective projection (right-handed, looks down -z)."""
    g = 1.0 / math.tan(math.radians(fov_y_deg) / 2.0)
    m = np.zeros((4, 4))
    m[0, 0] = g / aspect
    m[1, 1] = g
    m[2, 2] = (far + near) / (near - far)
    m[2, 3] = 2.0 * far * near / (near - far)
    m[3, 2] = -1.0
    m.flags.writeable = False
    return m


def _look_at_rows(eye: np.ndarray, target: np.ndarray, up: np.ndarray) -> np.ndarray:
    """World -> camera matrices (n, 4, 4), one per row of eye, target and up."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        f = target - eye
        fn = np.sqrt(dot_rows(f, f))
        f = f / fn[:, None]
        s = np.cross(f, up)
        sn = np.sqrt(dot_rows(s, s))
        s = s / sn[:, None]
        u = np.cross(s, f)
        m = np.zeros((len(eye), 4, 4))
        m[:, 0, :3] = s
        m[:, 1, :3] = u
        m[:, 2, :3] = -f
        m[:, 0, 3] = -dot_rows(s, eye)
        m[:, 1, 3] = -dot_rows(u, eye)
        m[:, 2, 3] = dot_rows(f, eye)
        m[:, 3, 3] = 1.0
    # comparisons with NaN are false, so a NaN length fails these checks
    ok = (PARALLEL_EPS <= fn) & (fn < np.inf) & (PARALLEL_EPS <= sn) & (sn < np.inf)
    bad = np.flatnonzero(~(ok & np.isfinite(m).all(axis=(1, 2))))
    if bad.size:
        k = bad[0]
        if fn[k] < PARALLEL_EPS:
            raise SceneError("camera position and look-at target coincide")
        if not fn[k] < np.inf:
            raise SceneError("camera distance to the look-at target overflows a float")
        if sn[k] < PARALLEL_EPS:
            raise SceneError("camera up vector is parallel to the view direction")
        if not sn[k] < np.inf:
            raise SceneError("camera up vector is too long: its cross product overflows a float")
        raise SceneError("camera position is too far from the origin: its view matrix "
                         "overflows a float")
    m.flags.writeable = False
    return m


def camera_poses(
    scene: SimScene, times: Sequence[float] | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Camera positions (T, 3) and view matrices (T, 4, 4) at each of T times.

    Keyframes are interpolated linearly; a time at or outside the first or
    last keyframe takes that keyframe as it is.
    """
    path = scene.camera_path
    t = np.asarray(times, dtype=float).reshape(-1)
    key_t = np.array([k.t_ms for k in path], dtype=float)
    keys = np.array([(k.position, k.look_at, k.up) for k in path])
    rows = np.where((t <= key_t[0])[:, None, None], keys[0], keys[-1])
    inner = (t > key_t[0]) & (t < key_t[-1])
    if inner.any():
        # at an inner keyframe's own time this is the end of the segment before it
        hi = np.searchsorted(key_t, t[inner], side="left")
        f = (t[inner] - key_t[hi - 1]) / (key_t[hi] - key_t[hi - 1])
        with np.errstate(over="ignore"):  # past the float range: _look_at_rows rejects that camera
            rows[inner] = keys[hi - 1] + (keys[hi] - keys[hi - 1]) * f[:, None, None]
    eyes = rows[:, 0].copy()
    eyes.flags.writeable = False
    return eyes, _look_at_rows(eyes, rows[:, 1], rows[:, 2])


def plane_detected(plane: ScenePlane, t_ms: float | np.ndarray) -> bool | np.ndarray:
    """Whether tracking reports the plane at time t (delay and loss, not dropout).

    Elementwise for an array of times.
    """
    t = np.asarray(t_ms)
    detected = t >= plane.detect_delay_ms
    for s, e in plane.lost_intervals:
        detected = detected & ((t < s) | (t >= e))
    return detected


def frame_times(scene: SimScene) -> list[int]:
    times = []
    k = 0
    while True:
        t = int(round(k * 1000.0 / scene.fps))
        if t >= scene.duration_ms:
            break
        times.append(t)
        k += 1
    return times


def render_frames(
    scene: SimScene,
    jitter_seed: int = 0,
    jitter: Jitter | None = None,
    keep: Callable[[int], bool] | None = None,
) -> Iterator[FrameBlock]:
    """Render the scene's frames as FrameBlocks, building only the frames keep accepts.

    Dropout makes a detected plane vanish from single frames at random;
    vertex noise perturbs the reported polygon corners in the plane's local
    frame.  Both draw from one generator seeded with jitter_seed.  Every
    frame of frame_times(scene) makes its draws in order, but only the
    frames whose timestamps keep (a decimation predicate such as
    deadline_walk's, asked about every timestamp in order) accepts are
    built, so the frames yielded equal those of the full render that keep
    accepts.  Without keep every frame is built.  Each block holds
    BOX_BLOCK_FRAMES frames, the last one fewer; every matrix is in C order,
    and a block's projection is one matrix, broadcast.
    """
    validate_scene(scene)
    if jitter is None:
        jitter = scene.default_jitter
    rng = np.random.default_rng(jitter_seed)
    aspect = scene.screen_w / scene.screen_h
    proj = perspective_matrix(scene.fov_y_deg, aspect, scene.near_m, scene.far_m).reshape(1, 4, 4)
    times = frame_times(scene)
    kept = [keep is None or keep(t) for t in times]
    kept_times = [t for t, k in zip(times, kept) if k]
    eyes, views = camera_poses(scene, kept_times)
    planes = scene.planes
    detected = [plane_detected(p, np.array(times)).tolist() for p in planes]
    # a row per plane: each block takes the rows of the planes its frames show
    poses = np.array([p.pose() for p in planes]).reshape(-1, 4, 4)
    centers = np.array([p.center for p in planes], dtype=float).reshape(-1, 3)
    normals = np.array([p.normal for p in planes], dtype=float).reshape(-1, 3)
    shapes = [p.vertices() for p in planes]

    def shown() -> Iterator[list[tuple[int, np.ndarray]]]:
        """(plane index, polygon) of each trackable of each kept frame; every frame draws."""
        for i in range(len(times)):
            if not (kept[i] or jitter.draws):
                continue  # a frame that is neither built nor draws jitter
            tracks = []
            for k, verts in enumerate(shapes):
                if not detected[k][i] or (
                        jitter.dropout_prob > 0.0 and rng.random() < jitter.dropout_prob):
                    continue
                if jitter.vertex_noise_m > 0.0:
                    verts = verts + rng.normal(0.0, jitter.vertex_noise_m, size=(len(verts), 2))
                tracks.append((k, verts))
            if kept[i]:  # else its draws are made, but the frame is not built
                yield tracks

    start = 0
    for part in blocks(shown(), BOX_BLOCK_FRAMES):
        end, tracks = start + len(part), list(chain.from_iterable(part))
        rows = np.array([k for k, _ in tracks], dtype=int)
        block = FrameBlock(
            screen=(scene.screen_w, scene.screen_h), t_ms=kept_times[start:end],
            view=views[start:end], proj=np.broadcast_to(proj, (len(part), 4, 4)),
            cam_pos=eyes[start:end], n_trackables=np.array(list(map(len, part)), dtype=int),
            ids=[planes[k].plane_id for k in rows.tolist()],
            states=[TrackingState.TRACKING] * len(rows),
            pose=poses[rows], center=centers[rows], normal=normals[rows],
            n_verts=np.array([len(v) for _, v in tracks], dtype=int),
            verts=np.concatenate([np.zeros((0, 2)), *(v for _, v in tracks)]),
        )
        for col in block:
            if type(col) is np.ndarray:
                col.flags.writeable = False
        yield block
        start = end


def generate_trace(
    scene: SimScene,
    jitter_seed: int = 0,
    jitter: Jitter | None = None,
) -> PlaybackTrace:
    """Render every frame of the scene into a playback trace held as render_frames' blocks.

    Equal (scene, seed, jitter) inputs give byte-identical traces.
    """
    if jitter is None:
        jitter = scene.default_jitter
    frames = TraceFrames(render_frames(scene, jitter_seed, jitter))
    meta = {
        "scene": scene_to_dict(scene),
        "jitter": asdict(jitter),
        "jitter_seed": jitter_seed,
    }
    return PlaybackTrace(frames=frames, source_fps=scene.fps, metadata=meta)


def _cast(
    scene: SimScene, times: np.ndarray, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One ray pass for (g, k, 2) screen points: k points at each of g times.

    Returns, per point, the index into scene.planes of the nearest tracked
    surface (-1 for sky, or where tracking does not report the surface at
    that time) and whether the point lies over any surface, tracked or not.
    The camera and the inverse of proj @ view are computed once per distinct
    time.  Each time's k points go through the same matrix products as a
    cast of those k points alone, so the rays do not depend on the batch.
    """
    uniq, inverse = np.unique(times, return_inverse=True)
    eyes, views = camera_poses(scene, uniq)
    aspect = scene.screen_w / scene.screen_h
    proj = perspective_matrix(scene.fov_y_deg, aspect, scene.near_m, scene.far_m)
    inv_t = np.linalg.inv(proj @ views)[inverse].transpose(0, 2, 1)
    eye = eyes[inverse][:, None, :]
    # A ray along a plane meets it at inf or NaN, and a touch far off screen can carry
    # its ray past the float range; comparisons with NaN are false, so neither hits.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x_ndc = 2.0 * points[..., 0] / scene.screen_w - 1.0
        y_ndc = 1.0 - 2.0 * points[..., 1] / scene.screen_h
        clip = np.stack([x_ndc, y_ndc, np.ones_like(x_ndc), np.ones_like(x_ndc)], axis=-1)
        world = clip @ inv_t
        world = world[..., :3] / world[..., 3:4]
        dirs = world - eye
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
        best_t = np.full(x_ndc.shape, np.inf)
        best = np.full(x_ndc.shape, -1)
        over_any = np.zeros(x_ndc.shape, dtype=bool)
        for i, plane in enumerate(scene.planes):
            denom = dirs @ plane.normal
            to_plane = dot_rows(np.broadcast_to(plane.normal, eyes.shape), plane.center - eyes)
            t_ray = to_plane[inverse][:, None] / denom
            valid = (np.abs(denom) > PARALLEL_EPS) & (t_ray > PARALLEL_EPS)
            if not np.any(valid):
                continue
            rel = eye + dirs * t_ray[..., None] - plane.center
            a = rel @ plane.axis_u
            b = rel @ plane.axis_v
            if plane.local_vertices is None:
                inside = (np.abs(a) <= plane.extent_u + _HIT_EPS_M) & (
                    np.abs(b) <= plane.extent_v + _HIT_EPS_M
                )
            else:
                loops = EdgeLoops.of([plane.local_vertices])
                inside = odd_crossings(loops, a[..., None], b[..., None])
            over_any |= valid & inside
            hit = valid & inside & plane_detected(plane, times)[:, None] & (t_ray < best_t)
            best_t[hit] = t_ray[hit]
            best[hit] = i
    return best, over_any


class OutcomeReason(str, Enum):
    HIT = "HIT"
    MISS_NO_PLANE = "MISS_NO_PLANE"
    LEFT_PLANE_MID_GESTURE = "LEFT_PLANE_MID_GESTURE"
    PLANE_NOT_TRACKED = "PLANE_NOT_TRACKED"
    SPLIT_TARGETS = "SPLIT_TARGETS"


@dataclass(frozen=True)
class GestureOutcome:
    event: GestureEvent
    success: bool
    reason: OutcomeReason


def _track_positions(track: Sequence[tuple[int, float, float]], times: np.ndarray) -> np.ndarray:
    ts, xs, ys = np.array(track, dtype=float).T
    return np.stack([np.interp(times, ts, xs), np.interp(times, ts, ys)], axis=1)


def execute_schedule(
    scene: SimScene, schedule: EventSchedule
) -> tuple[list[GestureOutcome], dict[str, float | None]]:
    """Run every gesture against the scene and score it.

    A gesture succeeds only when every sampled point of every finger track
    lands on the same tracked surface for the whole gesture.  The summary
    maps each gesture kind (and "overall") to its success rate, with None
    where the schedule contained no gesture of that kind.
    """
    validate_scene(scene)
    samples: list[tuple[np.ndarray, np.ndarray]] = []
    for ev in schedule.events:
        if ev.t_end_ms > scene.duration_ms:
            raise SceneError(f"gesture at {ev.t_start_ms} ms runs past the scene duration")
        if ev.kind == GestureKind.TAP:
            times = np.array([float(ev.t_start_ms)])
        else:
            n = max(MIN_PATH_SAMPLES, max(len(tr) for tr in ev.tracks))
            times = np.linspace(float(ev.t_start_ms), float(ev.t_end_ms), n)
        samples.append(
            (times, np.stack([_track_positions(tr, times) for tr in ev.tracks], axis=1))
        )
    # one ray pass over all samples of the gestures with the same finger count
    seen_over: dict[int, tuple[set[int], bool]] = {}  # event index -> planes seen, over any
    for fingers in {pts.shape[1] for _, pts in samples}:
        idx = [i for i, (_, pts) in enumerate(samples) if pts.shape[1] == fingers]
        best, over_any = _cast(
            scene,
            np.concatenate([samples[i][0] for i in idx]),
            np.concatenate([samples[i][1] for i in idx]),
        )
        bounds = np.cumsum([0] + [len(samples[i][0]) for i in idx]).tolist()
        for i, lo, hi in zip(idx, bounds, bounds[1:]):
            seen_over[i] = set(best[lo:hi].ravel().tolist()), bool(over_any[lo:hi].any())
    outcomes: list[GestureOutcome] = []
    for i, ev in enumerate(schedule.events):
        seen, over_any = seen_over[i]
        if -1 not in seen and len(seen) == 1:
            outcomes.append(GestureOutcome(ev, True, OutcomeReason.HIT))
            continue
        hit_ids = seen - {-1}
        if len(hit_ids) >= 2:
            reason = OutcomeReason.SPLIT_TARGETS
        elif len(hit_ids) == 1:
            reason = OutcomeReason.LEFT_PLANE_MID_GESTURE
        else:
            # nothing tracked anywhere: was there geometry at all?
            reason = OutcomeReason.PLANE_NOT_TRACKED if over_any else OutcomeReason.MISS_NO_PLANE
        outcomes.append(GestureOutcome(ev, False, reason))
    summary = gsr_summary(outcomes)
    return outcomes, summary


def gsr_summary(outcomes: Sequence[GestureOutcome]) -> dict[str, float | None]:
    """Gesture success rate per kind plus "overall"; None where nothing was attempted."""
    summary: dict[str, float | None] = {}
    total = 0
    won = 0
    for kind in GestureKind:
        attempts = [o for o in outcomes if o.event.kind == kind]
        total += len(attempts)
        wins = sum(1 for o in attempts if o.success)
        won += wins
        summary[kind.value] = wins / len(attempts) if attempts else None
    summary["overall"] = won / total if total else None
    return summary


def outcomes_to_dict(
    outcomes: Sequence[GestureOutcome], summary: dict[str, float | None]
) -> dict:
    return {
        "gsr": summary,
        "outcomes": [
            {
                "kind": o.event.kind.value,
                "t": [o.event.t_start_ms, o.event.t_end_ms],
                "target": o.event.target_id,
                "success": o.success,
                "reason": o.reason.value,
            }
            for o in outcomes
        ],
    }
