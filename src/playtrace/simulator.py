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


def _hold_float(obj: Any, name: str, what: str) -> None:
    """Hold a frozen dataclass's field as a float when it is a finite number, else SceneError."""
    try:  # so a scene file's 30 is written back as 30.0
        object.__setattr__(obj, name, finite(getattr(obj, name), what))
    except ValueError as exc:
        raise SceneError(str(exc)) from None


def _hold_numbers(obj: Any, name: str, what: str, rows: bool = False) -> None:
    """Hold a frozen dataclass's vector field as a read-only float64 array: (3,) of 3 finite
    numbers, or given rows, (n, 2) of rows of 2.  A list, a tuple or an array is read as the
    list jsonin.numbers takes, and anything else is its ValueError."""
    def listed(v: Any) -> Any:
        return v.tolist() if isinstance(v, np.ndarray) else list(v) if isinstance(v, tuple) else v

    value = listed(getattr(obj, name))
    if rows:  # a value that is not a list is one bad row
        value = np.array([numbers(listed(xz), 2, what) for xz in
                          (value if isinstance(value, list) else [value])]).reshape(-1, 2)
        value.flags.writeable = False
    else:
        value = numbers(value, 3, what)
    object.__setattr__(obj, name, value)


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
        for name in ("vertex_noise_m", "dropout_prob"):
            _hold_float(self, name, f"jitter {name}")
        if self.vertex_noise_m < 0.0:
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
    """A scene; it checks itself when made, and a SceneError names its first fault."""

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

    def __post_init__(self) -> None:
        try:
            _check_scene(self)
        except ValueError as exc:  # a jsonin checker's, or a SceneError
            raise SceneError(str(exc)) from None


def _check_scene(scene: SimScene) -> None:
    if not isinstance(scene.name, str):
        raise SceneError(f"name must be a string, got {scene.name!r}")
    integer(scene.screen_w, "screen")
    integer(scene.screen_h, "screen")
    _hold_float(scene, "fps", "fps")
    integer(scene.duration_ms, "duration_ms")
    for name in ("fov_y_deg", "near_m", "far_m"):
        _hold_float(scene, name, name)
    if not (0 < scene.screen_w <= MAX_SCREEN_PX and 0 < scene.screen_h <= MAX_SCREEN_PX):
        raise SceneError(f"screen dimensions must be positive (at most {MAX_SCREEN_PX})")
    if scene.fps <= 0.0 or scene.duration_ms <= 0:
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
    if not 0.0 < scene.near_m < scene.far_m:
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
        for name, what in (("position", "pos"), ("look_at", "look_at"), ("up", "up")):
            _hold_numbers(k, name, f"camera_path[{i}] {what}")
    seen: set[str] = set()
    for p in scene.planes:
        non_empty_string(p.plane_id, "plane id")
        if p.plane_id in seen:
            raise SceneError(f"duplicate plane id '{p.plane_id}'")
        seen.add(p.plane_id)
        where = f"plane '{p.plane_id}'"
        for name in ("center", "normal", "axis_u", "axis_v"):
            _hold_numbers(p, name, f"{where} {name}")
        finite(p.extent_u, f"{where} extents")
        finite(p.extent_v, f"{where} extents")
        if p.local_vertices is not None:
            _hold_numbers(p, "local_vertices", f"{where} verts", rows=True)
            # the trace reader's polygon rule
            if not (len(p.local_vertices) >= 3 and simple_polygons([p.local_vertices])[0]):
                raise SceneError(f"{where} verts must be a simple polygon of at least 3 "
                                 f"vertices, got {p.local_vertices.tolist()!r}")
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
    return Jitter(jd.get("vertex_noise_m", 0.0), jd.get("dropout_prob", 0.0))


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
        detect_delay_ms=pd.get("detect_delay_ms", 0),
        lost_intervals=tuple(map(tuple, lost)),
        local_vertices=([numbers(xz, 2, f"{where} verts") for xz in pd["verts"]]
                        if "verts" in pd else None),
    )


def scene_from_dict(d: dict) -> SimScene:
    """The scene of a scene file's object.  A fault of its structure (a missing key, a container
    of the wrong kind, a bad number list) is "malformed scene: ..."; SimScene words the rest."""
    try:
        planes = tuple(_plane_from_dict(pd) for pd in d["planes"])
        path = tuple(
            CameraKeyframe(
                t_ms=kd["t_ms"],
                position=numbers(kd["pos"], 3, f"camera_path[{i}] pos"),
                look_at=numbers(kd["look_at"], 3, f"camera_path[{i}] look_at"),
                up=numbers(kd.get("up", [0.0, 1.0, 0.0]), 3, f"camera_path[{i}] up"),
            )
            for i, kd in enumerate(d["camera_path"])
        )
        return SimScene(
            name=d.get("name", ""),
            screen_w=d["screen"][0],
            screen_h=d["screen"][1],
            fps=d["fps"],
            duration_ms=d["duration_ms"],
            fov_y_deg=d["intrinsics"]["fov_y_deg"],
            near_m=d["intrinsics"]["near_m"],
            far_m=d["intrinsics"]["far_m"],
            camera_path=path,
            planes=planes,
            default_jitter=jitter_from_dict(d.get("jitter", {})),
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        if isinstance(exc, SceneError):
            raise
        raise SceneError(f"malformed scene: {exc}") from None


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
    accepts.  Without keep every frame is built.  The vertex noise of the
    polygons between two dropout draws, or up to a block's end, is one
    rng.normal call, which draws the same numbers as one call per polygon;
    the rows of frames not built are drawn and left out.  Each block holds
    BOX_BLOCK_FRAMES frames, the last one fewer; every matrix is in C order,
    and a block's projection is one matrix, broadcast.  The scene checked itself when made.
    """
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
    outlines = [p.vertices() for p in planes]
    sizes = np.array(list(map(len, outlines)), dtype=int)
    shapes = np.concatenate([np.zeros((0, 2)), *outlines])   # every plane's polygon in turn
    first = np.cumsum(sizes) - sizes
    noise_m, dropout = jitter.vertex_noise_m, jitter.dropout_prob
    run_n: list[int] = []       # the vertices of each polygon whose noise waits
    run_kept: list[bool] = []   # and whether its frame is built
    noise: list[np.ndarray] = []   # the noise of the kept polygons since the last block

    def draw_run() -> None:
        """One noise draw for the waiting polygons, the rows of frames not built left out.

        Generator.normal fills its array element by element, so one draw of
        the run is the polygons' own draws in turn, bit for bit.
        """
        if run_n:
            rows = rng.normal(0.0, noise_m, size=(sum(run_n), 2))
            if all(run_kept):
                noise.append(rows)
            elif any(run_kept):
                noise.append(rows[np.repeat(run_kept, run_n)])
            run_n.clear()
            run_kept.clear()

    def shown() -> Iterator[list[int]]:
        """The plane of each trackable of each kept frame; every frame draws."""
        for i in range(len(times)):
            if not (kept[i] or jitter.draws):
                continue  # a frame that is neither built nor draws jitter
            tracks = []
            for k in range(len(planes)):
                if not detected[k][i]:
                    continue
                if dropout > 0.0:
                    draw_run()   # the draws stay in order
                    if rng.random() < dropout:
                        continue
                if noise_m > 0.0:
                    run_n.append(len(outlines[k]))
                    run_kept.append(kept[i])
                tracks.append(k)
            if kept[i]:  # else its draws are made, but the frame is not built
                yield tracks

    start = 0
    for part in blocks(shown(), BOX_BLOCK_FRAMES):
        draw_run()
        end = start + len(part)
        rows = np.array(list(chain.from_iterable(part)), dtype=int)
        n_verts = sizes[rows]
        verts = shapes[np.repeat(first[rows] - np.cumsum(n_verts) + n_verts, n_verts)
                       + np.arange(n_verts.sum())]
        if noise:
            verts += np.concatenate(noise)
            noise.clear()
        block = FrameBlock(
            screen=(scene.screen_w, scene.screen_h), t_ms=kept_times[start:end],
            view=views[start:end], proj=np.broadcast_to(proj, (len(part), 4, 4)),
            cam_pos=eyes[start:end], n_trackables=np.array(list(map(len, part)), dtype=int),
            ids=[planes[k].plane_id for k in rows.tolist()],
            states=[TrackingState.TRACKING] * len(rows),
            pose=poses[rows], center=centers[rows], normal=normals[rows],
            n_verts=n_verts, verts=verts,
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
                verts = plane.local_vertices
                loops = EdgeLoops.of(*verts.T, np.array([len(verts)]))
                inside = odd_crossings(loops, a, b)
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


# the reason of each outcome code _classify gives
_REASONS = (OutcomeReason.HIT, OutcomeReason.SPLIT_TARGETS, OutcomeReason.LEFT_PLANE_MID_GESTURE,
            OutcomeReason.PLANE_NOT_TRACKED, OutcomeReason.MISS_NO_PLANE)


def _gesture_samples(events: Sequence[GestureEvent]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sample times and finger positions of gestures with one finger count, in one pass.

    A tap is sampled at its start, and any other gesture at n =
    max(MIN_PATH_SAMPLES, its longest track) times from start to end, as
    np.linspace spaces them: k * ((end - start) / (n - 1)) + start, then the
    end itself.  Each finger is where np.interp puts it on its track at each
    time, to the bit: in segment j = searchsorted(track times, t, 'right') -
    1, the first or the last point outside them, a point's own position at
    its time, and slope * (t - t_j) + p_j with numpy's slope (p_j+1 - p_j) /
    (t_j+1 - t_j), computed from the point after when that is NaN, and p_j
    when both are NaN and p_j = p_j+1.  Memory is O(samples + track points).
    Returns the times (S,), the points (S, fingers, 2) and the first sample
    of each gesture.
    """
    fingers = len(events[0].tracks)
    tap = np.array([ev.kind == GestureKind.TAP for ev in events])
    count = np.array([1 if t else max(MIN_PATH_SAMPLES, *map(len, ev.tracks))
                      for t, ev in zip(tap.tolist(), events)])
    start, end = np.array([(ev.t_start_ms, ev.t_end_ms) for ev in events], dtype=float).T
    first = np.cumsum(count) - count
    of = np.repeat(np.arange(len(events)), count)   # the gesture of each sample
    step = np.where(tap, 0.0, (end - start) / np.maximum(count - 1, 1))
    times = (np.arange(len(of)) - first[of]) * step[of] + start[of]
    times[(first + count - 1)[~tap]] = end[~tap]

    tracks = [tr for ev in events for tr in ev.tracks]
    size = np.array(list(map(len, tracks)))
    # rows (t, x, y)
    nodes = np.fromiter(chain.from_iterable(chain.from_iterable(tracks)), float).reshape(-1, 3)
    lo = np.cumsum(size) - size   # each track's first node, and its last
    hi = lo + size - 1
    track = of[:, None] * fingers + np.arange(fingers)   # of each finger at each sample
    t = np.broadcast_to(times[:, None], track.shape)
    # complex numbers order by their real part, then their imaginary part: keyed
    # track + 1j * time, the nodes of every track in turn are in order, each by time
    node_key = np.repeat(np.arange(len(tracks)), size) + 1j * nodes[:, 0]
    seg = np.searchsorted(node_key, track + 1j * t, side="right") - 1
    at = np.clip(seg, lo[track], hi[track])
    points = nodes[at, 1:]
    inner = (seg >= lo[track]) & (seg < hi[track]) & (nodes[at, 0] != t)
    j = seg[inner]
    tj, t1 = nodes[j, :1], nodes[j + 1, :1]
    pj, p1 = nodes[j, 1:], nodes[j + 1, 1:]
    ti = t[inner][:, None]
    with np.errstate(all="ignore"):   # np.interp computes in C, and warns of nothing
        slope = (p1 - pj) / (t1 - tj)
        p = slope * (ti - tj) + pj
        nan = np.isnan(p)
        if nan.any():
            p = np.where(nan, slope * (ti - t1) + p1, p)
            p = np.where(np.isnan(p) & (pj == p1), pj, p)
    points[inner] = p
    return times, points, first


def _classify(best: np.ndarray, over_any: np.ndarray, first: np.ndarray) -> np.ndarray:
    """The outcome code (_REASONS) of each gesture, from _cast's answers for its samples.

    Gesture i owns the rows of best and over_any from first[i] to the next
    gesture's first row.  It hits when every finger at every sample is over
    one tracked surface; else its targets split if two or more surfaces are
    hit, it left its plane if one is, and with none, the plane was not
    tracked where a point lay over any surface, else it missed.
    """
    at = first * best.shape[1]
    flat = best.ravel()
    missed = np.logical_or.reduceat(flat < 0, at)
    top = np.maximum.reduceat(flat, at)
    low = np.minimum.reduceat(np.where(flat < 0, np.iinfo(flat.dtype).max, flat), at)
    one = (top >= 0) & (low == top)
    over = np.logical_or.reduceat(over_any.ravel(), at)
    return np.select([one & ~missed, (top >= 0) & ~one, one, over], [0, 1, 2, 3], 4)


def execute_schedule(
    scene: SimScene, schedule: EventSchedule
) -> tuple[list[GestureOutcome], dict[str, float | None]]:
    """Run every gesture against the scene and score it.

    A gesture succeeds only when every sampled point of every finger track
    lands on the same tracked surface for the whole gesture.  The gestures
    with the same finger count are sampled in one pass (_gesture_samples),
    cast in one ray pass (_cast) and classified with reductions over each
    gesture's samples (_classify).  The summary maps each gesture kind (and
    "overall") to its success rate, with None where the schedule contained
    no gesture of that kind (the scene checked itself when made).
    """
    events = schedule.events
    for ev in events:
        if ev.t_end_ms > scene.duration_ms:
            raise SceneError(f"gesture at {ev.t_start_ms} ms runs past the scene duration")
    codes = np.zeros(len(events), dtype=int)
    for fingers in {len(ev.tracks) for ev in events}:
        idx = [i for i, ev in enumerate(events) if len(ev.tracks) == fingers]
        times, points, first = _gesture_samples([events[i] for i in idx])
        codes[idx] = _classify(*_cast(scene, times, points), first)
    outcomes = [GestureOutcome(ev, code == 0, _REASONS[code])
                for ev, code in zip(events, codes.tolist())]
    return outcomes, gsr_summary(outcomes)


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
