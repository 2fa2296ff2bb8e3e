"""Playback trace data model.

A trace is a recorded AR session: per-frame camera matrices plus the polygon
and pose of every trackable surface the device reported.  The on-disk format
is JSON Lines with a header line followed by one frame object per line.  All
4x4 matrices travel as 16 floats in column-major order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Any, Iterator, Sequence, TextIO

import numpy as np

from .geometry import is_simple_polygon

TRACE_FORMAT = "tariplay-trace"
TRACE_VERSION = 1

Mat4 = np.ndarray


class TraceError(Exception):
    """Base class for trace loading problems."""


class TraceParseError(TraceError):
    """The file is not valid JSON Lines or misses required fields."""


class TraceValidationError(TraceError):
    """The file parsed but the data violates the trace contract."""


class TrackingState(str, Enum):
    TRACKING = "TRACKING"
    PAUSED = "PAUSED"
    STOPPED = "STOPPED"


@dataclass(frozen=True)
class TrackableSnapshot:
    """One trackable surface as seen in one frame."""

    trackable_id: str
    pose: Mat4                                  # local -> world
    local_vertices: tuple[tuple[float, float], ...]  # (x, z) in the local plane
    center_world: np.ndarray
    normal_world: np.ndarray
    tracking_state: TrackingState


@dataclass(frozen=True)
class FrameRecord:
    timestamp_ms: int
    view: Mat4
    projection: Mat4
    camera_position: np.ndarray
    screen_w: int
    screen_h: int
    trackables: tuple[TrackableSnapshot, ...]


@dataclass(frozen=True)
class PlaybackTrace:
    frames: tuple[FrameRecord, ...]
    source_fps: float
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ms(self) -> int:
        return self.frames[-1].timestamp_ms if self.frames else 0


def _as_float_list(value: Any, count: int, what: str) -> list[float]:
    if not isinstance(value, list) or len(value) != count:
        raise TraceValidationError(f"{what}: expected a list of {count} numbers")
    out = []
    for v in value:
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            raise TraceValidationError(f"{what}: all entries must be finite numbers")
        out.append(float(v))
    return out


def mat4_from_list(values: Any, what: str = "matrix") -> Mat4:
    """Build a read-only 4x4 matrix from 16 column-major floats."""
    flat = _as_float_list(values, 16, what)
    m = np.array(flat, dtype=float).reshape((4, 4), order="F")
    m.flags.writeable = False
    return m


def mat4_to_list(m: Mat4) -> list[float]:
    return [float(v) for v in np.asarray(m, dtype=float).flatten(order="F")]


def _vec3_from_list(values: Any, what: str) -> np.ndarray:
    v = np.array(_as_float_list(values, 3, what), dtype=float)
    v.flags.writeable = False
    return v


def _require(d: dict, key: str, where: str) -> Any:
    if key not in d:
        raise TraceParseError(f"{where}: missing field '{key}'")
    return d[key]


def _snapshot_from_dict(d: Any, where: str) -> TrackableSnapshot:
    if not isinstance(d, dict):
        raise TraceParseError(f"{where}: trackable entry must be an object")
    tid = _require(d, "id", where)
    if not isinstance(tid, str) or not tid:
        raise TraceValidationError(f"{where}: trackable id must be a non-empty string")
    where = f"{where} trackable '{tid}'"
    raw_verts = _require(d, "verts", where)
    if not isinstance(raw_verts, list) or len(raw_verts) < 3:
        raise TraceValidationError(f"{where}: polygon needs at least 3 vertices")
    verts = []
    for i, pair in enumerate(raw_verts):
        verts.append(tuple(_as_float_list(pair, 2, f"{where} vertex {i}")))
    if not is_simple_polygon(verts):
        raise TraceValidationError(f"{where}: polygon must be simple (no self-intersection)")
    normal = _vec3_from_list(_require(d, "normal", where), f"{where} normal")
    norm_len = float(np.linalg.norm(normal))
    if abs(norm_len - 1.0) > 1e-6:
        raise TraceValidationError(f"{where}: normal must be unit length, got |n|={norm_len:.8f}")
    state_raw = _require(d, "state", where)
    try:
        state = TrackingState(state_raw)
    except ValueError:
        raise TraceValidationError(f"{where}: unknown tracking state {state_raw!r}") from None
    return TrackableSnapshot(
        trackable_id=tid,
        pose=mat4_from_list(_require(d, "pose", where), f"{where} pose"),
        local_vertices=tuple(verts),
        center_world=_vec3_from_list(_require(d, "center", where), f"{where} center"),
        normal_world=normal,
        tracking_state=state,
    )


def _frame_from_dict(d: dict, where: str) -> FrameRecord:
    t_ms = _require(d, "t_ms", where)
    if isinstance(t_ms, bool) or not isinstance(t_ms, int):
        raise TraceValidationError(f"{where}: t_ms must be an integer")
    screen = _require(d, "screen", where)
    if (
        not isinstance(screen, list)
        or len(screen) != 2
        or any(isinstance(v, bool) or not isinstance(v, int) or v <= 0 for v in screen)
    ):
        raise TraceValidationError(f"{where}: screen must be two positive integers")
    raw_trackables = _require(d, "trackables", where)
    if not isinstance(raw_trackables, list):
        raise TraceParseError(f"{where}: trackables must be a list")
    trackables = tuple(
        _snapshot_from_dict(td, where) for td in raw_trackables
    )
    seen: set[str] = set()
    for t in trackables:
        if t.trackable_id in seen:
            raise TraceValidationError(f"{where}: duplicate trackable id '{t.trackable_id}'")
        seen.add(t.trackable_id)
    return FrameRecord(
        timestamp_ms=t_ms,
        view=mat4_from_list(_require(d, "view", where), f"{where} view"),
        projection=mat4_from_list(_require(d, "proj", where), f"{where} proj"),
        camera_position=_vec3_from_list(_require(d, "cam_pos", where), f"{where} cam_pos"),
        screen_w=screen[0],
        screen_h=screen[1],
        trackables=trackables,
    )


def _snapshot_to_dict(t: TrackableSnapshot) -> dict:
    return {
        "id": t.trackable_id,
        "pose": mat4_to_list(t.pose),
        "verts": [[x, z] for x, z in t.local_vertices],
        "center": [float(v) for v in t.center_world],
        "normal": [float(v) for v in t.normal_world],
        "state": t.tracking_state.value,
    }


def _frame_to_dict(f: FrameRecord) -> dict:
    return {
        "t_ms": f.timestamp_ms,
        "view": mat4_to_list(f.view),
        "proj": mat4_to_list(f.projection),
        "cam_pos": [float(v) for v in f.camera_position],
        "screen": [f.screen_w, f.screen_h],
        "trackables": [_snapshot_to_dict(t) for t in f.trackables],
    }


def _utf8_lines(fh: TextIO, name: str) -> Iterator[str]:
    """The lines of a text file opened as UTF-8; other bytes are a TraceParseError."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise TraceParseError(f"{name}: not UTF-8 text: {exc}") from None


def load_trace(path: str | Path) -> PlaybackTrace:
    """Load and validate a JSONL trace file.

    Raises TraceParseError for text that is not UTF-8, and for malformed
    JSON or missing fields (with the offending line number),
    TraceValidationError for contract violations,
    and the usual OSError family for I/O trouble.
    """
    path = Path(path)
    frames: list[FrameRecord] = []
    header: dict | None = None
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(_utf8_lines(fh, path.name), start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path.name}:{lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceParseError(f"{where}: invalid JSON: {exc.msg}") from None
            if not isinstance(obj, dict):
                raise TraceParseError(f"{where}: expected a JSON object")
            if header is None:
                if obj.get("format") != TRACE_FORMAT:
                    raise TraceValidationError(
                        f"{where}: header format must be '{TRACE_FORMAT}', got {obj.get('format')!r}"
                    )
                if obj.get("version") != TRACE_VERSION:
                    raise TraceValidationError(
                        f"{where}: unsupported version {obj.get('version')!r}"
                    )
                fps = obj.get("fps")
                if isinstance(fps, bool) or not isinstance(fps, (int, float)) or not 0 < fps < math.inf:
                    raise TraceValidationError(f"{where}: fps must be a positive number")
                header = obj
                continue
            frame = _frame_from_dict(obj, where)
            if frames and (frame.screen_w, frame.screen_h) != (frames[0].screen_w, frames[0].screen_h):
                raise TraceValidationError(
                    f"{where}: screen {frame.screen_w}x{frame.screen_h} differs from "
                    f"the first frame's {frames[0].screen_w}x{frames[0].screen_h}"
                )
            frames.append(frame)
    if header is None:
        raise TraceParseError(f"{path.name}: empty file, expected a header line")
    if not frames:
        raise TraceValidationError(f"{path.name}: trace has no frames")
    for prev, cur in zip(frames, frames[1:]):
        if cur.timestamp_ms <= prev.timestamp_ms:
            raise TraceValidationError(
                f"{path.name}: timestamps must be strictly increasing "
                f"({prev.timestamp_ms} then {cur.timestamp_ms})"
            )
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise TraceValidationError(f"{path.name}: header meta must be an object")
    return PlaybackTrace(frames=tuple(frames), source_fps=float(header["fps"]), metadata=meta)


def save_trace(trace: PlaybackTrace, path: str | Path) -> None:
    """Write a trace back to JSONL; load_trace(save_trace(t)) round-trips."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        header = {
            "format": TRACE_FORMAT,
            "version": TRACE_VERSION,
            "fps": trace.source_fps,
            "meta": trace.metadata,
        }
        fh.write(json.dumps(header) + "\n")
        for f in trace.frames:
            fh.write(json.dumps(_frame_to_dict(f)) + "\n")


def sample_frames(trace: PlaybackTrace, target_fps: float) -> PlaybackTrace:
    """Decimate a trace to roughly target_fps without interpolating.

    Walks the frames keeping the first one at or after each sampling
    deadline; deadlines advance in steps of 1000/target_fps from the start
    of the trace.  When the target rate is at or above the source rate the
    trace is returned unchanged.
    """
    if target_fps <= 0:
        raise ValueError("target_fps must be positive")
    if not trace.frames:
        raise TraceValidationError("cannot sample an empty trace")
    if target_fps >= trace.source_fps:
        return trace
    period = 1000.0 / target_fps
    selected: list[FrameRecord] = []
    deadline = 0.0
    for f in trace.frames:
        if f.timestamp_ms >= deadline:
            selected.append(f)
            deadline = (math.floor(f.timestamp_ms / period) + 1.0) * period
    return replace(trace, frames=tuple(selected), source_fps=target_fps)
