"""Playback trace data model.

A trace is a recorded AR session: per-frame camera matrices plus the polygon
and pose of every trackable surface the device reported.  The on-disk format
is JSON Lines with a header line followed by one frame object per line.  All
4x4 matrices travel as 16 floats in column-major order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple, NoReturn, TextIO, TypeVar

import numpy as np

from .geometry import simple_polygons
from .jsonin import (
    DECODE_ERRORS, UNIT_EPS, decode_error, finite, finite_floats, integer, numbers, unit,
)

TRACE_FORMAT = "tariplay-trace"
TRACE_VERSION = 1

Mat4 = np.ndarray
T = TypeVar("T")


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


_TRACKING_STATES = {s.value: s for s in TrackingState}   # TrackingState(v), without the Enum call
MAX_SCREEN_PX = 2**31 - 1
# Frame lines iter_frames checks in one numpy pass.  Each block's frames share
# one number array, so this bounds the lines read ahead of the consumer.
INGEST_BLOCK_LINES = 64


def mat4_to_list(m: Mat4) -> list[float]:
    return [float(v) for v in np.asarray(m, dtype=float).flatten(order="F")]


def _require(d: dict, key: str, where: str) -> Any:
    if key not in d:
        raise TraceParseError(f"{where}: missing field '{key}'")
    return d[key]


def _trackable_fields(d: Any, where: str) -> tuple[str, str, TrackingState, int]:
    """Structural checks of one trackable: (id, where, state, vertex count)."""
    if not isinstance(d, dict):
        raise TraceParseError(f"{where}: trackable entry must be an object")
    tid = _require(d, "id", where)
    if not isinstance(tid, str) or not tid:
        raise TraceValidationError(f"{where}: trackable id must be a non-empty string")
    where = f"{where} trackable '{tid}'"
    raw_verts = _require(d, "verts", where)
    if not isinstance(raw_verts, list) or len(raw_verts) < 3:
        raise TraceValidationError(f"{where}: polygon needs at least 3 vertices")
    for key in ("normal", "state", "pose", "center"):
        _require(d, key, where)
    try:
        state = _TRACKING_STATES[d["state"]]
    except (KeyError, TypeError):
        raise TraceValidationError(f"{where}: unknown tracking state {d['state']!r}") from None
    return tid, where, state, len(raw_verts)


# The numeric fields of a frame and their lengths, in the order of its number
# array: each trackable's vertices (2 each) then these, then the camera's.
_TRACKABLE_NUMBERS = (("normal", 3), ("pose", 16), ("center", 3))
_CAMERA_NUMBERS = (("view", 16), ("proj", 16), ("cam_pos", 3))


class _FrameHead(NamedTuple):
    """A frame that passed the structural checks, before its numbers are."""

    t_ms: int
    screen: list[int]
    raw_trackables: list[dict]
    tracks: list[tuple[str, str, TrackingState, int]]    # _trackable_fields of each


def _frame_head(d: dict, where: str) -> _FrameHead:
    """The structural checks of a frame: fields, types, t_ms, screen, ids and states."""
    try:
        t_ms = integer(_require(d, "t_ms", where), "t_ms")
        screen = _require(d, "screen", where)
        if not (isinstance(screen, list) and len(screen) == 2
                and all(0 < integer(v, "screen") <= MAX_SCREEN_PX for v in screen)):
            raise ValueError(f"screen must be two positive integers (at most {MAX_SCREEN_PX})")
    except ValueError as exc:
        raise TraceValidationError(f"{where}: {exc}") from None
    raw_trackables = _require(d, "trackables", where)
    if not isinstance(raw_trackables, list):
        raise TraceParseError(f"{where}: trackables must be a list")
    tracks = [_trackable_fields(td, where) for td in raw_trackables]
    seen: set[str] = set()
    for tid, _, _, _ in tracks:
        if tid in seen:
            raise TraceValidationError(f"{where}: duplicate trackable id '{tid}'")
        seen.add(tid)
    for key, _ in _CAMERA_NUMBERS:
        _require(d, key, where)
    return _FrameHead(t_ms, screen, raw_trackables, tracks)


def _vertices(arr: np.ndarray, o: int, n: int) -> tuple[tuple[float, float], ...]:
    """The n (x, z) vertices stored flat in arr from offset o."""
    xz = arr[o:o + 2 * n].tolist()
    return tuple(zip(xz[0::2], xz[1::2]))


def _frame_fault(where: str, d: dict) -> NoReturn:
    """Raise the first fault of a frame line that _block_frames rejects on its own.

    Structure comes first (_frame_head), then each numeric field in
    number-array order, then each trackable's polygon and normal; each
    error names its field.
    """
    head = _frame_head(d, where)
    fields: list[tuple[Any, int, str]] = []   # (value, length, what) of each numeric field
    for td, (_, tw, _, _) in zip(head.raw_trackables, head.tracks):
        fields += [(xz, 2, f"{tw} vertex {i}") for i, xz in enumerate(td["verts"])]
        fields += [(td[key], count, f"{tw} {key}") for key, count in _TRACKABLE_NUMBERS]
    fields += [(d[key], count, f"{where} {key}") for key, count in _CAMERA_NUMBERS]
    try:
        for value, count, what in fields:
            numbers(value, count, what)
        for td, (_, tw, _, _) in zip(head.raw_trackables, head.tracks):
            if not simple_polygons([td["verts"]])[0]:
                raise ValueError(f"{tw}: polygon must be simple (no self-intersection)")
            unit(np.array(td["normal"], dtype=float), f"{tw}: normal")
    except ValueError as exc:
        raise TraceValidationError(str(exc)) from None
    raise AssertionError(f"{where}: a frame failed its checks but none of its fields did")


def _frame_record(head: _FrameHead, arr: np.ndarray, o: int) -> FrameRecord:
    """The frame of a checked head whose numbers start at offset o of arr."""
    trackables = []
    for tid, _, state, n in head.tracks:
        verts = _vertices(arr, o, n)
        o += 2 * n
        trackables.append(TrackableSnapshot(
            trackable_id=tid,
            pose=arr[o + 3:o + 19].reshape((4, 4), order="F"),
            local_vertices=verts,
            center_world=arr[o + 19:o + 22],
            normal_world=arr[o:o + 3],
            tracking_state=state,
        ))
        o += 22
    return FrameRecord(
        timestamp_ms=head.t_ms,
        view=arr[o:o + 16].reshape((4, 4), order="F"),
        projection=arr[o + 16:o + 32].reshape((4, 4), order="F"),
        camera_position=arr[o + 32:o + 35],
        screen_w=head.screen[0],
        screen_h=head.screen[1],
        trackables=tuple(trackables),
    )


def _block_frames(
    block: list[tuple[str, dict]],
) -> list[tuple[_FrameHead, np.ndarray, int]] | None:
    """Each line's (head, numbers, offset) when every line of a block passes its checks, else None.

    The structural checks run per frame (_frame_head); the numbers,
    polygons and normals of the whole block are checked in one numpy pass
    each, and the lines share the one read-only array, each line's numbers
    from its offset on, the last line's up to the array's end.  A normal is
    passed here only when it is clearly of unit length; one near the
    tolerance goes to jsonin.unit.  This is the one parser of a
    line: a one-line block checks one line, and _frame_record builds the
    frame of a (head, numbers, offset).
    """
    trackable_numbers = itemgetter(*(key for key, _ in _TRACKABLE_NUMBERS))
    trackable_counts = [count for _, count in _TRACKABLE_NUMBERS]
    camera_numbers = itemgetter(*(key for key, _ in _CAMERA_NUMBERS))
    camera_counts = [count for _, count in _CAMERA_NUMBERS]
    heads: list[tuple[_FrameHead, int]] = []   # each head and the offset of its numbers
    polys: list[tuple[int, int]] = []           # (offset, vertex count) of every polygon
    fields: list = []                           # the numeric fields, in number-array order
    counts: list[int] = []                      # and the length each must have
    o = 0
    try:
        for where, d in block:
            head = _frame_head(d, where)
            heads.append((head, o))
            for td, (_, _, _, n) in zip(head.raw_trackables, head.tracks):
                polys.append((o, n))
                o += 2 * n + 22
                fields += td["verts"]
                fields += trackable_numbers(td)
                counts += [2] * n
                counts += trackable_counts
            fields += camera_numbers(d)
            counts += camera_counts
            o += 35
    except TraceError:
        return None
    if set(map(type, fields)) != {list} or list(map(len, fields)) != counts:
        return None
    flat = list(chain.from_iterable(fields))
    arr = finite_floats(flat)
    if arr is None:
        return None
    arr.flags.writeable = False
    if polys:
        if not simple_polygons([arr[o:o + 2 * n].reshape(n, 2) for o, n in polys]).all():
            return None
        at = np.array([o + 2 * n for o, n in polys])[:, None] + np.arange(3)
        normals = arr[at]
        with np.errstate(over="ignore"):
            length = np.sqrt(normals[:, 0] * normals[:, 0] + normals[:, 1] * normals[:, 1]
                             + normals[:, 2] * normals[:, 2])
        try:
            for k in np.flatnonzero(~(np.abs(length - 1.0) <= UNIT_EPS / 2)).tolist():
                unit(normals[k], "normal")
        except ValueError:
            return None
    return [(head, arr, o) for head, o in heads]


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


def _open_trace(path: Path) -> TextIO:
    """A trace file opened as UTF-8 text; bytes that are not UTF-8 reach their line as escapes."""
    return path.open("r", encoding="utf-8", errors="surrogateescape")


def _trace_objects(fh: TextIO, name: str) -> Iterator[tuple[str, dict]]:
    """(file:line, JSON object) for each non-blank line of a trace file opened by _open_trace.

    A line that held bytes that are not UTF-8 is a TraceParseError at that
    line, so it comes after every fault on an earlier line.
    """
    for lineno, line in enumerate(fh, start=1):
        where = f"{name}:{lineno}"
        if not line.isascii():  # a flag of the str, so ASCII lines cost nothing here
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                byte = ord(line[exc.start]) - 0xDC00
                raise TraceParseError(
                    f"{where}: not UTF-8 text (byte {byte:#04x} at column {exc.start + 1})"
                ) from None
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except DECODE_ERRORS as exc:
            raise TraceParseError(decode_error(exc, where)) from None
        if not isinstance(obj, dict):
            raise TraceParseError(f"{where}: expected a JSON object")
        yield where, obj


def _header(objects: Iterator[tuple[str, dict]], name: str) -> tuple[float, dict]:
    """The validated (fps, meta) of the header line, the first object of the file."""
    first = next(objects, None)
    if first is None:
        raise TraceParseError(f"{name}: empty file, expected a header line")
    where, obj = first
    if obj.get("format") != TRACE_FORMAT:
        raise TraceValidationError(
            f"{where}: header format must be '{TRACE_FORMAT}', got {obj.get('format')!r}"
        )
    if obj.get("version") != TRACE_VERSION:
        raise TraceValidationError(f"{where}: unsupported version {obj.get('version')!r}")
    try:
        fps = finite(obj.get("fps"), "fps")
        if not fps > 0:
            raise ValueError(f"fps must be a positive number, got {fps}")
    except ValueError as exc:
        raise TraceValidationError(f"{where}: {exc}") from None
    meta = obj.get("meta", {})
    if not isinstance(meta, dict):
        raise TraceValidationError(f"{name}: header meta must be an object")
    return fps, meta


def read_header(path: str | Path) -> tuple[float, dict]:
    """The recording fps and the meta object of a trace file, validated; no frame is read."""
    path = Path(path)
    with _open_trace(path) as fh:
        return _header(_trace_objects(fh, path.name), path.name)


def blocks(items: Iterable[T], size: int) -> Iterator[list[T]]:
    """items in lists of up to size, in order; no list is empty.

    When items raises, the list filled so far is yielded first and the
    error is raised when the next list is asked for, so the items read
    before a stream error are handled first, and an error that handling
    raises is the one that escapes.  A consumer that keeps no reference
    to a list once it asks for the next holds one list at a time.
    """
    it = iter(items)
    while True:
        block: list[T] = []
        try:
            for item in it:
                block.append(item)
                if len(block) == size:
                    break
        except Exception:
            if block:
                yield block
            raise
        if not block:
            return
        yield block


def iter_frames(
    path: str | Path, keep: Callable[[int], bool] | None = None
) -> Iterator[FrameRecord]:
    """Validate a JSONL trace file and yield its frames one at a time.

    The header is read and checked before the first frame.  Each frame is
    checked on its own line and against the ones before it (one screen size,
    strictly increasing timestamps), so an error names the line where the
    fault first shows.  Frames are read and checked in blocks of
    INGEST_BLOCK_LINES lines (see _block_frames); a block that fails any
    check is checked again as one-line blocks, and a line that fails on
    its own raises its first fault (_frame_fault), so the first fault in
    reading order is the one reported.  A read error inside a block is
    raised after the frames before it (blocks).  Raises TraceParseError
    for text that is not UTF-8, and for malformed JSON or missing fields,
    TraceValidationError for contract violations, and the usual OSError
    family for I/O trouble.

    keep, a decimation predicate such as deadline_walk's, is asked about
    each checked frame's timestamp in order, and only the frames it accepts
    are built and yielded; every line is still read and checked.  Without
    keep every frame is yielded.
    """
    path = Path(path)
    with _open_trace(path) as fh:
        objects = _trace_objects(fh, path.name)
        _header(objects, path.name)
        first = prev = None  # the first frame's screen, the previous frame's t_ms
        for block in blocks(objects, INGEST_BLOCK_LINES):
            checked = _block_frames(block)
            if checked is None:
                checked = chain.from_iterable(
                    _block_frames([line]) or _frame_fault(*line) for line in block
                )
            for line, (head, arr, o) in zip(block, checked):
                if first is None:
                    first = head.screen
                elif head.screen != first:
                    raise TraceValidationError(
                        f"{line[0]}: screen {head.screen[0]}x{head.screen[1]} differs from "
                        f"the first frame's {first[0]}x{first[1]}"
                    )
                elif head.t_ms <= prev:
                    raise TraceValidationError(
                        f"{path.name}: timestamps must be strictly increasing "
                        f"({prev} then {head.t_ms})"
                    )
                prev = head.t_ms
                if keep is None or keep(head.t_ms):
                    yield _frame_record(head, arr, o)
            del block, checked, line, head, arr  # before the next block is read
    if first is None:
        raise TraceValidationError(f"{path.name}: trace has no frames")


def load_trace(path: str | Path) -> PlaybackTrace:
    """Load and validate a whole JSONL trace file; iter_frames lists what it rejects."""
    fps, meta = read_header(path)
    return PlaybackTrace(frames=tuple(iter_frames(path)), source_fps=fps, metadata=meta)


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


class DeadlineWalk:
    """The state of one deadline_walk: its next deadline and the last timestamp asked about."""

    def __init__(self, period: float) -> None:
        self.period = period            # 0 when every timestamp is kept
        self.deadline = -math.inf
        self.last_ms: int | None = None  # where the source ends once the walk has seen it all

    def __call__(self, t: int) -> bool:
        self.last_ms = t
        if t < self.deadline:
            return False
        if self.period:
            self.deadline = (math.floor(t / self.period) + 1.0) * self.period
        return True


def deadline_walk(source_fps: float, target_fps: float) -> DeadlineWalk:
    """The decimation rule: a predicate that, asked about each timestamp in order, says which to keep.

    It keeps the first timestamp, then the first one at or after each
    sampling deadline; deadlines are the multiples of 1000/target_fps ms.
    Each deadline depends only on the last kept timestamp, so the kept
    timestamps are kept again by a second walk.  When the target rate is
    at or above the source rate every timestamp is kept.  The walk's
    last_ms is the last timestamp it was asked about: a producer asks
    about every timestamp of its source, so it ends there.
    """
    return DeadlineWalk(1000.0 / target_fps if target_fps < source_fps else 0.0)
