"""Playback trace data model.

A trace is a recorded AR session: per-frame camera matrices plus the polygon
and pose of every trackable surface the device reported.  The on-disk format
is JSON Lines with a header line followed by one frame object per line.  All
4x4 matrices travel as 16 floats in column-major order.
"""

from __future__ import annotations

import gc
import io
import json
import math
import os
from contextlib import AbstractContextManager
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import chain, compress, islice
from operator import itemgetter, lt
from pathlib import Path
from typing import (
    Any, Callable, Iterable, Iterator, NamedTuple, NoReturn, Sequence, TextIO, TypeVar,
)

import numpy as np

from .geometry import dot_rows, simple_polygon_rows, simple_polygons
from .jsonin import (
    DECODE_ERRORS, MAX_INT, UNIT_EPS, decode_error, finite, finite_floats, integer, numbers, unit,
)

TRACE_FORMAT = "tariplay-trace"
TRACE_VERSION = 1

Mat4 = np.ndarray
T = TypeVar("T")


class TraceError(ValueError):
    """Base class for the faults of a trace the reader or the writer rejects."""


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
    local_vertices: np.ndarray                  # (n, 2) rows of (x, z) in the local plane
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


_TRACKING_STATES = {s.value: s for s in TrackingState}   # TrackingState(v), without the Enum call
MAX_SCREEN_PX = 2**31 - 1
# Frame lines TraceFile.read_blocks checks in one pass.  A block's frames share
# its column arrays, so this bounds the lines read ahead of the consumer.
INGEST_BLOCK_LINES = 64


class FrameBlock(NamedTuple):
    """Frames as columns: a row per frame, per trackable and per vertex.

    The trackables of frame i are the next n_trackables[i] rows of the
    trackable columns, in the frame's order, and the vertices of trackable
    k are the next n_verts[k] rows of verts.  A matrix is a (4, 4) array
    whose strides keep its producer's order: the reader's are transposed
    views of the column-major rows it read, the renderer's are in C order.
    numpy hands BLAS each as it is stored, and the two kernels round
    differently, so each producer's products keep their own bits.  Every
    frame of a block has its one screen.  Every array is read-only.
    """

    screen: tuple[int, int]     # (width, height) in pixels
    t_ms: list[int]
    view: np.ndarray            # (F, 4, 4)
    proj: np.ndarray            # (F, 4, 4)
    cam_pos: np.ndarray         # (F, 3)
    n_trackables: np.ndarray    # (F,)
    ids: list[str]              # (K)
    states: list[TrackingState]
    pose: np.ndarray            # (K, 4, 4), local -> world
    center: np.ndarray          # (K, 3)
    normal: np.ndarray          # (K, 3)
    n_verts: np.ndarray         # (K,)
    verts: np.ndarray           # (V, 2) rows of (x, z) in each trackable's local plane


# the rows of each FrameBlock column after screen: 0 frames, 1 trackables,
# 2 vertices
_ROW_KINDS = (0,) * 5 + (1,) * 6 + (2,)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _take(block: FrameBlock, kept: list[bool]) -> FrameBlock:
    """The frames of block where kept is true, with their trackables and vertices."""
    if all(kept):
        return block
    rows = [np.array(kept, dtype=bool)]   # the rows kept of each kind in _ROW_KINDS
    rows.append(np.repeat(rows[0], block.n_trackables))
    rows.append(np.repeat(rows[1], block.n_verts))
    return FrameBlock(block.screen, *(
        list(compress(col, rows[kind].tolist())) if type(col) is list else _frozen(col[rows[kind]])
        for col, kind in zip(block[1:], _ROW_KINDS)
    ))


def join_blocks(parts: Sequence[FrameBlock]) -> FrameBlock:
    """The frames of parts, in order, as one block with the first part's screen.

    np.concatenate keeps the matrices' layout when every part has one
    producer's, and writes C order when they differ.
    """
    if len(parts) == 1:
        return parts[0]
    return FrameBlock(parts[0].screen, *(
        list(chain.from_iterable(cols)) if type(cols[0]) is list else _frozen(np.concatenate(cols))
        for cols in list(zip(*parts))[1:]
    ))


def block_records(block: FrameBlock) -> Iterator[FrameRecord]:
    """The FrameRecord of each frame of a block; its arrays are views of the block's columns."""
    ends = np.cumsum(block.n_verts).tolist()
    tracks = iter([
        TrackableSnapshot(trackable_id=tid, pose=pose, local_vertices=block.verts[start:end],
                          center_world=center, normal_world=normal, tracking_state=state)
        for tid, pose, start, end, center, normal, state in zip(
            block.ids, block.pose, [0, *ends], ends,
            block.center, block.normal, block.states)
    ])
    w, h = block.screen
    for t, view, proj, cam, n in zip(block.t_ms, block.view, block.proj, block.cam_pos,
                                     block.n_trackables.tolist()):
        yield FrameRecord(timestamp_ms=t, view=view, projection=proj, camera_position=cam,
                          screen_w=w, screen_h=h, trackables=tuple(islice(tracks, n)))


class TraceFrames(Sequence[FrameRecord]):
    """The frames of a trace held as the FrameBlocks its producer made.

    Read as a sequence it is the FrameRecords of its blocks (block_records),
    made once, when first read; len and the last timestamp read the blocks.
    """

    __slots__ = ("blocks", "_records")

    def __init__(self, blocks: Iterable[FrameBlock]) -> None:
        self.blocks = tuple(blocks)
        self._records: tuple[FrameRecord, ...] | None = None

    @property
    def records(self) -> tuple[FrameRecord, ...]:
        if self._records is None:
            self._records = tuple(chain.from_iterable(map(block_records, self.blocks)))
        return self._records

    def __len__(self) -> int:
        return sum(len(block.t_ms) for block in self.blocks)

    def __getitem__(self, index):
        return self.records[index]

    def __iter__(self) -> Iterator[FrameRecord]:
        return iter(self.records)


@dataclass(frozen=True)
class PlaybackTrace:
    """A recording: its frames, the rate it was recorded at and its header's meta.

    frames is a sequence of FrameRecords: the TraceFrames of a producer
    (generate_trace, load_trace), or records made or edited by hand.
    """

    frames: Sequence[FrameRecord]
    source_fps: float
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ms(self) -> int:
        if isinstance(self.frames, TraceFrames):
            return self.frames.blocks[-1].t_ms[-1] if self.frames.blocks else 0
        return self.frames[-1].timestamp_ms if self.frames else 0


def _require(d: dict, key: str, where: str) -> Any:
    if key not in d:
        raise TraceParseError(f"{where}: missing field '{key}'")
    return d[key]


def _trackable_where(d: Any, where: str) -> str:
    """The structural checks of one trackable; returns where its errors are, by its id."""
    if not isinstance(d, dict):
        raise TraceParseError(f"{where}: trackable entry must be an object")
    tid = _require(d, "id", where)
    if type(tid) is not str or not tid:   # a str subclass is no JSON string, as in _valid_ids
        raise TraceValidationError(f"{where}: trackable id must be a non-empty string")
    where = f"{where} trackable '{tid}'"
    raw_verts = _require(d, "verts", where)
    if not isinstance(raw_verts, list) or len(raw_verts) < 3:
        raise TraceValidationError(f"{where}: polygon needs at least 3 vertices")
    for key in ("normal", "state", "pose", "center"):
        _require(d, key, where)
    if not isinstance(d["state"], str) or d["state"] not in _TRACKING_STATES:
        raise TraceValidationError(f"{where}: unknown tracking state {d['state']!r}")
    return where


# The numeric fields of a frame and their lengths, in the order _frame_fault
# checks them: each trackable's vertices (2 each) then these, then the camera's.
_TRACKABLE_NUMBERS = (("normal", 3), ("pose", 16), ("center", 3))
_CAMERA_NUMBERS = (("view", 16), ("proj", 16), ("cam_pos", 3))


def _frame_fault(where: str, d: dict) -> NoReturn:
    """Raise the first fault of a frame line that _block_frames rejects on its own.

    Structure comes first: fields, types, t_ms, screen, ids and states.
    Then each numeric field in the order above, then each trackable's
    polygon and normal.  Each error names its line and field.
    """
    try:
        integer(_require(d, "t_ms", where), "t_ms")
        screen = _require(d, "screen", where)
        if not (isinstance(screen, list) and len(screen) == 2
                and all(0 < integer(v, "screen") <= MAX_SCREEN_PX for v in screen)):
            raise ValueError(f"screen must be two positive integers (at most {MAX_SCREEN_PX})")
    except TraceError:   # a missing field, already worded with its line
        raise
    except ValueError as exc:
        raise TraceValidationError(f"{where}: {exc}") from None
    raw_trackables = _require(d, "trackables", where)
    if not isinstance(raw_trackables, list):
        raise TraceParseError(f"{where}: trackables must be a list")
    tracks = [(td, _trackable_where(td, where)) for td in raw_trackables]
    seen: set[str] = set()
    for td, _ in tracks:
        if td["id"] in seen:
            raise TraceValidationError(f"{where}: duplicate trackable id '{td['id']}'")
        seen.add(td["id"])
    for key, _ in _CAMERA_NUMBERS:
        _require(d, key, where)
    fields: list[tuple[Any, int, str]] = []   # (value, length, what) of each numeric field
    for td, tw in tracks:
        fields += [(xz, 2, f"{tw} vertex {i}") for i, xz in enumerate(td["verts"])]
        fields += [(td[key], count, f"{tw} {key}") for key, count in _TRACKABLE_NUMBERS]
    fields += [(d[key], count, f"{where} {key}") for key, count in _CAMERA_NUMBERS]
    try:
        for value, count, what in fields:
            numbers(value, count, what)
        for td, tw in tracks:
            if not simple_polygons([td["verts"]])[0]:
                raise ValueError(f"{tw}: polygon must be simple (no self-intersection)")
            unit(np.array(td["normal"], dtype=float), f"{tw}: normal")
    except ValueError as exc:
        raise TraceValidationError(str(exc)) from None
    raise AssertionError(f"{where}: a frame failed its checks but none of its fields did")


_FRAME_FIELDS = itemgetter("t_ms", "screen", "trackables", "view", "proj", "cam_pos")
_TRACKABLE_FIELDS = itemgetter("id", "state", "verts", "pose", "center", "normal")


def _only(kind: type, values: Iterable) -> bool:
    """Whether every value is exactly of type kind: a bool is no int, as in jsonin.json_numbers."""
    return {kind}.issuperset(map(type, values))


def _valid_ids(ids: Sequence, n_trackables: np.ndarray) -> bool:
    """Whether every trackable id is a non-empty str and no frame holds one twice.

    Frame i holds the next n_trackables[i] ids.  The rule of the reader
    and the writer alike.
    """
    if not (_only(str, ids) and all(ids)):
        return False
    frame_of = np.repeat(np.arange(len(n_trackables)), n_trackables).tolist()
    return len(set(zip(frame_of, ids))) == len(ids)


def _number_rows(rows: Sequence, n: int) -> np.ndarray | None:
    """rows as read-only (len(rows), n) float rows, when each is a list of n finite numbers.

    The rows are joined into one list a row at a time, which measured
    faster than two passes over a chain of the rows; its numbers get one
    type pass and one conversion (jsonin.finite_floats).
    """
    if not (_only(list, rows) and {n}.issuperset(map(len, rows))):
        return None
    joined: list = []
    for row in rows:
        joined += row
    arr = finite_floats(joined)
    return None if arr is None else _frozen(arr).reshape(-1, n)


def check_block(block: FrameBlock) -> bool:
    """Whether each frame of block, on its own, keeps the trace contract.

    Its t_ms are ints within 2**53 in magnitude, its screen is two ints in
    (0, MAX_SCREEN_PX], its ids pass _valid_ids, its states are
    TrackingStates, its numbers are finite, its polygons simple (which
    fails one of fewer than 3 vertices) and its normals of unit length as
    jsonin.unit tests one: dot_rows(v, v) is v.dot(v) to the bit.  Whether
    the frames follow each other is _follows'.  The reader (_block_frames)
    and the writer (_frame_texts) call it on each block.
    """
    t, screen, normal = block.t_ms, block.screen, block.normal
    if not (_only(int, t) and -MAX_INT <= min(t) and max(t) <= MAX_INT
            and len(screen) == 2 and _only(int, screen)
            and 0 < min(screen) and max(screen) <= MAX_SCREEN_PX
            and _valid_ids(block.ids, block.n_trackables) and _only(TrackingState, block.states)
            and all(np.isfinite(col).all() for col in (block.view, block.proj, block.cam_pos,
                                                       block.pose, block.center, normal,
                                                       block.verts))
            and simple_polygon_rows(block.verts, block.n_verts).all()):
        return False
    with np.errstate(over="ignore"):  # a length past the float range is inf, as in unit
        length = np.sqrt(dot_rows(normal, normal))
    return bool((np.abs(length - 1.0) <= UNIT_EPS).all())


def _block_frames(lines: list[tuple[int | str, dict]]) -> FrameBlock | None:
    """The frames of a block of lines as columns when every line passes its checks, else None.

    Each check is a pass over one field of the whole block: the keys, one
    screen of ints for every line, the types of screens, states and vertex
    lists, then one type pass and one conversion of the numbers of each
    row length (2, 3 and 16; _number_rows).  The block they make must pass
    check_block.  The passes say yes or no and name no line: a block they
    reject is read again a line at a time, and _frame_fault words the
    first fault of a line.  This is the one parser of a line: a one-line
    block checks one line.
    """
    try:
        t_ms, screens, per_frame, view, proj, cam_pos = zip(*(_FRAME_FIELDS(d) for _, d in lines))
    except KeyError:
        return None
    # == takes 1.0 for 1, so each line's types are checked
    if not (_only(list, screens) and screens.count(screens[0]) == len(screens)
            and _only(int, chain.from_iterable(screens)) and _only(list, per_frame)):
        return None
    raw = list(chain.from_iterable(per_frame))
    if not _only(dict, raw):
        return None
    try:
        columns = tuple(zip(*map(_TRACKABLE_FIELDS, raw))) or ((),) * 6
        ids, states, polys, pose, center, normal = columns
    except KeyError:
        return None
    if not (_only(str, states) and _TRACKING_STATES.keys() >= set(states) and _only(list, polys)):
        return None
    # one conversion per row length; each column is a slice of its rows
    f, k = len(lines), len(ids)
    mats = _number_rows(view + proj + pose, 16)
    vecs = _number_rows(cam_pos + center + normal, 3)
    verts = _number_rows(list(chain.from_iterable(polys)), 2)
    if mats is None or vecs is None or verts is None:
        return None
    mats = mats.reshape(-1, 4, 4).transpose(0, 2, 1)   # column-major rows: no copy
    block = FrameBlock(
        screen=tuple(screens[0]), t_ms=list(t_ms),
        view=mats[:f], proj=mats[f:2 * f], cam_pos=vecs[:f],
        n_trackables=_frozen(np.array(list(map(len, per_frame)), dtype=int)), ids=list(ids),
        states=list(map(_TRACKING_STATES.__getitem__, states)),
        pose=mats[2 * f:], center=vecs[f:f + k], normal=vecs[f + k:],
        n_verts=_frozen(np.array(list(map(len, polys)), dtype=int)), verts=verts,
    )
    return block if check_block(block) else None


def _trace_objects(fh: TextIO, name: str) -> Iterator[tuple[int, dict]]:
    """(line number, JSON object) for each non-blank line of a trace file opened by TraceFile.

    Each stripped line is decoded by one raw_decode, the scanner behind
    json.loads without its wrappers, and must be taken whole.  A line it
    does not take is decoded again by json.loads, whose error words the
    fault (jsonin.decode_error), so a line's "file:line" text is made only
    when it fails.  A line that held bytes that are not UTF-8 is a
    TraceParseError at that line, so it comes after every fault on an
    earlier line.
    """
    decode = json.JSONDecoder().raw_decode
    for lineno, line in enumerate(fh, start=1):
        if not line.isascii():  # a flag of the str, so ASCII lines cost nothing here
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                byte = ord(line[exc.start]) - 0xDC00
                raise TraceParseError(
                    f"{name}:{lineno}: not UTF-8 text (byte {byte:#04x} at column {exc.start + 1})"
                ) from None
        line = line.strip()
        if not line:
            continue
        try:
            obj, end = decode(line)
        except DECODE_ERRORS:
            end = -1
        if end != len(line):
            try:
                obj = json.loads(line)
            except DECODE_ERRORS as exc:
                raise TraceParseError(decode_error(exc, f"{name}:{lineno}")) from None
        if not isinstance(obj, dict):
            raise TraceParseError(f"{name}:{lineno}: expected a JSON object")
        yield lineno, obj


def _fps(value: Any) -> float:
    """value as a float, when it is a header fps the reader accepts: a finite positive number."""
    fps = finite(value, "fps")
    if not fps > 0:
        raise ValueError(f"fps must be a positive number, got {fps}")
    return fps


def _finite_meta(meta: Any) -> None:
    """Raise a ValueError when a header meta holds a NaN, an infinity, a value JSON cannot hold
    (a numpy integer, a set, bytes...) or itself, or nests past the recursion limit."""
    try:
        json.dumps(meta, allow_nan=False)
    except RecursionError:  # the encoder recurses once per level of nesting
        raise ValueError("header meta is nested too deeply") from None
    except ValueError as exc:  # json's circular check, or a NaN or an infinity
        if str(exc) == "Circular reference detected":
            raise ValueError("header meta must not contain itself") from None
        raise ValueError("header meta must hold finite numbers only") from None
    except TypeError as exc:
        raise ValueError(f"header meta must hold JSON values only: {exc}") from None


def _header(objects: Iterator[tuple[int, dict]], name: str) -> tuple[float, dict]:
    """The validated (fps, meta) of the header line, the first object of the file."""
    first = next(objects, None)
    if first is None:
        raise TraceParseError(f"{name}: empty file, expected a header line")
    lineno, obj = first
    where = f"{name}:{lineno}"
    if obj.get("format") != TRACE_FORMAT:
        raise TraceValidationError(
            f"{where}: header format must be '{TRACE_FORMAT}', got {obj.get('format')!r}"
        )
    if obj.get("version") != TRACE_VERSION:
        raise TraceValidationError(f"{where}: unsupported version {obj.get('version')!r}")
    try:
        fps = _fps(obj.get("fps"))
    except ValueError as exc:
        raise TraceValidationError(f"{where}: {exc}") from None
    meta = obj.get("meta", {})
    if not isinstance(meta, dict):
        raise TraceValidationError(f"{where}: header meta must be an object")
    try:
        _finite_meta(meta)
    except ValueError as exc:
        raise TraceValidationError(f"{where}: {exc}") from None
    return fps, meta


def blocks(
    items: Iterable[T], size: int, weight: Callable[[T], int] = lambda item: 1
) -> Iterator[list[T]]:
    """items in lists whose weights sum to size or just past it, in order; no list is empty.

    When items raises, the list filled so far is yielded first and the
    error is raised when the next list is asked for, so the items read
    before a stream error are handled first, and an error that handling
    raises is the one that escapes.  A consumer that keeps no reference
    to a list once it asks for the next holds one list at a time.
    """
    it = iter(items)
    while True:
        block: list[T] = []
        total = 0
        try:
            for item in it:
                block.append(item)
                total += weight(item)
                if total >= size:
                    break
        except Exception:
            if block:
                yield block
            raise
        if not block:
            return
        yield block


def _follows(block: FrameBlock, screen: tuple[int, int], prev: float) -> bool:
    """Whether block has screen and every frame a t_ms above prev and the one before it."""
    t = block.t_ms
    return block.screen == screen and prev < t[0] and all(map(lt, t, t[1:]))


def _after(block: FrameBlock, screen: tuple[int, int] | None, prev: float,
           where: str | None = None, where_t: str | None = None) -> tuple[tuple[int, int], int]:
    """The first frame's screen and the last t_ms once block follows frames of screen (None
    before the first frame) that end at t_ms prev.

    A block that does not follow them is a TraceValidationError: a screen
    change at where, else the first t_ms not above the one before it at
    where_t; each is "frame at <t> ms" of the frame at fault unless given.
    The rule of the reader, the writer and run_boxes alike.
    """
    screen = screen or block.screen
    if not _follows(block, screen, prev):
        (w, h), t = block.screen, block.t_ms
        if (w, h) != screen:
            raise TraceValidationError(f"{where or f'frame at {t[0]} ms'}: screen {w}x{h} "
                                       f"differs from the first frame's {screen[0]}x{screen[1]}")
        prev, t = next((a, b) for a, b in zip([prev, *t], t) if not a < b)
        raise TraceValidationError(f"{where_t or f'frame at {t} ms'}: "
                                   f"timestamps must be strictly increasing ({prev} then {t})")
    return screen, block.t_ms[-1]


def _read_block(
    line_blocks: Iterator[list[tuple[int, dict]]], screen: tuple[int, int] | None, prev: float
) -> tuple[FrameBlock | None, list[tuple[int, dict]]] | None:
    """The next lines of line_blocks, checked whole, or None after the last lines.

    (block, []) when _block_frames takes the lines and they follow frames
    of screen (None before the first frame) that end at t_ms prev;
    (None, lines) when they are to be checked a line at a time.  The
    cyclic collector is paused while the lines are read and checked, and
    the lines of a block taken whole are dropped before it resumes: their
    decoded objects hold no cycle, and thousands of them alive at once
    would set off collections over the whole heap.  Its earlier state is
    back when this returns or raises.  The pause is process-wide: another
    thread that allocates meanwhile does so with the collector off.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        lines = next(line_blocks, None)
        if lines is None:
            return None
        block = _block_frames(lines)
        if block is None or not _follows(block, screen or block.screen, prev):
            return None, lines
        lines.clear()   # frees the decoded lines now: blocks() holds the list until its next
        return block, lines
    finally:
        if collecting:
            gc.enable()


class _Span(io.RawIOBase):
    """Bytes [start, stop) of an open file, to its end when stop is None, read with os.pread,
    which leaves the file's offset alone: processes that share the descriptor each read
    their own bytes, and the opener's text layer reads on where it stopped."""

    def __init__(self, fd: int, start: int, stop: int | None) -> None:
        self.fd, self.at, self.stop = fd, start, stop

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        size = len(buf) if self.stop is None else min(len(buf), self.stop - self.at)
        data = os.pread(self.fd, size, self.at)
        buf[:len(data)] = data
        self.at += len(data)
        return len(data)


def _line_start(fd: int, at: int) -> int | None:
    """The offset past the first newline byte at or after offset at of an open file, or None."""
    while chunk := os.pread(fd, 1 << 16, at):
        if (i := chunk.find(b"\n")) >= 0:
            return at + i + 1
        at += len(chunk)
    return None


class TraceFile(AbstractContextManager):
    """A JSONL trace file opened once, for a with statement, which closes it.

    The header is read and checked on opening (fps and meta; a fault there
    closes the file and is raised), and one read_blocks call reads the
    frames after it, so a path that can be read only once, such as a pipe,
    is read whole.  A regular file can also be read as byte ranges (spans):
    read_blocks(keep, span) reads one range's frames with os.pread on the
    descriptor of the one open, so helper processes forked after it read
    their ranges at once, and the frames after the header stay unread for
    a read_blocks of the whole file.
    """

    def __init__(self, path: str | Path) -> None:
        self.name = Path(path).name
        # as UTF-8 text; bytes that are not UTF-8 reach their line as escapes (_trace_objects)
        self._fh = Path(path).open("r", encoding="utf-8", errors="surrogateescape")
        self._objects = _trace_objects(self._fh, self.name)
        try:
            self.fps, self.meta = _header(self._objects, self.name)
        except BaseException:
            self._fh.close()
            raise

    def __exit__(self, *exc_info: object) -> None:
        self._fh.close()

    def spans(self, n: int) -> list[tuple[int, int | None]]:
        """The file cut into at most n byte ranges (start, stop), in order, stop None at its end.

        Cut k is the line start just past the first newline byte at or after
        k/n of the file's bytes, the bytes the header was read from and the
        cut before; a cut at or past the end is left out.  Each range is a
        run of whole lines and the header lies in the first, so the ranges'
        lines in turn are the file's (read_blocks).  Only for a regular file.
        """
        fd = self._fh.fileno()
        size = os.fstat(fd).st_size
        cuts = [0]
        for k in range(1, n):
            # the text layer took the header's bytes and some after it, never fewer
            cut = _line_start(fd, max(size * k // n, self._fh.buffer.tell(), cuts[-1] + 1) - 1)
            if cut is None or cut >= size:
                break
            cuts.append(cut)
        return list(zip(cuts, [*cuts[1:], None]))

    def read_blocks(self, keep: Callable[[int], bool] | None = None,
                    span: tuple[int, int | None] | None = None) -> Iterator[FrameBlock]:
        """Validate the frames after the header, or those of one byte range, and yield them as
        FrameBlocks, a block of lines at a time.

        Each frame is checked on its own line and against the ones before it
        (one screen size, strictly increasing timestamps), so an error names
        the line where the fault first shows.  Frames are read and checked in
        blocks of INGEST_BLOCK_LINES lines (see _block_frames), each with the
        cyclic collector paused (_read_block), which is back in the caller's
        state before the block is yielded, when the read raises and when the
        caller stops early.  A block that fails any check is checked again as
        one-line blocks, with the collector in the caller's state, and a line
        that fails on its own raises its first fault (_frame_fault), so the
        first fault in reading order is the one reported, after the frames
        before it.  A read error inside a block is raised after the frames
        before it (blocks).  Raises TraceParseError for text that is not
        UTF-8, and for malformed JSON or missing fields, TraceValidationError
        for contract violations, and the usual OSError family for I/O trouble.

        keep, a decimation predicate such as deadline_walk's, is asked about
        each checked frame's timestamp in order, and only the frames it
        accepts are yielded; every line is still read and checked.  Without
        keep every frame is yielded.  No block is empty.

        span, one of spans(), reads that range's lines instead, decoded as the
        whole file is (UTF-8 with escapes, universal newlines) by a text layer
        of its own over os.pread (_Span), skipping the header in the first
        range: its frames are checked as a file of them alone would be, and
        its line numbers count from its start.
        """
        objects = self._objects
        if span is not None:
            text = io.TextIOWrapper(io.BufferedReader(_Span(self._fh.fileno(), *span)),
                                    encoding="utf-8", errors="surrogateescape")
            objects = _trace_objects(text, self.name)
            if span[0] == 0:
                next(objects)   # the header, checked on opening
        line_blocks = blocks(objects, INGEST_BLOCK_LINES)
        screen, prev = None, -math.inf   # the first frame's screen, the previous frame's t_ms
        while read := _read_block(line_blocks, screen, prev):
            block, lines = read
            if block is not None:
                checked: Iterable[tuple[str, FrameBlock]] = [("", block)]
            else:  # line by line, so that the first fault in reading order is raised
                checked = ((where, _block_frames([(where, d)]) or _frame_fault(where, d))
                           for where, d in ((f"{self.name}:{n}", d) for n, d in lines))
            for where, part in checked:
                screen, prev = _after(part, screen, prev, where, self.name)
                if keep is not None:
                    part = _take(part, list(map(keep, part.t_ms)))
                if part.t_ms:
                    yield part
            del read, lines, block, checked, part  # before the next block is read
        if screen is None:
            raise TraceValidationError(f"{self.name}: trace has no frames")


def load_trace(path: str | Path) -> PlaybackTrace:
    """Load and validate a whole JSONL trace file, held as its blocks (TraceFile.read_blocks,
    which lists what it rejects)."""
    with TraceFile(path) as trace:
        return PlaybackTrace(TraceFrames(trace.read_blocks()), trace.fps, trace.meta)


def _stacked(values: Sequence, shape: tuple[int, ...]) -> np.ndarray | None:
    """values as one float array of shape (len(values), *shape), or None unless each
    value is an array of numbers of that shape; values is not empty."""
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    return arr if arr.shape[1:] == shape else None


def _polygons(polys: Sequence) -> np.ndarray | None:
    """The vertices of polys as one float (V, 2) array, or None unless each polygon is an
    (n, 2) array of numbers."""
    try:
        return np.concatenate([np.empty((0, 2)), *polys]).astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):
        return None


def _records_block(frames: Sequence[FrameRecord]) -> FrameBlock | None:
    """frames as one block of C-order matrices, or None unless every matrix, vector and
    polygon is an array of numbers of its shape, every state a TrackingState and every
    frame's screen the first one's, of the same types; the values are check_block's to
    judge."""
    tracks = [t for f in frames for t in f.trackables]
    screens = [(f.screen_w, f.screen_h) for f in frames]
    kinds = [(type(w), type(h)) for w, h in screens]
    states = [t.tracking_state for t in tracks]
    mats = _stacked([f.view for f in frames] + [f.projection for f in frames]
                    + [t.pose for t in tracks], (4, 4))
    vecs = _stacked([f.camera_position for f in frames] + [t.center_world for t in tracks]
                    + [t.normal_world for t in tracks], (3,))
    verts = _polygons([t.local_vertices for t in tracks])
    if (mats is None or vecs is None or verts is None or not _only(TrackingState, states)
            or screens.count(screens[0]) < len(screens) or kinds.count(kinds[0]) < len(kinds)):
        return None
    n, k = len(frames), len(tracks)
    return FrameBlock(
        screen=screens[0], t_ms=[f.timestamp_ms for f in frames],
        view=mats[:n], proj=mats[n:2 * n], cam_pos=vecs[:n],
        n_trackables=np.array([len(f.trackables) for f in frames], dtype=int),
        ids=[t.trackable_id for t in tracks], states=states,
        pose=mats[2 * n:], center=vecs[n:n + k], normal=vecs[n + k:],
        n_verts=np.array([len(t.local_vertices) for t in tracks], dtype=int), verts=verts,
    )


def _record_fault(f: FrameRecord, where: str) -> NoReturn:
    """Raise the one message of a record that is no one-frame block (_records_block), at the
    first of its trackables that is none alone, or at the frame when its camera's fields are."""
    for track in f.trackables if _records_block([replace(f, trackables=())]) else ():
        if _records_block([replace(f, trackables=(track,))]) is None:
            where = f"{where} trackable {track.trackable_id!r}"
            break
    raise ValueError(f"{where}: matrices must be 4x4, vectors 3 long and polygons (n, 2) "
                     "arrays of numbers, and states TrackingStates")


def _matrix_rows(block: FrameBlock) -> np.ndarray:
    """The view, proj and pose matrices of block, one after another, as C-contiguous rows of
    their 16 numbers in column-major order; a copy only of matrices in C order."""
    return np.concatenate([block.view, block.proj, block.pose]).transpose(0, 2, 1).reshape(-1, 16)


def _frame_object(block: FrameBlock) -> dict:
    """The JSON object of the line of a one-frame block, as the reader decodes it."""
    mats = _matrix_rows(block).tolist()
    vecs = np.concatenate([block.cam_pos, block.center, block.normal]).tolist()
    verts, ends, k = block.verts.tolist(), np.cumsum(block.n_verts).tolist(), len(block.ids)
    return {"t_ms": block.t_ms[0], "screen": list(block.screen), "view": mats[0],
            "proj": mats[1], "cam_pos": vecs[0], "trackables": [
                {"id": tid, "state": state.value, "verts": verts[start:end], "pose": pose,
                 "center": center, "normal": normal}
                for tid, state, start, end, pose, center, normal in zip(
                    block.ids, block.states, [0, *ends], ends, mats[2:], vecs[1:k + 1],
                    vecs[k + 1:])]}


def _row_texts(rows: np.ndarray) -> list[str]:
    """The JSON text of each row of a C-contiguous float (m, k) array of finite numbers.

    A dict keyed by the rows' bytes gives each distinct row its text once
    (-0.0 and 0.0 differ in bytes as in text).  repr of a list of finite
    floats is the text json.dumps writes for it.
    """
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()
    distinct = dict.fromkeys(keys)
    values = np.frombuffer(b"".join(distinct), dtype=float).reshape(-1, rows.shape[1]).tolist()
    cache = dict(zip(distinct, map(repr, values)))
    return list(map(cache.__getitem__, keys))


def _block_lines(block: FrameBlock) -> str:
    """The frame lines of a block check_block passed, each the text json.dumps writes for its frame.

    The matrices are written column-major (_matrix_rows).
    Each distinct matrix or vector row is formatted once (_row_texts),
    each polygon is the repr of its rows of one verts.tolist(), and the
    screen is formatted once.
    """
    n, k = len(block.t_ms), len(block.ids)
    mat = _row_texts(_matrix_rows(block))
    vec = _row_texts(np.concatenate([block.cam_pos, block.center, block.normal]))
    ids = {tid: json.dumps(tid) for tid in dict.fromkeys(block.ids)}
    verts = block.verts.tolist()
    ends = np.cumsum(block.n_verts).tolist()
    # a TrackingState value is plain capitals, so quoting it is its JSON text; _value_
    # is the attribute behind .value, read without the Enum property's call
    track_texts = iter([
        f'{{"id": {ids[tid]}, "pose": {pose}, "verts": {verts[start:end]!r}, '
        f'"center": {center}, "normal": {normal}, "state": "{state._value_}"}}'
        for tid, pose, start, end, center, normal, state in zip(
            block.ids, mat[2 * n:], [0, *ends], ends, vec[n:n + k], vec[n + k:], block.states)
    ])
    screen = "[{}, {}]".format(*block.screen)
    return "".join(
        f'{{"t_ms": {t}, "view": {view}, "proj": {proj}, "cam_pos": {cam}, "screen": {screen}, '
        f'"trackables": [{", ".join(islice(track_texts, m))}]}}\n'
        for t, view, proj, cam, m in zip(
            block.t_ms, mat[:n], mat[n:2 * n], vec[:n], block.n_trackables.tolist())
    )


def _frame_texts(frames: Sequence[FrameRecord]) -> Iterator[str]:
    """The frame lines of frames, a block at a time, each block checked whole as the reader
    checks its blocks: check_block, and _follows the frames before it.

    A TraceFrames is written as its blocks; other records are stacked into
    one block per INGEST_BLOCK_LINES frames (_records_block).  Records that
    are no one block, and a block that fails, are checked again a frame at
    a time, as one-frame blocks, so that the first fault is raised at
    "frame at <t> ms": a record that is no block by _record_fault, a value
    by the reader's _frame_fault on the frame's JSON object, and a frame
    that does not follow the one before by the reader's _after.
    """
    parts = (frames.blocks if isinstance(frames, TraceFrames)
             else (_records_block(part) or part for part in blocks(frames, INGEST_BLOCK_LINES)))
    screen, prev = None, -math.inf   # the first frame's screen, the previous frame's t_ms
    for part in parts:
        if not (isinstance(part, FrameBlock) and check_block(part)
                and _follows(part, screen or part.screen, prev)):
            for f in part if isinstance(part, list) else block_records(part):
                where = f"frame at {f.timestamp_ms} ms"
                one = _records_block([f]) or _record_fault(f, where)
                if not check_block(one):
                    _frame_fault(where, _frame_object(one))
                screen, prev = _after(one, screen, prev)
            raise AssertionError("a block of frames failed its checks but none of its frames did")
        screen, prev = screen or part.screen, part.t_ms[-1]
        yield _block_lines(part)


def save_trace(trace: PlaybackTrace, path: str | Path) -> None:
    """Write a trace as JSONL that load_trace reads back as the same frames.

    Frames are written a block at a time (_frame_texts), and within a block
    each distinct matrix or vector row is formatted once; the bytes are
    those of json.dumps of each frame object.  The writer applies the
    reader's contract (check_block, and each frame after the one before)
    and raises the reader's errors, worded by its _frame_fault and _after,
    at "frame at <t> ms" where the reader names a file line.  A record
    whose matrix, vector or polygon is no array of numbers of its shape,
    or whose state is no TrackingState, has one message of its own.  A
    header fps that is not a finite positive number, a meta value JSON
    cannot hold (a NaN, an infinity, a numpy number, a set, bytes...) and
    a trace of no frames are rejected too.  Each fault is a
    ValueError, as TraceError is.  The whole text is built before the file
    is opened, so a rejected trace leaves any file at path as it was.
    """
    _fps(trace.source_fps)
    _finite_meta(trace.metadata)
    if not trace.frames:
        raise ValueError("trace has no frames")
    header = {"format": TRACE_FORMAT, "version": TRACE_VERSION, "fps": trace.source_fps,
              "meta": trace.metadata}
    text = [json.dumps(header) + "\n", *_frame_texts(trace.frames)]
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines(text)


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
    at or above the source rate every timestamp is kept, and so it is when
    the period is 1 ms or less, since timestamps are whole milliseconds.
    The walk's last_ms is the last timestamp it was asked about: a
    producer asks about every timestamp of its source, so it ends there.
    """
    period = 1000.0 / target_fps
    return DeadlineWalk(period if target_fps < source_fps and period > 1.0 else 0.0)
