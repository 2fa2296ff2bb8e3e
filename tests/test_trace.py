from __future__ import annotations

import dataclasses
import gc
import json
import math
import random
import tracemalloc
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import decimate, frame_blocks, iter_blocks, iter_frames
from playtrace import trace as trace_module
from playtrace.geometry import simple_polygons
from playtrace.jsonin import unit
from playtrace.pipeline import BOX_BLOCK_FRAMES, AnalysisParams, run_boxes
from playtrace.scenes import benchmark_scene
from playtrace.simulator import generate_trace
from playtrace.trace import (
    INGEST_BLOCK_LINES,
    FrameRecord,
    PlaybackTrace,
    TraceError,
    TraceFile,
    TraceParseError,
    TraceValidationError,
    TraceFrames,
    TrackableSnapshot,
    TrackingState,
    block_records,
    blocks,
    deadline_walk,
    load_trace,
    save_trace,
)

IDENTITY16 = [1.0, 0, 0, 0, 0, 1.0, 0, 0, 0, 0, 1.0, 0, 0, 0, 0, 1.0]


def _header(**overrides):
    h = {"format": "tariplay-trace", "version": 1, "fps": 30.0}
    h.update(overrides)
    return h


def _trackable(**overrides):
    t = {
        "id": "plane-1",
        "pose": list(IDENTITY16),
        "verts": [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]],
        "center": [0.0, 0.0, 0.0],
        "normal": [0.0, 1.0, 0.0],
        "state": "TRACKING",
    }
    t.update(overrides)
    return t


def _frame(t_ms=0, trackables=None, **overrides):
    f = {
        "t_ms": t_ms,
        "view": list(IDENTITY16),
        "proj": list(IDENTITY16),
        "cam_pos": [0.0, 2.0, 0.0],
        "screen": [1920, 1080],
        "trackables": [_trackable()] if trackables is None else trackables,
    }
    f.update(overrides)
    return f


def _write(tmp_path, lines):
    p = tmp_path / "t.jsonl"
    p.write_text("".join(json.dumps(x) + "\n" for x in lines), encoding="utf-8")
    return p


def test_load_minimal_trace(tmp_path):
    p = _write(tmp_path, [_header(), _frame(0), _frame(33)])
    tr = load_trace(p)
    assert len(tr.frames) == 2
    assert tr.source_fps == 30.0
    assert tr.duration_ms == 33
    f = tr.frames[0]
    assert (f.screen_w, f.screen_h) == (1920, 1080)
    assert f.trackables[0].trackable_id == "plane-1"
    assert f.trackables[0].tracking_state is TrackingState.TRACKING
    assert f.trackables[0].local_vertices.tolist() == [
        [-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]


def test_round_trip(tmp_path):
    p = _write(tmp_path, [_header(meta={"note": "x"}), _frame(0), _frame(100)])
    tr = load_trace(p)
    q = tmp_path / "copy.jsonl"
    save_trace(tr, q)
    tr2 = load_trace(q)
    assert tr2.metadata == {"note": "x"}
    assert len(tr2.frames) == len(tr.frames)
    for a, b in zip(tr.frames, tr2.frames):
        assert a.timestamp_ms == b.timestamp_ms
        assert np.array_equal(a.view, b.view)
        assert np.array_equal(a.projection, b.projection)
        assert np.array_equal(a.trackables[0].local_vertices, b.trackables[0].local_vertices)


def test_mat4_column_major(tmp_path):
    vals = [float(i) for i in range(16)]
    m = load_trace(_write(tmp_path, [_header(), _frame(view=vals)])).frames[0].view
    # column-major: the first four values are the first column
    assert m[0, 0] == 0.0 and m[1, 0] == 1.0 and m[3, 0] == 3.0
    assert m[0, 1] == 4.0
    assert oracles.mat4_to_list(m) == vals
    assert not m.flags.writeable


def test_empty_file(tmp_path):
    p = tmp_path / "empty.jsonl"
    p.write_text("", encoding="utf-8")
    with pytest.raises(TraceParseError, match="empty file"):
        load_trace(p)


def test_header_only(tmp_path):
    p = _write(tmp_path, [_header()])
    with pytest.raises(TraceValidationError, match="no frames"):
        load_trace(p)


def test_bad_format_and_version(tmp_path):
    with pytest.raises(TraceValidationError, match="format"):
        load_trace(_write(tmp_path, [_header(format="something-else"), _frame()]))
    with pytest.raises(TraceValidationError, match="version"):
        load_trace(_write(tmp_path, [_header(version=99), _frame()]))
    with pytest.raises(TraceValidationError, match="fps"):
        load_trace(_write(tmp_path, [_header(fps=-1), _frame()]))


@pytest.mark.parametrize("fps", [float("nan"), float("inf")], ids=["nan", "infinity"])
def test_non_finite_fps_rejected(tmp_path, fps):
    p = _write(tmp_path, [_header(fps=fps), _frame()])
    with pytest.raises(TraceValidationError, match=f"^t\\.jsonl:1: fps must be a finite number, got {fps}$"):
        load_trace(p)


def test_error_carries_line_number(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text(json.dumps(_header()) + "\n" + "{not json\n", encoding="utf-8")
    with pytest.raises(TraceParseError, match=r"bad\.jsonl:2"):
        load_trace(p)


def test_missing_field(tmp_path):
    f = _frame()
    del f["view"]
    with pytest.raises(TraceParseError, match="view"):
        load_trace(_write(tmp_path, [_header(), f]))


@pytest.mark.parametrize("key", ["t_ms", "screen"])
def test_missing_time_or_screen_is_a_parse_error_named_once(tmp_path, key):
    broken = _frame(66)
    del broken[key]
    for read in (load_trace, lambda p: list(iter_frames(p))):
        with pytest.raises(TraceParseError, match=rf"^t\.jsonl:4: missing field '{key}'$"):
            read(_write(tmp_path, [_header(), _frame(0), _frame(33), broken]))


def test_timestamps_strictly_increasing(tmp_path):
    p = _write(tmp_path, [_header(), _frame(100), _frame(100)])
    with pytest.raises(TraceValidationError, match="strictly increasing"):
        load_trace(p)


def test_backward_timestamp_is_reported_before_later_faults(tmp_path):
    broken = _frame(300)
    del broken["view"]
    p = _write(tmp_path, [_header(), _frame(100), _frame(50), broken])
    with pytest.raises(TraceValidationError, match=r"^t\.jsonl: timestamps must be strictly "
                       r"increasing \(100 then 50\)$"):
        load_trace(p)


def test_iter_frames_yields_each_frame_before_reading_the_next(tmp_path):
    broken = _frame(300)
    del broken["view"]
    frames = iter_frames(_write(tmp_path, [_header(), _frame(100), _frame(200), broken]))
    assert [next(frames).timestamp_ms, next(frames).timestamp_ms] == [100, 200]
    with pytest.raises(TraceParseError, match=r"t\.jsonl:4: missing field 'view'"):
        next(frames)


def test_header_faults_come_before_frame_faults(tmp_path):
    broken = _frame(0)
    del broken["view"]
    p = _write(tmp_path, [_header(meta=[]), broken])
    for read in (TraceFile, load_trace, lambda p: next(iter_frames(p))):
        with pytest.raises(TraceValidationError) as exc:
            read(p)
        assert str(exc.value) == "t.jsonl:1: header meta must be an object"


def test_float_timestamp_rejected(tmp_path):
    with pytest.raises(TraceValidationError, match="t_ms"):
        load_trace(_write(tmp_path, [_header(), _frame(t_ms=1.5)]))


def test_bad_screen(tmp_path):
    with pytest.raises(TraceValidationError, match="screen"):
        load_trace(_write(tmp_path, [_header(), _frame(screen=[1920, 0])]))


def test_screen_change_mid_trace_rejected(tmp_path):
    frames = [_frame(t) for t in (0, 100)] + [_frame(200, screen=[960, 540])]
    with pytest.raises(TraceValidationError, match=r"t\.jsonl:4: screen 960x540 differs"):
        load_trace(_write(tmp_path, [_header(), *frames]))


def test_trackable_validation(tmp_path):
    degenerate = _trackable(verts=[[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(TraceValidationError, match="3 vertices"):
        load_trace(_write(tmp_path, [_header(), _frame(trackables=[degenerate])]))

    bowtie = _trackable(verts=[[0, 0], [1, 1], [1, 0], [0, 1]])
    with pytest.raises(TraceValidationError, match="simple"):
        load_trace(_write(tmp_path, [_header(), _frame(trackables=[bowtie])]))

    long_normal = _trackable(normal=[0.0, 2.0, 0.0])
    with pytest.raises(TraceValidationError, match="unit length"):
        load_trace(_write(tmp_path, [_header(), _frame(trackables=[long_normal])]))

    weird_state = _trackable(state="FLYING")
    with pytest.raises(TraceValidationError, match="tracking state"):
        load_trace(_write(tmp_path, [_header(), _frame(trackables=[weird_state])]))

    dup = [_trackable(), _trackable()]
    with pytest.raises(TraceValidationError, match="duplicate"):
        load_trace(_write(tmp_path, [_header(), _frame(trackables=dup)]))


def _synthetic_trace(timestamps, fps):
    identity = np.eye(4)
    identity.flags.writeable = False
    frames = tuple(
        FrameRecord(
            timestamp_ms=t,
            view=identity,
            projection=identity,
            camera_position=np.zeros(3),
            screen_w=100,
            screen_h=100,
            trackables=(),
        )
        for t in timestamps
    )
    return PlaybackTrace(frames=frames, source_fps=fps)


def _kept(tr, target_fps):
    return [f.timestamp_ms for f in decimate(tr.frames, tr.source_fps, target_fps)]


def test_sample_frames_basic_decimation():
    # 30 fps -> 10 fps keeps the first frame at or after each 100 ms deadline
    tr = _synthetic_trace(list(range(0, 1000, 33)), 30.0)
    assert _kept(tr, 10.0) == [0, 132, 231, 330, 429, 528, 627, 726, 825, 924]


def test_sample_frames_no_upsampling():
    tr = _synthetic_trace([0, 100, 200], 10.0)
    assert list(decimate(tr.frames, 10.0, 10.0)) == list(tr.frames)
    assert list(decimate(tr.frames, 10.0, 60.0)) == list(tr.frames)


def test_sample_frames_gap():
    # a recording gap longer than the period resumes on the next real frame,
    # and the deadline realigns to the absolute grid rather than drifting
    tr = _synthetic_trace([0, 100, 1000, 1100, 1250], 10.0)
    assert _kept(tr, 5.0) == [0, 1000, 1250]


@pytest.mark.parametrize("target_fps", [1000.0, 1000.5, 1e6, 1e299])
def test_a_period_of_1_ms_or_less_keeps_every_timestamp(target_fps):
    # timestamps are whole milliseconds; near 2**53 t / period rounds, or overflows a float
    edge = 2**53
    timestamps = [*range(-edge, -edge + 20), *range(-10, 11), *range(edge - 20, edge + 1)]
    walk = deadline_walk(1e300, target_fps)
    assert [t for t in timestamps if walk(t)] == timestamps
    assert oracles.decimate_reference(timestamps, 1e300, target_fps) == timestamps


@settings(max_examples=200, deadline=None)
@given(
    gaps=st.lists(st.integers(1, 400), max_size=60),
    start=st.integers(-500, 500),
    source_fps=st.floats(1.0, 120.0),
    target_fps=st.floats(0.5, 120.0),
)
def test_decimate_matches_the_deadline_walk(gaps, start, source_fps, target_fps):
    timestamps = [start + sum(gaps[:i]) for i in range(len(gaps) + 1)]
    tr = _synthetic_trace(timestamps, source_fps)
    streamed = [f.timestamp_ms for f in decimate(iter(tr.frames), source_fps, target_fps)]
    assert streamed == oracles.decimate_reference(timestamps, source_fps, target_fps)
    kept = list(decimate(tr.frames, source_fps, target_fps))
    assert list(decimate(kept, source_fps, target_fps)) == kept
    run = run_boxes(frame_blocks(kept))
    assert streamed == run.timestamps_ms


def test_sample_frames_bad_fps():
    with pytest.raises(ValueError):
        AnalysisParams(fps=0.0)
    with pytest.raises(TraceValidationError):
        run_boxes(())


# ---------------------------------------------------------- numeric fields
#
# Every numeric field of a frame, with the text its errors name.  Each bad
# value replaces the field's last entry, except "wrong length", which drops
# that entry.

_NUMERIC_FIELDS = {
    "view": (lambda f: f, "view", 16, "view"),
    "proj": (lambda f: f, "proj", 16, "proj"),
    "cam_pos": (lambda f: f, "cam_pos", 3, "cam_pos"),
    "pose": (lambda f: f["trackables"][0], "pose", 16, "trackable 'plane-1' pose"),
    "center": (lambda f: f["trackables"][0], "center", 3, "trackable 'plane-1' center"),
    "normal": (lambda f: f["trackables"][0], "normal", 3, "trackable 'plane-1' normal"),
    "vertex": (lambda f: f["trackables"][0]["verts"], 1, 2, "trackable 'plane-1' vertex 1"),
}

_BAD_ENTRIES = {
    "true": True,
    "string": "1.0",
    "null": None,
    "nan": float("nan"),
    "infinity": float("inf"),
    "nested-list": [1.0],
}


def _corrupt(field, bad, t_ms=33):
    frame = _frame(t_ms)
    owner_of, key, _, _ = _NUMERIC_FIELDS[field]
    owner = owner_of(frame)
    values = list(owner[key])
    if bad == "wrong-length":
        values.pop()
    else:
        values[-1] = _BAD_ENTRIES[bad]
    owner[key] = values
    return frame


@pytest.mark.parametrize("bad", [*_BAD_ENTRIES, "wrong-length"])
@pytest.mark.parametrize("field", list(_NUMERIC_FIELDS))
def test_bad_numeric_entry_names_field_and_line(tmp_path, field, bad):
    frame = _corrupt(field, bad)
    p = _write(tmp_path, [_header(), _frame(0), frame])
    owner_of, key, count, what = _NUMERIC_FIELDS[field]
    with pytest.raises(TraceValidationError) as exc:
        load_trace(p)
    assert str(exc.value) == (
        f"t.jsonl:3 {what} must be a list of {count} finite numbers, got {owner_of(frame)[key]!r}"
    )


def test_integer_numbers_load_as_floats_and_save_as_floats(tmp_path):
    def frame(num):
        return _frame(
            0,
            trackables=[_trackable(
                pose=[num(v) for v in IDENTITY16],
                verts=[[num(1), num(0)], [num(0), num(1)], [num(-1), num(0)]],
                center=[num(0), num(0), num(0)],
                normal=[num(0), num(1), num(0)],
            )],
            view=[num(v) for v in IDENTITY16],
            proj=[num(v) for v in IDENTITY16],
            cam_pos=[num(0), num(2), num(0)],
        )

    ints = _write(tmp_path, [_header(meta={}), frame(int)])
    assert '"verts": [[1, 0], [0, 1], [-1, 0]]' in ints.read_text()
    tr = load_trace(ints)
    t = tr.frames[0].trackables[0]
    assert t.local_vertices.dtype == np.float64
    assert t.local_vertices.tolist() == [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]
    assert tr.frames[0].view.dtype == np.float64
    saved = tmp_path / "saved.jsonl"
    save_trace(tr, saved)
    floats = tmp_path / "floats.jsonl"
    floats.write_text(
        "".join(json.dumps(x) + "\n" for x in [_header(meta={}), frame(float)]),
        encoding="utf-8",
    )
    assert '"verts": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]' in saved.read_text()
    assert saved.read_bytes() == floats.read_bytes()


# ------------------------------------------------------------ trace writing
#
# save_trace writes a block of frames at a time; oracles.trace_text_per_frame
# writes one json.dumps line per frame.  The bytes must be the same.

_WRITTEN_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 1e-5, 1.0, -2.0, 30.0]) | st.floats(
    allow_nan=False, allow_infinity=False)
_ODD_IDS = st.text(st.sampled_from('a"\\\x00\n\x1f\x7fé☃\U0001f600') | st.characters(), min_size=1,
                   max_size=5)


def _zero_signs(rows):
    """rows and two more: the first row starting with 0.0 and with -0.0, equal but for the bits."""
    return [[zero, *rows[0][1:]] for zero in (0.0, -0.0)] + rows


# a simple polygon of odd floats, and unit normals, two of them signed zeros apart
_ODD_TRIANGLE = [(-0.0, 0.0), (1.0, 5e-324), (1e16, 30.0)]
_NORMALS = [[0.0, 1.0, 0.0], [-0.0, 1.0, 0.0], [0.6, 0.8, -0.0], [0.0, 0.0, -1.0],
            [0.0, 1.0 + 4e-7, 0.0]]


def _unit_rows(rows):
    """Each nonzero row divided by its length, where the quotient passes the reader's unit test."""
    normals = []
    for row in rows:
        if length := math.hypot(*row):
            try:
                normals.append(unit(np.array([v / length for v in row]), "normal").tolist())
            except ValueError:
                pass
    return normals


def _scaled_shapes(shapes):
    """For each (n, sx, sz), the regular n-gon on the unit circle scaled by sx along x and sz
    along z: convex, so simple unless its floats collapse or overflow."""
    return [[(sx * math.cos(2 * math.pi * k / n), sz * math.sin(2 * math.pi * k / n))
             for k in range(n)] for n, sx, sz in shapes]


@st.composite
def _hand_made_frames(draw, n_frames):
    """n_frames frames the reader takes, drawn from a few rows each, so rows repeat within and
    across blocks.

    A matrix is a C-order array or the transposed view load_trace returns;
    a frame holds up to four trackables, or none.  A polygon is a drawn one
    or a regular polygon scaled by drawn factors, when it is simple, or
    _ODD_TRIANGLE; a normal is one of _NORMALS or a drawn vector divided by
    its length.  The normals are among the vectors.
    """
    mats = _zero_signs(draw(st.lists(st.lists(_WRITTEN_FLOATS, min_size=16, max_size=16),
                                     min_size=1, max_size=3)))
    vecs = _zero_signs(draw(st.lists(st.lists(_WRITTEN_FLOATS, min_size=3, max_size=3),
                                     min_size=1, max_size=3)))
    normals = _NORMALS + _unit_rows(vecs)
    vecs += normals
    polys = draw(st.lists(st.lists(st.tuples(_WRITTEN_FLOATS, _WRITTEN_FLOATS), min_size=3,
                                   max_size=7), min_size=1, max_size=4))
    polys += _scaled_shapes(draw(st.lists(st.tuples(st.integers(3, 7), _WRITTEN_FLOATS,
                                                    _WRITTEN_FLOATS), min_size=1, max_size=4)))
    polys = [p for p in polys if simple_polygons([p])[0]] + [_ODD_TRIANGLE]
    ids = draw(st.lists(_ODD_IDS, min_size=1, max_size=4, unique=True))
    start = draw(st.integers(-2**53, 2**53 - 200 * n_frames))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def matrix():
        rows = np.array(rng.choice(mats)).reshape(1, 4, 4)
        return (rows.transpose(0, 2, 1) if rng.random() < 0.5 else rows)[0]

    frames = []
    for i in range(n_frames):
        tracks = tuple(
            TrackableSnapshot(tid, matrix(), np.array(rng.choice(polys)), np.array(rng.choice(vecs)),
                              np.array(rng.choice(normals)), rng.choice(list(TrackingState)))
            for tid in rng.sample(ids, rng.randint(0, len(ids)))
        )
        frame = FrameRecord(start + 200 * i, matrix(), matrix(), np.array(rng.choice(vecs)),
                            1920, 1080, tracks)
        if i == _B:  # the first frame of the second block repeats the last of the first
            before = frames[-1]
            frame = dataclasses.replace(frame, view=before.view, projection=before.projection,
                                        camera_position=before.camera_position)
        frames.append(frame)
    return PlaybackTrace(tuple(frames), 30.0, {"note": ids[0]})


@pytest.mark.parametrize("n_frames", [1, 63, 64, 65, 129])
def test_save_trace_writes_the_bytes_of_the_per_frame_writer(tmp_path_factory, n_frames):
    # the records, and the same frames as the renderer's C-order blocks and as the
    # column-major blocks load_trace holds
    @settings(max_examples=12, deadline=None)
    @given(trace=_hand_made_frames(n_frames))
    def check(trace):
        text = oracles.trace_text_per_frame(trace).encode("utf-8")
        for frames in (trace.frames,
                       TraceFrames(oracles.frames_as_blocks(trace.frames, BOX_BLOCK_FRAMES, False)),
                       TraceFrames(oracles.frames_as_blocks(trace.frames, _B, True))):
            path = tmp_path_factory.mktemp("saved") / "t.jsonl"
            save_trace(dataclasses.replace(trace, frames=frames), path)
            assert path.read_bytes() == text

    check()


def _replaced(frames, i, **changes):
    return (*frames[:i], dataclasses.replace(frames[i], **changes), *frames[i + 1:])


def _replaced_trackable(frames, i, **changes):
    tracks = frames[i].trackables
    return _replaced(frames, i, trackables=(*(dataclasses.replace(t, **changes)
                                              for t in tracks[:1]), *tracks[1:]))


# edits of frame i of a hand-made trace (of its first trackable, when it holds one) that
# each break the contract, unless the trace is too short for them to show
_FAULTING_EDITS = [
    lambda fr, i: _replaced(fr, i, timestamp_ms=fr[i - 1].timestamp_ms),
    lambda fr, i: _replaced(fr, i, timestamp_ms=float(fr[i].timestamp_ms)),
    lambda fr, i: _replaced(fr, i, screen_w=0),
    lambda fr, i: _replaced(fr, i, screen_h=720),
    lambda fr, i: _replaced(fr, i, view=_with(_NAN, (1, 2), fr[i].view)),
    lambda fr, i: _replaced(fr, i, camera_position=np.array([0.0, _INF, 0.0])),
    lambda fr, i: _replaced(fr, i, trackables=fr[i].trackables + fr[i].trackables[:1]),
    lambda fr, i: _replaced_trackable(fr, i, normal_world=np.array([0.0, 2.0, 0.0])),
    lambda fr, i: _replaced_trackable(fr, i, local_vertices=np.array(
        [[-1.0, -1.0], [1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]])),
    lambda fr, i: _replaced_trackable(fr, i, local_vertices=np.array([[0.0, 0.0], [1.0, 0.0]])),
    lambda fr, i: _replaced_trackable(fr, i, trackable_id=""),
    lambda fr, i: _replaced_trackable(fr, i, tracking_state="TRACKING"),
    lambda fr, i: _replaced_trackable(fr, i, pose=np.eye(4)[:3]),
]


@settings(max_examples=40, deadline=None)
@given(trace=st.integers(1, 2 * INGEST_BLOCK_LINES + 1).flatmap(_hand_made_frames),
       edit=st.none() | st.sampled_from(_FAULTING_EDITS), at=st.floats(0.0, 1.0, exclude_max=True))
def test_save_trace_raises_or_writes_what_load_trace_reads_back(tmp_path_factory, trace, edit,
                                                                 at):
    if edit is not None:
        trace = dataclasses.replace(
            trace, frames=edit(tuple(trace.frames), int(at * len(trace.frames))))
    path = tmp_path_factory.mktemp("saved") / "t.jsonl"
    path.write_bytes(b"an earlier file\n")
    try:
        save_trace(trace, path)
    except ValueError:
        assert path.read_bytes() == b"an earlier file\n"
        return
    # the same frames, down to the sign of a zero
    assert oracles.trace_text_per_frame(load_trace(path)) == oracles.trace_text_per_frame(trace)


def _valid_trace(tmp_path):
    return load_trace(_write(tmp_path, [_header(), _frame(0), _frame(33)]))


def _edit_second_frame(**changes):
    return lambda tr: dataclasses.replace(tr, frames=(
        tr.frames[0], dataclasses.replace(tr.frames[1], **changes)))


def _edit_second_trackable(**changes):
    def edit(tr):
        frame = tr.frames[1]
        track = dataclasses.replace(frame.trackables[0], **changes)
        return _edit_second_frame(trackables=(track,))(tr)
    return edit


def _with(value, at, arr):
    """A writable copy of arr with value at index at."""
    arr = np.array(arr)
    arr[at] = value
    return arr


_NAN, _INF = float("nan"), float("inf")
_IDENTITY = np.eye(4)


# the messages of the second frame, at 33 ms, and of its trackable
_AT_FRAME, _AT_PLANE = "frame at 33 ms", "frame at 33 ms trackable 'plane-1'"
_SHAPES = ("matrices must be 4x4, vectors 3 long and polygons (n, 2) arrays of numbers, "
           "and states TrackingStates")
_SCREEN_RANGE = "screen must be two positive integers (at most 2147483647)"
_META = "header meta must hold finite numbers only"
_NAN_VIEW, _INF_PROJ = _with(_NAN, (3, 0), _IDENTITY), _with(-_INF, (0, 0), _IDENTITY)
_INF_POSE = _with(_INF, (1, 3), _IDENTITY)


def _not_finite(what, value):
    """The reader's message for a field of numbers that are not all finite; a matrix is
    read column-major."""
    values = np.asarray(value, dtype=float).flatten(order="F").tolist()
    return f"{what} must be a list of {len(values)} finite numbers, got {values!r}"


def _t_ms(t):
    return f"frame at {t} ms: t_ms must be an integer of at most 2**53 in magnitude, got {t!r}"


def _with_fps(fps):
    return lambda tr: dataclasses.replace(tr, source_fps=fps)


def _with_meta(meta):
    return lambda tr: dataclasses.replace(tr, metadata=meta)


def _circular():
    meta = {}
    meta["self"] = meta
    return meta


def _nested(depth):
    value = []
    for _ in range(depth):
        value = [value]
    return value


# what save_trace rejects: an edit of _valid_trace and the message
_REJECTED = {
    "fps-nan": (_with_fps(_NAN), "fps must be a finite number, got nan"),
    "fps-inf": (_with_fps(_INF), "fps must be a finite number, got inf"),
    "fps-zero": (_with_fps(0.0), "fps must be a positive number, got 0.0"),
    "t-float": (_edit_second_frame(timestamp_ms=33.0), _t_ms(33.0)),
    "t-bool": (_edit_second_frame(timestamp_ms=True), _t_ms(True)),
    "screen-float": (_edit_second_frame(screen_w=1920.0), f"{_AT_FRAME}: screen must be an "
                     "integer of at most 2**53 in magnitude, got 1920.0"),
    "view-nan": (_edit_second_frame(view=_NAN_VIEW), _not_finite(f"{_AT_FRAME} view", _NAN_VIEW)),
    "proj-inf": (_edit_second_frame(projection=_INF_PROJ),
                 _not_finite(f"{_AT_FRAME} proj", _INF_PROJ)),
    "view-3x3": (_edit_second_frame(view=np.eye(3)), f"{_AT_FRAME}: {_SHAPES}"),
    "proj-flat": (_edit_second_frame(projection=np.ones(16)), f"{_AT_FRAME}: {_SHAPES}"),
    "cam-inf": (_edit_second_frame(camera_position=np.array([0.0, _INF, 0.0])),
                _not_finite(f"{_AT_FRAME} cam_pos", [0.0, _INF, 0.0])),
    "cam-4": (_edit_second_frame(camera_position=np.zeros(4)), f"{_AT_FRAME}: {_SHAPES}"),
    "pose-inf": (_edit_second_trackable(pose=_INF_POSE),
                 _not_finite(f"{_AT_PLANE} pose", _INF_POSE)),
    "pose-3x4": (_edit_second_trackable(pose=np.eye(4)[:3]), f"{_AT_PLANE}: {_SHAPES}"),
    "verts-nan": (_edit_second_trackable(
        local_vertices=np.array([[0.0, 0.0], [1.0, _NAN], [0.0, 1.0]])),
        _not_finite(f"{_AT_PLANE} vertex 1", [1.0, _NAN])),
    "verts-3d": (_edit_second_trackable(local_vertices=np.zeros((3, 3))),
                 f"{_AT_PLANE}: {_SHAPES}"),
    "verts-flat": (_edit_second_trackable(local_vertices=np.zeros(6)), f"{_AT_PLANE}: {_SHAPES}"),
    "verts-2": (_edit_second_trackable(local_vertices=np.array([[0.0, 0.0], [1.0, 0.0]])),
                f"{_AT_PLANE}: polygon needs at least 3 vertices"),
    "verts-bow-tie": (_edit_second_trackable(
        local_vertices=np.array([[-1.0, -1.0], [1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]])),
        f"{_AT_PLANE}: polygon must be simple (no self-intersection)"),
    "center-nan": (_edit_second_trackable(center_world=np.array([_NAN, 0.0, 0.0])),
                   _not_finite(f"{_AT_PLANE} center", [_NAN, 0.0, 0.0])),
    "normal-inf": (_edit_second_trackable(normal_world=np.array([0.0, 1.0, -_INF])),
                   _not_finite(f"{_AT_PLANE} normal", [0.0, 1.0, -_INF])),
    "normal-2": (_edit_second_trackable(normal_world=np.array([0.0, 1.0])),
                 f"{_AT_PLANE}: {_SHAPES}"),
    "normal-length-2": (_edit_second_trackable(normal_world=np.array([0.0, 2.0, 0.0])),
                        f"{_AT_PLANE}: normal must be unit length, got |n|=2.00000000"),
    "state-str": (_edit_second_trackable(tracking_state="TRACKING"), f"{_AT_PLANE}: {_SHAPES}"),
    "state-bogus": (_edit_second_trackable(tracking_state="BOGUS"), f"{_AT_PLANE}: {_SHAPES}"),
    "id-empty": (_edit_second_trackable(trackable_id=""),
                 f"{_AT_FRAME}: trackable id must be a non-empty string"),
    "id-not-str": (_edit_second_trackable(trackable_id=7),
                   f"{_AT_FRAME}: trackable id must be a non-empty string"),
    "id-str-subclass": (_edit_second_trackable(trackable_id=np.str_("plane-1")),
                        f"{_AT_FRAME}: trackable id must be a non-empty string"),
    "id-twice": (lambda tr: _edit_second_frame(trackables=tr.frames[1].trackables * 2)(tr),
                 f"{_AT_FRAME}: duplicate trackable id 'plane-1'"),
    "t-repeated": (_edit_second_frame(timestamp_ms=0),
                   "frame at 0 ms: timestamps must be strictly increasing (0 then 0)"),
    "t-swapped": (lambda tr: dataclasses.replace(tr, frames=tr.frames[::-1]),
                  "frame at 0 ms: timestamps must be strictly increasing (33 then 0)"),
    "t-huge": (_edit_second_frame(timestamp_ms=2**53 + 1), _t_ms(2**53 + 1)),
    "t-huge-negative": (lambda tr: dataclasses.replace(tr, frames=(
        dataclasses.replace(tr.frames[0], timestamp_ms=-2**60), tr.frames[1])), _t_ms(-2**60)),
    "screen-zero": (_edit_second_frame(screen_w=0), f"{_AT_FRAME}: {_SCREEN_RANGE}"),
    "screen-huge": (_edit_second_frame(screen_h=2**31), f"{_AT_FRAME}: {_SCREEN_RANGE}"),
    "screen-zero-throughout": (lambda tr: dataclasses.replace(tr, frames=tuple(
        dataclasses.replace(f, screen_w=0) for f in tr.frames)), f"frame at 0 ms: {_SCREEN_RANGE}"),
    "screen-changes": (_edit_second_frame(screen_w=10),
                       f"{_AT_FRAME}: screen 10x1080 differs from the first frame's 1920x1080"),
    "no-frames": (lambda tr: dataclasses.replace(tr, frames=()), "trace has no frames"),
    "meta-nan": (_with_meta({"x": [1.0, {"y": _NAN}]}), _META),
    "meta-inf": (_with_meta({"x": _INF}), _META),
    "meta-negative-inf": (_with_meta({"x": -_INF}), _META),
    "meta-int64": (_with_meta({"x": np.int64(3)}), "header meta must hold JSON values only: "
                   "Object of type int64 is not JSON serializable"),
    "meta-circular": (_with_meta(_circular()), "header meta must not contain itself"),
    "meta-deep": (_with_meta({"x": _nested(100_000)}), "header meta is nested too deeply"),
}
# the rows whose trace is no FrameBlock: a header fault, no frames, or a wrong shape
_NOT_BLOCKS = {"fps-nan", "fps-inf", "fps-zero", "view-3x3", "proj-flat", "cam-4", "pose-3x4",
               "verts-3d", "verts-flat", "normal-2", "no-frames", "meta-nan", "meta-inf",
               "meta-negative-inf", "meta-int64", "meta-circular", "meta-deep"}


@pytest.mark.parametrize("edit, message", list(_REJECTED.values()), ids=list(_REJECTED))
def test_save_trace_rejects_what_the_reader_would(tmp_path, edit, message):
    trace = edit(_valid_trace(tmp_path))
    path = tmp_path / "out.jsonl"
    path.write_bytes(b"an earlier file\n")
    with pytest.raises(ValueError) as exc:
        save_trace(trace, path)
    assert str(exc.value) == message
    assert path.read_bytes() == b"an earlier file\n"


@pytest.mark.parametrize("name", [name for name in _REJECTED if name not in _NOT_BLOCKS])
@pytest.mark.parametrize("col_major", [False, True], ids=["c-order", "column-major"])
def test_save_trace_rejects_a_block_as_it_rejects_its_frames(tmp_path, name, col_major):
    # a trace held as one-frame blocks, the renderer's or the reader's; a block that
    # fails is read as its records, so the message is the one its frame gives
    edit, message = _REJECTED[name]
    trace = edit(_valid_trace(tmp_path))
    trace = dataclasses.replace(
        trace, frames=TraceFrames(oracles.frames_as_blocks(trace.frames, 1, col_major)))
    path = tmp_path / "out.jsonl"
    path.write_bytes(b"an earlier file\n")
    with pytest.raises(ValueError) as exc:
        save_trace(trace, path)
    assert str(exc.value) == message
    assert path.read_bytes() == b"an earlier file\n"


def test_save_trace_takes_t_ms_and_screens_at_the_reader_s_bounds(tmp_path):
    trace = _valid_trace(tmp_path)
    edges = [dataclasses.replace(trace.frames[0], timestamp_ms=-2**53),
             dataclasses.replace(trace.frames[1], timestamp_ms=2**53)]
    edges = tuple(dataclasses.replace(f, screen_w=2**31 - 1, screen_h=1) for f in edges)
    for frames in (edges, TraceFrames(oracles.frames_as_blocks(edges, 1, True))):
        path = tmp_path / "edges.jsonl"
        save_trace(dataclasses.replace(trace, frames=frames), path)
        assert [f.timestamp_ms for f in load_trace(path).frames] == [-2**53, 2**53]


@pytest.mark.parametrize("bad", [_NAN, _INF, -_INF], ids=["nan", "infinity", "negative-infinity"])
def test_header_meta_must_hold_finite_numbers(tmp_path, bad):
    p = _write(tmp_path, [_header(meta={"x": [1, {"y": bad}]}), _frame()])
    for read in (TraceFile, load_trace):
        with pytest.raises(TraceValidationError,
                           match=r"^t\.jsonl:1: header meta must hold finite numbers only$"):
            read(p)


def test_a_loaded_trace_holds_its_blocks_and_makes_its_records_once(tmp_path, monkeypatch):
    p = _write(tmp_path, [_header(), *(_frame(33 * i) for i in range(_B + 1))])
    trace = load_trace(p)
    assert [len(b.t_ms) for b in trace.frames.blocks] == [_B, 1]
    made = []
    monkeypatch.setattr(trace_module, "block_records",
                        lambda block: made.append(block) or block_records(block))
    assert (len(trace.frames), trace.duration_ms, made) == (_B + 1, 33 * _B, [])
    assert trace.frames is trace.frames and trace.frames[0] is trace.frames[0]
    assert [f.timestamp_ms for f in trace.frames[-2:]] == [33 * (_B - 1), 33 * _B]
    assert list(map(id, made)) == list(map(id, trace.frames.blocks))   # each block once


def test_save_trace_writes_edited_records_as_the_per_frame_writer(tmp_path):
    # as the benchmark's many-runs inputs are made: a generated trace, trackables
    # dropped from its records with dataclasses.replace, and a trace of those records
    trace = generate_trace(benchmark_scene("noisy-trio"), 4)
    frames = tuple(
        dataclasses.replace(f, trackables=tuple(
            t for j, t in enumerate(f.trackables) if (i // 3 + j) % 4))
        for i, f in enumerate(trace.frames)
    )
    edited = PlaybackTrace(frames=frames, source_fps=trace.source_fps, metadata=trace.metadata)
    assert 0 < sum(len(f.trackables) for f in frames) < sum(
        len(f.trackables) for f in trace.frames)
    path = tmp_path / "run.jsonl"
    save_trace(edited, path)
    assert path.read_bytes() == oracles.trace_text_per_frame(edited).encode("utf-8")


# ------------------------------------------------------ block-validated ingest
#
# iter_frames checks frames in blocks of INGEST_BLOCK_LINES lines.  These
# tests hold it to oracles.iter_frames_per_line, which checks one line at a
# time: the same frames, the same first error, at the same file:line.

_B = INGEST_BLOCK_LINES


def _write_lines(tmp_path, lines):
    """A trace file of JSON objects, raw text lines and raw byte lines."""
    p = tmp_path / "t.jsonl"
    p.write_bytes(b"".join(
        (line if isinstance(line, bytes)
         else (line if isinstance(line, str) else json.dumps(line)).encode("utf-8")) + b"\n"
        for line in lines
    ))
    return p


def _outcome(read, path):
    """(timestamps yielded, exception type, message) of reading a whole trace."""
    seen = []
    try:
        for frame in read(path):
            seen.append(frame.timestamp_ms)
    except Exception as exc:  # the readers must agree on every exception, TraceError or not
        return seen, type(exc), str(exc)
    return seen, None, None


def _edit(change):
    """A fault that edits the frame dict in place."""
    def fault(f):
        change(f)
        return f
    return fault


def _plane(f):
    return f["trackables"][0]


_FAULTS = {
    # structure
    "t_ms-missing": _edit(lambda f: f.pop("t_ms")),
    "t_ms-float": _edit(lambda f: f.update(t_ms=f["t_ms"] + 0.5)),
    "t_ms-bool": _edit(lambda f: f.update(t_ms=True)),
    "t_ms-huge": _edit(lambda f: f.update(t_ms=2**53 + 1)),
    "t_ms-backward": _edit(lambda f: f.update(t_ms=f["t_ms"] - 40)),
    "t_ms-repeated": _edit(lambda f: f.update(t_ms=f["t_ms"] - 33)),
    "screen-zero": _edit(lambda f: f.update(screen=[1920, 0])),
    "screen-short": _edit(lambda f: f.update(screen=[1920])),
    "screen-changed": _edit(lambda f: f.update(screen=[960, 540])),
    "trackables-missing": _edit(lambda f: f.pop("trackables")),
    "trackables-not-list": _edit(lambda f: f.update(trackables="plane-1")),
    "trackable-not-object": _edit(lambda f: f.update(trackables=[5])),
    "id-missing": _edit(lambda f: _plane(f).pop("id")),
    "id-empty": _edit(lambda f: _plane(f).update(id="")),
    "duplicate-id": _edit(lambda f: f.update(trackables=[_trackable(), _trackable()])),
    "verts-missing": _edit(lambda f: _plane(f).pop("verts")),
    "verts-two": _edit(lambda f: _plane(f).update(verts=[[0.0, 0.0], [1.0, 0.0]])),
    "verts-not-list": _edit(lambda f: _plane(f).update(verts=7)),
    "vertex-number": _edit(lambda f: _plane(f)["verts"].__setitem__(1, 1.0)),
    "vertex-string": _edit(lambda f: _plane(f)["verts"].__setitem__(1, "ab")),
    "normal-missing": _edit(lambda f: _plane(f).pop("normal")),
    "state-missing": _edit(lambda f: _plane(f).pop("state")),
    "pose-missing": _edit(lambda f: _plane(f).pop("pose")),
    "center-missing": _edit(lambda f: _plane(f).pop("center")),
    "state-unknown": _edit(lambda f: _plane(f).update(state="FLYING")),
    "state-unhashable": _edit(lambda f: _plane(f).update(state=["TRACKING"])),
    "view-missing": _edit(lambda f: f.pop("view")),
    "proj-missing": _edit(lambda f: f.pop("proj")),
    "cam_pos-missing": _edit(lambda f: f.pop("cam_pos")),
    # polygons
    "bowtie": _edit(lambda f: _plane(f).update(verts=[[0, 0], [1, 1], [1, 0], [0, 1]])),
    "repeated-vertex": _edit(lambda f: _plane(f).update(
        verts=[[0.0, 0.0], [1.0, 0.0], [1.0, 0.0000005], [0.0, 1.0]])),
    "huge-polygon": _edit(lambda f: _plane(f).update(
        verts=[[-1e300, -1e300], [1e300, -1e300], [1e300, 1e300], [-1e300, 1e300]])),
    # normals, on both sides of UNIT_EPS and at it
    "normal-long": _edit(lambda f: _plane(f).update(normal=[0.0, 2.0, 0.0])),
    "normal-just-long": _edit(lambda f: _plane(f).update(normal=[0.0, 1.0000015, 0.0])),
    "normal-at-tolerance": _edit(lambda f: _plane(f).update(normal=[0.0, 1.000001, 0.0])),
    "normal-just-unit": _edit(lambda f: _plane(f).update(normal=[0.0, 0.9999995, 0.0])),
    # lines that are not frame objects
    "invalid-json": lambda f: "{not json",
    "truncated-json": lambda f: json.dumps(f)[:-7],
    "not-object": lambda f: "[1, 2]",
    "not-utf8": lambda f: json.dumps(f).encode("utf-8").replace(b"plane-1", b"plane-\xff"),
    "blank-line": lambda f: "",
    # every entry of test_bad_numeric_entry_names_field_and_line's catalogue
    **{
        f"{field}-{bad}": (lambda field, bad: lambda f: _corrupt(field, bad, f["t_ms"]))(field, bad)
        for field in _NUMERIC_FIELDS for bad in [*_BAD_ENTRIES, "wrong-length"]
    },
}
_SPOTS = [b * _B + k for b in range(3) for k in (0, _B // 2, _B - 1)]


@settings(max_examples=150, deadline=None)
@given(
    n_frames=st.integers(2 * _B + 1, 3 * _B),
    faults=st.lists(st.tuples(st.sampled_from(sorted(_FAULTS)), st.sampled_from(_SPOTS)),
                    min_size=1, max_size=2),
)
@example(n_frames=3 * _B, faults=[("view-nan", 1), ("not-utf8", 3 * _B - 1)])
@example(n_frames=2 * _B + 1, faults=[("normal-just-unit", _B - 1), ("blank-line", _B)])
# traces that fill their last block exactly, clean or with a fault on their last line
@example(n_frames=_B, faults=[])
@example(n_frames=_B, faults=[("invalid-json", _B - 1)])
@example(n_frames=2 * _B, faults=[])
@example(n_frames=2 * _B, faults=[("normal-just-long", 2 * _B - 1)])
def test_block_reader_matches_the_per_line_reader(tmp_path_factory, n_frames, faults):
    lines = [_header()] + [_frame(33 * i) for i in range(n_frames)]
    for name, spot in faults:
        k = 1 + min(spot, n_frames - 1)
        lines[k] = _FAULTS[name](_frame(33 * (k - 1)))
    p = _write_lines(tmp_path_factory.mktemp("ingest"), lines)
    assert _outcome(iter_frames, p) == _outcome(oracles.iter_frames_per_line, p)


# With keep, iter_frames builds only the frames the walk accepts; held to
# decimate over the per-line reader, which builds every frame.

def _frame_key(f):
    """Everything a frame holds, arrays by dtype, layout, bytes and flag, comparable with ==."""
    def arr(a):
        return a.dtype.str, a.shape, a.strides, a.tobytes(), a.flags.writeable

    return (f.timestamp_ms, f.screen_w, f.screen_h, arr(f.view), arr(f.projection),
            arr(f.camera_position),
            tuple((t.trackable_id, t.tracking_state, arr(t.local_vertices), arr(t.pose),
                   arr(t.center_world), arr(t.normal_world)) for t in f.trackables))


def _frames_outcome(frames):
    """(frames yielded, exception type, message) of draining a frame stream."""
    seen = []
    try:
        for frame in frames:
            seen.append(_frame_key(frame))
    except Exception as exc:  # the readers must agree on every exception, TraceError or not
        return seen, type(exc), str(exc)
    return seen, None, None


# the start, middle and end of each block, three lines each: at 33 ms a frame
# and 30 -> 10 fps, the walk keeps about one line in three
_WALK_SPOTS = [b * _B + k for b in range(3)
               for k in (0, 1, 2, _B // 2 - 1, _B // 2, _B // 2 + 1, _B - 3, _B - 2, _B - 1)]


@settings(max_examples=60, deadline=None)
@given(
    n_frames=st.integers(2 * _B + 1, 3 * _B),
    faults=st.lists(st.tuples(st.sampled_from(sorted(_FAULTS)), st.sampled_from(_WALK_SPOTS)),
                    max_size=2),
)
# clean traces whose last frame the walk keeps, and drops
@example(n_frames=3 * _B - 1, faults=[])
@example(n_frames=3 * _B, faults=[])
# a fault on a dropped line, first in its block, then mid-block and last in the trace
@example(n_frames=2 * _B + 1, faults=[("view-nan", _B)])
@example(n_frames=2 * _B + 1, faults=[("bowtie", _B // 2 + 1)])
@example(n_frames=3 * _B, faults=[("normal-long", 3 * _B - 1)])
# a fault on a kept line at the end of a block, and a timestamp fault on a dropped line
@example(n_frames=3 * _B, faults=[("pose-null", 2 * _B - 2)])
@example(n_frames=3 * _B, faults=[("t_ms-repeated", _B + 2)])
def test_walked_reader_matches_decimate_over_the_per_line_reader(tmp_path_factory, n_frames, faults):
    lines = [_header()] + [_frame(33 * i) for i in range(n_frames)]
    for name, spot in faults:
        k = 1 + min(spot, n_frames - 1)
        lines[k] = _FAULTS[name](_frame(33 * (k - 1)))
    p = _write_lines(tmp_path_factory.mktemp("walk"), lines)
    got = _frames_outcome(iter_frames(p, deadline_walk(30.0, 10.0)))
    assert got == _frames_outcome(decimate(oracles.iter_frames_per_line(p), 30.0, 10.0))
    if not faults:  # about one frame in three
        assert len(got[0]) <= n_frames // 3 + 1


# The block check against one-line blocks: a block is accepted exactly when
# each of its lines is accepted on its own, its columns are theirs stacked,
# and a line is rejected on its own exactly when _frame_fault finds its
# fault, so that _frame_fault's AssertionError is never raised.  Faulted
# lines replace a generated line with a faulted default frame; other lines
# vary their trackables, states, vertex counts and numbers (ints among
# them, which convert as float does).

# the faults of a frame object, and a screen one pixel past MAX_SCREEN_PX
_LINE_FAULTS = {name: fault for name, fault in _FAULTS.items()
                if isinstance(fault(_frame(0)), dict)}
_LINE_FAULTS["screen-huge"] = _edit(lambda f: f.update(screen=[2**31, 1080]))
_NUMBER = st.one_of(st.integers(-9, 9), st.floats(-1e6, 1e6, allow_nan=False))
_UNIT_NORMALS = [[0.0, 1.0, 0.0], [0.6, 0.8, 0], [0, 0, -1], [0.0, 1.0 + 4e-7, 0.0]]


@st.composite
def _generated_frame(draw, t_ms):
    trackables = []
    for j in range(draw(st.integers(0, 3))):
        n = draw(st.integers(3, 6))
        radius, turn = draw(st.floats(0.1, 10.0)), draw(st.floats(0.0, 1.0))
        trackables.append(_trackable(
            id=f"p{j}",
            verts=[[radius * np.cos(2 * np.pi * (k + turn) / n),
                    radius * np.sin(2 * np.pi * (k + turn) / n)] for k in range(n)],
            pose=draw(st.lists(_NUMBER, min_size=16, max_size=16)),
            center=draw(st.lists(_NUMBER, min_size=3, max_size=3)),
            normal=draw(st.sampled_from(_UNIT_NORMALS)),
            state=draw(st.sampled_from([s.value for s in TrackingState])),
        ))
    return _frame(t_ms, trackables, view=draw(st.lists(_NUMBER, min_size=16, max_size=16)),
                  cam_pos=draw(st.lists(_NUMBER, min_size=3, max_size=3)))


@st.composite
def _block_lines(draw):
    n = draw(st.integers(1, 6))
    faults = dict(draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.sampled_from(sorted(_LINE_FAULTS))), max_size=2)))
    frames = [_LINE_FAULTS[faults[i]](_frame(33 * i)) if i in faults
              else draw(_generated_frame(33 * i)) for i in range(n)]
    # as the reader sees them: decoded from their JSON text
    return [(f"t.jsonl:{i + 2}", json.loads(json.dumps(f))) for i, f in enumerate(frames)]


def _column_key(col):
    if isinstance(col, list):
        return col
    # a matrix's order is in its strides, which mean nothing in an empty array
    return (col.dtype.str, col.shape, col.size and col.strides[1:], col.tobytes(),
            col.flags.writeable)


@settings(max_examples=100, deadline=None)
@given(lines=_block_lines())
@example(lines=[("t.jsonl:2", _frame(0, [])), ("t.jsonl:3", _frame(33))])
def test_a_block_is_accepted_exactly_when_each_line_is(lines):
    # ... and the lines share one screen
    block = trace_module._block_frames(lines)
    singles = [trace_module._block_frames([line]) for line in lines]
    assert (block is None) == (None in singles or len({s.screen for s in singles}) > 1)
    for line, single in zip(lines, singles):
        # _frame_fault words a fault of each line the check rejects, and finds none in the others
        with pytest.raises(TraceError if single is None else AssertionError):
            trace_module._frame_fault(*line)
    if block is not None:
        assert block.screen == singles[0].screen and oracles.column_major(block)
        stacked = [list(chain.from_iterable(cols)) if isinstance(cols[0], list)
                   else np.concatenate(cols) for cols in list(zip(*singles))[1:]]
        for got, want in zip(block[1:], stacked):
            if isinstance(want, np.ndarray):
                want.flags.writeable = False
            assert _column_key(got) == _column_key(want)


def test_every_line_fault_is_rejected_in_a_block_and_worded_on_its_own():
    good = [(f"t.jsonl:{i}", json.loads(json.dumps(_frame(33 * i)))) for i in (2, 4)]
    # faults that show only against other lines, and normals within the tolerance
    valid_alone = {"t_ms-backward", "t_ms-repeated", "screen-changed",
                   "normal-at-tolerance", "normal-just-unit"}
    for name, fault in _LINE_FAULTS.items():
        line = ("t.jsonl:3", json.loads(json.dumps(fault(_frame(99)))))
        alone = trace_module._block_frames([line])
        assert (alone is None) == (name not in valid_alone), name
        # a block holds one screen: a changed one is rejected there, and worded by the reader
        in_block = trace_module._block_frames([good[0], line, good[1]])
        assert (in_block is None) == (alone is None or name == "screen-changed"), name
        with pytest.raises(TraceError if alone is None else AssertionError):
            trace_module._frame_fault(*line)


def _items_then_error(k):
    yield from range(k)
    raise OSError("the disk went away")


@pytest.mark.parametrize("n", range(10))
def test_blocks_are_full_lists_in_order_and_never_empty(n):
    got = list(blocks(iter(range(n)), 3))
    assert [x for b in got for x in b] == list(range(n))
    assert [len(b) for b in got] == [3] * (n // 3) + [n % 3] * (n % 3 > 0)


def test_blocks_close_a_list_once_its_weights_reach_the_size():
    got = list(blocks([2, 1, 3, 1, 1, 5, 2], 4, weight=lambda item: item))
    assert got == [[2, 1, 3], [1, 1, 5], [2]]


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 6])
def test_blocks_yield_the_items_before_a_stream_error_then_raise_it(k):
    it = blocks(_items_then_error(k), 3)
    for start in range(0, k, 3):
        assert next(it) == list(range(start, min(start + 3, k)))
    with pytest.raises(OSError, match="^the disk went away$"):
        next(it)


def test_an_error_raised_on_the_partial_list_is_the_one_that_escapes():
    def consume():
        for block in blocks(_items_then_error(4), 3):
            if len(block) < 3:
                raise ValueError(f"bad item {block[0]}")

    with pytest.raises(ValueError, match="^bad item 3$") as exc:
        consume()
    assert exc.value.__context__ is None


@pytest.mark.parametrize("t_ms, fault", [(33, None), (66.5, "t.jsonl:3: t_ms must be an integer")])
def test_an_os_error_inside_a_block_comes_after_the_lines_before_it(tmp_path, monkeypatch, t_ms, fault):
    p = _write_lines(tmp_path, [_header(), _frame(0), _frame(t_ms), _frame(99), _frame(132)])
    read = trace_module._trace_objects

    def failing(fh, name):  # the header and two frame lines, then the read fails
        for i, item in enumerate(read(fh, name)):
            if i == 3:
                raise OSError("read failed")
            yield item

    monkeypatch.setattr(trace_module, "_trace_objects", failing)
    seen, kind, message = _outcome(iter_frames, p)
    if fault is None:
        assert (seen, kind, message) == ([0, 33], OSError, "read failed")
    else:
        assert (seen, kind) == ([0], TraceValidationError) and message.startswith(fault)


def test_bad_number_is_reported_before_a_later_read_error(tmp_path):
    lines = [_header(), _corrupt("view", "nan", 0), _frame(33), _frame(66), "{not json", _frame(132)]
    p = _write_lines(tmp_path, lines)
    with pytest.raises(TraceValidationError) as exc:
        list(iter_frames(p))
    assert str(exc.value) == f"t.jsonl:2 view must be a list of 16 finite numbers, got {lines[1]['view']!r}"
    assert _outcome(iter_frames, p) == _outcome(oracles.iter_frames_per_line, p)


@pytest.mark.parametrize("line, message", [("{not json", "invalid JSON"),
                                           ("[1, 2]", "expected a JSON object")])
def test_read_error_comes_after_the_frames_read_before_it(tmp_path, line, message):
    frames = iter_frames(_write_lines(tmp_path, [_header(), _frame(0), _frame(33), line, _frame(99)]))
    assert [next(frames).timestamp_ms, next(frames).timestamp_ms] == [0, 33]
    with pytest.raises(TraceParseError, match=rf"^t\.jsonl:4: {message}"):
        next(frames)


@pytest.mark.parametrize("spots", [[_B - 1], [_B], [_B - 1, _B]],
                         ids=["block-last", "next-block-first", "both"])
def test_faults_at_a_block_boundary(tmp_path, spots):
    lines = [_header()] + [_frame(33 * i) for i in range(_B + 5)]
    for k in spots:
        lines[1 + k] = _corrupt("pose", "null", 33 * k)
    p = _write_lines(tmp_path, lines)
    seen, kind, message = _outcome(iter_frames, p)
    assert seen == [33 * i for i in range(spots[0])]
    assert kind is TraceValidationError
    pose = lines[1 + spots[0]]["trackables"][0]["pose"]
    assert message == (
        f"t.jsonl:{spots[0] + 2} trackable 'plane-1' pose must be a list of 16 finite numbers, got {pose!r}"
    )
    assert (seen, kind, message) == _outcome(oracles.iter_frames_per_line, p)


# the block reader pauses the cyclic collector while it reads and checks a block,
# and gives it back as it found it before the consumer sees the block.

def _collector_states(tmp_path, monkeypatch, lines, stop_after=None):
    """(the collector's state in each _block_frames call, at each block the consumer gets,
    after the read) of reading lines as a trace, and what the read raised."""
    checked = trace_module._block_frames

    def recorded(block_lines):
        during.append(gc.isenabled())
        return checked(block_lines)

    monkeypatch.setattr(trace_module, "_block_frames", recorded)
    during, consumer, raised = [], [], None
    reader = iter_blocks(_write_lines(tmp_path, lines))
    try:
        for block in reader:
            consumer.append(gc.isenabled())
            if len(consumer) == stop_after:
                reader.close()
                break
    except TraceError as exc:
        raised = exc
    return during, consumer, gc.isenabled(), raised


@pytest.fixture
def collector_on():
    was = gc.isenabled()
    gc.enable()
    yield
    if not was:
        gc.disable()


def test_the_collector_is_paused_for_each_block_and_on_for_the_consumer(
        tmp_path, monkeypatch, collector_on):
    lines = [_header()] + [_frame(33 * i) for i in range(3 * _B + 5)]
    during, consumer, after, raised = _collector_states(tmp_path, monkeypatch, lines)
    assert during == [False] * 4 and consumer == [True] * 4 and after and raised is None


def test_a_collector_the_caller_switched_off_stays_off(tmp_path, monkeypatch, collector_on):
    lines = [_header()] + [_frame(33 * i) for i in range(3 * _B + 5)]
    gc.disable()
    during, consumer, after, raised = _collector_states(tmp_path, monkeypatch, lines)
    assert during == [False] * 4 and consumer == [False] * 4 and not after and raised is None


def test_the_collector_is_back_when_the_consumer_stops_after_one_block(
        tmp_path, monkeypatch, collector_on):
    lines = [_header()] + [_frame(33 * i) for i in range(3 * _B + 5)]
    during, consumer, after, raised = _collector_states(tmp_path, monkeypatch, lines, 1)
    assert during == [False] and consumer == [True] and after and raised is None


# a fault on file line 70, the fifth line of the second block: a read fault raises after
# the block's first four lines, read paused; a block the check rejects is read again one
# line at a time, with the collector on, and its first four lines are yielded one by one
@pytest.mark.parametrize("bad, checks, blocks_seen", [
    ("{not json", [False, False], 2),
    (_corrupt("pose", "null", 33 * 68), [False, False] + [True] * 5, 5),
], ids=["read", "check"])
def test_the_collector_is_back_when_a_fault_on_line_70_raises(
        tmp_path, monkeypatch, collector_on, bad, checks, blocks_seen):
    lines = [_header()] + [_frame(33 * i) for i in range(3 * _B + 5)]
    lines[69] = bad
    during, consumer, after, raised = _collector_states(tmp_path, monkeypatch, lines)
    assert during == checks and consumer == [True] * blocks_seen and after
    assert str(raised).split()[0].rstrip(":") == "t.jsonl:70"


def test_non_utf8_line_is_reported_at_its_line(tmp_path):
    bad = json.dumps(_frame(66)).encode("utf-8").replace(b"plane-1", b"plane-\xff")
    p = _write_lines(tmp_path, [_header(), _frame(0), _frame(33), bad, _frame(99)])
    frames = iter_frames(p)
    assert [next(frames).timestamp_ms, next(frames).timestamp_ms] == [0, 33]
    with pytest.raises(TraceParseError) as exc:
        next(frames)
    assert str(exc.value) == f"t.jsonl:4: not UTF-8 text (byte 0xff at column {bad.index(0xFF) + 1})"


def test_deeply_nested_json_is_reported_at_its_line(tmp_path):
    # the JSON decoder recurses once per level, and gives up past the recursion limit
    nested = "[" * 100_000 + "]" * 100_000
    deep = json.dumps(_frame(66)).replace('"view": [', f'"view": {nested}, "x": [', 1)
    p = _write_lines(tmp_path, [_header(), _frame(0), _frame(33), deep, _frame(99)])
    seen, kind, message = _outcome(iter_frames, p)
    assert (seen, kind, message) == ([0, 33], TraceParseError, "t.jsonl:4: invalid JSON: nested too deeply")


def test_earlier_fault_is_reported_before_a_non_utf8_line(tmp_path):
    lines = [_header(), _frame(0), _frame(33), _frame(66.5), b"\xff" + json.dumps(_frame(99)).encode()]
    p = _write_lines(tmp_path, lines)
    seen, kind, message = _outcome(iter_frames, p)
    assert (seen, kind) == ([0, 33], TraceValidationError)
    assert message.startswith("t.jsonl:4: t_ms must be an integer")
    assert (seen, kind, message) == _outcome(oracles.iter_frames_per_line, p)


@pytest.mark.parametrize("end", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_crlf_and_cr_line_ends_are_read(tmp_path, end):
    p = tmp_path / "t.jsonl"
    lines = [json.dumps(x).encode() for x in [_header(), _frame(0), _frame(33)]]
    p.write_bytes(end.join(lines) + end)
    assert [f.timestamp_ms for f in load_trace(p).frames] == [0, 33]
    p.write_bytes(end.join([*lines[:2], b"\xff", lines[2]]) + end)
    with pytest.raises(TraceParseError, match=r"^t\.jsonl:3: not UTF-8 text \(byte 0xff at column 1\)$"):
        list(iter_frames(p))


def _assert_same_array(a, b):
    assert (a.dtype, a.shape, a.strides) == (b.dtype, b.shape, b.strides)
    assert a.tobytes() == b.tobytes()
    assert not a.flags.writeable and not b.flags.writeable


def test_block_reader_arrays_match_the_per_line_reader(tmp_path):
    # the long-session workload's scene, three blocks and a bit of it
    full = generate_trace(benchmark_scene("drift-trio"), 3)
    path = tmp_path / "session.jsonl"
    save_trace(PlaybackTrace(full.frames[:3 * _B + 7], full.source_fps, full.metadata), path)
    got = list(iter_frames(path))
    want = list(oracles.iter_frames_per_line(path))
    assert len(got) == len(want) == 3 * _B + 7
    assert sum(len(f.trackables) for f in got) > 3 * _B
    for a, b in zip(got, want):
        assert (a.timestamp_ms, a.screen_w, a.screen_h) == (b.timestamp_ms, b.screen_w, b.screen_h)
        for name in ("view", "projection", "camera_position"):
            _assert_same_array(getattr(a, name), getattr(b, name))
        assert len(a.trackables) == len(b.trackables)
        for ta, tb in zip(a.trackables, b.trackables):
            assert (ta.trackable_id, ta.tracking_state) == (tb.trackable_id, tb.tracking_state)
            for name in ("local_vertices", "pose", "center_world", "normal_world"):
                _assert_same_array(getattr(ta, name), getattr(tb, name))
    resaved = tmp_path / "resaved.jsonl"
    save_trace(load_trace(path), resaved)
    assert resaved.read_bytes() == path.read_bytes()


def _drain(path, keep=None):
    """(peak, most float64 bytes one block holds) of reading a trace as blocks and their
    frames; memory counts from the start of the read."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        held = 0
        for block in iter_blocks(path, keep):
            held = max(held, sum(col.nbytes for col in block
                                 if isinstance(col, np.ndarray) and col.dtype == np.float64))
            for f in block_records(block):
                del f
            del block
        return tracemalloc.get_traced_memory()[1] - base, held
    finally:
        tracemalloc.stop()


def test_reading_holds_one_block_at_a_time(tmp_path):
    # wide lines, so that a block's objects outweigh the rest
    wide = [_trackable(id=f"plane-{j}") for j in range(12)]
    line_numbers = 12 * (8 + 22) + 35
    lines = [json.dumps(_frame(34 * i, trackables=wide)) for i in range(4 * _B)]
    (tmp_path / "one").mkdir()
    (tmp_path / "four").mkdir()
    one = _write_lines(tmp_path / "one", [_header(), *lines[:_B]])
    four = _write_lines(tmp_path / "four", [_header(), *lines])
    tracemalloc.start()
    block = [json.loads(line) for line in lines[:_B]]
    block_bytes = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    del block
    _drain(one)  # first call: caches
    one_peak = _drain(one)[0]
    every_peak, owner = _drain(four)
    walked_peak, walked_owner = _drain(four, deadline_walk(30.0, 10.0))
    # a block's float columns hold the numbers of its lines; a walked block, of its kept lines
    assert owner == _B * line_numbers * 8 > walked_owner > 0
    # reading a block while the one before it is held would add a block to the peak
    assert max(every_peak, walked_peak) < one_peak + block_bytes / 2, (
        f"peak {every_peak} B and {walked_peak} B for four blocks, {one_peak} B for one; "
        f"a block's objects take {block_bytes} B")
