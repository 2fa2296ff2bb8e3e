from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import decimate
from playtrace import trace as trace_module
from playtrace.pipeline import AnalysisParams, run_boxes
from playtrace.scenes import benchmark_scene
from playtrace.simulator import generate_trace
from playtrace.trace import (
    INGEST_BLOCK_LINES,
    FrameRecord,
    PlaybackTrace,
    TraceParseError,
    TraceValidationError,
    TrackableSnapshot,
    TrackingState,
    blocks,
    deadline_walk,
    iter_frames,
    load_trace,
    mat4_to_list,
    read_header,
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
    assert f.trackables[0].local_vertices == ((-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0))


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
        assert a.trackables[0].local_vertices == b.trackables[0].local_vertices


def test_mat4_column_major(tmp_path):
    vals = [float(i) for i in range(16)]
    m = load_trace(_write(tmp_path, [_header(), _frame(view=vals)])).frames[0].view
    # column-major: the first four values are the first column
    assert m[0, 0] == 0.0 and m[1, 0] == 1.0 and m[3, 0] == 3.0
    assert m[0, 1] == 4.0
    assert mat4_to_list(m) == vals
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
    for read in (read_header, load_trace, lambda p: next(iter_frames(p))):
        with pytest.raises(TraceValidationError, match="header meta must be an object"):
            read(p)


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
    run = run_boxes(kept, AnalysisParams(fps=target_fps))
    assert streamed == run.timestamps_ms


def test_sample_frames_bad_fps():
    tr = _synthetic_trace([0], 30.0)
    with pytest.raises(ValueError):
        run_boxes(tr.frames, AnalysisParams(fps=0.0))
    with pytest.raises(TraceValidationError):
        run_boxes((), AnalysisParams(fps=10.0))


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
    assert t.local_vertices == ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0))
    assert all(type(v) is float for xz in t.local_vertices for v in xz)
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
            tuple((t.trackable_id, t.tracking_state, t.local_vertices, arr(t.pose),
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


def _items_then_error(k):
    yield from range(k)
    raise OSError("the disk went away")


@pytest.mark.parametrize("n", range(10))
def test_blocks_are_full_lists_in_order_and_never_empty(n):
    got = list(blocks(iter(range(n)), 3))
    assert [x for b in got for x in b] == list(range(n))
    assert [len(b) for b in got] == [3] * (n // 3) + [n % 3] * (n % 3 > 0)


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
            assert ta.local_vertices == tb.local_vertices
            assert all(type(v) is float for xz in ta.local_vertices for v in xz)
            for name in ("pose", "center_world", "normal_world"):
                _assert_same_array(getattr(ta, name), getattr(tb, name))
    resaved = tmp_path / "resaved.jsonl"
    save_trace(load_trace(path), resaved)
    assert resaved.read_bytes() == path.read_bytes()


def _drain(path, keep=None):
    """(peak, bytes of the array the last frame's numbers are views of) of reading a
    trace; memory counts from the start of the read."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for f in iter_frames(path, keep):
            owner = f.view.base.nbytes
            del f
        return tracemalloc.get_traced_memory()[1] - base, owner
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
    # a kept frame's numbers are its block's array
    assert owner == walked_owner == _B * line_numbers * 8
    # reading a block while the one before it is held would add a block to the peak
    assert max(every_peak, walked_peak) < one_peak + block_bytes / 2, (
        f"peak {every_peak} B and {walked_peak} B for four blocks, {one_peak} B for one; "
        f"a block's objects take {block_bytes} B")
