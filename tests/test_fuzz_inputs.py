"""Mutation fuzz of every input file through the CLI.

Hypothesis takes a valid trace and mutates a few of its lines, or a valid
scene, schedule or report file and mutates it once: a value at some path
swapped for another type, null, NaN or an infinity, 1e308, 5e-324, an integer
literal too large for a float, a deleted key or entry, an empty list, deep
nesting, or `ff fe` bytes before the text.  Four deterministic probes take
each path of one frame line, and each path of a schedule, a scene and a
report into the ends of its lists, in turn instead.  Each example runs the CLI
in-process: it must exit 0, 1 or 2, let no exception escape, and write
nothing to stderr but at most one line starting "error: ", so a warning
(which the CLI would print there) fails it.  At --fps 1
most mutated trace lines fall on frames the analysis drops, which must be
checked all the same.  The reader's first fault, and the frames before it,
must not depend on its block size, nor analyze's stderr and exit code on
whether its trace is read whole or as byte ranges.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import re
import signal
import sys
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from playtrace import pipeline
from playtrace import trace as trace_module
from playtrace.cli import main
from playtrace.reporting import _escape
from playtrace.scenes import benchmark_scene
from playtrace.simulator import SceneError, generate_trace, load_scene, save_scene
from playtrace.trace import TraceFile, save_trace

# json.dumps cannot write an integer longer than int() converts, so this string stands
# for one and is swapped for the digits after dumping
_LONG_INT = "<integer of 4400 digits>"
_ODD_VALUES = [
    None, True, False, 0, -1, 1.5, "x", "", [], {}, [[]], {"x": 1},
    float("nan"), float("inf"), float("-inf"), 1e308, -1e308, 5e-324, 10**400, -(10**400), _LONG_INT,
]
_DEEP = "[" * 100_000 + "]" * 100_000  # deeper than the JSON decoder recurses
_DELETE = object()  # in place of a value: delete the key or entry


@pytest.fixture(scope="module")
def base_lines(tmp_path_factory):
    """The header and 60 frame lines (2 s at 30 fps) of a three-plane recording."""
    full = generate_trace(benchmark_scene("drift-trio"), 3)
    path = tmp_path_factory.mktemp("fuzz") / "base.jsonl"
    save_trace(dataclasses.replace(full, frames=full.frames[:60]), path)
    return path.read_text(encoding="utf-8").splitlines()


def _paths(value, path=(), ends_only=False):
    """Every path of keys and indices into a JSON value, the value's own first.

    With ends_only, a path enters each list at its first and last index only.
    """
    yield path
    if isinstance(value, dict):
        entries = list(value.items())
    elif isinstance(value, list):
        entries = list(enumerate(value))
        if ends_only:
            entries = entries[:1] + entries[1:][-1:]
    else:
        return
    for key, v in entries:
        yield from _paths(v, (*path, key), ends_only)


def _set(text: str, path: tuple, value) -> str:
    """The JSON text with the value at path set to value, or deleted for _DELETE."""
    obj = json.loads(text)
    *parents, last = path
    owner = obj
    for key in parents:
        owner = owner[key]
    if value is _DELETE:
        del owner[last]
    else:
        owner[last] = value
    text = json.dumps(obj)  # NaN and the infinities as their JavaScript literals
    return text.replace(json.dumps(_LONG_INT), "9" * 4400)


@st.composite
def _mutated(draw, text: str) -> bytes:
    """One JSON text, a trace line or a whole file, mutated once."""
    kind = draw(st.sampled_from(["replace", "delete", "empty", "deep", "bom"]))
    if kind == "bom":
        return b"\xff\xfe" + text.encode("utf-8")
    path = draw(st.sampled_from(list(_paths(json.loads(text)))[1:]))
    if kind == "delete":
        value = _DELETE
    elif kind == "replace":
        value = draw(st.sampled_from(_ODD_VALUES))
    else:  # an empty list, which "deep" then nests
        value = []
    text = _set(text, path, value)
    if kind == "deep":
        text = text.replace("[]", _DEEP, 1)
    return text.encode("utf-8")


def _hang(signum, frame):
    raise AssertionError("the command did not finish within 5 s")


def _to_stderr(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def _exit_code(argv) -> int:
    """main(argv) with stdout discarded, failing the example if it runs over 5 s.

    Every warning goes to stderr, as it would from the command line, and
    stderr must be empty or one "error: " line.
    """
    return _exit_and_stderr(argv)[0]


def _exit_and_stderr(argv) -> tuple[int, str]:
    """_exit_code(argv) and what the command wrote to stderr."""
    previous = signal.signal(signal.SIGALRM, _hang)
    signal.alarm(5)
    err = io.StringIO()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = _to_stderr
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    text = err.getvalue()
    assert text == "" or (text.startswith("error: ") and text.count("\n") == 1
                          and text.endswith("\n")), text
    return code, text


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_traces_exit_cleanly(tmp_path_factory, base_lines, data):
    lines = [line.encode("utf-8") for line in base_lines]
    for k in data.draw(st.lists(st.integers(0, len(lines) - 1), min_size=1, max_size=3, unique=True)):
        lines[k] = data.draw(_mutated(base_lines[k]))
    tmp = tmp_path_factory.mktemp("mutated")
    path = tmp / "run.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    assert _exit_code(["analyze", str(path), "--fps", "1", "--out", str(tmp / "out")]) in (0, 1, 2)


def _read_until_the_fault(path) -> tuple[list[int], str | None]:
    """The t_ms of every frame TraceFile.read_blocks yields from path, and the first fault's
    type and text, None when it reads to the end."""
    t_ms: list[int] = []
    try:
        with TraceFile(path) as trace:
            for block in trace.read_blocks():
                t_ms += block.t_ms
    except Exception as exc:   # noqa: BLE001 - which error comes first is the answer
        return t_ms, f"{type(exc).__name__}: {exc}"
    return t_ms, None


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_block_size_and_ranges_change_no_fault_of_a_mutated_trace(
    tmp_path_factory, base_lines, data
):
    # the reader's first fault and the frames before it at every block size, and analyze's
    # stderr and exit code whether its one file is read whole or as two byte ranges
    lines = [line.encode("utf-8") for line in base_lines]
    for k in data.draw(st.lists(st.integers(0, len(lines) - 1), min_size=1, max_size=3, unique=True)):
        lines[k] = data.draw(_mutated(base_lines[k]))
    tmp = tmp_path_factory.mktemp("mutated")
    path = tmp / "run.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    want = _read_until_the_fault(path)
    argv = ["analyze", str(path), "--out", str(tmp / "out")]
    with pytest.MonkeyPatch.context() as patch:
        for size in (1, 2, 3, 7, 10**6):
            patch.setattr(trace_module, "INGEST_BLOCK_LINES", size)
            assert _read_until_the_fault(path) == want, size
        patch.undo()
        patch.setattr(pipeline, "usable_cpus", lambda: 1)
        whole = _exit_and_stderr(argv)
        patch.setattr(pipeline, "usable_cpus", lambda: 2)
        assert _exit_and_stderr(argv) == whole
    assert want[1] is None or whole[0] != 0   # a trace the reader rejects is no analysis


def _assert_chart_ids(out) -> int:
    """The blocks of out/gantt.svg, parsed, carry the ids of out/report.json's opportunities
    one-to-one, each as the attribute text _escape writes; returns how many there are."""
    ids = [o["id"] for o in json.loads((out / "report.json").read_text())["opportunities"]]
    svg = (out / "gantt.svg").read_text(encoding="utf-8")
    parsed = [rect.get("data-id") for rect in ET.fromstring(svg).iterfind(".//{*}rect")
              if rect.get("class") == "block"]
    assert re.findall(r'<rect class="block" data-id="([^"]*)"', svg) == list(map(_escape, ids))
    pairs = set(zip(ids, parsed))
    assert len(parsed) == len(ids) and len(pairs) == len(set(ids)) == len(set(parsed))
    return len(ids)


def test_every_path_of_a_frame_line_exits_cleanly(tmp_path, base_lines):
    # each path of a frame line with a trackable set to each odd value ([] among them) and
    # deleted, as the middle frame of three, all analysed: the block pass rejects the block,
    # and the one-line re-read words the first fault.  With no least life span every
    # analysis that exits 0 charts its opportunities, and the chart's ids are the report's.
    header, before, line, after = base_lines[0], *base_lines[30:33]
    assert json.loads(line)["trackables"]
    path, out = tmp_path / "run.jsonl", tmp_path / "out"
    argv = ["analyze", str(path), "--fps", "30", "--min-lifespan", "0", "--out", str(out)]
    codes, charted = [], 0
    for at in list(_paths(json.loads(line)))[1:]:
        for value in [*_ODD_VALUES, _DELETE]:
            path.write_text("\n".join([header, before, _set(line, at, value), after]) + "\n")
            codes.append((at[0], _exit_code(argv)))
            if codes[-1][1] == 0:
                charted += _assert_chart_ids(out)
                (out / "gantt.svg").unlink()
    assert len(codes) == 84 * 22 and {code for _, code in codes} <= {0, 1}
    assert charted > 0
    # a line whose screen is not two positive integers is rejected, in the block and alone
    assert {code for field, code in codes if field == "screen"} == {1}


@pytest.fixture(scope="module")
def base_files(tmp_path_factory):
    """A 3 s, three-plane scene with dropout and noise, its report and its guided schedule.

    The third plane is a pentagon inside its rectangle, so mutations reach a
    plane's verts too.
    """
    tmp = tmp_path_factory.mktemp("files")
    scene = benchmark_scene("noisy-trio")
    pentagon = dataclasses.replace(scene.planes[2], local_vertices=np.array(
        [(-0.6, -0.5), (0.6, -0.5), (0.7, 0.2), (0.0, 0.55), (-0.7, 0.2)]))
    scene = dataclasses.replace(scene, duration_ms=3000, planes=(*scene.planes[:2], pentagon))
    save_scene(scene, tmp / "scene.json")
    save_trace(generate_trace(scene, 1), tmp / "run.jsonl")
    assert main(["analyze", str(tmp / "run.jsonl"), "--out", str(tmp)]) == 0
    assert main(["schedule", str(tmp / "report.json"), "--out", str(tmp / "schedule.json")]) == 0
    return tmp


# each file (kind.json) and the commands that read it, the other inputs being the valid ones
_READERS = {
    "scene": [["simulate", "{scene}", "--schedule", "{schedule}", "--out", "{out}"],
              ["compare", "{scene}", "--runs", "1"]],
    "schedule": [["simulate", "{scene}", "--schedule", "{schedule}", "--out", "{out}"]],
    "report": [["schedule", "{report}", "--out", "{out}"]],
}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_scenes_schedules_and_reports_exit_cleanly(tmp_path_factory, base_files, data):
    kind = data.draw(st.sampled_from(sorted(_READERS)))
    tmp = tmp_path_factory.mktemp("mutated")
    paths = {k: base_files / f"{k}.json" for k in _READERS}
    paths[kind] = tmp / f"{kind}.json"
    paths[kind].write_bytes(data.draw(_mutated((base_files / f"{kind}.json").read_text("utf-8"))))
    for argv in _READERS[kind]:
        argv = [arg.format(**paths, out=tmp / "out.json") for arg in argv]
        assert _exit_code(argv) in (0, 1, 2), argv


def _probe_end_paths(text: str, path, commands) -> dict[tuple, int]:
    """The exit code of the first of commands(path) for each path of the JSON text into the
    ends of its lists, set to each odd value ([] among them) and deleted, by (path, index of
    the value in _ODD_VALUES, or len(_ODD_VALUES) for the deletion); each command after the
    first runs too, and must exit 0, 1 or 2."""
    codes = {}
    for at in list(_paths(json.loads(text), ends_only=True))[1:]:
        for k, value in enumerate([*_ODD_VALUES, _DELETE]):
            path.write_text(_set(text, at, value))
            first, *more = commands(path)
            codes[at, k] = _exit_code(first)
            for argv in more:
                assert _exit_code(argv) in (0, 1, 2), (at, value, argv)
    return codes


def test_every_end_path_of_a_schedule_exits_cleanly(tmp_path, base_files):
    # each path of the guided schedule, entering each list at its ends, set to each odd
    # value ([] among them) and deleted, replayed by simulate
    text = (base_files / "schedule.json").read_text("utf-8")
    path = tmp_path / "schedule.json"
    argv = ["simulate", str(base_files / "scene.json"), "--schedule", str(path),
            "--out", str(tmp_path / "out.json")]
    codes = _probe_end_paths(text, path, lambda path: [argv])
    assert len(codes) == 36 * 22 and set(codes.values()) <= {0, 1}
    # a mix must be weights >= 0 that sum to 1, so no odd value of it or in it is replayed
    assert {code for (at, _), code in codes.items() if at[0] == "mix"} == {1}


def _loads(path) -> bool:
    """Whether the scene file at path loads."""
    try:
        load_scene(path)
    except (SceneError, ValueError):
        return False
    return True


def test_every_end_path_of_a_scene_exits_cleanly(tmp_path, base_files):
    # replayed by simulate; a scene that loads is also rendered and analysed by compare,
    # which takes about four times as long

    def commands(path):
        yield ["simulate", str(path), "--schedule", str(base_files / "schedule.json"),
               "--out", str(tmp_path / "out.json")]
        if _loads(path):
            yield ["compare", str(path), "--runs", "1"]

    codes = _probe_end_paths((base_files / "scene.json").read_text("utf-8"),
                             tmp_path / "scene.json", commands)
    assert len(codes) == 71 * 22 and set(codes.values()) <= {0, 1}
    # 1e308 in a normal or a camera vector, and an empty polygon, are rejected
    huge = _ODD_VALUES.index(1e308)
    vectors = {at for at, k in codes if k == huge and len(at) == 4
               and at[2] in ("normal", "pos", "look_at", "up")}
    assert len(vectors) == 10 and {codes[at, huge] for at in vectors} == {1}
    assert codes[("planes", 2, "verts"), _ODD_VALUES.index([])] == 1


def test_every_end_path_of_a_report_exits_cleanly(tmp_path, base_files):
    # read back by schedule
    codes = _probe_end_paths(
        (base_files / "report.json").read_text("utf-8"), tmp_path / "report.json",
        lambda path: [["schedule", str(path), "--out", str(tmp_path / "schedule.json")]])
    assert len(codes) == 18 * 22 and set(codes.values()) <= {0, 1}
    # no value but a finite number is taken for a number of an opportunity
    numbers = [at for at, k in codes if k == 0 and at[:1] == ("opportunities",)
               and (at[-1] in ("start_ms", "end_ms") or at[-2:-1] == ("box",))]
    not_numbers = [k for k, v in enumerate(_ODD_VALUES)
                   if not (type(v) in (int, float) and abs(v) <= 1e308)]
    assert len(numbers) == 4 and {codes[at, k] for at in numbers for k in not_numbers} == {1}
    # opportunities that are no list, an empty id and a box corner far off the screen
    odd = _ODD_VALUES.index
    assert codes[("opportunities",), odd("")] == codes[("opportunities",), odd({})] == 1
    ids = [at for at, k in codes if k == 0 and at[:1] == ("opportunities",) and at[-1] == "id"]
    corners = [at for at in numbers if at[-2:-1] == ("box",)]
    assert (len(ids), len(corners)) == (1, 2)   # the report holds one opportunity
    assert {codes[at, odd("")] for at in ids} == {1}
    assert {codes[at, odd(v)] for at in corners for v in (1e308, -1e308)} == {1}
