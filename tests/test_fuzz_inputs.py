"""Mutation fuzz of every input file through the CLI.

Hypothesis takes a valid trace and mutates a few of its lines, or a valid
scene, schedule or report file and mutates it once: a value at some path
swapped for another type, null, NaN or an infinity, 1e308, 5e-324, an integer
literal too large for a float, a deleted key or entry, an empty list, deep
nesting, or `ff fe` bytes before the text.  Each example runs the CLI
in-process: it must exit 0, 1 or 2, let no exception escape, and write
nothing to stderr but at most one line starting "error: ", so a warning
(which the CLI would print there) fails it.  At --fps 1
most mutated trace lines fall on frames the analysis drops, which must be
checked all the same.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import signal
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from playtrace.cli import main
from playtrace.scenes import benchmark_scene
from playtrace.simulator import generate_trace, save_scene
from playtrace.trace import save_trace

# json.dumps cannot write an integer longer than int() converts, so this string stands
# for one and is swapped for the digits after dumping
_LONG_INT = "<integer of 4400 digits>"
_ODD_VALUES = [
    None, True, False, 0, -1, 1.5, "x", "", [], {}, [[]], {"x": 1},
    float("nan"), float("inf"), float("-inf"), 1e308, -1e308, 5e-324, 10**400, -(10**400), _LONG_INT,
]
_DEEP = "[" * 100_000 + "]" * 100_000  # deeper than the JSON decoder recurses


@pytest.fixture(scope="module")
def base_lines(tmp_path_factory):
    """The header and 60 frame lines (2 s at 30 fps) of a three-plane recording."""
    full = generate_trace(benchmark_scene("drift-trio"), 3)
    path = tmp_path_factory.mktemp("fuzz") / "base.jsonl"
    save_trace(dataclasses.replace(full, frames=full.frames[:60]), path)
    return path.read_text(encoding="utf-8").splitlines()


def _paths(value, path=()):
    """Every path of keys and indices into a JSON value, the value's own first."""
    yield path
    if isinstance(value, dict):
        for key, v in value.items():
            yield from _paths(v, (*path, key))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _paths(v, (*path, i))


@st.composite
def _mutated(draw, text: str) -> bytes:
    """One JSON text, a trace line or a whole file, mutated once."""
    kind = draw(st.sampled_from(["replace", "delete", "empty", "deep", "bom"]))
    if kind == "bom":
        return b"\xff\xfe" + text.encode("utf-8")
    obj = json.loads(text)
    path = draw(st.sampled_from(list(_paths(obj))[1:]))
    *parents, last = path
    owner = obj
    for key in parents:
        owner = owner[key]
    if kind == "delete":
        del owner[last]
    elif kind == "replace":
        owner[last] = draw(st.sampled_from(_ODD_VALUES))
    else:  # an empty list, which "deep" then nests
        owner[last] = []
    text = json.dumps(obj)  # NaN and the infinities as their JavaScript literals
    text = text.replace(json.dumps(_LONG_INT), "9" * 4400)
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
    return code


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


@pytest.fixture(scope="module")
def base_files(tmp_path_factory):
    """A 3 s, three-plane scene with dropout and noise, its report and its guided schedule."""
    tmp = tmp_path_factory.mktemp("files")
    scene = dataclasses.replace(benchmark_scene("noisy-trio"), duration_ms=3000)
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
