"""Mutation fuzz of trace files through `playtrace analyze`.

Hypothesis takes a valid trace and mutates a few of its lines: a value at
some path swapped for another type, null, NaN or an infinity, 1e308, an
integer literal too large for a float, a deleted key or entry, an empty
list, deep nesting, or `ff fe` bytes before a line.  Each example runs the
CLI in-process: it must exit 0, 1 or 2 and let no exception escape.  At
--fps 1 most mutated lines fall on frames the analysis drops, which must be
checked all the same.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from playtrace.cli import main
from playtrace.scenes import benchmark_scene
from playtrace.simulator import generate_trace
from playtrace.trace import save_trace

_ODD_VALUES = [
    None, True, False, 0, -1, 1.5, "x", "", [], {}, [[]], {"x": 1},
    float("nan"), float("inf"), float("-inf"), 1e308, -1e308, 10**400, -(10**400),
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
def _mutated_line(draw, line: str) -> bytes:
    """One line of a trace, mutated once."""
    kind = draw(st.sampled_from(["replace", "delete", "empty", "deep", "bom"]))
    if kind == "bom":
        return b"\xff\xfe" + line.encode("utf-8")
    obj = json.loads(line)
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
    if kind == "deep":
        text = text.replace("[]", _DEEP, 1)
    return text.encode("utf-8")


def _hang(signum, frame):
    raise AssertionError("analyze did not finish within 5 s")


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_traces_exit_cleanly(tmp_path_factory, base_lines, data):
    lines = [line.encode("utf-8") for line in base_lines]
    for k in data.draw(st.lists(st.integers(0, len(lines) - 1), min_size=1, max_size=3, unique=True)):
        lines[k] = data.draw(_mutated_line(base_lines[k]))
    tmp = tmp_path_factory.mktemp("mutated")
    path = tmp / "run.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    previous = signal.signal(signal.SIGALRM, _hang)
    signal.alarm(5)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = main(["analyze", str(path), "--fps", "1", "--out", str(tmp / "out")])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert rc in (0, 1, 2)
