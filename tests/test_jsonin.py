"""The one JSON decoder and the field checkers of every input file."""

from __future__ import annotations

import json
import math
import sys

import numpy as np
import pytest

from oracles import iter_frames
from playtrace.jsonin import MAX_INT, finite, integer, load_json, numbers, unit
from playtrace.trace import TraceParseError

# an overflow inside a checker must not reach stderr as a warning
pytestmark = pytest.mark.filterwarnings("error")

VALUES = {
    "true": True,
    "string": "1",
    "null": None,
    "list": [],
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "1.5": 1.5,
    "-0.0": -0.0,
    "2**53": 2**53,
    "2**53+1": 2**53 + 1,
    "10**400": 10**400,
    "1e308": 1e308,
}
# the value each checker returns for the values it accepts; the rest it rejects
INTEGERS = {"2**53": 2**53}
FINITE = {"1.5": 1.5, "-0.0": -0.0, "2**53": 2.0**53, "2**53+1": 2.0**53, "1e308": 1e308}


def _same(a, b) -> bool:
    """a == b with their types and the sign of a zero."""
    return type(a) is type(b) and a == b and math.copysign(1, a) == math.copysign(1, b)


def _rejects(check, *args) -> str:
    with pytest.raises(ValueError) as exc:
        check(*args)
    return str(exc.value)


@pytest.mark.parametrize("name", VALUES)
def test_integer(name):
    value = VALUES[name]
    if name in INTEGERS:
        assert _same(integer(value, "seed"), INTEGERS[name])
    else:
        message = _rejects(integer, value, "seed")
        assert message == f"seed must be an integer of at most 2**53 in magnitude, got {value!r}"


def test_integer_bound_is_symmetric():
    assert integer(-MAX_INT, "t") == -MAX_INT
    assert _rejects(integer, -MAX_INT - 1, "t").startswith("t must be an integer")


@pytest.mark.parametrize("name", VALUES)
def test_finite(name):
    value = VALUES[name]
    if name in FINITE:
        assert _same(finite(value, "fps"), FINITE[name])
    else:
        assert _rejects(finite, value, "fps") == f"fps must be a finite number, got {value!r}"


@pytest.mark.parametrize("name", VALUES)
def test_numbers(name):
    value = VALUES[name]
    if name in FINITE:
        arr = numbers([value, 0, value], 3, "pos")
        assert arr.dtype == np.float64 and not arr.flags.writeable
        want = [FINITE[name], 0.0, FINITE[name]]
        assert all(_same(got, w) for got, w in zip(arr.tolist(), want))
    else:
        message = _rejects(numbers, [value, 0, 0], 3, "pos")
        assert message == f"pos must be a list of 3 finite numbers, got {[value, 0, 0]!r}"
    # a bare value, or a list of the wrong length, is never a list of 3 numbers
    for bad in (value, [value, 0]):
        assert _rejects(numbers, bad, 3, "pos") == f"pos must be a list of 3 finite numbers, got {bad!r}"


@pytest.mark.parametrize("name", [*FINITE, "nan", "inf", "-inf"])
def test_unit(name):
    # every one is off unit length; 1e308 squared overflows, which reads as inf
    v = np.array([VALUES[name], 0.0, 0.0])
    length = math.inf if name == "1e308" else abs(VALUES[name])
    message = _rejects(unit, v, "plane 'p' normal")
    assert message == f"plane 'p' normal must be unit length, got |n|={length:.8f}"


@pytest.mark.parametrize("v", [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0000009],
                               [0.6, 0.8, 0.0]])
def test_unit_accepts_unit_length_within_the_tolerance(v):
    arr = np.array(v)
    assert unit(arr, "normal") is arr


# each bad text as bytes, and the decoder's message for it after "<where>: "
_LIMIT = sys.get_int_max_str_digits()
BAD_TEXTS = {
    "bad-json": (b"{not json", "invalid JSON: Expecting property name enclosed in double quotes"),
    "too-deep": (b"[" * 100_000 + b"]" * 100_000, "invalid JSON: nested too deeply"),
    "long-integer": (b'{"fps": ' + b"9" * 5000 + b"}",
                     f"invalid JSON: integer of more than {_LIMIT} digits"),
    "not-utf8": (b'{"fps": 30, "name": "\xff"}', "not UTF-8 text"),
}


@pytest.mark.parametrize("name", BAD_TEXTS)
def test_load_json_names_the_file(tmp_path, name):
    data, message = BAD_TEXTS[name]
    path = tmp_path / "scene.json"
    path.write_bytes(data)
    with pytest.raises(ValueError) as exc:
        load_json(path)
    if name == "not-utf8":
        message += f" (byte 0xff at offset {data.index(0xFF)})"
    assert str(exc.value) == f"scene.json: {message}"
    assert exc.value.__suppress_context__  # raised from None: no decoder traceback behind it


@pytest.mark.parametrize("name", BAD_TEXTS)
def test_trace_reader_names_the_file_and_line(tmp_path, name):
    data, message = BAD_TEXTS[name]
    header = json.dumps({"format": "tariplay-trace", "version": 1, "fps": 30.0}).encode()
    path = tmp_path / "t.jsonl"
    path.write_bytes(header + b"\n" + data + b"\n")
    with pytest.raises(TraceParseError) as exc:
        list(iter_frames(path))
    if name == "not-utf8":
        message += f" (byte 0xff at column {data.index(0xFF) + 1})"
    assert str(exc.value) == f"t.jsonl:2: {message}"
    assert exc.value.__suppress_context__
