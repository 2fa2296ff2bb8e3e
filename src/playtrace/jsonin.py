"""JSON input: the one decoder of input files and one checker per field rule.

Every input file (trace lines, scenes, schedules, reports) is JSON.  The
errors of decoding one map to one set of messages (decode_error).  Each
checker takes a value and what, the name of the field, and returns the
value as the program uses it, or raises ValueError("<what> must be ...");
each loader wraps that in its own error.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Any

import numpy as np

MAX_INT = 2**53    # larger integers do not survive the float arithmetic of times and seeds
UNIT_EPS = 1e-6    # tolerance of unit-length and orthogonality checks on direction vectors
_NUMBER_TYPES = {float, int}
# what decoding UTF-8 and json.loads raise on a text they reject
DECODE_ERRORS = (ValueError, RecursionError)


def decode_error(exc: Exception, where: str) -> str:
    """The message "<where>: ..." for a text that UTF-8 decoding or json.loads rejected with exc."""
    if isinstance(exc, UnicodeDecodeError):
        return f"{where}: not UTF-8 text (byte {exc.object[exc.start]:#04x} at offset {exc.start})"
    if isinstance(exc, json.JSONDecodeError):
        return f"{where}: invalid JSON: {exc.msg}"
    if isinstance(exc, RecursionError):  # the decoder recurses once per level of nesting
        return f"{where}: invalid JSON: nested too deeply"
    # int() refuses a literal longer than its digit limit, CPython's guard for CVE-2020-10735
    return f"{where}: invalid JSON: integer of more than {sys.get_int_max_str_digits()} digits"


def load_json(path: str | Path) -> Any:
    """The JSON value of a file; text that is not UTF-8 JSON is a ValueError naming the file."""
    path = Path(path)
    data = path.read_bytes()
    try:
        return json.loads(data.decode("utf-8"))
    except DECODE_ERRORS as exc:
        raise ValueError(decode_error(exc, path.name)) from None


def dump_json(obj: Any, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def json_numbers(values: list) -> bool:
    """True when every entry is an int or a float; a C-speed type check that rejects bool."""
    return _NUMBER_TYPES.issuperset(map(type, values))


def finite_floats(values: list) -> np.ndarray | None:
    """values as a float array, or None unless every entry is a finite int or float.

    bool, str, None and nested lists fail json_numbers; an integer literal
    too large for a float fails the conversion.  Ints convert as float(v) does.
    """
    if not json_numbers(values):
        return None
    try:
        arr = np.fromiter(values, float, len(values))
    except OverflowError:
        return None
    return arr if np.isfinite(arr).all() else None


def integer(value: Any, what: str) -> int:
    """value, when it is a JSON integer (not a bool or a float) of at most 2**53 in magnitude."""
    if type(value) is not int or abs(value) > MAX_INT:
        raise ValueError(f"{what} must be an integer of at most 2**53 in magnitude, got {value!r}")
    return value


def finite(value: Any, what: str) -> float:
    """value as a float, when it is a finite JSON number (an int or a float, not a bool)."""
    # compared exactly, so NaN and an integer too large for a float both fail
    if not (json_numbers([value]) and abs(value) <= sys.float_info.max):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def numbers(values: Any, n: int, what: str) -> np.ndarray:
    """values as a read-only float array, when it is a list of exactly n finite JSON numbers."""
    arr = finite_floats(values) if isinstance(values, list) and len(values) == n else None
    if arr is None:
        raise ValueError(f"{what} must be a list of {n} finite numbers, got {values!r}")
    arr.flags.writeable = False
    return arr


def unit(v: np.ndarray, what: str) -> np.ndarray:
    """v, when its length is 1 within UNIT_EPS; a length past the float range is inf, unwarned."""
    with np.errstate(over="ignore"):
        length = math.sqrt(v.dot(v))  # np.linalg.norm's sum, without its overhead
    if not abs(length - 1.0) <= UNIT_EPS:
        raise ValueError(f"{what} must be unit length, got |n|={length:.8f}")
    return v
