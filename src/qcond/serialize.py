"""JSON forms for matrices and structured objects.

The matrix literal shared by scene files and reports: a matrix is an array
of rows, each entry either a plain number (real) or a two-element array
[re, im].  Reports write a real as a plain number, any complex value as
[re, im] pairs and a non-finite number as a string, so they are strict JSON.
"""

from __future__ import annotations

import json
import math
from itertools import chain

import numpy as np

from .errors import SceneParseError
from .instruments import Instrument
from .observables import RealValuedObservable, SubObservable
from .operations import Operation

__all__ = [
    "complex_to_json",
    "matrix_from_json",
    "operation_to_json",
    "observable_to_json",
    "instrument_to_json",
    "value_to_json",
    "strict_json",
]


def complex_to_json(z) -> list:
    """A complex scalar, matrix or Kraus stack as nested [re, im] pairs, in one array conversion."""
    z = np.asarray(z, dtype=np.complex128)
    return np.stack((z.real, z.imag), -1).tolist()


def _is_number(x) -> bool:
    """A JSON number: an int or a float, but not a bool."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _json_float(x) -> float | None:
    """A finite JSON number as a float; None for anything else.

    None also for an integer too large for a float and for NaN and Infinity,
    which Python's json reads but JSON does not define.
    """
    if not _is_number(x):
        return None
    try:
        x = float(x)
    except OverflowError:
        return None
    return x if math.isfinite(x) else None


_REAL = frozenset((int, float))  # the exact types json gives a number


def _entry_error(entry) -> str | None:
    """What is wrong with one matrix entry, or None for a legal one."""
    if isinstance(entry, bool):
        return "matrix entries must be numbers, got a boolean"
    if _is_number(entry):
        parts = (entry,)
    elif isinstance(entry, list) and len(entry) == 2 and all(map(_is_number, entry)):
        parts = entry
    else:
        return "matrix entries must be numbers or [re, im] pairs"
    if any(_json_float(part) is None for part in parts):
        return "matrix entries must be finite"
    return None


def _screened(rows, n: int) -> list | None:
    """The literal's numbers in row-major order (a pair as re, im) when it is
    n rows of n plain numbers, or of n [re, im] pairs of plain numbers; None
    otherwise.

    The checks run over the whole literal at C speed; anything unusual (a
    bool, a number subclass, scalars mixed with pairs, a bad row) is left to
    `_walk`.
    """
    if set(map(type, rows)) != {list} or set(map(len, rows)) != {n}:
        return None
    entries = list(chain.from_iterable(rows))
    kinds = set(map(type, entries))
    if kinds <= _REAL:
        return entries
    if kinds == {list} and set(map(len, entries)) == {2}:
        parts = list(chain.from_iterable(entries))
        if set(map(type, parts)) <= _REAL:
            return parts
    return None


def _finite(numbers: list) -> np.ndarray | None:
    """The numbers as one float64 array, or None if any is not finite."""
    try:
        values = np.array(numbers, dtype=np.float64)
    except OverflowError:  # an integer beyond float range
        return None
    return values if np.isfinite(values).all() else None


def _walk(rows, n: int, where: str) -> list:
    """The row-major walk: raise at the first bad row or entry, else the
    literal's numbers with every entry as a pair re, im."""
    numbers = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise SceneParseError(f"{where} row {i}: expected {n} entries (square matrix)")
        for j, entry in enumerate(row):
            error = _entry_error(entry)
            if error is not None:
                raise SceneParseError(f"{where} row {i} col {j}: {error}")
            numbers.extend(entry if isinstance(entry, list) else (entry, 0.0))
    return numbers


def matrix_from_json(rows, where: str = "matrix") -> np.ndarray:
    """Parse the matrix literal; raises SceneParseError with a location string.

    Each entry x or [re, im] becomes complex(x, 0.0) or complex(re, im), bit
    for bit, through one float64 conversion of the whole literal.  An error
    names the first bad row or entry in row-major order.
    """
    if not isinstance(rows, list) or not rows:
        raise SceneParseError(f"{where}: expected a non-empty array of rows")
    n = len(rows)
    numbers = _screened(rows, n)
    values = None if numbers is None else _finite(numbers)
    if values is None:
        values = np.array(_walk(rows, n, where), dtype=np.float64)
    if values.size == n * n:  # plain numbers; pairs give 2 n^2
        return values.astype(np.complex128).reshape(n, n)
    return values.view(np.complex128).reshape(n, n)


def operation_to_json(op: Operation) -> dict:
    return {"kraus": complex_to_json(op.kraus)}


def observable_to_json(a: SubObservable) -> dict:
    out = {
        "outcomes": list(a.outcomes),
        "effects": dict(zip(a.outcomes, complex_to_json(a.stack))),
    }
    if isinstance(a, RealValuedObservable):
        out["values"] = {x: a.values[x] for x in a.outcomes}
    return out


def instrument_to_json(ins: Instrument) -> dict:
    return {
        "outcomes": list(ins.outcomes),
        "ops": {x: operation_to_json(ins.ops[x]) for x in ins.outcomes},
    }


def value_to_json(value):
    """Serialize any check/witness value into plain JSON types."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, float, np.integer)):
        return float(value)
    if isinstance(value, (complex, np.ndarray)):  # np.complex128 is a complex
        return complex_to_json(value)
    if isinstance(value, Operation):
        return operation_to_json(value)
    if isinstance(value, SubObservable):
        return observable_to_json(value)
    if isinstance(value, Instrument):
        return instrument_to_json(value)
    if isinstance(value, dict):
        return {str(k): value_to_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [value_to_json(v) for v in value]
    if hasattr(value, "to_json"):
        return value.to_json()
    raise TypeError(f"cannot serialize {type(value).__name__}")


def strict_json(payload, **kwargs) -> str:
    """``json.dumps(payload, **kwargs)`` as strict JSON: NaN and ±Infinity written as strings."""
    try:
        return json.dumps(payload, allow_nan=False, **kwargs)
    except ValueError:  # json reads each non-finite token back as its name, a string
        named = json.loads(json.dumps(payload), parse_constant=str)
        return json.dumps(named, allow_nan=False, **kwargs)
