"""JSON forms for matrices and structured objects.

The matrix literal shared by scene files and reports: a matrix is an array
of rows, each entry either a plain number (real) or a two-element array
[re, im].  Serialization emits plain numbers for exactly-real entries, so
output stays readable and byte-deterministic for a fixed input.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SceneParseError
from .instruments import Instrument
from .observables import RealValuedObservable, SubObservable
from .operations import Operation

__all__ = [
    "complex_to_json",
    "matrix_to_json",
    "matrix_from_json",
    "operation_to_json",
    "observable_to_json",
    "instrument_to_json",
    "value_to_json",
]


def complex_to_json(z: complex):
    z = complex(z)
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=np.complex128)
    return [[complex_to_json(entry) for entry in row] for row in m.tolist()]


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


def _entry_from_json(entry, where: str) -> complex:
    if isinstance(entry, bool):
        raise SceneParseError(f"{where}: matrix entries must be numbers, got a boolean")
    try:
        if isinstance(entry, (int, float)):
            value = complex(entry, 0.0)
        elif isinstance(entry, list) and len(entry) == 2 and all(map(_is_number, entry)):
            value = complex(entry[0], entry[1])
        else:
            raise SceneParseError(f"{where}: matrix entries must be numbers or [re, im] pairs")
    except OverflowError:  # an integer beyond float range
        raise SceneParseError(f"{where}: matrix entries must be finite") from None
    if not (np.isfinite(value.real) and np.isfinite(value.imag)):
        raise SceneParseError(f"{where}: matrix entries must be finite")
    return value


def matrix_from_json(rows, where: str = "matrix") -> np.ndarray:
    """Parse the matrix literal; raises SceneParseError with a location string."""
    if not isinstance(rows, list) or not rows:
        raise SceneParseError(f"{where}: expected a non-empty array of rows")
    n = len(rows)
    out = np.zeros((n, n), dtype=np.complex128)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise SceneParseError(f"{where} row {i}: expected {n} entries (square matrix)")
        for j, entry in enumerate(row):
            out[i, j] = _entry_from_json(entry, f"{where} row {i} col {j}")
    return out


def operation_to_json(op: Operation) -> dict:
    return {"kraus": [matrix_to_json(k) for k in op.kraus]}


def observable_to_json(a: SubObservable) -> dict:
    out = {
        "outcomes": list(a.outcomes),
        "effects": {x: matrix_to_json(a.effects[x]) for x in a.outcomes},
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
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.ndarray):
        return matrix_to_json(value)
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
