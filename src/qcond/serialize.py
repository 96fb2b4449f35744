"""JSON forms of matrices, operations, observables and instruments.

Scene files and reports share one codec per literal kind, a reader beside its
writer: ``matrix_from_json`` and ``complex_to_json`` (a matrix, state or effect),
and ``_operation_from_json``, ``_observable_from_json`` and ``_instrument_from_json``
beside ``operation_to_json``, ``observable_to_json`` and ``instrument_to_json``.
``scene`` documents the forms.  A reader gives back what its writer wrote, bit for
bit.  The writers emit every matrix entry as [re, im] and every operation as
kraus: never the operation forms luders and holevo that the readers also take,
nor a scene's luders_of and holevo_of instruments, which ``scene`` reads.
Reports write a real as a plain number, any complex value as [re, im] pairs and
a non-finite number as a string, so they are strict JSON.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from itertools import chain, islice
from typing import Callable

import numpy as np

from .errors import QcondError, SceneError, SceneParseError, SceneValidationError
from .instruments import COMPOSITE_LABEL_SEPARATOR, Instrument
from .linalg import Tolerance
from .observables import EXTENSION_LABEL, Observable, RealValuedObservable, SubObservable
from .operations import Operation, holevo, luders

__all__ = [
    "complex_to_json",
    "matrix_from_json",
    "operation_to_json",
    "observable_to_json",
    "instrument_to_json",
    "value_to_json",
    "strict_json",
]

_RESERVED_LABELS = (EXTENSION_LABEL, COMPOSITE_LABEL_SEPARATOR)
_OPERATION_KEYS = ("kraus", "luders", "holevo")


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


def _require_dict(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise SceneParseError(f"{where} must be a JSON object")
    return value


@contextmanager
def _naming(where: str):
    """Re-raise a library error from the constructors inside (operands of
    different sizes in one literal, say) as a SceneValidationError naming
    ``where``, so the CLI reports it like any other invalid literal."""
    try:
        yield
    except SceneError:
        raise
    except QcondError as exc:
        raise SceneValidationError(f"{where}: {exc}") from exc


def _labels_from_json(outcomes, where: str, reserved: bool = True) -> list[str]:
    """Outcome labels: a nonempty list, unique and, if ``reserved``, free of reserved characters."""
    if not isinstance(outcomes, list) or not outcomes:
        raise SceneParseError(f"{where}: outcomes must be a nonempty list of labels")
    labels = [str(x) for x in outcomes]
    if len(set(labels)) != len(labels):
        raise SceneValidationError(f"{where}: outcome labels must be unique, got {labels}")
    for x in labels if reserved else ():
        for bad in _RESERVED_LABELS:
            if bad in x:
                raise SceneValidationError(
                    f"{where}: outcome label {x!r} contains reserved character {bad!r}"
                )
    return labels


def _keyed_by_labels(raw, labels, where: str, what: str) -> dict:
    """A JSON object whose keys are exactly the outcome labels."""
    raw = _require_dict(raw, f"{where} {what}")
    if set(raw.keys()) != set(labels):
        raise SceneParseError(f"{where}: {what} must be keyed exactly by the outcome labels")
    return raw


def operation_to_json(op: Operation) -> dict:
    return {"kraus": complex_to_json(op.kraus)}


def _operation_from_json(raw, where: str, tol: Tolerance, judge: Callable) -> Operation:
    """A one-key kraus, luders or holevo literal.  A Lüders or Holevo operation exists when
    the matrices it is built from are valid: their blocks (see ``core._judged``) go to
    ``judge(where, *blocks)`` before it is built."""
    raw = _require_dict(raw, where)
    if len(raw) != 1 or next(iter(raw)) not in _OPERATION_KEYS:
        raise SceneValidationError(f"{where}: expected a kraus, luders or holevo literal")
    [(key, body)] = raw.items()
    with _naming(where):
        if key == "kraus":
            if not isinstance(body, list) or not body:
                raise SceneParseError(f"{where}: kraus must be a nonempty list of matrices")
            return Operation([matrix_from_json(k, f"{where} kraus[{i}]") for i, k in enumerate(body)])
        if key == "luders":
            a = matrix_from_json(body, f"{where} luders effect")
            judge(where, (a[None], "effect", None))
            return luders(a, tol)
        body = _require_dict(body, f"{where} holevo")
        if set(body) != {"effect", "alpha"}:
            raise SceneParseError(f"{where}: holevo needs exactly effect and alpha")
        a = matrix_from_json(body["effect"], f"{where} holevo effect")
        alpha = matrix_from_json(body["alpha"], f"{where} holevo alpha")
        judge(where, (a[None], "effect", None), (alpha[None], "state", None))
        return holevo(a, alpha, tol)


def observable_to_json(a: SubObservable) -> dict:
    out = {
        "outcomes": list(a.outcomes),
        "effects": dict(zip(a.outcomes, complex_to_json(a.stack))),
    }
    if isinstance(a, RealValuedObservable):
        out["values"] = {x: a.values[x] for x in a.outcomes}
    return out


def _observable_from_json(raw, where: str) -> Observable:
    """An {outcomes, effects, values?} literal: a RealValuedObservable when it has values."""
    raw = _require_dict(raw, where)
    if set(raw) - {"outcomes", "effects", "values"} or not {"outcomes", "effects"} <= set(raw):
        raise SceneParseError(f"{where}: an observable needs outcomes and effects")
    labels = _labels_from_json(raw["outcomes"], where)
    effects = _keyed_by_labels(raw["effects"], labels, where, "effects")
    obs = Observable(labels, {x: matrix_from_json(effects[x], f"{where} effect {x!r}") for x in labels})
    if "values" not in raw:
        return obs
    values = {}
    for x, v in _keyed_by_labels(raw["values"], labels, where, "values").items():
        values[x] = _json_float(v)
        if values[x] is None:
            raise SceneParseError(f"{where}: value for outcome {x!r} must be a finite number")
    return RealValuedObservable(obs, values)


def instrument_to_json(ins: Instrument) -> dict:
    rows = iter(complex_to_json(ins.kraus))  # one conversion of the Kraus union, sliced by outcome
    return {
        "outcomes": list(ins.outcomes),
        "ops": {x: {"kraus": list(islice(rows, len(ins.ops[x].kraus)))} for x in ins.outcomes},
    }


def _instrument_from_json(raw: dict, where: str, read_op: Callable, reserved: bool = True) -> Instrument:
    """A dict of exactly outcomes and ops (the caller checks the keys), outcome x's op read by
    ``read_op(literal, x)`` in label order; ``reserved`` rejects labels with a reserved character."""
    labels = _labels_from_json(raw["outcomes"], where, reserved)
    ops = _keyed_by_labels(raw["ops"], labels, where, "ops")
    ops = {x: read_op(ops[x], x) for x in labels}
    with _naming(where):
        return Instrument(labels, ops)


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
