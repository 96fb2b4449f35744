"""Executable scenes: JSON scenarios with named objects and checked assertions.

A scene file has three parts::

    {
      "name": "...",                     # optional
      "description": "...",              # optional
      "tolerance": {"eq_tol": 1e-9, "psd_tol": 1e-10},   # optional
      "objects": { name: literal, ... },
      "checks": [ {"op": ..., "args": [...], "expect": ...}, ... ]
    }

Object literals are typed by their single top-level key:

    {"state": rows}                     density matrix
    {"effect": rows}                    effect operator
    {"matrix": rows}                    plain (probe) matrix
    {"kraus": [rows, ...]}              operation from a Kraus family
    {"luders": rows}                    Lüders operation of an effect
    {"holevo": {"effect": rows, "alpha": rows}}
    {"observable": {"outcomes": [...], "effects": {...}, "values": {...}?}}
    {"instrument": {"outcomes": [...], "ops": {label: op-literal}}}
    {"instrument": {"luders_of": "observable-name"}}
    {"instrument": {"holevo_of": {"observable": name, "alphas": {...}}}}

Matrix entries are numbers or two-element [re, im] lists.  Checks call a
registered operation on named objects (strings refer to objects; label lists
are written inline) and compare against "expect", or bound a real
result with "expect_min"/"expect_max".  A check passes when the residual is
within its tolerance ("tol" on the check, else the runner default, else the
scene's eq_tol).

Checks are typed at load: each op declares the kind of its result, "expect"
is parsed into that kind when the scene loads, and only a real result takes
bounds (a NaN or infinite result meets none).  The kinds, with the
expectation each reads and the residual:

    real, complex   a number or [re, im] pair        |value - expect|
    bool            true or false                    0 if equal, else 1
    matrix          d x d rows                       Frobenius distance
    operation       a kraus, luders or holevo        Choi distance
                    literal on d x d matrices
    observable      {"effects": {label: rows}}       worst Frobenius distance
    instrument      {"outcomes": [...],              worst Choi distance
                     "ops": {label: op-literal}}
    record          {field: number}, or one number   worst field distance
                    for every field
    Bayes triple    a record, or one number for      worst field distance
                    lhs, mid and rhs

Objects and expectations read each literal kind (matrix, operation,
observable, instrument) with its codec in ``serialize``.  An expectation is
read at the size of its check's arguments, so each of its matrices is d x d.
Its outcome labels follow the object rules (an instrument's "outcomes" is a
nonempty list of unique labels that keys "ops" exactly) except that they may
carry the reserved separators of composite results.  An observable, record
or Bayes expectation names at least one effect or field.  What depends on
the computed value (a record's fields, the outcome labels of an observable
or instrument result) is checked when the scene runs: a label the result
lacks fails that check alone, with residual inf and the SceneValidationError
as its error.

Loading reads and builds the objects in load order, instruments last (they
may name an observable), then the checks.  What decides validity is judged
in stacks (``core._judge``): what an operation is built from (a Lüders
effect, a Holevo effect and update state, each alpha of a holevo_of), every
built object (a state, an effect, an operation's trace bound, an
observable's effects and total, an instrument's measured effects and bar
channel) and the operation inputs of the check expectations; expectations
themselves are not.  A valid scene is judged once, after it is read, in one
kernel call per dimension.

A scene raises its first fault in load order, objects before checks: within
one object, its inputs in reading order, then its construction, then the
built object.  An invalid scene (a violation, or an error met while
reading) is loaded again, judging as it reads, and raises what that pass
meets first, so a later fault never hides an earlier one.

Malformed files raise SceneParseError, semantic problems (invalid objects,
unknown ops, reserved labels, expectations of the wrong kind)
SceneValidationError, and dangling names SceneReferenceError; the
command-line front end maps all three to exit code 2.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .context_stats import (
    commutator_trace, contextual_correlation, contextual_covariance, contextual_expectation,
    contextual_variance, uncertainty_report,
)
from .core import _judged, complement, is_atomic, is_sharp, perp, prob
from .entropy import (
    conditional_effect_entropy, conditional_observable_entropy_double,
    conditional_observable_entropy_single, effect_entropy, observable_entropy,
    sequential_entropy, sequential_entropy_dominated,
)
from .errors import QcondError, SceneParseError, SceneReferenceError, SceneValidationError
from .instruments import (
    Instrument, bar_channel, bayes1_check, bayes1_expectation_check, compose_instruments,
    condition_effect, condition_instrument, condition_observable, _instrument_rows,
    holevo_instrument, luders_instrument, measured_observable,
)
from .linalg import Tolerance, commutator, frobenius, loewner_leq, psd_sqrt, trace_product
from .observables import (
    Observable, RealValuedObservable, SubObservable, conditional_expectation,
    _effect_rows, _effects_distance, distribution, expectation, is_commuting, jointly_commuting,
    povm, stochastic_operator,
)
from .operations import (
    Operation, _operation_rows, apply, bayes2_residual, choi_distance, compose, conditional_prob,
    dual_apply, is_channel, maps_equal, measured_effect, sequential_product, updated_state,
)
from .serialize import (
    _OPERATION_KEYS, _instrument_from_json, _is_number, _json_float, _keyed_by_labels, _naming,
    _observable_from_json, _operation_from_json, _require_dict, matrix_from_json, value_to_json,
)

__all__ = [
    "SceneObject",
    "CheckSpec",
    "Scene",
    "CheckResult",
    "SceneReport",
    "SCENE_OPS",
    "load_scene",
    "run_scene",
]

@dataclass(frozen=True)
class SceneObject:
    name: str
    kind: str  # "state" | "effect" | "matrix" | "operation" | "observable" | "instrument"
    value: object


@dataclass(frozen=True)
class CheckSpec:
    index: int
    op: str
    args: tuple
    expect: object = None  # the raw JSON, echoed in the report
    want: object = None  # the expectation parsed into the op's result kind; None when absent
    expect_min: float | None = None
    expect_max: float | None = None
    tol: float | None = None
    label: str | None = None


@dataclass(frozen=True)
class Scene:
    name: str
    tolerance: Tolerance
    objects: dict[str, SceneObject]
    checks: tuple[CheckSpec, ...]
    path: str | None = None


@dataclass(frozen=True)
class CheckResult:
    index: int
    op: str
    label: str | None
    passed: bool
    residual: float
    value: object
    expected: object = None
    error: str | None = None

    def to_json(self) -> dict:
        out = {
            "index": self.index,
            "op": self.op,
            "passed": self.passed,
            "residual": self.residual,
            "value": self.value,
        }
        if self.label is not None:
            out["label"] = self.label
        if self.expected is not None:
            out["expected"] = self.expected
        if self.error is not None:
            out["error"] = self.error
        return out


@dataclass(frozen=True)
class SceneReport:
    scene: str
    path: str | None
    checks: tuple[CheckResult, ...]
    passed: bool

    def to_json(self) -> dict:
        return {
            "scene": self.scene,
            "path": self.path,
            "passed": self.passed,
            "total": len(self.checks),
            "failed": sum(1 for c in self.checks if not c.passed),
            "checks": [c.to_json() for c in self.checks],
        }


def _observable_named(ref, where: str, objects: Mapping[str, SceneObject]) -> Observable:
    if not isinstance(ref, str):
        raise SceneParseError(f"{where}: observable reference must be a name string")
    if ref not in objects or objects[ref].kind != "observable":
        raise SceneReferenceError(f"{where}: no observable named {ref!r}")
    return objects[ref].value


def _read_instrument(raw, where: str, tol: Tolerance, judge: Callable, objects) -> Instrument:
    """An object's outcomes+ops literal, or the luders_of or holevo_of of an
    observable among ``objects``, each holevo_of alpha judged before it is used."""
    raw = _require_dict(raw, where)
    if set(raw) == {"luders_of"}:
        return luders_instrument(_observable_named(raw["luders_of"], where, objects), tol)
    if set(raw) == {"holevo_of"}:
        spec = _require_dict(raw["holevo_of"], f"{where} holevo_of")
        if set(spec) != {"observable", "alphas"}:
            raise SceneParseError(f"{where}: holevo_of needs exactly observable and alphas")
        source = _observable_named(spec["observable"], where, objects)
        alphas = _keyed_by_labels(spec["alphas"], source.outcomes, where, "alphas")
        alphas = {x: matrix_from_json(alphas[x], f"{where} alpha {x!r}") for x in source.outcomes}
        for x, alpha in alphas.items():
            judge(f"{where} alpha {x!r}", (alpha[None], "state", None))
        return holevo_instrument(source, alphas, tol)
    if set(raw) != {"outcomes", "ops"}:
        raise SceneParseError(f"{where}: an instrument literal is outcomes+ops, luders_of, or holevo_of")
    return _instrument_from_json(
        raw, where, lambda op, x: _operation_from_json(op, f"{where} op {x!r}", tol, judge)
    )


# --- result kinds -------------------------------------------------------------
#
# A kind parses a check's "expect" at load (``parse(raw, where, tol, d,
# judge)``) and measures a result against it when the scene runs
# (``distance(value, want, where)``); see the module docstring for the forms.


def _expected_matrix(raw, where: str, tol, d: int, *_, what: str | None = None) -> np.ndarray:
    """A d x d matrix (``what`` names it within ``where``)."""
    m = matrix_from_json(raw, where if what is None else f"{where} {what}")
    if m.shape != (d, d):
        raise SceneValidationError(f"{where}: expected a {d}x{d} matrix")
    return m


def _expected_operation(raw, where: str, tol: Tolerance, d: int, judge: Callable) -> Operation:
    op = _operation_from_json(raw, where, tol, judge)
    if op.dim != d:
        raise SceneValidationError(f"{where}: expected {d}x{d} Kraus operators")
    return op


def _expected_observable(raw, where: str, tol, d: int, *_) -> dict:
    """{"effects": {label: matrix}}, a nonempty subset of the result's outcomes."""
    raw = _require_dict(raw, where)
    effects = raw.get("effects")
    if set(raw) != {"effects"} or not isinstance(effects, dict):
        raise SceneValidationError(f"{where}: an observable result compares against {{'effects': ...}}")
    if not effects:
        raise SceneValidationError(f"{where}: an observable expectation names no effect")
    return {x: _expected_matrix(m, where, tol, d, what=f"effect {x!r}") for x, m in effects.items()}


def _expected_instrument(raw, where: str, tol: Tolerance, d: int, judge: Callable) -> Instrument:
    """{outcomes, ops}, whose labels may carry the reserved separators of composite results."""
    raw = _require_dict(raw, where)
    if set(raw) != {"outcomes", "ops"}:
        raise SceneValidationError(f"{where}: an instrument result compares against outcomes+ops")
    return _instrument_from_json(
        raw, where, lambda op, x: _expected_operation(op, f"{where} expect op {x!r}", tol, d, judge), False
    )


@dataclass(frozen=True)
class _Kind:
    name: str
    parse: Callable
    distance: Callable


def _parse_number(raw, where: str, *_) -> complex:
    if isinstance(raw, bool):
        raise SceneValidationError(f"{where}: expected a number, got a boolean")
    parts = raw if isinstance(raw, list) and len(raw) == 2 else [raw, 0.0]
    re, im = map(_json_float, parts)
    if re is None or im is None:
        raise SceneValidationError(f"{where}: expected a number or [re, im] pair")
    return complex(re, im)


def _parse_bool(raw, where: str, *_) -> bool:
    if not isinstance(raw, bool):
        raise SceneValidationError(f"{where}: expected true/false for a boolean result")
    return raw


def _parse_record(raw, where: str, *_):
    if _is_number(raw):  # one number for every field
        return _parse_number(raw, where)
    if not isinstance(raw, dict):
        raise SceneValidationError(f"{where}: expected a record or a single number")
    if not raw:
        raise SceneValidationError(f"{where}: a record expectation names no field")
    return {key: _parse_number(want, f"{where}.{key}") for key, want in raw.items()}


def _parse_bayes(raw, where: str, *_):
    if _is_number(raw):  # the three routes, not the spread derived from them
        return dict.fromkeys(("lhs", "mid", "rhs"), _parse_number(raw, where))
    return _parse_record(raw, where)


# A distance is the largest of its components, reduced by np.max from 0.0:
# unlike max, np.max keeps a NaN, so a NaN component fails the check.


def _observable_distance(value: SubObservable, want: dict, where: str) -> float:
    for x in want:
        if x not in value.effects:
            raise SceneValidationError(f"{where}: observable result has no outcome {x!r}")
    return _effects_distance(value, want)


def _instrument_distance(value: Instrument, want: Instrument, where: str) -> float:
    if set(want.outcomes) != set(value.outcomes):
        raise SceneValidationError(
            f"{where}: expected outcomes {sorted(want.outcomes)} "
            f"!= result outcomes {sorted(value.outcomes)}"
        )
    distances = [choi_distance(value.ops[x], want.ops[x]) for x in value.outcomes]
    return float(np.max(distances, initial=0.0))


def _record_distance(value, want, where: str) -> float:
    """Worst distance over the fields, read from the result's JSON form."""
    fields = value_to_json(value)
    if not isinstance(want, dict):
        want = dict.fromkeys(fields, want)
    distances = []
    for key, w in want.items():
        if key not in fields:
            raise SceneValidationError(f"{where}: result has no field {key!r}")
        have = fields[key]
        distances.append(abs((complex(*have) if isinstance(have, list) else complex(have)) - w))
    return float(np.max(distances, initial=0.0))


_REAL = _Kind("real", _parse_number, lambda value, want, where: abs(value - want))
_COMPLEX = _Kind("complex", _parse_number, _REAL.distance)
_BOOL = _Kind("bool", _parse_bool, lambda value, want, where: 0.0 if value == want else 1.0)
_MATRIX = _Kind("matrix", _expected_matrix, lambda value, want, where: float(frobenius(value - want)))
_OPERATION = _Kind(
    "operation",
    lambda raw, where, *rest: _expected_operation(raw, f"{where} expect", *rest),
    lambda value, want, where: float(choi_distance(value, want)),
)
_OBSERVABLE = _Kind("observable", _expected_observable, _observable_distance)
_INSTRUMENT = _Kind("instrument", _expected_instrument, _instrument_distance)
_RECORD = _Kind("record", _parse_record, _record_distance)
_BAYES = _Kind("Bayes triple", _parse_bayes, _record_distance)


# --- operation registry -------------------------------------------------------
#
# One row per op: (name, argument kinds, result kind, library function).  A
# check calls the function on its coerced arguments, plus tol=scene.tolerance
# when the function has a ``tol`` parameter (``takes_tol``, read once from its
# signature).  Results go to value_to_json as the library returns them.
# Argument kinds:
#   state / effect / matrix      -> ndarray (matrix accepts any of the three)
#   operation                    -> Operation (it carries the effect it measures)
#   observable                   -> Observable (a RealValuedObservable is one)
#   real_observable              -> RealValuedObservable
#   instrument                   -> Instrument
#   labels                       -> an inline list of outcome labels


@dataclass(frozen=True)
class _Op:
    kinds: tuple[str, ...]
    result: _Kind
    fn: object
    takes_tol: bool


def _commutator_norm(a, b) -> float:
    return frobenius(commutator(a, b))


def _frobenius_distance(a, b) -> float:
    return frobenius(a - b)


def _jointly_commuting(a, b, tol: Tolerance) -> bool:
    return jointly_commuting([a, b], tol)


_CTX_STATS = ("state", "instrument", "real_observable")
_CTX_STATS_PAIR = _CTX_STATS + ("real_observable",)
_CTX_ENTROPY = ("state", "instrument", "observable")

_OP_TABLE = (
    ("prob", ("state", "effect"), _REAL, prob),
    ("complement", ("effect",), _MATRIX, complement),
    ("perp", ("effect", "effect"), _BOOL, perp),
    ("is_sharp", ("effect",), _BOOL, is_sharp),
    ("is_atomic", ("effect",), _BOOL, is_atomic),
    ("loewner_leq", ("matrix", "matrix"), _BOOL, loewner_leq),
    ("trace_product", ("matrix", "matrix"), _COMPLEX, trace_product),
    ("psd_sqrt", ("matrix",), _MATRIX, psd_sqrt),
    ("commutator_norm", ("matrix", "matrix"), _REAL, _commutator_norm),
    ("frobenius_distance", ("matrix", "matrix"), _REAL, _frobenius_distance),
    ("apply", ("operation", "state"), _MATRIX, apply),
    ("dual_apply", ("operation", "matrix"), _MATRIX, dual_apply),
    ("measured_effect", ("operation",), _MATRIX, measured_effect),
    ("is_channel", ("operation",), _BOOL, is_channel),
    ("compose", ("operation", "operation"), _OPERATION, compose),
    ("sequential_product", ("operation", "effect"), _MATRIX, sequential_product),
    ("conditional_prob", ("state", "operation", "effect"), _REAL, conditional_prob),
    ("updated_state", ("state", "operation"), _MATRIX, updated_state),
    ("bayes2_residual", ("state", "operation", "operation"), _REAL, bayes2_residual),
    ("choi_distance", ("operation", "operation"), _REAL, choi_distance),
    ("maps_equal", ("operation", "operation"), _BOOL, maps_equal),
    ("povm", ("observable", "labels"), _MATRIX, povm),
    ("distribution", ("state", "observable"), _RECORD, distribution),
    ("stochastic_operator", ("real_observable",), _MATRIX, stochastic_operator),
    ("expectation", ("state", "real_observable"), _REAL, expectation),
    ("conditional_expectation", ("state", "operation", "real_observable"), _REAL,
     conditional_expectation),
    ("is_commuting", ("observable",), _BOOL, is_commuting),
    ("jointly_commuting", ("observable", "observable"), _BOOL, _jointly_commuting),
    ("bar_channel", ("instrument",), _OPERATION, bar_channel),
    ("measured_observable", ("instrument",), _OBSERVABLE, measured_observable),
    ("condition_effect", ("effect", "instrument"), _MATRIX, condition_effect),
    ("condition_observable", ("observable", "instrument"), _OBSERVABLE, condition_observable),
    ("condition_instrument", ("instrument", "instrument"), _INSTRUMENT, condition_instrument),
    ("compose_instruments", ("instrument", "instrument"), _INSTRUMENT, compose_instruments),
    ("bayes1_check", ("state", "instrument", "effect"), _BAYES, bayes1_check),
    ("bayes1_expectation_check", _CTX_STATS, _BAYES, bayes1_expectation_check),
    ("contextual_expectation", _CTX_STATS, _REAL, contextual_expectation),
    ("contextual_correlation", _CTX_STATS_PAIR, _COMPLEX, contextual_correlation),
    ("contextual_covariance", _CTX_STATS_PAIR, _REAL, contextual_covariance),
    ("contextual_variance", _CTX_STATS, _REAL, contextual_variance),
    ("commutator_trace", _CTX_STATS_PAIR, _COMPLEX, commutator_trace),
    ("uncertainty_report", _CTX_STATS_PAIR, _RECORD, uncertainty_report),
    ("effect_entropy", ("state", "effect"), _REAL, effect_entropy),
    ("sequential_entropy", ("state", "operation", "effect"), _REAL, sequential_entropy),
    ("conditional_effect_entropy", ("state", "operation", "effect"), _REAL,
     conditional_effect_entropy),
    ("sequential_entropy_dominated", ("operation", "effect"), _BOOL, sequential_entropy_dominated),
    ("observable_entropy", ("state", "observable"), _REAL, observable_entropy),
    ("conditional_observable_entropy_double", _CTX_ENTROPY, _REAL,
     conditional_observable_entropy_double),
    ("conditional_observable_entropy_single", _CTX_ENTROPY, _REAL,
     conditional_observable_entropy_single),
)

SCENE_OPS: dict[str, _Op] = {
    name: _Op(kinds, result, fn, "tol" in inspect.signature(fn).parameters)
    for name, kinds, result, fn in _OP_TABLE
}


# --- loading -------------------------------------------------------------------


# Object kind -> the blocks (see ``core._judged``) a built object of that kind
# is judged by (kraus/luders/holevo: "operation").
_ROWS = {
    "state": lambda m: [(m[None], "state", None)],
    "effect": lambda m: [(m[None], "effect", None)],
    "matrix": lambda m: [],
    "operation": _operation_rows,
    "observable": lambda a: _effect_rows(a, "total-is-identity"),
    "instrument": _instrument_rows,
}
_OBJECT_KEYS = ("state", "effect", "matrix", *_OPERATION_KEYS, "observable", "instrument")


def _read_object(name: str, literal, tol: Tolerance, objects: Mapping[str, SceneObject], judge: Callable):
    """One object, read, built and judged (an instrument may name an observable among ``objects``)."""
    where = f"object {name!r}"
    literal = _require_dict(literal, where)
    if len(literal) != 1 or next(iter(literal)) not in _OBJECT_KEYS:
        raise SceneParseError(
            f"{where} must have exactly one of the keys {', '.join(_OBJECT_KEYS)}"
        )
    [(kind, raw)] = literal.items()
    with _naming(where):
        if kind == "instrument":
            value = _read_instrument(raw, where, tol, judge, objects)
        elif kind in _OPERATION_KEYS:
            kind, value = "operation", _operation_from_json(literal, where, tol, judge)
        else:
            value = _observable_from_json(raw, where) if kind == "observable" else matrix_from_json(raw, where)
    judge(where, *_ROWS[kind](value))
    return SceneObject(name, kind, value)


_ACCEPTED_KINDS = {
    "state": ("state",),
    "effect": ("effect", "state"),
    "matrix": ("matrix", "state", "effect"),
    "operation": ("operation",),
    "observable": ("observable",),
    "real_observable": ("observable",),
    "instrument": ("instrument",),
}


def _coerce_arg(kind: str, raw, check_where: str, objects: Mapping[str, SceneObject]):
    if kind == "labels":
        if not isinstance(raw, list) or not all(isinstance(x, str) for x in raw):
            raise SceneValidationError(f"{check_where}: expected an inline list of labels")
        return list(raw)
    if not isinstance(raw, str):
        raise SceneValidationError(f"{check_where}: expected an object name for a {kind} argument")
    if raw not in objects:
        raise SceneReferenceError(f"{check_where}: no object named {raw!r}")
    obj = objects[raw]
    if obj.kind not in _ACCEPTED_KINDS[kind]:
        raise SceneValidationError(
            f"{check_where}: object {raw!r} has kind {obj.kind!r}, "
            f"but a {kind} argument needs one of {_ACCEPTED_KINDS[kind]}"
        )
    if kind == "real_observable" and not isinstance(obj.value, RealValuedObservable):
        raise SceneValidationError(
            f"{check_where}: observable {raw!r} needs outcome values for this operation"
        )
    return obj.value


def _parse_check(
    index: int, raw, objects: Mapping[str, SceneObject], scene_tol: Tolerance, judge: Callable
) -> CheckSpec:
    where = f"check[{index}]"
    raw = _require_dict(raw, where)
    allowed = {"op", "args", "expect", "expect_min", "expect_max", "tol", "label"}
    extra = set(raw) - allowed
    if extra:
        raise SceneParseError(f"{where}: unknown keys {sorted(extra)}")
    if "op" not in raw or not isinstance(raw["op"], str):
        raise SceneParseError(f"{where}: needs an op name")
    op = raw["op"]
    if op not in SCENE_OPS:
        raise SceneValidationError(
            f"{where}: unknown op {op!r}; available: {', '.join(sorted(SCENE_OPS))}"
        )
    spec = SCENE_OPS[op]
    args_raw = raw.get("args", [])
    if not isinstance(args_raw, list):
        raise SceneParseError(f"{where}: args must be a list")
    if len(args_raw) != len(spec.kinds):
        raise SceneValidationError(
            f"{where}: op {op!r} takes {len(spec.kinds)} arguments "
            f"({', '.join(spec.kinds)}), got {len(args_raw)}"
        )
    args = tuple(
        _coerce_arg(kind, arg, f"{where} ({op})", objects)
        for kind, arg in zip(spec.kinds, args_raw)
    )
    dims = {
        a.shape[0] if isinstance(a, np.ndarray) else a.dim
        for a, kind in zip(args, spec.kinds)
        if kind != "labels"
    }
    if len(dims) > 1:
        raise SceneValidationError(f"{where}: arguments mix dimensions {sorted(dims)}")

    has_expect = "expect" in raw
    expect = raw.get("expect")
    expect_min = raw.get("expect_min")
    expect_max = raw.get("expect_max")
    if has_expect and (expect_min is not None or expect_max is not None):
        raise SceneParseError(f"{where}: expect and expect_min/expect_max are exclusive")
    for bound, key in ((expect_min, "expect_min"), (expect_max, "expect_max")):
        if bound is not None and _json_float(bound) is None:
            raise SceneParseError(f"{where}: {key} must be a number")
        if bound is not None and spec.result is not _REAL:
            raise SceneValidationError(
                f"{where}: {key} needs a real result; op {op!r} returns {spec.result.name}"
            )
    tol = raw.get("tol")
    if tol is not None:
        tol = _json_float(tol)
        if tol is None or tol <= 0:
            raise SceneParseError(f"{where}: tol must be a positive number")
    label = raw.get("label")
    if label is not None and not isinstance(label, str):
        raise SceneParseError(f"{where}: label must be a string")
    return CheckSpec(
        index=index,
        op=op,
        args=args,
        expect=expect,
        want=spec.result.parse(expect, where, scene_tol, dims.pop(), judge) if has_expect else None,
        expect_min=None if expect_min is None else float(expect_min),
        expect_max=None if expect_max is None else float(expect_max),
        tol=tol,
        label=label,
    )


def _parse_tolerance(raw) -> Tolerance:
    raw = _require_dict({} if raw is None else raw, "tolerance")
    extra = set(raw) - {"eq_tol", "psd_tol"}
    if extra:
        raise SceneParseError(f"tolerance: unknown keys {sorted(extra)}")
    kwargs = {key: _json_float(raw[key]) for key in ("eq_tol", "psd_tol") if key in raw}
    for key, value in kwargs.items():
        if value is None or value <= 0:
            raise SceneParseError(f"tolerance: {key} must be a positive number")
    return Tolerance(**kwargs)


def _load(data: Mapping, tol: Tolerance, judge: Callable) -> tuple[dict[str, SceneObject], tuple[CheckSpec, ...]]:
    """The scene's objects, in load order, and checks, each read and built
    as the module docstring says, its blocks passed to ``judge(where, *blocks)``."""
    raw_objects = _require_dict(data.get("objects", {}), "objects")
    objects: dict[str, SceneObject] = {}
    # Instruments may refer to observables by name, so a stable sort reads them last.
    for name, literal in sorted(
        raw_objects.items(), key=lambda kv: isinstance(kv[1], dict) and set(kv[1]) == {"instrument"}
    ):
        objects[str(name)] = _read_object(str(name), literal, tol, objects, judge)
    raw_checks = data.get("checks", [])
    if not isinstance(raw_checks, list):
        raise SceneParseError("checks must be a list")
    return objects, tuple(_parse_check(i, c, objects, tol, judge) for i, c in enumerate(raw_checks))


def _judge_now(tol: Tolerance, where: str, *blocks) -> None:
    """Judge the blocks (see ``core._judged``), raising their violations naming ``where``."""
    [violations] = _judged([blocks], tol)
    if violations:
        raise SceneValidationError(f"{where}: {'; '.join(map(str, violations))}")


def load_scene(source) -> Scene:
    """Load and validate a scene from a path or a parsed mapping.

    One pass reads and builds the scene, holding its blocks, and one
    ``_judged`` call judges them all.  A scene that fails (a violation, or an
    error met in that pass) is loaded again with ``_judge_now``, which raises
    its first fault in load order.
    """
    path = None
    if isinstance(source, Mapping):
        data = source
        name = str(data.get("name", "scene"))
    else:
        p = Path(source)
        path = str(p)
        try:
            data = json.loads(p.read_text(encoding="utf-8"))
        except OSError as exc:
            raise SceneParseError(f"cannot read scene file {p}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise SceneParseError(f"{p} is not valid JSON: {exc}") from exc
        name = str(data.get("name", p.stem)) if isinstance(data, dict) else p.stem
    data = _require_dict(data, "scene")
    extra = set(data) - {"name", "description", "tolerance", "objects", "checks"}
    if extra:
        raise SceneParseError(f"scene: unknown top-level keys {sorted(extra)}")
    tol = _parse_tolerance(data.get("tolerance"))

    held = []
    try:
        objects, checks = _load(data, tol, lambda where, *blocks: held.append(blocks))
    except QcondError:
        valid = False
    else:
        valid = not any(_judged(held, tol))
    if not valid:
        objects, checks = _load(data, tol, partial(_judge_now, tol))
    return Scene(name=name, tolerance=tol, objects=objects, checks=checks, path=path)


def run_scene(scene: Scene, default_tol: float | None = None) -> SceneReport:
    """Execute every check; a scene passes when all its checks do.

    ``default_tol`` (the runner's --tol) overrides the scene's eq_tol as the
    pass/fail threshold for checks that do not pin their own.
    """
    base_tol = scene.tolerance.eq_tol if default_tol is None else float(default_tol)
    results = []
    for check in scene.checks:
        op = SCENE_OPS[check.op]
        # an expectation passes within the tolerance, bounds only when met
        limit = (base_tol if check.tol is None else check.tol) if check.want is not None else 0.0
        try:
            value = op.fn(*check.args, **({"tol": scene.tolerance} if op.takes_tol else {}))
        except QcondError as exc:
            value, error, residual = None, f"{type(exc).__name__}: {exc}", math.inf
        else:
            error = None
            if check.want is not None:
                # A result may lack a label the expectation names, which only
                # running the check can show: that check fails, not the scene.
                try:
                    residual = op.result.distance(value, check.want, f"check[{check.index}]")
                except SceneValidationError as exc:
                    error, residual = f"{type(exc).__name__}: {exc}", math.inf
            else:  # only a real result takes bounds (checked at load)
                x = float(value)
                residual = 0.0 if math.isfinite(x) else math.inf  # NaN meets no bound
                if check.expect_min is not None:
                    residual = max(residual, check.expect_min - x)
                if check.expect_max is not None:
                    residual = max(residual, x - check.expect_max)
            value = value_to_json(value)
        results.append(
            CheckResult(
                index=check.index,
                op=check.op,
                label=check.label,
                passed=bool(residual <= limit),
                residual=float(residual),
                value=value,
                expected=None if value is None else check.expect,
                error=error,
            )
        )
    return SceneReport(
        scene=scene.name,
        path=scene.path,
        checks=tuple(results),
        passed=all(r.passed for r in results),
    )
