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
registered operation on named objects (strings refer to objects; labels and
numbers are written inline) and compare against "expect", or bound a real
result with "expect_min"/"expect_max".  A check passes when the residual is
within its tolerance ("tol" on the check, else the runner default, else the
scene's eq_tol).

Checks are typed at load: each op declares the kind of its result, "expect"
is parsed into that kind when the scene loads, and only a real result takes
bounds.  The kinds, with the expectation each reads and the residual:

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

What depends on the computed value (a record's fields, the outcome labels of
an observable or instrument result) is checked when the scene runs.

Malformed files raise SceneParseError, semantic problems (invalid objects,
unknown ops, reserved labels, expectations of the wrong kind)
SceneValidationError, and dangling names SceneReferenceError; the
command-line front end maps all three to exit code 2.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .context_stats import (
    commutator_trace, contextual_correlation, contextual_covariance, contextual_expectation,
    contextual_variance, uncertainty_report,
)
from .core import complement, is_atomic, is_sharp, perp, prob, validate_effect, validate_state
from .entropy import (
    conditional_effect_entropy, conditional_observable_entropy_double,
    conditional_observable_entropy_single, effect_entropy, observable_entropy,
    sequential_entropy, sequential_entropy_dominated,
)
from .errors import QcondError, SceneParseError, SceneReferenceError, SceneValidationError
from .instruments import (
    COMPOSITE_LABEL_SEPARATOR, Instrument, bar_channel, bayes1_check, bayes1_expectation_check,
    compose_instruments, condition_effect, condition_instrument, condition_observable,
    holevo_instrument, luders_instrument, measured_observable, validate_instrument,
)
from .linalg import Tolerance, commutator, frobenius, loewner_leq, psd_sqrt, trace_product
from .observables import (
    EXTENSION_LABEL, Observable, RealValuedObservable, SubObservable, conditional_expectation,
    distribution, expectation, is_commuting, jointly_commuting, povm, stochastic_operator,
    validate_observable,
)
from .operations import (
    Operation, apply, bayes2_residual, choi_distance, compose, conditional_prob, dual_apply,
    holevo, is_channel, luders, maps_equal, measured_effect, sequential_product, updated_state,
    validate_operation,
)
from .serialize import _is_number, _json_float, matrix_from_json, value_to_json

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

_RESERVED_LABELS = (EXTENSION_LABEL, COMPOSITE_LABEL_SEPARATOR)


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
    has_expect: bool = False
    want: object = None  # the expectation parsed into the op's result kind
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


# --- result kinds -------------------------------------------------------------
#
# A kind parses a check's "expect" at load (``parse(raw, where, d, tol)``) and
# measures a result against it when the scene runs (``distance(value, want,
# where)``); see the module docstring for the forms.


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


def _parse_matrix(raw, where: str, d: int, tol=None, what: str = "expected matrix") -> np.ndarray:
    m = matrix_from_json(raw, f"{where} {what}")
    if m.shape != (d, d):
        raise SceneValidationError(f"{where}: expected a {d}x{d} matrix")
    return m


def _parse_operation(raw, where: str, d: int, tol: Tolerance) -> Operation:
    """A kraus/luders/holevo literal on d x d matrices; ``where`` names the expectation."""
    raw = _require_dict(raw, where)
    if len(raw) != 1 or next(iter(raw)) not in _OPERATION_KEYS:
        raise SceneValidationError(f"{where}: expected a kraus/luders/holevo literal")
    key = next(iter(raw))
    op = _parse_operation_literal(where, key, raw[key], tol)
    if op.dim != d:
        raise SceneValidationError(f"{where}: expected {d}x{d} Kraus operators")
    return op


def _parse_effects(raw, where: str, d: int, tol) -> dict[str, np.ndarray]:
    effects = _require_dict(raw, where).get("effects")
    if set(raw) != {"effects"} or not isinstance(effects, dict):
        raise SceneValidationError(
            f"{where}: an observable result compares against {{'effects': ...}}"
        )
    return {
        x: _parse_matrix(rows, where, d, what=f"expected effect {x!r}")
        for x, rows in effects.items()
    }


def _parse_ops(raw, where: str, d: int, tol: Tolerance) -> dict[str, Operation]:
    # Composite results carry reserved separators in their labels, so the
    # expectation is parsed without the user-label restrictions.
    ops = _require_dict(raw, where).get("ops")
    if set(raw) != {"outcomes", "ops"} or not isinstance(ops, dict):
        raise SceneValidationError(f"{where}: an instrument result compares against outcomes+ops")
    return {x: _parse_operation(op, f"{where} expect op {x!r}", d, tol) for x, op in ops.items()}


def _parse_record(raw, where: str, *_):
    if _is_number(raw):  # one number for every field
        return _parse_number(raw, where)
    if not isinstance(raw, dict):
        raise SceneValidationError(f"{where}: expected a record or a single number")
    return {key: _parse_number(want, f"{where}.{key}") for key, want in raw.items()}


def _parse_bayes(raw, where: str, *_):
    if _is_number(raw):  # the three routes, not the spread derived from them
        return dict.fromkeys(("lhs", "mid", "rhs"), _parse_number(raw, where))
    return _parse_record(raw, where)


def _observable_distance(value: SubObservable, want: dict, where: str) -> float:
    worst = 0.0
    for x, m in want.items():
        if x not in value.effects:
            raise SceneValidationError(f"{where}: observable result has no outcome {x!r}")
        worst = max(worst, float(frobenius(value.effects[x] - m)))
    return worst


def _instrument_distance(value: Instrument, want: dict, where: str) -> float:
    if set(want) != set(value.outcomes):
        raise SceneValidationError(
            f"{where}: expected outcomes {sorted(want)} != result outcomes {sorted(value.outcomes)}"
        )
    return max(float(choi_distance(value.ops[x], want[x])) for x in value.outcomes)


def _record_distance(value, want, where: str) -> float:
    """Worst distance over the fields, read from the result's JSON form."""
    fields = value_to_json(value)
    if not isinstance(want, dict):
        want = dict.fromkeys(fields, want)
    worst = 0.0
    for key, w in want.items():
        if key not in fields:
            raise SceneValidationError(f"{where}: result has no field {key!r}")
        have = fields[key]
        have = complex(*have) if isinstance(have, list) else complex(have)
        worst = max(worst, abs(have - w))
    return worst


_REAL = _Kind("real", _parse_number, lambda value, want, where: abs(value - want))
_COMPLEX = _Kind("complex", _parse_number, _REAL.distance)
_BOOL = _Kind("bool", _parse_bool, lambda value, want, where: 0.0 if value == want else 1.0)
_MATRIX = _Kind("matrix", _parse_matrix, lambda value, want, where: float(frobenius(value - want)))
_OPERATION = _Kind(
    "operation",
    lambda raw, where, d, tol: _parse_operation(raw, f"{where} expect", d, tol),
    lambda value, want, where: float(choi_distance(value, want)),
)
_OBSERVABLE = _Kind("observable", _parse_effects, _observable_distance)
_INSTRUMENT = _Kind("instrument", _parse_ops, _instrument_distance)
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
#   label / labels / number      -> inline literals


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


# --- parsing -------------------------------------------------------------------


def _require_dict(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise SceneParseError(f"{where} must be a JSON object")
    return value


def _parse_labels(outcomes, where: str) -> list[str]:
    """An outcomes list as its labels: nonempty, unique, free of reserved characters."""
    if not isinstance(outcomes, list) or not outcomes:
        raise SceneParseError(f"{where}: outcomes must be a nonempty list of labels")
    labels = [str(x) for x in outcomes]
    if len(set(labels)) != len(labels):
        raise SceneValidationError(f"{where}: outcome labels must be unique, got {labels}")
    for x in labels:
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


def _parse_values(raw, outcomes, where: str) -> dict[str, float]:
    out = {}
    for x, v in _keyed_by_labels(raw, outcomes, where, "values").items():
        v = _json_float(v)
        if v is None:
            raise SceneParseError(f"{where}: value for outcome {x!r} must be a finite number")
        out[str(x)] = v
    return out


def _parse_observable(name: str, raw):
    where = f"object {name!r}"
    raw = _require_dict(raw, where)
    extra = set(raw) - {"outcomes", "effects", "values"}
    if extra or "outcomes" not in raw or "effects" not in raw:
        raise SceneParseError(f"{where}: an observable needs outcomes and effects")
    labels = _parse_labels(raw["outcomes"], where)
    effects_raw = _keyed_by_labels(raw["effects"], labels, where, "effects")
    effects = {
        x: matrix_from_json(effects_raw[x], f"{where} effect {x!r}") for x in labels
    }
    obs = Observable(labels, effects)
    if "values" in raw:
        return RealValuedObservable(obs, _parse_values(raw["values"], labels, where))
    return obs


def _parse_operation_literal(where: str, key: str, raw, tol: Tolerance) -> Operation:
    if key == "kraus":
        if not isinstance(raw, list) or not raw:
            raise SceneParseError(f"{where}: kraus must be a nonempty list of matrices")
        return Operation(
            tuple(matrix_from_json(k, f"{where} kraus[{i}]") for i, k in enumerate(raw))
        )
    if key == "luders":
        a = matrix_from_json(raw, f"{where} luders effect")
        _raise_violations(where, validate_effect(a, tol))
        return luders(a, tol)
    # holevo
    raw = _require_dict(raw, f"{where} holevo")
    if set(raw) != {"effect", "alpha"}:
        raise SceneParseError(f"{where}: holevo needs exactly effect and alpha")
    a = matrix_from_json(raw["effect"], f"{where} holevo effect")
    alpha = matrix_from_json(raw["alpha"], f"{where} holevo alpha")
    _raise_violations(where, validate_effect(a, tol) + validate_state(alpha, tol))
    return holevo(a, alpha, tol)


def _parse_instrument(
    name: str, raw, tol: Tolerance, observables: Mapping[str, SceneObject]
) -> Instrument:
    where = f"object {name!r}"
    raw = _require_dict(raw, where)
    if set(raw) == {"luders_of"}:
        source = _resolve_observable_ref(raw["luders_of"], where, observables)
        return luders_instrument(source.value, tol)
    if set(raw) == {"holevo_of"}:
        spec = _require_dict(raw["holevo_of"], f"{where} holevo_of")
        if set(spec) != {"observable", "alphas"}:
            raise SceneParseError(f"{where}: holevo_of needs exactly observable and alphas")
        source = _resolve_observable_ref(spec["observable"], where, observables).value
        alphas_raw = _require_dict(spec["alphas"], f"{where} alphas")
        alphas = {}
        for x in source.outcomes:
            if x not in alphas_raw:
                raise SceneParseError(f"{where}: missing update state for outcome {x!r}")
            alpha = matrix_from_json(alphas_raw[x], f"{where} alpha {x!r}")
            _raise_violations(f"object {f'{name}.alphas[{x}]'!r}", validate_state(alpha, tol))
            alphas[x] = alpha
        if set(alphas_raw) - set(source.outcomes):
            raise SceneParseError(f"{where}: alphas has labels the observable lacks")
        return holevo_instrument(source, alphas, tol)
    if set(raw) == {"outcomes", "ops"}:
        labels = _parse_labels(raw["outcomes"], where)
        ops_raw = _keyed_by_labels(raw["ops"], labels, where, "ops")
        ops = {}
        for x in labels:
            literal = _require_dict(ops_raw[x], f"{where} op {x!r}")
            if len(literal) != 1 or next(iter(literal)) not in _OPERATION_KEYS:
                raise SceneParseError(
                    f"{where} op {x!r}: expected a kraus, luders or holevo literal"
                )
            key = next(iter(literal))
            ops[x] = _parse_operation_literal(f"object {f'{name}[{x}]'!r}", key, literal[key], tol)
        return Instrument(labels, ops)
    raise SceneParseError(
        f"{where}: an instrument literal is outcomes+ops, luders_of, or holevo_of"
    )


def _resolve_observable_ref(
    ref, where: str, observables: Mapping[str, SceneObject]
) -> SceneObject:
    if not isinstance(ref, str):
        raise SceneParseError(f"{where}: observable reference must be a name string")
    if ref not in observables:
        raise SceneReferenceError(f"{where}: no observable named {ref!r}")
    return observables[ref]


def _raise_violations(where: str, violations) -> None:
    if violations:
        detail = "; ".join(str(v) for v in violations)
        raise SceneValidationError(f"{where}: {detail}")


_OPERATION_KEYS = ("kraus", "luders", "holevo")
_OBJECT_KEYS = ("state", "effect", "matrix", *_OPERATION_KEYS, "observable", "instrument")


def _build_object(
    name: str, literal, tol: Tolerance, observables: Mapping[str, SceneObject]
) -> SceneObject:
    where = f"object {name!r}"
    literal = _require_dict(literal, where)
    if len(literal) != 1 or next(iter(literal)) not in _OBJECT_KEYS:
        raise SceneParseError(
            f"{where} must have exactly one of the keys {', '.join(_OBJECT_KEYS)}"
        )
    key = next(iter(literal))
    raw = literal[key]
    if key == "state":
        m = matrix_from_json(raw, where)
        _raise_violations(where, validate_state(m, tol))
        return SceneObject(name, "state", m)
    if key == "effect":
        m = matrix_from_json(raw, where)
        _raise_violations(where, validate_effect(m, tol))
        return SceneObject(name, "effect", m)
    if key == "matrix":
        return SceneObject(name, "matrix", matrix_from_json(raw, where))
    if key in _OPERATION_KEYS:
        op = _parse_operation_literal(where, key, raw, tol)
        _raise_violations(where, validate_operation(op, tol))
        return SceneObject(name, "operation", op)
    if key == "observable":
        obs = _parse_observable(name, raw)
        _raise_violations(where, validate_observable(obs, tol))
        return SceneObject(name, "observable", obs)
    ins = _parse_instrument(name, raw, tol, observables)
    _raise_violations(where, validate_instrument(ins, tol))
    return SceneObject(name, "instrument", ins)


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
    if kind == "number":
        value = _json_float(raw)
        if value is None:
            raise SceneValidationError(f"{check_where}: expected an inline number")
        return value
    if kind == "label":
        if not isinstance(raw, str):
            raise SceneValidationError(f"{check_where}: expected an inline label string")
        return raw
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
    index: int, raw, objects: Mapping[str, SceneObject], scene_tol: Tolerance
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
        if kind not in ("label", "labels", "number")
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
    want = spec.result.parse(expect, where, dims.pop(), scene_tol) if has_expect else None
    return CheckSpec(
        index=index,
        op=op,
        args=args,
        expect=expect,
        has_expect=has_expect,
        want=want,
        expect_min=None if expect_min is None else float(expect_min),
        expect_max=None if expect_max is None else float(expect_max),
        tol=tol,
        label=label,
    )


def _parse_tolerance(raw) -> Tolerance:
    if raw is None:
        return Tolerance()
    raw = _require_dict(raw, "tolerance")
    extra = set(raw) - {"eq_tol", "psd_tol"}
    if extra:
        raise SceneParseError(f"tolerance: unknown keys {sorted(extra)}")
    kwargs = {}
    for key in ("eq_tol", "psd_tol"):
        if key in raw:
            value = _json_float(raw[key])
            if value is None or value <= 0:
                raise SceneParseError(f"tolerance: {key} must be a positive number")
            kwargs[key] = value
    return Tolerance(**kwargs)


def load_scene(source) -> Scene:
    """Load and validate a scene from a path or a parsed mapping."""
    path = None
    if isinstance(source, Mapping):
        data = source
        name = str(data.get("name", "scene"))
    else:
        p = Path(source)
        path = str(p)
        try:
            text = p.read_text(encoding="utf-8")
        except OSError as exc:
            raise SceneParseError(f"cannot read scene file {p}: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SceneParseError(f"{p} is not valid JSON: {exc}") from exc
        name = str(data.get("name", p.stem)) if isinstance(data, dict) else p.stem
    data = _require_dict(data, "scene")
    extra = set(data) - {"name", "description", "tolerance", "objects", "checks"}
    if extra:
        raise SceneParseError(f"scene: unknown top-level keys {sorted(extra)}")
    tol = _parse_tolerance(data.get("tolerance"))

    objects: dict[str, SceneObject] = {}
    raw_objects = _require_dict(data.get("objects", {}), "objects")
    # Instruments may refer to observables by name, so build them last.
    deferred = []
    for obj_name, literal in raw_objects.items():
        obj_name = str(obj_name)
        literal_dict = _require_dict(literal, f"object {obj_name!r}")
        if set(literal_dict) == {"instrument"}:
            deferred.append((obj_name, literal_dict))
        else:
            objects[obj_name] = _build_object(obj_name, literal_dict, tol, objects)
    for obj_name, literal_dict in deferred:
        objects[obj_name] = _build_object(obj_name, literal_dict, tol, objects)

    raw_checks = data.get("checks", [])
    if not isinstance(raw_checks, list):
        raise SceneParseError("checks must be a list")
    checks = tuple(_parse_check(i, c, objects, tol) for i, c in enumerate(raw_checks))
    return Scene(name=name, tolerance=tol, objects=objects, checks=checks, path=path)


def run_scene(scene: Scene, default_tol: float | None = None) -> SceneReport:
    """Execute every check; a scene passes when all its checks do.

    ``default_tol`` (the runner's --tol) overrides the scene's eq_tol as the
    pass/fail threshold for checks that do not pin their own.
    """
    base_tol = scene.tolerance.eq_tol if default_tol is None else float(default_tol)
    results = []
    for check in scene.checks:
        threshold = base_tol if check.tol is None else check.tol
        op = SCENE_OPS[check.op]
        try:
            if op.takes_tol:
                value = op.fn(*check.args, tol=scene.tolerance)
            else:
                value = op.fn(*check.args)
        except QcondError as exc:
            results.append(
                CheckResult(
                    index=check.index,
                    op=check.op,
                    label=check.label,
                    passed=False,
                    residual=float("inf"),
                    value=None,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
            continue
        if check.has_expect:
            residual = op.result.distance(value, check.want, f"check[{check.index}]")
            passed = residual <= threshold
        else:  # only a real result takes bounds (checked at load)
            residual = 0.0
            if check.expect_min is not None:
                residual = max(residual, check.expect_min - float(value))
            if check.expect_max is not None:
                residual = max(residual, float(value) - check.expect_max)
            passed = residual <= 0.0
        results.append(
            CheckResult(
                index=check.index,
                op=check.op,
                label=check.label,
                passed=bool(passed),
                residual=float(residual),
                value=value_to_json(value),
                expected=check.expect if check.has_expect else None,
            )
        )
    return SceneReport(
        scene=scene.name,
        path=scene.path,
        checks=tuple(results),
        passed=all(r.passed for r in results),
    )
