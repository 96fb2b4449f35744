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
numbers are written inline) and compare against "expect", or bound a numeric
result with "expect_min"/"expect_max".  A check passes when the residual is
within its tolerance ("tol" on the check, else the runner default, else the
scene's eq_tol).

Malformed files raise SceneParseError, semantic problems (invalid objects,
unknown ops, reserved labels) SceneValidationError, and dangling names
SceneReferenceError; the command-line front end maps all three to exit
code 2.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .context_stats import (
    commutator_trace,
    contextual_correlation,
    contextual_covariance,
    contextual_expectation,
    contextual_variance,
    uncertainty_report,
)
from .core import (
    complement,
    is_atomic,
    is_sharp,
    perp,
    prob,
    validate_effect,
    validate_state,
)
from .entropy import (
    conditional_effect_entropy,
    conditional_observable_entropy_double,
    conditional_observable_entropy_single,
    effect_entropy,
    observable_entropy,
    sequential_entropy,
    sequential_entropy_dominated,
)
from .errors import (
    QcondError,
    SceneParseError,
    SceneReferenceError,
    SceneValidationError,
)
from .instruments import (
    COMPOSITE_LABEL_SEPARATOR,
    BayesTriple,
    Instrument,
    bar_channel,
    bayes1_check,
    bayes1_expectation_check,
    compose_instruments,
    condition_effect,
    condition_instrument,
    condition_observable,
    holevo_instrument,
    luders_instrument,
    measured_observable,
    validate_instrument,
)
from .linalg import (
    Tolerance,
    commutator,
    frobenius,
    loewner_leq,
    psd_sqrt,
    trace_product,
)
from .observables import (
    EXTENSION_LABEL,
    Observable,
    RealValuedObservable,
    SubObservable,
    distribution,
    expectation,
    conditional_expectation,
    is_commuting,
    jointly_commuting,
    povm,
    stochastic_operator,
    validate_observable,
)
from .operations import (
    Operation,
    apply,
    bayes2_residual,
    choi_distance,
    compose,
    conditional_prob,
    dual_apply,
    holevo,
    is_channel,
    luders,
    maps_equal,
    measured_effect,
    sequential_product,
    updated_state,
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
    expect: object = None
    has_expect: bool = False
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


# --- operation registry -------------------------------------------------------
#
# One row per op: (name, argument kinds, library function).  A check calls the
# function on its coerced arguments, plus tol=scene.tolerance when the
# function has a ``tol`` parameter (``takes_tol``, read once from its
# signature).  Results go to value_to_json as the library returns them.
# Kinds:
#   state / effect / matrix      -> ndarray (matrix accepts any of the three)
#   operation                    -> Operation (it carries the effect it measures)
#   observable                   -> Observable (a RealValuedObservable is one)
#   real_observable              -> RealValuedObservable
#   instrument                   -> Instrument
#   label / labels / number      -> inline literals


@dataclass(frozen=True)
class _Op:
    kinds: tuple[str, ...]
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
    ("prob", ("state", "effect"), prob),
    ("complement", ("effect",), complement),
    ("perp", ("effect", "effect"), perp),
    ("is_sharp", ("effect",), is_sharp),
    ("is_atomic", ("effect",), is_atomic),
    ("loewner_leq", ("matrix", "matrix"), loewner_leq),
    ("trace_product", ("matrix", "matrix"), trace_product),
    ("psd_sqrt", ("matrix",), psd_sqrt),
    ("commutator_norm", ("matrix", "matrix"), _commutator_norm),
    ("frobenius_distance", ("matrix", "matrix"), _frobenius_distance),
    ("apply", ("operation", "state"), apply),
    ("dual_apply", ("operation", "matrix"), dual_apply),
    ("measured_effect", ("operation",), measured_effect),
    ("is_channel", ("operation",), is_channel),
    ("compose", ("operation", "operation"), compose),
    ("sequential_product", ("operation", "effect"), sequential_product),
    ("conditional_prob", ("state", "operation", "effect"), conditional_prob),
    ("updated_state", ("state", "operation"), updated_state),
    ("bayes2_residual", ("state", "operation", "operation"), bayes2_residual),
    ("choi_distance", ("operation", "operation"), choi_distance),
    ("maps_equal", ("operation", "operation"), maps_equal),
    ("povm", ("observable", "labels"), povm),
    ("distribution", ("state", "observable"), distribution),
    ("stochastic_operator", ("real_observable",), stochastic_operator),
    ("expectation", ("state", "real_observable"), expectation),
    ("conditional_expectation", ("state", "operation", "real_observable"), conditional_expectation),
    ("is_commuting", ("observable",), is_commuting),
    ("jointly_commuting", ("observable", "observable"), _jointly_commuting),
    ("bar_channel", ("instrument",), bar_channel),
    ("measured_observable", ("instrument",), measured_observable),
    ("condition_effect", ("effect", "instrument"), condition_effect),
    ("condition_observable", ("observable", "instrument"), condition_observable),
    ("condition_instrument", ("instrument", "instrument"), condition_instrument),
    ("compose_instruments", ("instrument", "instrument"), compose_instruments),
    ("bayes1_check", ("state", "instrument", "effect"), bayes1_check),
    ("bayes1_expectation_check", _CTX_STATS, bayes1_expectation_check),
    ("contextual_expectation", _CTX_STATS, contextual_expectation),
    ("contextual_correlation", _CTX_STATS_PAIR, contextual_correlation),
    ("contextual_covariance", _CTX_STATS_PAIR, contextual_covariance),
    ("contextual_variance", _CTX_STATS, contextual_variance),
    ("commutator_trace", _CTX_STATS_PAIR, commutator_trace),
    ("uncertainty_report", _CTX_STATS_PAIR, uncertainty_report),
    ("effect_entropy", ("state", "effect"), effect_entropy),
    ("sequential_entropy", ("state", "operation", "effect"), sequential_entropy),
    ("conditional_effect_entropy", ("state", "operation", "effect"), conditional_effect_entropy),
    ("sequential_entropy_dominated", ("operation", "effect"), sequential_entropy_dominated),
    ("observable_entropy", ("state", "observable"), observable_entropy),
    ("conditional_observable_entropy_double", _CTX_ENTROPY, conditional_observable_entropy_double),
    ("conditional_observable_entropy_single", _CTX_ENTROPY, conditional_observable_entropy_single),
)

SCENE_OPS: dict[str, _Op] = {
    name: _Op(kinds, fn, "tol" in inspect.signature(fn).parameters)
    for name, kinds, fn in _OP_TABLE
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


def _parse_operation_literal(name: str, key: str, raw, tol: Tolerance) -> Operation:
    where = f"object {name!r}"
    if key == "kraus":
        if not isinstance(raw, list) or not raw:
            raise SceneParseError(f"{where}: kraus must be a nonempty list of matrices")
        return Operation(
            tuple(matrix_from_json(k, f"{where} kraus[{i}]") for i, k in enumerate(raw))
        )
    if key == "luders":
        a = matrix_from_json(raw, f"{where} luders effect")
        _raise_violations(name, validate_effect(a, tol))
        return luders(a, tol)
    # holevo
    raw = _require_dict(raw, f"{where} holevo")
    if set(raw) != {"effect", "alpha"}:
        raise SceneParseError(f"{where}: holevo needs exactly effect and alpha")
    a = matrix_from_json(raw["effect"], f"{where} holevo effect")
    alpha = matrix_from_json(raw["alpha"], f"{where} holevo alpha")
    _raise_violations(name, validate_effect(a, tol) + validate_state(alpha, tol))
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
            _raise_violations(f"{name}.alphas[{x}]", validate_state(alpha, tol))
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
            if len(literal) != 1 or next(iter(literal)) not in ("kraus", "luders", "holevo"):
                raise SceneParseError(
                    f"{where} op {x!r}: expected a kraus, luders or holevo literal"
                )
            key = next(iter(literal))
            ops[x] = _parse_operation_literal(f"{name}[{x}]", key, literal[key], tol)
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


def _raise_violations(name: str, violations) -> None:
    if violations:
        detail = "; ".join(str(v) for v in violations)
        raise SceneValidationError(f"object {name!r}: {detail}")


_OBJECT_KEYS = (
    "state",
    "effect",
    "matrix",
    "kraus",
    "luders",
    "holevo",
    "observable",
    "instrument",
)


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
        _raise_violations(name, validate_state(m, tol))
        return SceneObject(name, "state", m)
    if key == "effect":
        m = matrix_from_json(raw, where)
        _raise_violations(name, validate_effect(m, tol))
        return SceneObject(name, "effect", m)
    if key == "matrix":
        return SceneObject(name, "matrix", matrix_from_json(raw, where))
    if key in ("kraus", "luders", "holevo"):
        op = _parse_operation_literal(name, key, raw, tol)
        _raise_violations(name, validate_operation(op, tol))
        return SceneObject(name, "operation", op)
    if key == "observable":
        obs = _parse_observable(name, raw)
        _raise_violations(name, validate_observable(obs, tol))
        return SceneObject(name, "observable", obs)
    ins = _parse_instrument(name, raw, tol, observables)
    _raise_violations(name, validate_instrument(ins, tol))
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
    index: int, raw, objects: Mapping[str, SceneObject]
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
    dims = set()
    for a, kind in zip(args, spec.kinds):
        if kind in ("label", "labels", "number"):
            continue
        dims.add(a.shape[0] if isinstance(a, np.ndarray) else a.dim)
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
        has_expect=has_expect,
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
    checks = tuple(_parse_check(i, c, objects) for i, c in enumerate(raw_checks))
    return Scene(name=name, tolerance=tol, objects=objects, checks=checks, path=path)


# --- comparison ---------------------------------------------------------------


def _as_complex(expected, where: str) -> complex:
    if isinstance(expected, bool):
        raise SceneValidationError(f"{where}: expected a number, got a boolean")
    parts = expected if isinstance(expected, list) and len(expected) == 2 else [expected, 0.0]
    re, im = map(_json_float, parts)
    if re is None or im is None:
        raise SceneValidationError(f"{where}: expected a number or [re, im] pair")
    return complex(re, im)


def _record_residual(computed: dict, expected, where: str) -> float:
    """Residual between a record (dict of numbers/pairs) and its expectation.

    A scalar expectation compares every field against the same number.
    """
    if _is_number(expected):
        expected = {key: expected for key in computed}
    if not isinstance(expected, dict):
        raise SceneValidationError(f"{where}: expected a record or a single number")
    worst = 0.0
    for key, want in expected.items():
        if key not in computed:
            raise SceneValidationError(f"{where}: result has no field {key!r}")
        have = computed[key]
        if isinstance(have, list):
            have = complex(have[0], have[1])
        elif isinstance(have, (int, float)):
            have = complex(have)
        else:
            raise SceneValidationError(f"{where}: field {key!r} is not numeric")
        worst = max(worst, abs(have - _as_complex(want, f"{where}.{key}")))
    return worst


def _operation_from_expected(expected, where: str, tol: Tolerance) -> Operation:
    expected = _require_dict(expected, where)
    if len(expected) != 1 or next(iter(expected)) not in ("kraus", "luders", "holevo"):
        raise SceneValidationError(f"{where}: expected a kraus/luders/holevo literal")
    key = next(iter(expected))
    return _parse_operation_literal(where, key, expected[key], tol)


def _residual(value, check: CheckSpec, tol: Tolerance) -> tuple[float, object]:
    """Distance between a computed value and the check's expectation."""
    where = f"check[{check.index}]"
    expected = check.expect
    if isinstance(value, bool):
        if not isinstance(expected, bool):
            raise SceneValidationError(f"{where}: expected true/false for a boolean result")
        return (0.0 if value == expected else 1.0), expected
    if isinstance(value, (int, float)):
        return abs(float(value) - _as_complex(expected, where)), expected
    if isinstance(value, complex):
        return abs(value - _as_complex(expected, where)), expected
    if isinstance(value, np.ndarray):
        want = matrix_from_json(expected, f"{where} expected matrix")
        if want.shape != value.shape:
            raise SceneValidationError(
                f"{where}: expected a {value.shape[0]}x{value.shape[1]} matrix"
            )
        return float(frobenius(value - want)), expected
    if isinstance(value, SubObservable):
        exp = _require_dict(expected, where)
        effects = exp.get("effects")
        if set(exp) != {"effects"} or not isinstance(effects, dict):
            raise SceneValidationError(
                f"{where}: an observable result compares against {{'effects': ...}}"
            )
        worst = 0.0
        for x, rows in effects.items():
            if x not in value.effects:
                raise SceneValidationError(f"{where}: observable result has no outcome {x!r}")
            want = matrix_from_json(rows, f"{where} expected effect {x!r}")
            worst = max(worst, float(frobenius(value.effects[x] - want)))
        return worst, expected
    if isinstance(value, BayesTriple):
        # A scalar expectation pins all three routes (but not the derived
        # spread, which a scalar broadcast would nonsensically compare).
        if _is_number(expected):
            want = _as_complex(expected, where).real
            return max(
                abs(value.lhs - want), abs(value.mid - want), abs(value.rhs - want)
            ), expected
        return _record_residual(value.to_json(), expected, where), expected
    if hasattr(value, "to_json"):
        return _record_residual(value.to_json(), expected, where), expected
    if isinstance(value, dict):
        return _record_residual(value, expected, where), expected
    if isinstance(value, Operation):
        return float(choi_distance(value, _operation_from_expected(expected, where, tol))), expected
    if isinstance(value, Instrument):
        exp = _require_dict(expected, where)
        if set(exp) != {"outcomes", "ops"} or not isinstance(exp["ops"], dict):
            raise SceneValidationError(
                f"{where}: an instrument result compares against outcomes+ops"
            )
        # Composite results carry reserved separators in their labels, so the
        # expectation is parsed without the user-label restrictions.
        if set(exp["ops"]) != set(value.outcomes):
            raise SceneValidationError(
                f"{where}: expected outcomes {sorted(exp['ops'])} "
                f"!= result outcomes {sorted(value.outcomes)}"
            )
        worst = 0.0
        for x in value.outcomes:
            want = _operation_from_expected(exp["ops"][x], f"{where} op {x!r}", tol)
            worst = max(worst, float(choi_distance(value.ops[x], want)))
        return worst, expected
    raise SceneValidationError(f"{where}: cannot compare a {type(value).__name__} result")


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
        residual = 0.0
        passed = True
        expected_json = None
        if check.has_expect:
            residual, expected_json = _residual(value, check, scene.tolerance)
            passed = residual <= threshold
        else:
            numeric = _is_number(value)
            if check.expect_min is not None:
                if not numeric:
                    raise SceneValidationError(
                        f"check[{check.index}]: expect_min needs a numeric result"
                    )
                residual = max(residual, check.expect_min - float(value))
            if check.expect_max is not None:
                if not numeric:
                    raise SceneValidationError(
                        f"check[{check.index}]: expect_max needs a numeric result"
                    )
                residual = max(residual, float(value) - check.expect_max)
            residual = max(0.0, residual)
            passed = residual <= 0.0
        results.append(
            CheckResult(
                index=check.index,
                op=check.op,
                label=check.label,
                passed=bool(passed),
                residual=float(residual),
                value=value_to_json(value),
                expected=expected_json,
            )
        )
    return SceneReport(
        scene=scene.name,
        path=scene.path,
        checks=tuple(results),
        passed=all(r.passed for r in results),
    )
