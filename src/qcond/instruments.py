"""Instruments: outcome-labelled families of operations summing to a channel.

An instrument assigns an operation to each outcome so that the *bar channel*
(the sum over outcomes) preserves trace.  It measures the observable
x -> dual_x(I).  Conditioning runs through instruments: effects, observables
and other instruments can all be conditioned on one, and composition carries
product outcome labels "x,y" (comma reserved).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .core import Violation, prob
from .errors import (
    DimMismatchError,
    InvalidTypeError,
    InvalidValueError,
    MissingAlphaError,
    NotCommutingFamilyError,
    NotJointlyCommutingError,
    UnknownLabelError,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    frobenius,
    simultaneous_eigenbasis,
    trace_product,
)
from .observables import (
    Observable,
    RealValuedObservable,
    SubObservable,
    stochastic_operator,
)
from .operations import (
    Operation,
    _kraus_sum,
    compose,
    dual_apply,
    holevo,
    luders,
    measured_effect,
    validate_operation,
)

__all__ = [
    "COMPOSITE_LABEL_SEPARATOR",
    "Instrument",
    "validate_instrument",
    "bar_channel",
    "measured_observable",
    "luders_instrument",
    "holevo_instrument",
    "condition_effect",
    "condition_state",
    "condition_subobservable",
    "condition_observable",
    "condition_instrument",
    "compose_instruments",
    "BayesTriple",
    "bayes1_check",
    "bayes1_expectation_check",
    "atomic_context",
]

#: Separator used in composed instruments' product outcome labels.
COMPOSITE_LABEL_SEPARATOR = ","


@dataclass(frozen=True, eq=False)
class Instrument:
    """Ordered outcome labels with one operation per label."""

    outcomes: tuple[str, ...]
    ops: dict[str, Operation] = field(repr=False)

    def __init__(self, outcomes: Sequence[str], ops: Mapping[str, Operation]) -> None:
        labels = tuple(str(x) for x in outcomes)
        if not labels:
            raise InvalidValueError("a family needs at least one outcome")
        if len(set(labels)) != len(labels):
            raise InvalidValueError("outcome labels must be unique")
        if set(labels) != set(ops.keys()):
            raise UnknownLabelError("operations must be keyed exactly by the outcome labels")
        opmap = dict((x, ops[x]) for x in labels)
        if not all(isinstance(op, Operation) for op in opmap.values()):
            raise InvalidTypeError("an instrument maps each outcome to an Operation")
        dims = {op.dim for op in opmap.values()}
        if len(dims) != 1:
            raise DimMismatchError(f"operations have mixed dimensions {sorted(dims)}")
        object.__setattr__(self, "outcomes", labels)
        object.__setattr__(self, "ops", opmap)

    @property
    def dim(self) -> int:
        return next(iter(self.ops.values())).dim


def validate_instrument(ins: Instrument, tol: Tolerance = DEFAULT_TOL) -> list[Violation]:
    """Each operation valid, and the bar channel trace preserving."""
    out = []
    for x in ins.outcomes:
        out += [
            Violation(f"op[{x}].{v.invariant}", v.magnitude)
            for v in validate_operation(ins.ops[x], tol)
        ]
    dev = frobenius(sum(ins.ops[x].effect for x in ins.outcomes) - np.eye(ins.dim))
    if dev > tol.eq_tol:
        out.append(Violation("bar-channel", dev))
    return out


def _outcome_stacks(ins: Instrument) -> list[np.ndarray]:
    return [ins.ops[x].kraus for x in ins.outcomes]


def bar_channel(ins: Instrument) -> Operation:
    """The total operation: Kraus union over all outcomes.

    Materialized only where an Operation is needed: ``condition_instrument``
    composes it with each outcome, and the scenes and suites compare it as a
    map.  Totals of one matrix (``condition_effect``, ``condition_state``, and
    through them ``condition_observable``) sum over the outcome stacks block
    by block instead, never holding the whole union.
    """
    return Operation._adopt(np.concatenate(_outcome_stacks(ins)))


def measured_observable(ins: Instrument) -> Observable:
    """The observable the instrument measures: x -> dual_x(I)."""
    return Observable(ins.outcomes, {x: measured_effect(ins.ops[x]) for x in ins.outcomes})


def luders_instrument(a: Observable, tol: Tolerance = DEFAULT_TOL) -> Instrument:
    """The Lüders instrument of an observable: Kraus A_x**(1/2) per outcome."""
    return Instrument(a.outcomes, {x: luders(a.effects[x], tol) for x in a.outcomes})


def holevo_instrument(
    a: Observable, alphas: Mapping[str, np.ndarray], tol: Tolerance = DEFAULT_TOL
) -> Instrument:
    """The Holevo instrument rho -> tr(rho A_x) alpha_x.

    Raises MissingAlphaError when an outcome has no update state.
    """
    missing = [x for x in a.outcomes if x not in alphas]
    if missing:
        raise MissingAlphaError(f"no update state for outcomes {missing}")
    return Instrument(a.outcomes, {x: holevo(a.effects[x], alphas[x], tol) for x in a.outcomes})


def condition_effect(a, ins: Instrument) -> np.ndarray:
    """The effect (a | A): total dual transport of a through the instrument."""
    return _kraus_sum(_outcome_stacks(ins), a, dual=True)


def condition_state(rho, ins: Instrument) -> np.ndarray:
    """The bar channel's image of rho, sum over outcomes of op_x(rho).

    The Schrödinger twin of condition_effect: tr[condition_state(rho) a] =
    tr[rho condition_effect(a)].
    """
    return _kraus_sum(_outcome_stacks(ins), rho)


def condition_subobservable(a: SubObservable, op: Operation) -> SubObservable:
    """The sub-observable (A | b): every effect transported through the operation measuring b."""
    return SubObservable(a.outcomes, {x: dual_apply(op, a.effects[x]) for x in a.outcomes})


def condition_observable(b, ins: Instrument):
    """The observable (B | A): every effect conditioned on the instrument.

    A RealValuedObservable keeps its values.
    """
    out = Observable(b.outcomes, {y: condition_effect(b.effects[y], ins) for y in b.outcomes})
    return RealValuedObservable(out, b.values) if isinstance(b, RealValuedObservable) else out


def condition_instrument(ins: Instrument, given: Instrument) -> Instrument:
    """The instrument (ins | given): first given's bar channel, then each outcome op.

    It measures exactly the conditioned observable of what ins measures.
    """
    bar = bar_channel(given)
    return Instrument(ins.outcomes, {y: compose(bar, ins.ops[y]) for y in ins.outcomes})


def compose_instruments(first: Instrument, second: Instrument) -> Instrument:
    """Sequential composition with product outcomes labelled "x,y".

    Outcome (x, y) means: first's outcome x occurred, then second's y.
    """
    outcomes = []
    ops = {}
    for x in first.outcomes:
        for y in second.outcomes:
            label = f"{x}{COMPOSITE_LABEL_SEPARATOR}{y}"
            if label in ops:
                raise InvalidValueError(f"composite label {label!r} is ambiguous")
            outcomes.append(label)
            ops[label] = compose(first.ops[x], second.ops[y])
    return Instrument(tuple(outcomes), ops)


@dataclass(frozen=True)
class BayesTriple:
    """Three routes to the same number; spread measures how far they disagree."""

    lhs: float
    mid: float
    rhs: float

    @property
    def spread(self) -> float:
        """Largest minus smallest route; NaN if any route is NaN (max and min can drop one)."""
        routes = (self.lhs, self.mid, self.rhs)
        if any(map(math.isnan, routes)):
            return math.nan
        return max(routes) - min(routes)

    def to_json(self) -> dict:
        return {"lhs": self.lhs, "mid": self.mid, "rhs": self.rhs, "spread": self.spread}


def _bayes1(rho, ins: Instrument, m, tol: Tolerance) -> BayesTriple:
    """The first Bayes rule at rho for m, an effect or a stochastic operator; nothing clamped.

    lhs, through each outcome's dual: sum_x P(A_x) tr[rho op_x*(m)] / P(A_x)
    over P(A_x) > eq_tol (the rest are bounded by it), the P(A_x) cancelled.
    mid, through the total dual: tr[rho (m | A)].  rhs, through the bar
    channel (Schrödinger): tr[bar(rho) m].
    """
    rho = as_matrix(rho)
    lhs = 0.0
    for x in ins.outcomes:
        op_x = ins.ops[x]
        if prob(rho, op_x.effect, tol) > tol.eq_tol:
            lhs += trace_product(rho, dual_apply(op_x, m)).real
    mid = trace_product(rho, condition_effect(m, ins)).real
    rhs = trace_product(condition_state(rho, ins), m).real
    return BayesTriple(lhs, mid, rhs)


def bayes1_check(rho, ins: Instrument, a, tol: Tolerance = DEFAULT_TOL) -> BayesTriple:
    """sum_x P(A_x) P(a | A_x) = P((a | A)) = P_bar(rho)(a), three routes (``_bayes1`` on a)."""
    return _bayes1(rho, ins, a, tol)


def bayes1_expectation_check(
    rho, ins: Instrument, b: RealValuedObservable, tol: Tolerance = DEFAULT_TOL
) -> BayesTriple:
    """The first Bayes rule for expectations: ``_bayes1`` on Btilde, since the rule is linear."""
    return _bayes1(rho, ins, stochastic_operator(b), tol)


def atomic_context(
    observables: Sequence[SubObservable], tol: Tolerance = DEFAULT_TOL
) -> tuple[Observable, Instrument]:
    """A common atomic refinement of jointly commuting observables.

    Returns (A, instrument) where A is atomic (one rank-one projection per
    basis vector of a simultaneous eigenbasis) and the instrument is A's
    Lüders instrument.  Conditioning any member of the family on it leaves
    the member unchanged.  Raises NotJointlyCommutingError otherwise, and
    NotHermitianError first for a non-Hermitian effect.
    """
    if not observables:
        raise InvalidValueError("need at least one observable")
    mats = [o.effects[x] for o in observables for x in o.outcomes]
    try:
        basis = simultaneous_eigenbasis(mats, tol)
    except NotCommutingFamilyError as exc:
        raise NotJointlyCommutingError("effects across the family do not commute pairwise") from exc
    outcomes = tuple(f"x{k}" for k in range(len(basis)))
    projections = {
        f"x{k}": np.outer(v, v.conj()) for k, v in enumerate(basis)
    }
    a = Observable(outcomes, projections)
    # Atomic effects are their own square roots, so this is the Lüders
    # instrument without going through psd_sqrt.
    ins = Instrument(outcomes, {x: Operation((projections[x],)) for x in outcomes})
    return a, ins
