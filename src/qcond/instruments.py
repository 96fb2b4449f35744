"""Instruments: outcome-labelled families of operations summing to a channel.

An instrument assigns an operation to each outcome so that the *bar channel*
(the sum over outcomes) preserves trace.  It measures the observable
x -> dual_x(I).  Conditioning runs through instruments: effects, observables
and other instruments can all be conditioned on one, and composition carries
product outcome labels "x,y" (comma reserved).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .core import Violation, prob
from .errors import (
    DimMismatchError,
    MissingAlphaError,
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
    jointly_commuting,
    stochastic_operator,
)
from .operations import (
    Operation,
    _kraus_sum,
    apply,
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
        if len(set(labels)) != len(labels):
            raise ValueError("outcome labels must be unique")
        if set(labels) != set(ops.keys()):
            raise UnknownLabelError("operations must be keyed exactly by the outcome labels")
        opmap = dict((x, ops[x]) for x in labels)
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
    if isinstance(b, RealValuedObservable):
        return RealValuedObservable(condition_observable(b.observable, ins), b.values)
    return Observable(b.outcomes, {y: condition_effect(b.effects[y], ins) for y in b.outcomes})


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
                raise ValueError(f"composite label {label!r} is ambiguous")
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
        return max(self.lhs, self.mid, self.rhs) - min(self.lhs, self.mid, self.rhs)

    def to_json(self) -> dict:
        return {"lhs": self.lhs, "mid": self.mid, "rhs": self.rhs, "spread": self.spread}


def _bayes1_left(rho: np.ndarray, ins: Instrument, m: np.ndarray, tol: Tolerance) -> float:
    """The Bayes-1 left route: sum of P(A_x) * tr[op_x(rho) m] / P(A_x) over P(A_x) > eq_tol."""
    lhs = 0.0
    for x in ins.outcomes:
        op_x = ins.ops[x]
        px = prob(rho, measured_effect(op_x), tol)
        if px <= tol.eq_tol:
            continue
        lhs += px * (trace_product(apply(op_x, rho), m).real / px)
    return float(lhs)


def bayes1_check(rho, ins: Instrument, a, tol: Tolerance = DEFAULT_TOL) -> BayesTriple:
    """The first Bayes rule at rho, computed by three independent routes.

    lhs: sum over outcomes of P(A_x) * P(a | A_x), skipping outcomes whose
    probability is below eq_tol (their contribution is bounded by it);
    mid: the probability of the conditioned effect (a | A);
    rhs: the probability of a in the bar-channel image of rho.
    """
    rho = as_matrix(rho)
    a = as_matrix(a)
    mid = prob(rho, condition_effect(a, ins), tol)
    rhs = prob(condition_state(rho, ins), a, tol)
    return BayesTriple(_bayes1_left(rho, ins, a, tol), mid, rhs)


def bayes1_expectation_check(
    rho, ins: Instrument, b: RealValuedObservable, tol: Tolerance = DEFAULT_TOL
) -> BayesTriple:
    """The expectation form of the first Bayes rule, three routes.

    lhs: sum over outcomes of P(A_x) * E(B | A_x); mid: expectation of the
    conditioned observable's stochastic operator; rhs: expectation of B in
    the bar-channel image of rho.
    """
    rho = as_matrix(rho)
    btilde = stochastic_operator(b)
    mid = trace_product(rho, condition_effect(btilde, ins)).real
    rhs = trace_product(condition_state(rho, ins), btilde).real
    return BayesTriple(_bayes1_left(rho, ins, btilde, tol), float(mid), float(rhs))


def atomic_context(
    observables: Sequence[SubObservable], tol: Tolerance = DEFAULT_TOL
) -> tuple[Observable, Instrument]:
    """A common atomic refinement of jointly commuting observables.

    Returns (A, instrument) where A is atomic (one rank-one projection per
    basis vector of a simultaneous eigenbasis) and the instrument is A's
    Lüders instrument.  Conditioning any member of the family on it leaves
    the member unchanged.  Raises NotJointlyCommutingError otherwise.
    """
    if not observables:
        raise ValueError("need at least one observable")
    if not jointly_commuting(observables, tol):
        raise NotJointlyCommutingError("effects across the family do not commute pairwise")
    mats = [o.effects[x] for o in observables for x in o.outcomes]
    basis = simultaneous_eigenbasis(mats, tol)
    outcomes = tuple(f"x{k}" for k in range(len(basis)))
    projections = {
        f"x{k}": np.outer(v, v.conj()) for k, v in enumerate(basis)
    }
    a = Observable(outcomes, projections)
    # Atomic effects are their own square roots, so this is the Lüders
    # instrument without going through psd_sqrt.
    ins = Instrument(outcomes, {x: Operation((projections[x],)) for x in outcomes})
    return a, ins
