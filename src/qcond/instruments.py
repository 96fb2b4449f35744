"""Instruments: outcome-labelled families of operations summing to a channel.

An instrument assigns an operation to each outcome so that the *bar channel*
(the sum over outcomes) preserves trace.  It measures the observable
x -> dual_x(I).  Conditioning runs through instruments: effects, observables
and other instruments can all be conditioned on one, and composition carries
product outcome labels "x,y" (comma reserved).

An instrument holds its Kraus operators once, as one read-only (K, d, d)
stack in outcome order, the union over its outcomes.  Each outcome's
operation is a view of its rows, the bar channel wraps the whole stack, and
every total over the outcomes sums over that one stack.  What the outcomes
measure is one read-only effect stack too, computed once per instrument from
runs of equal Kraus counts: ``measured_observable`` wraps it, the outcome
operations cache its rows as their effects, and ``validate_instrument``
judges it with the bar channel in one kernel call.  Whatever maps over
an observable's outcomes (a Lüders root, a Holevo spectrum, a conditioning
transport) runs once on the observable's own effect stack, and a
conditioned or measured observable wraps the stack it was computed as.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, groupby
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .core import Violation, _judged, prob
from .errors import (
    DimMismatchError,
    InvalidTypeError,
    InvalidValueError,
    MissingAlphaError,
    NotCommutingFamilyError,
    NotJointlyCommutingError,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    hermitian_eig,
    psd_sqrt,
    simultaneous_eigenbasis,
    trace_product,
)
from .observables import (
    Observable,
    RealValuedObservable,
    SubObservable,
    _outcome_family,
    stochastic_operator,
)
from .operations import (
    Operation,
    _holevo_kraus,
    _cache_effects,
    _kraus_sum,
    _measured,
    compose,
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
    """Ordered outcome labels with one operation per label, over one Kraus stack.

    ``kraus`` is the read-only (K, d, d) complex128 union of the outcomes'
    Kraus operators in outcome order, as ``Operation.kraus`` is one
    operation's.  ``ops[x]`` is an Operation over outcome x's rows of it, and
    ``ops`` is a read-only mapping.  The constructor copies the operations'
    stacks once, by concatenating them.
    """

    outcomes: tuple[str, ...]
    kraus: np.ndarray = field(repr=False)
    ops: Mapping[str, Operation] = field(repr=False)

    def __init__(self, outcomes: Sequence[str], ops: Mapping[str, Operation]) -> None:
        labels, stacks = _outcome_family(outcomes, ops, "operations", _kraus_of)
        self._hold(labels, np.concatenate(stacks), [len(k) for k in stacks])

    @classmethod
    def _adopt(cls, labels: Sequence[str], kraus: np.ndarray, counts: Sequence[int]) -> Instrument:
        """Wrap a (K, d, d) complex128 union the caller has just built, without copying it.

        Outcome i of labels holds the next counts[i] rows, in order.
        """
        ins = cls.__new__(cls)
        ins._hold(tuple(labels), kraus, counts)
        return ins

    def _hold(self, labels: tuple[str, ...], kraus: np.ndarray, counts: Sequence[int]) -> None:
        kraus.setflags(write=False)
        ends = [0, *accumulate(counts)]
        ops = {x: Operation._adopt(kraus[start:end]) for x, start, end in zip(labels, ends, ends[1:])}
        object.__setattr__(self, "outcomes", labels)
        object.__setattr__(self, "kraus", kraus)
        object.__setattr__(self, "ops", MappingProxyType(ops))

    @property
    def dim(self) -> int:
        return self.kraus.shape[-1]

    @cached_property
    def _effects(self) -> np.ndarray:
        """The read-only (n, d, d) stack of the effects the outcomes measure, in outcome order.

        Computed on first read and cached.  Each run of consecutive outcomes
        with k Kraus operators each goes through ``_measured`` as one
        (outcomes, k, d, d) view of the stack, at most d**2 // k outcomes per
        call (one when k > d**2), so no call holds more operators than one
        outcome or d**2.  Each row equals its outcome's ``effect`` bit for
        bit, and an operation that has not read its effect yet caches its row.
        """
        d = self.dim
        out = np.empty((len(self.outcomes), d, d), dtype=np.complex128)
        row = start = 0
        for k, run in groupby(len(op.kraus) for op in self.ops.values()):
            left = len(list(run))
            while left:
                m = min(left, max(1, d * d // k))
                out[row : row + m] = _measured(self.kraus[start : start + m * k].reshape(m, k, d, d))
                row, start, left = row + m, start + m * k, left - m
        out.setflags(write=False)
        _cache_effects(list(self.ops.values()), out)
        return out


def _kraus_of(op: Operation) -> np.ndarray:
    if not isinstance(op, Operation):
        raise InvalidTypeError("an instrument maps each outcome to an Operation")
    return op.kraus


def validate_instrument(ins: Instrument, tol: Tolerance = DEFAULT_TOL) -> list[Violation]:
    """Each operation within the trace bound, and the bar channel trace preserving."""
    return _judged([_instrument_rows(ins)], tol)[0]


def _instrument_rows(ins: Instrument) -> list:
    """The instrument's blocks for ``core._judged``: each outcome's measured effect, then their sum."""
    effects = ins._effects
    return [(effects, "kraus", [f"op[{x}]." for x in ins.outcomes]), (sum(effects)[None], "bar-channel", None)]


def bar_channel(ins: Instrument) -> Operation:
    """The total operation, whose Kraus family is the instrument's whole stack (not copied)."""
    return Operation._adopt(ins.kraus)


def measured_observable(ins: Instrument) -> Observable:
    """The observable the instrument measures: x -> dual_x(I), over the instrument's own effect stack."""
    return Observable._adopt(ins.outcomes, ins._effects)


def luders_instrument(a: Observable, tol: Tolerance = DEFAULT_TOL) -> Instrument:
    """The Lüders instrument of an observable: Kraus A_x**(1/2) per outcome, one stacked root."""
    return Instrument._adopt(a.outcomes, psd_sqrt(a.stack, tol), [1] * len(a.outcomes))


def holevo_instrument(
    a: Observable, alphas: Mapping[str, np.ndarray], tol: Tolerance = DEFAULT_TOL
) -> Instrument:
    """The Holevo instrument rho -> tr(rho A_x) alpha_x.

    Raises MissingAlphaError when an outcome has no update state.  The
    effects and the update states are each diagonalized as one stack, and
    the outcomes' families, each that of ``holevo`` bit for bit, are written
    into one union.
    """
    states = _update_states(a, alphas)
    nu, v = hermitian_eig(a.stack, tol)
    mu, w = hermitian_eig(states, tol)
    return Instrument._adopt(a.outcomes, *_holevo_kraus(nu, v, mu, w, tol))


def _update_states(a: Observable, alphas: Mapping[str, np.ndarray]) -> np.ndarray:
    """The (n, d, d) stack of a Holevo instrument's update states, in a's outcome order.

    Raises MissingAlphaError when an outcome has none, DimMismatchError when
    one is not d x d.
    """
    missing = [x for x in a.outcomes if x not in alphas]
    if missing:
        raise MissingAlphaError(f"no update state for outcomes {missing}")
    states = [as_matrix(alphas[x]) for x in a.outcomes]
    if any(alpha.shape != (a.dim, a.dim) for alpha in states):
        raise DimMismatchError("effect and update state must share a dimension")
    return np.stack(states)


def condition_effect(a, ins: Instrument) -> np.ndarray:
    """The effect (a | A): total dual transport of a through the instrument."""
    return _kraus_sum(ins.kraus, as_matrix(a), dual=True)


def condition_state(rho, ins: Instrument) -> np.ndarray:
    """The bar channel's image of rho, sum over outcomes of op_x(rho).

    The Schrödinger twin of condition_effect: tr[condition_state(rho) a] =
    tr[rho condition_effect(a)].
    """
    return _kraus_sum(ins.kraus, as_matrix(rho))


def condition_subobservable(a: SubObservable, op: Operation) -> SubObservable:
    """The sub-observable (A | b): every effect transported through the operation measuring b.

    The effects go through the dual as one stack.
    """
    return SubObservable._adopt(a.outcomes, _kraus_sum(op.kraus, a.stack, dual=True))


def condition_observable(b, ins: Instrument):
    """The observable (B | A): every effect conditioned on the instrument.

    The effects go through the total dual as one stack, each equal bit for
    bit to its ``condition_effect``.  A RealValuedObservable keeps its values.
    """
    out = Observable._adopt(b.outcomes, _kraus_sum(ins.kraus, b.stack, dual=True))
    return RealValuedObservable(out, b.values) if isinstance(b, RealValuedObservable) else out


def condition_instrument(ins: Instrument, given: Instrument) -> Instrument:
    """The instrument (ins | given): first given's bar channel, then each outcome op.

    It measures exactly the conditioned observable of what ins measures.
    """
    return _composed({y: (bar_channel(given), ins.ops[y]) for y in ins.outcomes})


def compose_instruments(first: Instrument, second: Instrument) -> Instrument:
    """Sequential composition with product outcomes labelled "x,y".

    Outcome (x, y) means: first's outcome x occurred, then second's y.
    """
    pairs = {}
    for x in first.outcomes:
        for y in second.outcomes:
            label = f"{x}{COMPOSITE_LABEL_SEPARATOR}{y}"
            if label in pairs:
                raise InvalidValueError(f"composite label {label!r} is ambiguous")
            pairs[label] = (first.ops[x], second.ops[y])
    return _composed(pairs)


def _composed(pairs: Mapping[str, tuple[Operation, Operation]]) -> Instrument:
    """The instrument whose outcome x is compose(*pairs[x]), in the order of pairs.

    The union is allocated at ``compose``'s bound of min(k1*k2, d**2)
    operators per outcome, and each composite is written into it as it is
    made, so no list of composites is held beside it.  When a composite
    keeps fewer (its Choi rank), the used rows are copied out, so the
    instrument holds no slack.
    """
    dim = next(iter(pairs.values()))[0].dim
    bound = sum(min(len(first.kraus) * len(second.kraus), dim * dim) for first, second in pairs.values())
    kraus = np.empty((bound, dim, dim), dtype=np.complex128)
    counts = []
    for first, second in pairs.values():
        composite = compose(first, second).kraus
        kraus[sum(counts) : sum(counts) + len(composite)] = composite
        counts.append(len(composite))
    return Instrument._adopt(tuple(pairs), kraus if sum(counts) == bound else kraus[: sum(counts)].copy(), counts)


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


def _bayes1(rho, ins: Instrument, m: np.ndarray, tol: Tolerance):
    """The first Bayes rule at rho for m, an effect or a stochastic operator; nothing clamped.

    lhs, through each outcome's dual: sum_x P(A_x) tr[rho op_x*(m)] / P(A_x)
    over P(A_x) > eq_tol (the rest are bounded by it), the P(A_x) cancelled.
    mid, through the total dual: tr[rho (m | A)].  rhs, through the bar
    channel (Schrödinger): tr[bar(rho) m].  An (n, d, d) stack m gives the
    list of n triples, each bit for bit its matrix's, with bar(rho) once.
    """
    rho = as_matrix(rho)
    lhs = 0.0
    for x in ins.outcomes:
        op_x = ins.ops[x]
        if prob(rho, op_x.effect, tol) > tol.eq_tol:
            lhs += trace_product(rho, _kraus_sum(op_x.kraus, m, dual=True)).real
    mid = trace_product(rho, _kraus_sum(ins.kraus, m, dual=True)).real
    rhs = trace_product(_kraus_sum(ins.kraus, rho), m).real
    routes = np.stack(np.broadcast_arrays(lhs, mid, rhs), -1).tolist()
    return BayesTriple(*routes) if m.ndim == 2 else [BayesTriple(*r) for r in routes]


def bayes1_check(rho, ins: Instrument, a, tol: Tolerance = DEFAULT_TOL) -> BayesTriple:
    """sum_x P(A_x) P(a | A_x) = P((a | A)) = P_bar(rho)(a), three routes (``_bayes1`` on a)."""
    return _bayes1(rho, ins, as_matrix(a), tol)


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
    mats = [m for o in observables for m in o.stack]
    try:
        basis = simultaneous_eigenbasis(mats, tol)
    except NotCommutingFamilyError as exc:
        raise NotJointlyCommutingError("effects across the family do not commute pairwise") from exc
    outcomes = tuple(f"x{k}" for k in range(len(basis)))
    projections = np.stack([np.outer(v, v.conj()) for v in basis])
    # Atomic effects are their own square roots, so the one read-only stack
    # is both A's effects and its Lüders instrument's Kraus operators,
    # without going through psd_sqrt.
    a = Observable._adopt(outcomes, projections)
    ins = Instrument._adopt(outcomes, projections, [1] * len(outcomes))
    return a, ins
