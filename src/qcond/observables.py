"""Observables: finite effect-valued measures on a labelled outcome set.

A :class:`SubObservable` is a family of effects summing to at most the
identity; an :class:`Observable` sums to the identity exactly (within
tolerance).  Outcome labels are strings and keep their declared order, so
every derived quantity (distributions, stochastic operators, serialized
reports) is deterministic.  A :class:`RealValuedObservable` is an Observable
that also carries a real value per outcome; it shares the effects of the
observable it is built from, so a family can be re-valued without rebuilding
it.  Its expectations are the probability forms applied to sum_y y B_y, which
it builds once, on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import math

import numpy as np

from .core import Violation, prob, validate_effect
from .errors import DimMismatchError, InvalidTypeError, InvalidValueError, UnknownLabelError
from .linalg import DEFAULT_TOL, Tolerance, _commutator_norms, as_matrix, frobenius, trace_product
from .operations import Operation, _conditional

__all__ = [
    "EXTENSION_LABEL",
    "SubObservable",
    "Observable",
    "RealValuedObservable",
    "validate_subobservable",
    "validate_observable",
    "povm",
    "distribution",
    "stochastic_operator",
    "expectation",
    "conditional_expectation",
    "minimal_extension",
    "is_commuting",
    "jointly_commuting",
]

#: Outcome label reserved for the residual effect adjoined by minimal_extension.
EXTENSION_LABEL = "⊥"


@dataclass(frozen=True, eq=False)
class SubObservable:
    """Ordered outcome labels with one effect per label (sum <= I)."""

    outcomes: tuple[str, ...]
    effects: dict[str, np.ndarray] = field(repr=False)

    def __init__(self, outcomes: Sequence[str], effects: Mapping[str, np.ndarray]) -> None:
        labels = tuple(str(x) for x in outcomes)
        if not labels:
            raise InvalidValueError("a family needs at least one outcome")
        if len(set(labels)) != len(labels):
            raise InvalidValueError("outcome labels must be unique")
        if set(labels) != set(effects.keys()):
            raise UnknownLabelError("effects must be keyed exactly by the outcome labels")
        mats = {x: as_matrix(effects[x]) for x in labels}
        dims = {m.shape[0] for m in mats.values()}
        if len(dims) != 1:
            raise DimMismatchError(f"effects have mixed dimensions {sorted(dims)}")
        object.__setattr__(self, "outcomes", labels)
        object.__setattr__(self, "effects", mats)

    @property
    def dim(self) -> int:
        return next(iter(self.effects.values())).shape[0]

    def total(self) -> np.ndarray:
        """Sum of all effects."""
        return sum(self.effects[x] for x in self.outcomes)


class Observable(SubObservable):
    """A sub-observable whose effects sum to the identity."""


@dataclass(frozen=True, eq=False)
class RealValuedObservable(Observable):
    """An observable with a real value per outcome, sharing the given observable's effects."""

    values: dict[str, float]

    def __init__(self, observable: Observable, values: Mapping[str, float]) -> None:
        if set(values) != set(observable.outcomes):
            raise UnknownLabelError("values must be keyed exactly by the outcome labels")
        vals = {x: float(values[x]) for x in observable.outcomes}
        for x, v in vals.items():
            if not math.isfinite(v):
                raise InvalidValueError(f"value for outcome {x!r} is not finite")
        object.__setattr__(self, "outcomes", observable.outcomes)
        object.__setattr__(self, "effects", observable.effects)
        object.__setattr__(self, "values", vals)

    @cached_property
    def btilde(self) -> np.ndarray:
        """The stochastic operator sum_y y * B_y.

        Computed on first read and cached on the instance; the array is read-only.
        """
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for y in self.outcomes:
            out += self.values[y] * self.effects[y]
        out.flags.writeable = False
        return out


def _effect_violations(a, tol: Tolerance) -> list[Violation]:
    out = []
    for x in a.outcomes:
        out += [Violation(f"effect[{x}].{v.invariant}", v.magnitude) for v in validate_effect(a.effects[x], tol)]
    return out


def validate_subobservable(a: SubObservable, tol: Tolerance = DEFAULT_TOL) -> list[Violation]:
    """Each effect of a (sub-)observable valid; the total at most I."""
    out = _effect_violations(a, tol)
    total = a.total()
    if not np.all(np.isfinite(total.view(np.float64))):
        return out
    w = np.linalg.eigvalsh((total + total.conj().T) / 2.0)
    if w[-1] > 1.0 + tol.psd_tol:
        out.append(Violation("total-below-identity", float(w[-1] - 1.0)))
    return out


def validate_observable(a: Observable, tol: Tolerance = DEFAULT_TOL) -> list[Violation]:
    """Each effect of an observable valid; the total equal to I."""
    out = _effect_violations(a, tol)
    dev = frobenius(a.total() - np.eye(a.dim))
    if dev > tol.eq_tol:
        out.append(Violation("total-is-identity", dev))
    return out


def povm(a: SubObservable, delta: Iterable[str]) -> np.ndarray:
    """The effect of an event: sum of the effects over a set of labels."""
    labels = list(delta)
    if len(set(labels)) != len(labels):  # an event is a set of outcomes
        raise InvalidValueError(f"an event names each outcome once, got {labels}")
    for x in labels:
        if x not in a.effects:
            raise UnknownLabelError(f"unknown outcome label {x!r}")
    out = np.zeros((a.dim, a.dim), dtype=np.complex128)
    for x in labels:
        out += a.effects[x]
    return out


def distribution(rho, a: SubObservable, tol: Tolerance = DEFAULT_TOL) -> dict[str, float]:
    """Outcome probabilities in declared label order."""
    rho = as_matrix(rho)
    return {x: prob(rho, a.effects[x], tol) for x in a.outcomes}


def stochastic_operator(b: RealValuedObservable) -> np.ndarray:
    """The Hermitian operator sum_y y * B_y whose moments give B's statistics (read-only)."""
    if not isinstance(b, RealValuedObservable):
        raise InvalidTypeError("a real-valued observable is required here")
    return b.btilde


def expectation(rho, b: RealValuedObservable) -> float:
    """tr(rho Btilde)."""
    return trace_product(as_matrix(rho), stochastic_operator(b)).real


def conditional_expectation(
    rho, op: Operation, b: RealValuedObservable, tol: Tolerance = DEFAULT_TOL
):
    """E(b | op's effect) = tr[op(rho) Btilde] / tr[rho a]: ``_conditional`` on Btilde."""
    return _conditional(rho, op, stochastic_operator(b), tol)


def minimal_extension(a: SubObservable, tol: Tolerance = DEFAULT_TOL) -> Observable:
    """Complete a sub-observable to an observable.

    If the residual I - total is negligible the family is already complete;
    otherwise the residual effect is adjoined under the reserved label.
    """
    residual = np.eye(a.dim) - a.total()
    if frobenius(residual) <= tol.eq_tol:
        return Observable(a.outcomes, a.effects)
    if EXTENSION_LABEL in a.outcomes:
        raise InvalidValueError(f"label {EXTENSION_LABEL!r} is reserved for the extension outcome")
    effects = dict(a.effects)
    effects[EXTENSION_LABEL] = residual
    return Observable(a.outcomes + (EXTENSION_LABEL,), effects)


def is_commuting(a: SubObservable, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Do all effects of the family commute with each other?"""
    return jointly_commuting([a], tol)


def jointly_commuting(observables: Sequence[SubObservable], tol: Tolerance = DEFAULT_TOL) -> bool:
    """Do all effects across all the families commute pairwise (a NaN norm does not)?

    This subsumes each family being commuting on its own.
    """
    mats = [o.effects[x] for o in observables for x in o.outcomes]
    return all(n <= tol.eq_tol for n in _commutator_norms(mats))
