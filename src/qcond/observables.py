"""Observables: finite effect-valued measures on a labelled outcome set.

A :class:`SubObservable` is a family of effects summing to at most the
identity; an :class:`Observable` sums to the identity exactly (within
tolerance).  Outcome labels are strings and keep their declared order, so
every derived quantity (distributions, stochastic operators, serialized
reports) is deterministic.

A family holds its effects once, as one read-only (n, d, d) stack in outcome
order, as an instrument holds its Kraus operators: ``effects[x]`` is a view
of outcome x's row, and every kernel that maps over the family reads the
stack.  A :class:`RealValuedObservable` is an Observable that also carries a
real value per outcome; it shares the stack of the observable it is built
from, so a family can be re-valued without rebuilding it.  Its expectations
are the probability forms applied to sum_y y B_y, which it builds once, on
first use.  The stack and the values are read-only (and ``effects`` and
``values`` are read-only mappings), so that cache cannot go stale.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import math

import numpy as np

from .core import Violation, prob, validate_effect
from .errors import DimMismatchError, InvalidTypeError, InvalidValueError, UnknownLabelError
from .linalg import (
    DEFAULT_TOL, Tolerance, _commutator_norms, _spectrum, _square_matrix, as_matrix, frobenius, trace_product,
)
from .operations import Operation, _conditional, dual_apply

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


def _outcome_family(
    outcomes: Sequence[str], members, what: str, read: Callable
) -> tuple[tuple[str, ...], list]:
    """The labels and, in label order, each label's member as ``read`` returns it.

    The rules every outcome family shares: members a mapping keyed exactly by
    at least one unique label, and of one dimension (the last axis of what
    ``read`` returns).  ``what`` names the members in the errors.
    """
    if not isinstance(members, Mapping):
        raise InvalidTypeError(f"{what} must be a mapping keyed by the outcome labels")
    labels = tuple(str(x) for x in outcomes)
    if not labels:
        raise InvalidValueError("a family needs at least one outcome")
    if len(set(labels)) != len(labels):
        raise InvalidValueError("outcome labels must be unique")
    if set(labels) != set(members.keys()):
        raise UnknownLabelError(f"{what} must be keyed exactly by the outcome labels")
    read_members = [read(members[x]) for x in labels]
    dims = {m.shape[-1] for m in read_members}
    if len(dims) != 1:
        raise DimMismatchError(f"{what} have mixed dimensions {sorted(dims)}")
    return labels, read_members


@dataclass(frozen=True, eq=False)
class SubObservable:
    """Ordered outcome labels with one effect per label (sum <= I), over one effect stack.

    ``stack`` is the read-only (n, d, d) complex128 array of the effects in
    outcome order, and ``effects[x]`` is a view of outcome x's row of it, in
    a read-only mapping.  The constructor reads each effect as a square
    matrix and copies the effects once, into the stack.
    """

    outcomes: tuple[str, ...]
    stack: np.ndarray = field(repr=False)
    effects: Mapping[str, np.ndarray] = field(repr=False)

    def __init__(self, outcomes: Sequence[str], effects: Mapping[str, np.ndarray]) -> None:
        labels, mats = _outcome_family(outcomes, effects, "effects", _square_matrix)
        self._hold(labels, np.array(mats))

    @classmethod
    def _adopt(cls, labels: Sequence[str], stack: np.ndarray) -> SubObservable:
        """Wrap an (n, d, d) complex128 stack the caller has just built, without copying it.

        Row i is the effect of labels[i].
        """
        a = cls.__new__(cls)
        a._hold(tuple(labels), stack)
        return a

    def _hold(self, labels: tuple[str, ...], stack: np.ndarray) -> None:
        stack.setflags(write=False)  # before the row views are taken, so they are read-only too
        object.__setattr__(self, "outcomes", labels)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "effects", MappingProxyType(dict(zip(labels, stack))))

    @property
    def dim(self) -> int:
        return self.stack.shape[-1]

    def total(self) -> np.ndarray:
        """Sum of all effects.

        Python's sum adds the stack's rows one by one in outcome order,
        starting from 0 (so a -0.0 entry comes out as 0.0), whatever order
        numpy's own reductions choose.
        """
        return sum(self.stack)


class Observable(SubObservable):
    """A sub-observable whose effects sum to the identity."""


@dataclass(frozen=True, eq=False)
class RealValuedObservable(Observable):
    """An observable with a real value per outcome, sharing the given observable's stack."""

    values: Mapping[str, float]

    def __init__(self, observable: Observable, values: Mapping[str, float]) -> None:
        if not isinstance(observable, Observable):
            raise InvalidTypeError("values are attached to an Observable")
        if set(values) != set(observable.outcomes):
            raise UnknownLabelError("values must be keyed exactly by the outcome labels")
        vals = {}
        for x in observable.outcomes:
            try:
                vals[x] = float(values[x])
            except ValueError:
                raise InvalidValueError(f"value for outcome {x!r} is not a number") from None
            except TypeError:
                raise InvalidTypeError(f"value for outcome {x!r} is not a number") from None
            if not math.isfinite(vals[x]):
                raise InvalidValueError(f"value for outcome {x!r} is not finite")
        object.__setattr__(self, "outcomes", observable.outcomes)
        object.__setattr__(self, "stack", observable.stack)
        object.__setattr__(self, "effects", observable.effects)
        object.__setattr__(self, "values", MappingProxyType(vals))

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
    w = _spectrum(total)
    if not w[-1] <= 1.0 + tol.psd_tol:  # NaN breaks it too
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
    return _conditional(rho, op.effect, dual_apply(op, stochastic_operator(b)), tol)


def minimal_extension(a: SubObservable, tol: Tolerance = DEFAULT_TOL) -> Observable:
    """Complete a sub-observable to an observable.

    If the residual I - total is negligible the family is already complete;
    otherwise the residual effect is adjoined under the reserved label.
    """
    residual = np.eye(a.dim) - a.total()
    if frobenius(residual) <= tol.eq_tol:
        return Observable._adopt(a.outcomes, a.stack)
    if EXTENSION_LABEL in a.outcomes:
        raise InvalidValueError(f"label {EXTENSION_LABEL!r} is reserved for the extension outcome")
    return Observable._adopt(a.outcomes + (EXTENSION_LABEL,), np.concatenate([a.stack, residual[None]]))


def is_commuting(a: SubObservable, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Do all effects of the family commute with each other?"""
    return jointly_commuting([a], tol)


def jointly_commuting(observables: Sequence[SubObservable], tol: Tolerance = DEFAULT_TOL) -> bool:
    """Do all effects across all the families commute pairwise (a NaN norm does not)?

    This subsumes each family being commuting on its own.
    """
    mats = [m for o in observables for m in o.stack]
    return all(n <= tol.eq_tol for n in _commutator_norms(mats))
