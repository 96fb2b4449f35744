"""Measurement entropies of effects and observables (natural log, nats).

The entropy of effect a at state rho is -p ln(p / t) with p = tr(rho a) and
t = tr(a).  Since p <= t it is non-negative.  Conventions at the boundary:
a term with p <= eq_tol contributes 0 (the p -> 0 limit), and an effect with
t <= eq_tol contributes 0.

Two inequivalent conditionings exist for observables.  The *double-bar*
entropy substitutes the bar-channel image of the state into the plain
observable entropy and therefore chains exactly under instrument
composition.  The *single-bar* entropy sums the effect entropies of the
conditioned observable; it keeps the transported traces in the denominators,
does not chain, and can land on either side of the double-bar value.
"""

from __future__ import annotations

import math

import numpy as np

from .core import prob
from .instruments import Instrument, condition_effect, condition_state
from .linalg import DEFAULT_TOL, Tolerance, as_matrix
from .operations import Operation, apply, dual_apply

__all__ = [
    "effect_entropy",
    "sequential_entropy",
    "conditional_effect_entropy",
    "sequential_entropy_dominated",
    "observable_entropy",
    "conditional_observable_entropy_double",
    "conditional_observable_entropy_single",
]


def _term(p: float, t: float, tol: Tolerance) -> float:
    if t <= tol.eq_tol or p <= tol.eq_tol:
        return 0.0
    return max(0.0, -p * math.log(p / t))


def effect_entropy(rho, a, tol: Tolerance = DEFAULT_TOL) -> float:
    """-p ln(p/t) with p = tr(rho a), t = tr(a)."""
    a = as_matrix(a)
    p = prob(as_matrix(rho), a, tol)
    t = float(np.trace(a).real)
    return _term(p, t, tol)


def sequential_entropy(rho, op: Operation, b, tol: Tolerance = DEFAULT_TOL) -> float:
    """Entropy of the sequential effect "op's effect, then b" at rho.

    Identical numerator to the conditional entropy but the denominator is
    the trace of the transported effect.
    """
    return effect_entropy(rho, dual_apply(op, as_matrix(b)), tol)


def conditional_effect_entropy(rho, op: Operation, b, tol: Tolerance = DEFAULT_TOL) -> float:
    """Entropy of b in the (unnormalized) post-measurement state op(rho)."""
    b = as_matrix(b)
    p = prob(apply(op, as_matrix(rho)), b, tol)
    t = float(np.trace(b).real)
    return _term(p, t, tol)


def sequential_entropy_dominated(op: Operation, b, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Does sequential entropy stay below conditional entropy for *every* state?

    True exactly when tr(dual(b)) <= tr(b): the two entropies share their
    numerator, and the entropy term grows with the denominator trace.
    """
    b = as_matrix(b)
    t_seq = float(np.trace(dual_apply(op, b)).real)
    return bool(t_seq <= float(np.trace(b).real) + tol.eq_tol)


def observable_entropy(rho, b, tol: Tolerance = DEFAULT_TOL) -> float:
    """Sum of the effect entropies over the outcome set."""
    rho = as_matrix(rho)
    return float(sum(effect_entropy(rho, b.effects[y], tol) for y in b.outcomes))


def conditional_observable_entropy_double(
    rho, ins: Instrument, b, tol: Tolerance = DEFAULT_TOL
) -> float:
    """Double-bar conditioning: the plain entropy of B at the bar-channel image."""
    return observable_entropy(condition_state(rho, ins), b, tol)


def conditional_observable_entropy_single(
    rho, ins: Instrument, b, tol: Tolerance = DEFAULT_TOL
) -> float:
    """Single-bar conditioning: summed effect entropies of the conditioned observable."""
    rho = as_matrix(rho)
    return float(
        sum(effect_entropy(rho, condition_effect(b.effects[y], ins), tol) for y in b.outcomes)
    )
