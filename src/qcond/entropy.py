"""Measurement entropies of effects and observables (natural log, nats).

The entropy of effect a at state rho is -p ln(p / t) with p = tr(rho a) and
t = tr(a).  Since p <= t it is non-negative, and a term below -eq_tol (a not
an effect) is returned as it is.  Conventions at the boundary: a term with
p <= eq_tol contributes 0 (the p -> 0 limit), and an effect with t <= eq_tol
contributes 0.  The three effect entropies take one state (a
float result) or an (n, d, d) stack of states (one value per state); their
probabilities go through the dual, so a stack costs one dual_apply.

Two inequivalent conditionings exist for observables.  The *double-bar*
entropy substitutes the bar-channel image of the state into the plain
observable entropy and therefore chains exactly under instrument
composition.  The *single-bar* entropy sums the effect entropies of the
conditioned observable; it keeps the transported traces in the denominators,
does not chain, and can land on either side of the double-bar value.
"""

from __future__ import annotations

import numpy as np

from .core import _per_state, _zero_round_off, prob
from .instruments import Instrument, condition_state
from .linalg import DEFAULT_TOL, Tolerance, as_matrix
from .operations import Operation, _kraus_sum, dual_apply

__all__ = [
    "effect_entropy",
    "sequential_entropy",
    "conditional_effect_entropy",
    "sequential_entropy_dominated",
    "observable_entropy",
    "conditional_observable_entropy_double",
    "conditional_observable_entropy_single",
]


def _term(p, t: float, tol: Tolerance):
    """-p ln(p/t) for each probability p (a float or an (n,) array), 0 at the boundaries.

    Only round-off negatives within eq_tol become 0: a larger one means p > t.
    """
    live = (p > tol.eq_tol) & (t > tol.eq_tol)
    t = max(t, tol.eq_tol)  # a dead term's ratio is then 1, its log 0
    h = -p * np.log(np.where(live, p, t) / t)
    return _per_state(_zero_round_off(h * live, tol))


def effect_entropy(rho, a, tol: Tolerance = DEFAULT_TOL):
    """-p ln(p/t) with p = tr(rho a), t = tr(a)."""
    a = as_matrix(a)
    return _term(prob(rho, a, tol), float(np.trace(a).real), tol)


def sequential_entropy(rho, op: Operation, b, tol: Tolerance = DEFAULT_TOL):
    """Entropy of the sequential effect "op's effect, then b" at rho.

    Identical numerator to the conditional entropy but the denominator is
    the trace of the transported effect.
    """
    return effect_entropy(rho, dual_apply(op, as_matrix(b)), tol)


def conditional_effect_entropy(rho, op: Operation, b, tol: Tolerance = DEFAULT_TOL):
    """Entropy of b in the (unnormalized) post-measurement state op(rho).

    Its probability tr[op(rho) b] is taken through the dual, tr[rho dual(b)].
    """
    b = as_matrix(b)
    return _term(prob(rho, dual_apply(op, b), tol), float(np.trace(b).real), tol)


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
    """Single-bar conditioning: summed effect entropies of the conditioned observable.

    B's effects go through the instrument's total dual as one stack, as
    ``condition_observable`` transports them, each equal bit for bit to its
    ``condition_effect``.
    """
    rho = as_matrix(rho)
    return float(sum(effect_entropy(rho, m, tol) for m in _kraus_sum(ins.kraus, b.stack, dual=True)))
