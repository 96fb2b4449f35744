"""Measurement entropies of effects and observables (natural log, nats).

The entropy of effect a at state rho is -p ln(p / t) with p = tr(rho a) and
t = tr(a).  Since p <= t it is non-negative, and a term below -eq_tol (a not
an effect) is returned as it is.  Conventions at the boundary: a term with
p <= eq_tol contributes 0 (the p -> 0 limit), and an effect with t <= eq_tol
contributes 0.  The three effect entropies take one state (a float result)
or an (n, d, d) stack of states (one value each) for one dual_apply, and an
observable's entropy is one ``_term`` over its effect stack, summed in order.

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
from .instruments import Instrument, condition_observable, condition_state
from .linalg import DEFAULT_TOL, Tolerance, as_matrix
from .operations import Operation, dual_apply

__all__ = [
    "effect_entropy",
    "sequential_entropy",
    "conditional_effect_entropy",
    "sequential_entropy_dominated",
    "observable_entropy",
    "conditional_observable_entropy_double",
    "conditional_observable_entropy_single",
]


def _term(p, t, tol: Tolerance):
    """-p ln(p/t) for each probability p over its trace t (each a float or an (n,) array), 0 at the boundaries.

    Only round-off negatives within eq_tol become 0: a larger one means p > t.
    """
    live = (p > tol.eq_tol) & (t > tol.eq_tol)
    # a dead term's ratio is then 1, its log 0; a float keeps Python's max, not numpy's
    t = np.maximum(t, tol.eq_tol) if isinstance(t, np.ndarray) else max(t, tol.eq_tol)
    h = -p * np.log(np.where(live, p, t) / t)
    return _per_state(_zero_round_off(h * live, tol))


def effect_entropy(rho, a, tol: Tolerance = DEFAULT_TOL):
    """-p ln(p/t) with p = tr(rho a), t = tr(a)."""
    a = as_matrix(a)
    return _term(prob(rho, a, tol), float(np.trace(a).real), tol)


def _entropies(rho, transported: np.ndarray, b: np.ndarray, tol: Tolerance = DEFAULT_TOL):
    """Sequential and conditional entropy of b at rho (or each state of a stack), transported = dual(b)."""
    p = prob(rho, transported, tol)
    return _term(p, float(np.trace(transported).real), tol), _term(p, float(np.trace(b).real), tol)


def sequential_entropy(rho, op: Operation, b, tol: Tolerance = DEFAULT_TOL):
    """Entropy of the sequential effect "op's effect, then b" at rho."""
    b = as_matrix(b)
    return _entropies(rho, dual_apply(op, b), b, tol)[0]


def conditional_effect_entropy(rho, op: Operation, b, tol: Tolerance = DEFAULT_TOL):
    """Entropy of b in the (unnormalized) post-measurement state op(rho)."""
    b = as_matrix(b)
    return _entropies(rho, dual_apply(op, b), b, tol)[1]


def _entropy_gap(rho, transported: np.ndarray, b: np.ndarray, tol: Tolerance = DEFAULT_TOL):
    """Sequential minus conditional entropy of b at rho (or each state of a stack); transported is dual(b)."""
    sequential, conditional = _entropies(rho, transported, b, tol)
    return sequential - conditional


def _dominated(transported: np.ndarray, b: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """``sequential_entropy_dominated`` from b and its image under the operation's dual."""
    return bool(float(np.trace(transported).real) <= float(np.trace(b).real) + tol.eq_tol)


def sequential_entropy_dominated(op: Operation, b, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Does sequential entropy stay below conditional entropy for *every* state?

    True exactly when tr(dual(b)) <= tr(b): the two entropies share their
    numerator, and the entropy term grows with the denominator trace.
    """
    b = as_matrix(b)
    return _dominated(dual_apply(op, b), b, tol)


def observable_entropy(rho, b, tol: Tolerance = DEFAULT_TOL) -> float:
    """Sum of the effect entropies over the outcome set, added in outcome order by Python's sum."""
    terms = _term(prob(as_matrix(rho), b.stack, tol), np.trace(b.stack, axis1=1, axis2=2).real, tol)
    return float(sum(terms.tolist()))


def conditional_observable_entropy_double(
    rho, ins: Instrument, b, tol: Tolerance = DEFAULT_TOL
) -> float:
    """Double-bar conditioning: the plain entropy of B at the bar-channel image."""
    return observable_entropy(condition_state(rho, ins), b, tol)


def conditional_observable_entropy_single(
    rho, ins: Instrument, b, tol: Tolerance = DEFAULT_TOL
) -> float:
    """Single-bar conditioning: the summed effect entropies of the conditioned observable (B | A)."""
    return observable_entropy(rho, condition_observable(b, ins), tol)
