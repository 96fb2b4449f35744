"""States and effects.

A state is a density matrix (PSD, unit trace); an effect is a Hermitian
matrix with spectrum inside [0, 1].  Both are plain complex ndarrays.
``prob`` also takes an (n, d, d) stack of states and returns one
probability per state.
Validation is explicit and diagnostic: ``validate_state`` / ``validate_effect``
return a list of :class:`Violation` records naming each broken invariant and
by how much, so callers (and the scene runner) can report precisely why an
object was rejected instead of getting a bare exception.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _hermitian_defect,
    as_matrix,
    dagger,
    frobenius,
    is_hermitian,
    loewner_leq,
    trace_product,
)

__all__ = [
    "Violation",
    "validate_state",
    "validate_effect",
    "prob",
    "complement",
    "perp",
    "is_sharp",
    "is_atomic",
]


@dataclass(frozen=True)
class Violation:
    """One broken invariant: which one, and the size of the breach."""

    invariant: str
    magnitude: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.invariant} (by {self.magnitude:.3e})"


def _hermitian_violation(m: np.ndarray, tol: Tolerance) -> list[Violation]:
    dev = _hermitian_defect(m, tol)
    return [] if dev is None else [Violation("hermitian", dev)]


def validate_state(rho, tol: Tolerance = DEFAULT_TOL) -> list[Violation]:
    """Check Hermiticity, positivity and unit trace; empty list means valid."""
    rho = as_matrix(rho)
    out = []
    if not np.all(np.isfinite(rho.view(np.float64))):
        return [Violation("finite", float("inf"))]
    out += _hermitian_violation(rho, tol)
    if not out:
        lo = float(np.linalg.eigvalsh((rho + dagger(rho)) / 2.0)[0])
        if lo < -tol.psd_tol:
            out.append(Violation("positive", -lo))
    tr_dev = abs(complex(np.trace(rho)) - 1.0)
    if tr_dev > tol.eq_tol:
        out.append(Violation("unit-trace", float(tr_dev)))
    return out


def validate_effect(a, tol: Tolerance = DEFAULT_TOL) -> list[Violation]:
    """Check Hermiticity and that the spectrum sits in [0, 1]."""
    a = as_matrix(a)
    out = []
    if not np.all(np.isfinite(a.view(np.float64))):
        return [Violation("finite", float("inf"))]
    out += _hermitian_violation(a, tol)
    if not out:
        w = np.linalg.eigvalsh((a + dagger(a)) / 2.0)
        if w[0] < -tol.psd_tol:
            out.append(Violation("positive", float(-w[0])))
        if w[-1] > 1.0 + tol.psd_tol:
            out.append(Violation("below-identity", float(w[-1] - 1.0)))
    return out


def _per_state(values):
    """A float for one state's value (a 0-d array), the (n,) array itself for a stack's."""
    return float(values) if values.ndim == 0 else values


def _zero_round_off(x, tol: Tolerance):
    """x with values in [-eq_tol, 0) set to 0.0, by arithmetic alone (a float stays a float)."""
    return x * ((x >= 0.0) | (x < -tol.eq_tol)) + 0.0


def prob(rho, a, tol: Tolerance = DEFAULT_TOL):
    """Outcome probability tr(rho a), clamping round-off negatives in [-eq_tol, 0) to 0.

    rho is one state, giving a float, or an (n, d, d) stack of states, giving
    the (n,) array of their probabilities from one contraction.
    """
    return _zero_round_off(trace_product(rho, a).real, tol)


def complement(a) -> np.ndarray:
    """The complementary effect I - a."""
    a = as_matrix(a)
    return np.eye(a.shape[0], dtype=np.complex128) - a


def perp(a, b, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Are a and b summable to an effect (a + b <= I)?"""
    a = as_matrix(a)
    b = as_matrix(b)
    return loewner_leq(a + b, np.eye(a.shape[0]), tol)


def is_sharp(a, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Sharp means projection: ||a @ a - a|| within eq_tol."""
    a = as_matrix(a)
    return bool(frobenius(a @ a - a) <= tol.eq_tol)


def is_atomic(a, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Atomic means rank-one projection: spectrum is one 1 and the rest 0."""
    a = as_matrix(a)
    if not is_hermitian(a, tol):
        return False
    w = np.linalg.eigvalsh((a + dagger(a)) / 2.0)
    return bool(abs(w[-1] - 1.0) <= tol.eq_tol and np.all(np.abs(w[:-1]) <= tol.eq_tol))
