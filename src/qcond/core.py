"""States and effects.

A state is a density matrix (PSD, unit trace); an effect is a Hermitian
matrix with spectrum inside [0, 1].  Both are plain complex ndarrays.
``prob`` also takes an (n, d, d) stack of states, or one state and a stack
of effects, and returns one probability per matrix of the stack.
Validation is explicit and diagnostic: ``validate_state`` / ``validate_effect``
return a list of :class:`Violation` records naming each broken invariant and
by how much, so callers (and the scene runner) can report precisely why an
object was rejected instead of getting a bare exception.  Every validator in
the package, and the scene loader, judges through one kernel, ``_judge``: it
takes an (n, d, d) stack with a test per row (state, effect, measured effect,
total, identity) and runs the finite screen, the Hermitian defect, one
spectrum and the bounds over all rows at once, each row's verdict equal to
one judged alone.  ``_judged`` groups blocks of rows by dimension, one
kernel call each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _hermitian_defect,
    _spectrum,
    as_matrix,
    dagger,
    frobenius,
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


#: The row tests of ``_judge`` that read the top of the spectrum, and the invariant each names.
_CEILINGS = {"effect": "below-identity", "kraus": "kraus-trace-bound", "total": "total-below-identity"}


def _judge(stack: np.ndarray, tests, tol: Tolerance) -> dict[int, list[Violation]]:
    """The violations of the rows of an (n, d, d) stack, row i judged by the test tests[i].

    - "state": finite, Hermitian, spectrum at least 0, unit trace;
    - "effect": finite, Hermitian, spectrum inside [0, 1];
    - "kraus": a measured effect M*M: finite, spectrum at most 1 (the Kraus trace bound);
    - "total": a sub-observable's total: spectrum at most 1, not judged when it
      is not finite (its effects then are not);
    - "total-is-identity", "bar-channel": Frobenius distance to I within
      eq_tol (a NaN distance is not judged, as above).

    Returns each row that breaks an invariant, by index, with its
    violations in that order.  A state, effect or measured effect that is
    not finite reports "finite" alone, and a non-Hermitian effect
    "hermitian" alone (a state also its trace).  The spectra come from one
    ``_spectrum`` of the rows that reach a spectrum test, equal bit for bit
    to one call per row; a Hermitian part past the float64 limit has NaN
    eigenvalues there, which break every bound.  A Frobenius norm, screened
    over the stack, is taken again as ``frobenius`` of the row wherever it
    may break its bound, so each verdict and magnitude is the one a
    per-matrix check gives.
    """
    tests = np.asarray(tests)
    state, effect, kraus = tests == "state", tests == "effect", tests == "kraus"
    sided, ceiling = state | effect, effect | kraus | (tests == "total")
    identity = ~(sided | ceiling)
    finite = np.isfinite(stack).all(axis=(1, 2))
    n = len(stack)
    defect, distance, trace_dev, low, high = np.zeros((5, n))
    with np.errstate(invalid="ignore"):  # rows that are not finite, never judged on these
        if (rows := np.flatnonzero(finite & sided)).size:
            defect[rows] = _frobenius_rows(stack[rows] - dagger(stack[rows]), tol.eq_tol)
        if (rows := np.flatnonzero(identity)).size:
            distance[rows] = _frobenius_rows(stack[rows] - np.eye(stack.shape[-1]), tol.eq_tol)
        if (rows := np.flatnonzero(finite & state)).size:
            trace_dev[rows] = np.abs(np.trace(stack[rows], axis1=1, axis2=2) - 1.0)
    hermitian = ~sided | (defect <= tol.eq_tol)
    spectral = finite & hermitian & ~identity
    if spectral.any():
        w = _spectrum(stack[spectral])
        low[spectral], high[spectral] = w[:, 0], w[:, -1]
    screened = finite | ~(sided | kraus)
    below = spectral & sided & ~(low >= -tol.psd_tol)
    above = spectral & ceiling & ~(high <= 1.0 + tol.psd_tol)
    off_trace = trace_dev > tol.eq_tol
    off_identity = distance > tol.eq_tol
    out: dict[int, list[Violation]] = {}
    for i in np.flatnonzero(~screened | ~hermitian | below | above | off_trace | off_identity).tolist():
        if not screened[i]:
            out[i] = [Violation("finite", float("inf"))]
            continue
        row = out[i] = []
        if not hermitian[i]:
            row.append(Violation("hermitian", float(defect[i])))
        if below[i]:
            row.append(Violation("positive", float(-low[i])))
        if above[i]:
            row.append(Violation(_CEILINGS[tests[i]], float(high[i] - 1.0)))
        if off_trace[i]:
            row.append(Violation("unit-trace", float(trace_dev[i])))
        if off_identity[i]:
            row.append(Violation(str(tests[i]), float(distance[i])))
    return out


def _frobenius_rows(x: np.ndarray, bound: float) -> np.ndarray:
    """The Frobenius norm of each matrix of the stack x, ``frobenius``'s own where it matters.

    One stacked norm screens the stack; a matrix whose screened norm is not
    below bound / 2 (far more than the last-bit gap between the two sums) is
    taken again with ``frobenius``, which the bound is judged on.
    """
    norms = np.linalg.norm(x, axis=(1, 2))
    for i in np.flatnonzero(~(norms <= bound / 2)).tolist():
        norms[i] = frobenius(x[i])
    return norms


def _judged(groups, tol: Tolerance) -> list[list[Violation]]:
    """Each group's violations, from one ``_judge`` call per dimension over every group's rows.

    A group is a list of blocks ``(stack, test, names)``: an (n, d, d)
    stack, the test of all its rows and each row's name, which prefixes its
    violations' invariants (None: no prefix).  A group may mix dimensions;
    its violations keep block and row order.
    """
    blocks = [(g, *block) for g, group in enumerate(groups) for block in group]
    by_dim: dict[int, list[int]] = {}
    for b, (_, stack, _, _) in enumerate(blocks):
        by_dim.setdefault(stack.shape[-1], []).append(b)
    found = {}  # (block, row) -> the row's violations
    for members in by_dim.values():
        sizes = [len(blocks[b][1]) for b in members]
        tests = np.repeat([blocks[b][2] for b in members], sizes)
        starts = np.cumsum([0] + sizes)
        for i, row in _judge(np.concatenate([blocks[b][1] for b in members]), tests, tol).items():
            at = int(np.searchsorted(starts, i, side="right")) - 1
            found[members[at], i - int(starts[at])] = row
    out: list[list[Violation]] = [[] for _ in groups]
    for b, i in sorted(found):
        g, _, _, names = blocks[b]
        out[g] += [Violation(("" if names is None else names[i]) + v.invariant, v.magnitude) for v in found[b, i]]
    return out


def validate_state(rho, tol: Tolerance = DEFAULT_TOL) -> list[Violation]:
    """Check finiteness, Hermiticity, positivity and unit trace; empty list means valid."""
    return _judge(as_matrix(rho)[None], ["state"], tol).get(0, [])


def validate_effect(a, tol: Tolerance = DEFAULT_TOL) -> list[Violation]:
    """Check finiteness, Hermiticity and that the spectrum sits in [0, 1]."""
    return _judge(as_matrix(a)[None], ["effect"], tol).get(0, [])


def _per_state(values):
    """A float for one state's value (a 0-d array), the (n,) array itself for a stack's."""
    return float(values) if values.ndim == 0 else values


def _zero_round_off(x, tol: Tolerance):
    """x with values in [-eq_tol, 0) set to 0.0, by arithmetic alone (a float stays a float)."""
    return x * ((x >= 0.0) | (x < -tol.eq_tol)) + 0.0


def prob(rho, a, tol: Tolerance = DEFAULT_TOL):
    """Outcome probability tr(rho a), clamping round-off negatives in [-eq_tol, 0) to 0.

    rho is one state, giving a float, or an (n, d, d) stack of states, giving
    the (n,) array of their probabilities from one contraction, as one state
    does against an (n, d, d) stack of effects (its distribution).
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
    if _hermitian_defect(a, tol) is not None:
        return False
    w = _spectrum(a)
    return bool(abs(w[-1] - 1.0) <= tol.eq_tol and np.all(np.abs(w[:-1]) <= tol.eq_tol))
