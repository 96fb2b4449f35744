"""Second-order statistics of observables conditioned on an instrument.

Given an instrument (the *context*) and two real-valued observables B and C,
the conditioned stochastic operators B', C' determine a complex correlation,
its real part (covariance), variances, and the expected commutator.  One
``Moments`` record holds them all, and ``contextual_moments`` computes it
from one B', C'.  They satisfy an exact decomposition

    (1/4) |tr(rho [B', C'])|^2 + Cov^2 = |Cor|^2 <= Var(B) Var(C)

and uncertainty_report evaluates every term and the identity/inequality
residuals in one pass.

For the two canonical contexts (Lüders instrument of a sharp observable,
Holevo instrument) ``sharp_luders_moments`` and ``holevo_moments`` compute
the same record from closed forms, independently of the Kraus route, so the
two can be cross-checked field by field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .core import _zero_round_off
from .errors import DimMismatchError
from .instruments import Instrument, _update_states, condition_effect
from .linalg import DEFAULT_TOL, Tolerance, as_matrix, trace_product
from .observables import Observable, RealValuedObservable, stochastic_operator
from .serialize import complex_to_json

__all__ = [
    "conditioned_stochastic_operator",
    "contextual_expectation",
    "Moments",
    "contextual_moments",
    "contextual_correlation",
    "contextual_covariance",
    "contextual_variance",
    "commutator_trace",
    "UncertaintyReport",
    "uncertainty_report",
    "sharp_luders_moments",
    "holevo_moments",
]


class Moments(NamedTuple):
    """The second-order statistics of (B | A) and (C | A) at one state."""

    expectation_b: float
    correlation: complex
    covariance: float
    variance_b: float
    variance_c: float
    commutator_trace: complex


def conditioned_stochastic_operator(ins: Instrument, b: RealValuedObservable) -> np.ndarray:
    """Stochastic operator of (B | A): Btilde conditioned on the instrument.

    By linearity it equals the stochastic operator of the conditioned
    observable; the tests cross-check the two routes.
    """
    return condition_effect(stochastic_operator(b), ins)


def contextual_expectation(rho, ins: Instrument, b: RealValuedObservable) -> float:
    """E(B | A) at rho."""
    return trace_product(as_matrix(rho), conditioned_stochastic_operator(ins, b)).real


def contextual_moments(
    rho, ins: Instrument, b: RealValuedObservable, c: RealValuedObservable
) -> Moments:
    """The moments of (B | A) and (C | A) at rho, from one B' and one C'.

    Cor = tr(rho B' C') - E(B|A) E(C|A) (complex in general), Cov = Re Cor,
    Var(B|A) = tr(rho B'^2) - E(B|A)^2 (not clamped), and tr(rho [B', C'])
    (purely imaginary).
    """
    rho = as_matrix(rho)
    bp = conditioned_stochastic_operator(ins, b)
    cp = bp if c is b else conditioned_stochastic_operator(ins, c)
    eb = trace_product(rho, bp).real
    ec = trace_product(rho, cp).real
    cor = complex(trace_product(rho, bp @ cp) - eb * ec)
    return Moments(
        expectation_b=eb,
        correlation=cor,
        covariance=cor.real,
        variance_b=trace_product(rho, bp @ bp).real - eb * eb,
        variance_c=trace_product(rho, cp @ cp).real - ec * ec,
        commutator_trace=complex(trace_product(rho, bp @ cp - cp @ bp)),
    )


def contextual_correlation(
    rho, ins: Instrument, b: RealValuedObservable, c: RealValuedObservable
) -> complex:
    """Cor(B, C | A) at rho: tr(rho B' C') - E(B|A) E(C|A).  Complex in general."""
    return contextual_moments(rho, ins, b, c).correlation


def contextual_covariance(
    rho, ins: Instrument, b: RealValuedObservable, c: RealValuedObservable
) -> float:
    """Re Cor(B, C | A)."""
    return contextual_moments(rho, ins, b, c).covariance


def contextual_variance(rho, ins: Instrument, b: RealValuedObservable) -> float:
    """Var(B | A) = Cov(B, B | A); non-negative up to round-off (not clamped)."""
    return contextual_moments(rho, ins, b, b).variance_b


def commutator_trace(
    rho, ins: Instrument, b: RealValuedObservable, c: RealValuedObservable
) -> complex:
    """tr(rho [B', C']) over the conditioned stochastic operators; purely imaginary."""
    return contextual_moments(rho, ins, b, c).commutator_trace


@dataclass(frozen=True)
class UncertaintyReport:
    """Every term of the uncertainty decomposition at one (rho, context, B, C)."""

    correlation: complex
    covariance: float
    variance_b: float
    variance_c: float
    commutator_trace: complex
    identity_residual: float
    inequality_slack: float

    @classmethod
    def from_moments(cls, m: Moments, tol: Tolerance = DEFAULT_TOL) -> UncertaintyReport:
        """The decomposition's terms and residuals from one moments record.

        identity_residual is |(1/4)|tr(rho[B',C'])|^2 + Cov^2 - |Cor|^2| and
        vanishes identically; inequality_slack is Var(B) Var(C) - |Cor|^2 and is
        non-negative.  Variances whose round-off dips within eq_tol below zero
        are clamped to zero.
        """
        _, cor, cov, var_b, var_c, ct = m
        var_b, var_c = _zero_round_off(var_b, tol), _zero_round_off(var_c, tol)
        return cls(
            correlation=cor,
            covariance=float(cov),
            variance_b=float(var_b),
            variance_c=float(var_c),
            commutator_trace=ct,
            identity_residual=float(abs(0.25 * abs(ct) ** 2 + cov**2 - abs(cor) ** 2)),
            inequality_slack=float(var_b * var_c - abs(cor) ** 2),
        )

    def to_json(self) -> dict:
        return {
            "correlation": complex_to_json(self.correlation),
            "covariance": self.covariance,
            "variance_b": self.variance_b,
            "variance_c": self.variance_c,
            "commutator_trace": complex_to_json(self.commutator_trace),
            "identity_residual": self.identity_residual,
            "inequality_slack": self.inequality_slack,
        }


def uncertainty_report(
    rho, ins: Instrument, b: RealValuedObservable, c: RealValuedObservable,
    tol: Tolerance = DEFAULT_TOL,
) -> UncertaintyReport:
    """Evaluate the uncertainty decomposition and its residuals at rho (see ``from_moments``)."""
    return UncertaintyReport.from_moments(contextual_moments(rho, ins, b, c), tol)




# --- closed forms ------------------------------------------------------------


def sharp_luders_moments(
    rho, a: Observable, b: RealValuedObservable, c: RealValuedObservable
) -> Moments:
    """The moments under the Lüders instrument of a sharp observable A, in closed form.

    With rho_x = A_x rho A_x and Bt, Ct the stochastic operators of B and C:
    E(B|A) = sum_x tr(rho_x Bt); Cor = sum_x tr(rho_x Bt A_x Ct) - E(B|A) E(C|A);
    Cov and the variances are the symmetrized sums
    (1/2) sum_x tr[rho_x (Bt A_x Ct + Ct A_x Bt)] - E(B|A) E(C|A); and
    tr(rho [B', C']) = sum_x tr[rho_x (Bt A_x Ct - Ct A_x Bt)].
    Raises DimMismatchError unless rho is d x d.
    """
    rho = as_matrix(rho)
    if rho.shape != (a.dim, a.dim):
        raise DimMismatchError(f"expected a {a.dim}x{a.dim} state, got shape {rho.shape}")
    bt = stochastic_operator(b)
    ct = stochastic_operator(c)
    blocks = [(ax @ rho @ ax, ax) for ax in a.stack]
    eb = sum(trace_product(rx, bt).real for rx, _ in blocks)
    ec = sum(trace_product(rx, ct).real for rx, _ in blocks)

    def symmetrized(u, v):
        return sum(0.5 * trace_product(rx, u @ ax @ v + v @ ax @ u).real for rx, ax in blocks)

    first = sum(trace_product(rx, bt @ ax @ ct) for rx, ax in blocks)
    commutator = sum(trace_product(rx, bt @ ax @ ct - ct @ ax @ bt) for rx, ax in blocks)
    return Moments(
        expectation_b=float(eb),
        correlation=complex(first - eb * ec),
        covariance=float(symmetrized(bt, ct) - eb * ec),
        variance_b=float(symmetrized(bt, bt) - eb * eb),
        variance_c=float(symmetrized(ct, ct) - ec * ec),
        commutator_trace=complex(commutator),
    )


def holevo_moments(
    rho,
    a: Observable,
    alphas: Mapping[str, np.ndarray],
    b: RealValuedObservable,
    c: RealValuedObservable,
) -> Moments:
    """The moments under the Holevo instrument of A with update states alpha_x, in closed form.

    With weights tB(x) = tr(alpha_x Btilde), tC(x) likewise, and
    p_x = tr(rho A_x): E(B|A) = sum_x p_x tB(x), and over the pairs x, x':
    Cor = sum tB(x) tC(x') [tr(rho A_x A_x') - p_x p_x'];
    Cov and the variances take the symmetrized tr(rho (A_x A_x' + A_x' A_x))/2
    in place of tr(rho A_x A_x'); tr(rho [B', C']) = sum tB(x) tC(x') tr(rho [A_x, A_x']).
    Raises MissingAlphaError, as ``holevo_instrument`` does, when an outcome has no update state.
    """
    rho = as_matrix(rho)
    states = _update_states(a, alphas)
    bt = stochastic_operator(b)
    ct = stochastic_operator(c)
    tb = [trace_product(alpha, bt).real for alpha in states]
    tc = [trace_product(alpha, ct).real for alpha in states]
    px = [trace_product(rho, ax).real for ax in a.stack]
    cor = commutator = 0.0 + 0.0j
    cov = var_b = var_c = 0.0
    for i, ax in enumerate(a.stack):
        for j, ay in enumerate(a.stack):
            xy, yx = ax @ ay, ay @ ax
            pp = px[i] * px[j]
            sym = 0.5 * trace_product(rho, xy + yx).real
            cor += tb[i] * tc[j] * (trace_product(rho, xy) - pp)
            cov += tb[i] * tc[j] * (sym - pp)
            var_b += tb[i] * tb[j] * (sym - pp)
            var_c += tc[i] * tc[j] * (sym - pp)
            commutator += tb[i] * tc[j] * trace_product(rho, xy - yx)
    return Moments(
        expectation_b=float(sum(p * t for p, t in zip(px, tb))),
        correlation=complex(cor),
        covariance=float(cov),
        variance_b=float(var_b),
        variance_c=float(var_c),
        commutator_trace=complex(commutator),
    )
