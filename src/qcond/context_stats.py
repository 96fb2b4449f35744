"""Second-order statistics of observables conditioned on an instrument.

Given an instrument (the *context*) and two real-valued observables B and C,
the conditioned stochastic operators determine a complex correlation, its
real part (covariance), variances, and the expected commutator.  These
satisfy an exact decomposition

    (1/4) |tr(rho [B', C'])|^2 + Cov^2 = |Cor|^2 <= Var(B) Var(C)

where B', C' are the conditioned stochastic operators; uncertainty_report
evaluates every term and the identity/inequality residuals in one pass.

The closed forms for the two canonical contexts (Lüders instrument of a sharp
observable, Holevo instrument) are implemented independently of the generic
path so the two can be cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .instruments import Instrument, bar_channel
from .linalg import DEFAULT_TOL, Tolerance, as_matrix, trace_product
from .observables import Observable, RealValuedObservable, stochastic_operator
from .operations import dual_apply

__all__ = [
    "conditioned_stochastic_operator",
    "contextual_expectation",
    "contextual_correlation",
    "contextual_covariance",
    "contextual_variance",
    "commutator_trace",
    "UncertaintyReport",
    "uncertainty_report",
    "sharp_luders_expectation",
    "sharp_luders_correlation",
    "sharp_luders_covariance",
    "sharp_luders_variance",
    "sharp_luders_commutator_trace",
    "holevo_expectation",
    "holevo_correlation",
    "holevo_covariance",
    "holevo_variance",
    "holevo_commutator_trace",
]


def conditioned_stochastic_operator(ins: Instrument, b: RealValuedObservable) -> np.ndarray:
    """Stochastic operator of (B | A): the dual of the bar channel on Btilde.

    By linearity it equals the stochastic operator of the conditioned
    observable; the tests cross-check the two routes.
    """
    return dual_apply(bar_channel(ins), stochastic_operator(b))


def contextual_expectation(rho, ins: Instrument, b: RealValuedObservable) -> float:
    """E(B | A) at rho."""
    return trace_product(as_matrix(rho), conditioned_stochastic_operator(ins, b)).real


def _moments(rho, ins: Instrument, b: RealValuedObservable, c: RealValuedObservable) -> tuple:
    """(Cor(B, C | A), tr(rho [B', C']), Var(B | A), Var(C | A)) from one B', C'."""
    rho = as_matrix(rho)
    bp = conditioned_stochastic_operator(ins, b)
    cp = bp if c is b else conditioned_stochastic_operator(ins, c)
    eb = trace_product(rho, bp).real
    ec = trace_product(rho, cp).real
    cor = complex(trace_product(rho, bp @ cp) - eb * ec)
    ct = complex(trace_product(rho, bp @ cp - cp @ bp))
    var_b = trace_product(rho, bp @ bp).real - eb * eb
    var_c = trace_product(rho, cp @ cp).real - ec * ec
    return cor, ct, var_b, var_c


def contextual_correlation(
    rho, ins: Instrument, b: RealValuedObservable, c: RealValuedObservable
) -> complex:
    """Cor(B, C | A) at rho: tr(rho B' C') - E(B|A) E(C|A).  Complex in general."""
    return _moments(rho, ins, b, c)[0]


def contextual_covariance(
    rho, ins: Instrument, b: RealValuedObservable, c: RealValuedObservable
) -> float:
    """Re Cor(B, C | A)."""
    return _moments(rho, ins, b, c)[0].real


def contextual_variance(rho, ins: Instrument, b: RealValuedObservable) -> float:
    """Var(B | A) = Cov(B, B | A); non-negative up to round-off (not clamped)."""
    return _moments(rho, ins, b, b)[2]


def commutator_trace(
    rho, ins: Instrument, b: RealValuedObservable, c: RealValuedObservable
) -> complex:
    """tr(rho [B', C']) over the conditioned stochastic operators; purely imaginary."""
    return _moments(rho, ins, b, c)[1]


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

    def to_json(self) -> dict:
        return {
            "correlation": [self.correlation.real, self.correlation.imag],
            "covariance": self.covariance,
            "variance_b": self.variance_b,
            "variance_c": self.variance_c,
            "commutator_trace": [self.commutator_trace.real, self.commutator_trace.imag],
            "identity_residual": self.identity_residual,
            "inequality_slack": self.inequality_slack,
        }


def uncertainty_report(
    rho, ins: Instrument, b: RealValuedObservable, c: RealValuedObservable,
    tol: Tolerance = DEFAULT_TOL,
) -> UncertaintyReport:
    """Evaluate the uncertainty decomposition and its residuals at rho.

    identity_residual is |(1/4)|tr(rho[B',C'])|^2 + Cov^2 - |Cor|^2| and
    vanishes identically; inequality_slack is Var(B) Var(C) - |Cor|^2 and is
    non-negative.  Variances whose round-off dips within eq_tol below zero
    are clamped to zero.
    """
    cor, ct, var_b, var_c = _moments(rho, ins, b, c)
    cov = cor.real
    if -tol.eq_tol <= var_b < 0.0:
        var_b = 0.0
    if -tol.eq_tol <= var_c < 0.0:
        var_c = 0.0
    identity_residual = abs(0.25 * abs(ct) ** 2 + cov**2 - abs(cor) ** 2)
    inequality_slack = var_b * var_c - abs(cor) ** 2
    return UncertaintyReport(
        correlation=cor,
        covariance=float(cov),
        variance_b=float(var_b),
        variance_c=float(var_c),
        commutator_trace=ct,
        identity_residual=float(identity_residual),
        inequality_slack=float(inequality_slack),
    )


# --- closed forms: Lüders instrument of a sharp observable ------------------


def _blocks(rho: np.ndarray, a: Observable) -> dict[str, np.ndarray]:
    return {x: a.effects[x] @ rho @ a.effects[x] for x in a.outcomes}


def sharp_luders_expectation(rho, a: Observable, b: RealValuedObservable) -> float:
    """sum_x tr(rho_x Btilde) with rho_x = A_x rho A_x."""
    rho = as_matrix(rho)
    bt = stochastic_operator(b)
    return float(sum(trace_product(rx, bt).real for rx in _blocks(rho, a).values()))


def sharp_luders_correlation(
    rho, a: Observable, b: RealValuedObservable, c: RealValuedObservable
) -> complex:
    """sum_x tr(rho_x Btilde A_x Ctilde) - E(B|A) E(C|A)."""
    rho = as_matrix(rho)
    bt = stochastic_operator(b)
    ct = stochastic_operator(c)
    blocks = _blocks(rho, a)
    first = sum(
        trace_product(blocks[x], bt @ a.effects[x] @ ct) for x in a.outcomes
    )
    eb = sum(trace_product(rx, bt).real for rx in blocks.values())
    ec = sum(trace_product(rx, ct).real for rx in blocks.values())
    return complex(first - eb * ec)


def sharp_luders_covariance(
    rho, a: Observable, b: RealValuedObservable, c: RealValuedObservable
) -> float:
    """Symmetrized form: (1/2) sum_x tr[rho_x (Bt A_x Ct + Ct A_x Bt)] - E E."""
    rho = as_matrix(rho)
    bt = stochastic_operator(b)
    ct = stochastic_operator(c)
    blocks = _blocks(rho, a)
    first = sum(
        0.5 * trace_product(blocks[x], bt @ a.effects[x] @ ct + ct @ a.effects[x] @ bt).real
        for x in a.outcomes
    )
    eb = sum(trace_product(rx, bt).real for rx in blocks.values())
    ec = sum(trace_product(rx, ct).real for rx in blocks.values())
    return float(first - eb * ec)


def sharp_luders_variance(rho, a: Observable, b: RealValuedObservable) -> float:
    return sharp_luders_covariance(rho, a, b, b)


def sharp_luders_commutator_trace(
    rho, a: Observable, b: RealValuedObservable, c: RealValuedObservable
) -> complex:
    """sum_x tr[rho_x (Bt A_x Ct - Ct A_x Bt)]."""
    rho = as_matrix(rho)
    bt = stochastic_operator(b)
    ct = stochastic_operator(c)
    blocks = _blocks(rho, a)
    return complex(
        sum(
            trace_product(blocks[x], bt @ a.effects[x] @ ct - ct @ a.effects[x] @ bt)
            for x in a.outcomes
        )
    )


# --- closed forms: Holevo instrument ----------------------------------------


def _holevo_weights(
    a: Observable, alphas: Mapping[str, np.ndarray], b: RealValuedObservable
) -> dict[str, float]:
    bt = stochastic_operator(b)
    return {x: trace_product(as_matrix(alphas[x]), bt).real for x in a.outcomes}


def holevo_expectation(
    rho, a: Observable, alphas: Mapping[str, np.ndarray], b: RealValuedObservable
) -> float:
    """sum_x tr(rho A_x) tr(alpha_x Btilde)."""
    rho = as_matrix(rho)
    tb = _holevo_weights(a, alphas, b)
    return float(
        sum(trace_product(rho, a.effects[x]).real * tb[x] for x in a.outcomes)
    )


def holevo_correlation(
    rho,
    a: Observable,
    alphas: Mapping[str, np.ndarray],
    b: RealValuedObservable,
    c: RealValuedObservable,
) -> complex:
    """sum_xx' tB(x) tC(x') [tr(rho A_x A_x') - tr(rho A_x) tr(rho A_x')]."""
    rho = as_matrix(rho)
    tb = _holevo_weights(a, alphas, b)
    tc = _holevo_weights(a, alphas, c)
    px = {x: trace_product(rho, a.effects[x]).real for x in a.outcomes}
    out = 0.0 + 0.0j
    for x in a.outcomes:
        for y in a.outcomes:
            joint = trace_product(rho, a.effects[x] @ a.effects[y])
            out += tb[x] * tc[y] * (joint - px[x] * px[y])
    return complex(out)


def holevo_covariance(
    rho,
    a: Observable,
    alphas: Mapping[str, np.ndarray],
    b: RealValuedObservable,
    c: RealValuedObservable,
) -> float:
    """Symmetrized: tB tC [tr(rho (A_x A_x' + A_x' A_x))/2 - tr(rho A_x) tr(rho A_x')]."""
    rho = as_matrix(rho)
    tb = _holevo_weights(a, alphas, b)
    tc = _holevo_weights(a, alphas, c)
    px = {x: trace_product(rho, a.effects[x]).real for x in a.outcomes}
    out = 0.0
    for x in a.outcomes:
        for y in a.outcomes:
            sym = 0.5 * trace_product(
                rho, a.effects[x] @ a.effects[y] + a.effects[y] @ a.effects[x]
            ).real
            out += tb[x] * tc[y] * (sym - px[x] * px[y])
    return float(out)


def holevo_variance(
    rho, a: Observable, alphas: Mapping[str, np.ndarray], b: RealValuedObservable
) -> float:
    return holevo_covariance(rho, a, alphas, b, b)


def holevo_commutator_trace(
    rho,
    a: Observable,
    alphas: Mapping[str, np.ndarray],
    b: RealValuedObservable,
    c: RealValuedObservable,
) -> complex:
    """sum_xx' tB(x) tC(x') tr(rho [A_x, A_x'])."""
    rho = as_matrix(rho)
    tb = _holevo_weights(a, alphas, b)
    tc = _holevo_weights(a, alphas, c)
    out = 0.0 + 0.0j
    for x in a.outcomes:
        for y in a.outcomes:
            out += tb[x] * tc[y] * trace_product(
                rho, a.effects[x] @ a.effects[y] - a.effects[y] @ a.effects[x]
            )
    return complex(out)
