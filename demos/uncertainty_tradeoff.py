"""Contextual second moments and the uncertainty trade-off.

Conditioning two real-valued observables B and C on the same instrument
produces operators B', C' whose moments obey an exact identity,

    (1/4) |tr(rho [B', C'])|^2 + Cov(B,C)^2 = |Cor(B,C)|^2,

and a Robertson-style inequality |Cor|^2 <= Var(B) Var(C).  For sharp
observables measured by their Lüders instrument, and for Holevo
instruments, everything also has a closed form.
"""

import numpy as np

from qcond import (
    Observable,
    RealValuedObservable,
    commutator_trace,
    contextual_correlation,
    contextual_expectation,
    contextual_variance,
    holevo_instrument,
    luders_instrument,
    sharp_luders_moments,
    uncertainty_report,
)

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)
plus = np.full((2, 2), 0.5, dtype=complex)
minus = np.eye(2, dtype=complex) - plus

Z = Observable(("0", "1"), {"0": P0, "1": P1})
B = RealValuedObservable(Observable(("+", "-"), {"+": plus, "-": minus}),
                         {"+": 1.0, "-": -1.0})
C = RealValuedObservable(Z, {"0": 1.0, "1": -1.0})

rho = np.array([[0.6, 0.25 + 0.1j], [0.25 - 0.1j, 0.4]], dtype=complex)

# --- conditioned on the trivial instrument -----------------------------------
# Measuring the trivial observable {I} changes nothing, so B' and C' are the
# bare stochastic operators (Pauli X and Z here) and the identity reproduces
# the textbook Robertson relation, commutator term and all.

triv = luders_instrument(Observable(("*",), {"*": np.eye(2, dtype=complex)}))
rep0 = uncertainty_report(rho, triv, B, C)
print("no measurement:")
print("  Cor(B,C) =", rep0.correlation)
print("  tr(rho [B,C]) =", rep0.commutator_trace)
print("  identity residual:", rep0.identity_residual)
print("  inequality slack: ", rep0.inequality_slack)

# --- conditioned on a sharp Lüders measurement of Z -------------------------

ins = luders_instrument(Z)
print("\nafter a sharp Z measurement:")
print("E(B|Z) =", contextual_expectation(rho, ins, B))
print("E(C|Z) =", contextual_expectation(rho, ins, C))
print("Var(B|Z) =", contextual_variance(rho, ins, B))
print("Cor(B,C|Z) =", contextual_correlation(rho, ins, B, C))
print("tr(rho [B',C']) =", commutator_trace(rho, ins, B, C))

rep = uncertainty_report(rho, ins, B, C)
print("identity residual:", rep.identity_residual)
print("inequality slack: ", rep.inequality_slack)

# The closed forms use only the blocks A_x rho A_x, never the instrument.
closed = sharp_luders_moments(rho, Z, B, C)
print("closed-form E(B|Z) matches:",
      np.isclose(closed.expectation_b, contextual_expectation(rho, ins, B)))
print("closed-form Cor matches:   ",
      np.isclose(closed.correlation, contextual_correlation(rho, ins, B, C)))

# Conditioning B on a Z measurement wipes its coherent part: B' = 0 here,
# so the variance collapses and the inequality saturates trivially.
print("Var(B|Z) == 0:", np.isclose(contextual_variance(rho, ins, B), 0.0))

# --- conditioned on a Holevo instrument --------------------------------------
# Each conditioned operator becomes a combination of the measured effects,
# weighted by the expectations of B and C in the update states.

flip = holevo_instrument(Z, {"0": P1, "1": P0})
rep2 = uncertainty_report(rho, flip, B, C)
print("\nHolevo identity residual:", rep2.identity_residual)
print("Holevo slack:            ", rep2.inequality_slack)
print("Holevo commutator trace: ", rep2.commutator_trace)  # always 0 here
