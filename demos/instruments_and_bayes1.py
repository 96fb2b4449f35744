"""Instruments, conditioned observables, and the first Bayes rule.

An instrument attaches one operation to each outcome of a measurement.
Conditioning an effect (or observable) on an instrument transports it
through the total "bar" channel; the first Bayes rule says three different
ways of computing P(a | measurement happened) agree.
"""

import numpy as np

from qcond import (
    Observable,
    RealValuedObservable,
    apply,
    bar_channel,
    bayes1_check,
    bayes1_expectation_check,
    compose_instruments,
    condition_effect,
    condition_observable,
    distribution,
    expectation,
    holevo_instrument,
    luders_instrument,
    measured_observable,
    validate_instrument,
)

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)
plus = np.full((2, 2), 0.5, dtype=complex)
minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)

Z = Observable(("0", "1"), {"0": P0, "1": P1})
X = Observable(("+", "-"), {"+": plus, "-": minus})

rho = np.array([[0.75, 0.2], [0.2, 0.25]], dtype=complex)

# --- the Lüders instrument of Z ---------------------------------------------

ins = luders_instrument(Z)
print("violations:", validate_instrument(ins))
print("outcome distribution:", distribution(rho, measured_observable(ins)))

# Conditioning kills the off-diagonal part: a sharp Z measurement leaves
# only the populations of any later effect visible.
print("(plus | Z) =\n", condition_effect(plus, ins).real)

triple = bayes1_check(rho, ins, plus)
print("Bayes-1 routes:", triple.lhs, triple.mid, triple.rhs, "spread:", triple.spread)

# --- the expectation form ----------------------------------------------------

B = RealValuedObservable(X, {"+": 1.0, "-": -1.0})
print("\nE(B) before measuring:", expectation(rho, B))
print("E(B | Z measured):  ", expectation(rho, condition_observable(B, ins)))
t = bayes1_expectation_check(rho, ins, B)
print("expectation routes agree:", t.spread < 1e-12)

# --- a Holevo instrument ------------------------------------------------------
# Each outcome prepares a fresh update state; here outcome x re-prepares the
# opposite basis state, so the bar channel is a classical bit flip.

flip = holevo_instrument(Z, {"0": P1, "1": P0})
bar = bar_channel(flip)
print("\nbar(rho) =\n", np.round(np.real(apply(bar, rho)), 6))
print("(P0 | flip) =\n", condition_effect(P0, flip).real)

# --- composing instruments ----------------------------------------------------
# Outcome labels of a composition are "x,y": first instrument's outcome x,
# then the second's y.  The composite measures the conditioned fine-grained
# observable.

both = compose_instruments(ins, luders_instrument(X))
print("\ncomposite outcomes:", both.outcomes)
print("composite distribution:", {
    k: round(v, 6) for k, v in distribution(rho, measured_observable(both)).items()
})
