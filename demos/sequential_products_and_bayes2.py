"""Sequential products of qubit effects and the second Bayes rule.

Walks through the two standard measurement contexts (Lüders and Holevo),
the "a, then b" sequential effect each one induces, and the observation
that the second Bayes rule holds for every state exactly when the two
dual transports agree — for Lüders pairs, exactly when the effects
commute.
"""

import numpy as np

from qcond import (
    bayes2_residual,
    conditional_prob,
    dual_apply,
    holevo,
    luders,
    prob,
    sequential_product,
    updated_state,
)

# --- a commuting pair ------------------------------------------------------
# Both effects are diagonal in the computational basis, so their Lüders
# contexts transport each other symmetrically.

a = np.diag([0.5, 0.125]).astype(complex)
b = np.diag([0.25, 0.75]).astype(complex)
rho = np.diag([0.75, 0.25]).astype(complex)

ctx_a = luders(a)
ctx_b = luders(b)

print("P(a) =", prob(rho, a))
print("P(b|a) =", conditional_prob(rho, ctx_a, b))
print("post-measurement state:\n", updated_state(rho, ctx_a).real)

seq_ab = sequential_product(ctx_a, b)   # sqrt(a) b sqrt(a)
seq_ba = sequential_product(ctx_b, a)
print("a-then-b equals b-then-a:", np.allclose(seq_ab, seq_ba))
print("Bayes-2 residual (commuting):", bayes2_residual(rho, ctx_a, ctx_b))

# --- a noncommuting pair ---------------------------------------------------
# Replace b with a projection onto |+>.  The sequential products now differ
# and the residual is visibly nonzero on a generic state.

plus = np.full((2, 2), 0.5, dtype=complex)
ctx_p = luders(plus)

seq_ap = sequential_product(ctx_a, plus)
seq_pa = sequential_product(ctx_p, a)
print("\n||a-then-p  -  p-then-a|| =", np.linalg.norm(seq_ap - seq_pa))

rho2 = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
print("Bayes-2 residual (noncommuting):", bayes2_residual(rho2, ctx_a, ctx_p))

# --- the Holevo context ----------------------------------------------------
# A Holevo measurement discards the input and prepares a fixed update state
# alpha.  Its dual action b -> tr(alpha b) a makes every transported effect
# a multiple of a.

alpha = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)  # prepare |1><1|
hol = holevo(plus, alpha)

for name, h in [("|0><0|", np.diag([1.0, 0.0])), ("|1><1|", np.diag([0.0, 1.0]))]:
    transported = dual_apply(hol, h.astype(complex))
    weight = np.trace(alpha @ h).real
    print(f"dual({name}) = tr(alpha h) * plus, weight {weight}:",
          np.allclose(transported, weight * plus))

# The same state update, applied twice, composes into another Holevo
# context; its effect shrinks by the conditioning weight tr(alpha a).
print("P(plus after Holevo) =", conditional_prob(rho2, hol, plus))
