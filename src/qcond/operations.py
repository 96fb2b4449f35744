"""Operations (Kraus families), their duals, and sequential conditioning.

An operation maps states to subnormalized states via rho -> sum_i K_i rho K_i*
with sum_i K_i* K_i <= I.  Its dual acts on effects, dual_apply(op, b) =
sum_i K_i* b K_i, and satisfies tr[op(rho) b] = tr[rho dual(b)] for every rho
and b.  An operation *measures* the unique effect dual(I).

Composition order is the measurement order: ``compose(first, second)`` is the
operation "perform ``first``, then ``second``", i.e. it applies ``first``
before ``second``.  This is the opposite of function-composition notation and
is the single most bug-prone convention in the package, so every identity test
pins it down.

A :class:`MeasurementContext` pairs an operation with the effect it measures;
conditional probabilities, updated states and sequential products are defined
relative to such a context.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Violation, prob
from .errors import DimMismatchError, ZeroProbabilityConditionError
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    dagger,
    frobenius,
    hermitian_eig,
    psd_sqrt,
    trace_product,
)

__all__ = [
    "Operation",
    "MeasurementContext",
    "context",
    "validate_operation",
    "validate_context",
    "apply",
    "dual_apply",
    "measured_effect",
    "is_channel",
    "compose",
    "luders",
    "holevo",
    "sequential_product",
    "conditional_prob",
    "updated_state",
    "bayes2_residual",
    "choi_matrix",
    "choi_distance",
    "maps_equal",
]


@dataclass(frozen=True, eq=False)
class Operation:
    """A Kraus family, stored as one read-only complex128 array of shape (k, d, d).

    The constructor takes a sequence of square matrices or a 3-D array and
    copies it.  Structure is checked here, the trace bound by validate_operation.
    """

    kraus: np.ndarray

    def __init__(self, kraus) -> None:
        if not isinstance(kraus, np.ndarray):
            kraus = [np.asarray(k, dtype=np.complex128) for k in kraus]
            if len({k.shape for k in kraus}) > 1:
                raise DimMismatchError("Kraus operators have mixed dimensions")
        stack = np.array(kraus, dtype=np.complex128)
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or not len(stack):
            raise DimMismatchError(f"expected a nonempty (k, d, d) Kraus stack, got {stack.shape}")
        stack.flags.writeable = False
        object.__setattr__(self, "kraus", stack)

    @classmethod
    def _adopt(cls, stack: np.ndarray) -> Operation:
        """Wrap a (k, d, d) complex128 stack the caller has just built, without copying it."""
        op = cls.__new__(cls)
        stack.flags.writeable = False
        object.__setattr__(op, "kraus", stack)
        return op

    @property
    def dim(self) -> int:
        return self.kraus.shape[1]


@dataclass(frozen=True, eq=False)
class MeasurementContext:
    """An operation together with the effect it measures."""

    op: Operation
    effect: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.op.dim


def context(op: Operation) -> MeasurementContext:
    """Wrap an operation with its measured effect dual(I)."""
    return MeasurementContext(op, measured_effect(op))


def validate_operation(op: Operation, tol: Tolerance = DEFAULT_TOL) -> list[Violation]:
    """The Kraus trace bound: sum K*K <= I (spectrum of the sum within [0, 1])."""
    s = measured_effect(op)
    out = []
    if not np.all(np.isfinite(s.view(np.float64))):
        return [Violation("finite", float("inf"))]
    w = np.linalg.eigvalsh((s + dagger(s)) / 2.0)
    if w[-1] > 1.0 + tol.psd_tol:
        out.append(Violation("kraus-trace-bound", float(w[-1] - 1.0)))
    return out


def validate_context(ctx: MeasurementContext, tol: Tolerance = DEFAULT_TOL) -> list[Violation]:
    """A context's effect must be exactly what its operation measures."""
    from .core import validate_effect

    out = validate_operation(ctx.op, tol) + validate_effect(ctx.effect, tol)
    dev = frobenius(measured_effect(ctx.op) - as_matrix(ctx.effect))
    if dev > tol.eq_tol:
        out.append(Violation("measures-effect", dev))
    return out


def apply(op: Operation, rho) -> np.ndarray:
    """sum_i K_i rho K_i*"""
    return (op.kraus @ as_matrix(rho) @ dagger(op.kraus)).sum(0)


def dual_apply(op: Operation, a) -> np.ndarray:
    """Dual (Heisenberg) action on effects: sum_i K_i* a K_i."""
    return (dagger(op.kraus) @ as_matrix(a) @ op.kraus).sum(0)


def measured_effect(op: Operation) -> np.ndarray:
    """The unique effect the operation measures: dual(I) = M* M, M the stack as (k*d, d)."""
    m = op.kraus.reshape(-1, op.dim)
    return dagger(m) @ m


def is_channel(op: Operation, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Trace preserving: sum K*K equals I within eq_tol."""
    return frobenius(measured_effect(op) - np.eye(op.dim)) <= tol.eq_tol


def compose(first: Operation, second: Operation) -> Operation:
    """The operation "first, then second" (applies ``first`` before ``second``).

    Kraus family is all products L_j K_i, second's index j outer and first's i inner.
    """
    if first.dim != second.dim:
        raise DimMismatchError(f"cannot compose dims {first.dim} and {second.dim}")
    products = second.kraus[:, None] @ first.kraus[None, :]
    return Operation._adopt(products.reshape(-1, first.dim, first.dim))


def luders(a, tol: Tolerance = DEFAULT_TOL) -> MeasurementContext:
    """Lüders context for effect a: the single Kraus operator a**(1/2).

    Self-dual: dual_apply is b -> a**(1/2) b a**(1/2), and it measures a.
    """
    a = as_matrix(a)
    return MeasurementContext(Operation((psd_sqrt(a, tol),)), a)


def holevo(a, alpha, tol: Tolerance = DEFAULT_TOL) -> MeasurementContext:
    """Holevo context for effect a with update state alpha: rho -> tr(rho a) alpha.

    Kraus operators are sqrt(mu_j nu_k) |w_j><v_k| over the spectral
    decompositions alpha = sum mu_j |w_j><w_j| and a = sum nu_k |v_k><v_k|,
    keeping eigenvalues above eq_tol.  The dual action is
    b -> tr(alpha b) a.
    """
    a = as_matrix(a)
    alpha = as_matrix(alpha)
    if a.shape != alpha.shape:
        raise DimMismatchError("effect and update state must share a dimension")
    nu, v = hermitian_eig(a, tol)
    mu, w = hermitian_eig(alpha, tol)
    keep_mu, keep_nu = mu > tol.eq_tol, nu > tol.eq_tol
    # kraus[j, k] = sqrt(mu_j nu_k) |w_j><v_k|, j-major over the kept eigenvalues.
    outer = w.T[keep_mu][:, None, :, None] * v.T.conj()[keep_nu][None, :, None, :]
    scale = np.sqrt(mu[keep_mu][:, None] * nu[keep_nu])
    kraus = (scale[:, :, None, None] * outer).reshape(-1, *a.shape)
    if not len(kraus):
        kraus = np.zeros((1, *a.shape), dtype=np.complex128)
    return MeasurementContext(Operation._adopt(kraus), a)


def sequential_product(ctx: MeasurementContext, b) -> np.ndarray:
    """The effect "ctx's effect, then b": the dual of ctx's operation on b."""
    return dual_apply(ctx.op, b)


def conditional_prob(rho, ctx: MeasurementContext, b, tol: Tolerance = DEFAULT_TOL) -> float:
    """Probability of b given that ctx's measurement occurred on rho.

    tr[op(rho) b] / tr[rho a]; raises ZeroProbabilityConditionError when the
    conditioning probability is below eq_tol.
    """
    p = prob(rho, ctx.effect, tol)
    if p <= tol.eq_tol:
        raise ZeroProbabilityConditionError(f"conditioning effect has probability {p:.3e}")
    q = trace_product(apply(ctx.op, rho), as_matrix(b)).real / p
    if -tol.eq_tol <= q <= 1.0 + tol.eq_tol:
        q = min(max(q, 0.0), 1.0)
    return float(q)


def updated_state(rho, ctx: MeasurementContext, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Post-measurement state op(rho) / tr[rho a]."""
    p = prob(rho, ctx.effect, tol)
    if p <= tol.eq_tol:
        raise ZeroProbabilityConditionError(f"conditioning effect has probability {p:.3e}")
    return apply(ctx.op, rho) / p


def bayes2_residual(
    rho,
    ctx_a: MeasurementContext,
    ctx_b: MeasurementContext,
    tol: Tolerance = DEFAULT_TOL,
) -> float:
    """How far the pair is from the second Bayes rule at rho.

    | P(b|a) - P(b) P(a|b) / P(a) |, conditioning through the two contexts.
    Vanishes for every rho exactly when the two dual transports agree:
    dual_a(b) == dual_b(a).
    """
    rho = as_matrix(rho)
    pa = prob(rho, ctx_a.effect, tol)
    pb = prob(rho, ctx_b.effect, tol)
    if pa <= tol.eq_tol or pb <= tol.eq_tol:
        raise ZeroProbabilityConditionError("both conditioning effects need nonzero probability")
    lhs = trace_product(apply(ctx_a.op, rho), ctx_b.effect).real / pa
    # P(b) * P(a|b) / P(a): the P(b) factors cancel against P(a|b)'s denominator.
    rhs = trace_product(apply(ctx_b.op, rho), ctx_a.effect).real / pa
    return float(abs(lhs - rhs))


def choi_matrix(op: Operation) -> np.ndarray:
    """Choi matrix sum_ij E_ij (x) op(E_ij); equal maps have equal Choi matrices.

    Sums V^T conj(V) over rows v_i = vec(K_i), d**2 rows (the Choi rank bound) at
    a time, so no temporary outgrows the d**2 x d**2 result.
    """
    n2 = op.dim**2
    out = np.zeros((n2, n2), dtype=np.complex128)
    for start in range(0, len(op.kraus), n2):
        v = op.kraus[start : start + n2].transpose(0, 2, 1).reshape(-1, n2)
        out += v.T @ v.conj()
    return out


def choi_distance(op1: Operation, op2: Operation) -> float:
    """Frobenius distance between Choi matrices: 0 iff the maps are equal."""
    if op1.dim != op2.dim:
        raise DimMismatchError("maps on different dimensions are never comparable")
    return frobenius(choi_matrix(op1) - choi_matrix(op2))


def maps_equal(op1: Operation, op2: Operation, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Extensional equality of operations (equal action on every state)."""
    return choi_distance(op1, op2) <= tol.eq_tol
