"""Operations (Kraus families), their duals, and sequential conditioning.

An operation maps states to subnormalized states via rho -> sum_i K_i rho K_i*
with sum_i K_i* K_i <= I.  Its dual acts on effects, dual_apply(op, b) =
sum_i K_i* b K_i, and satisfies tr[op(rho) b] = tr[rho dual(b)] for every rho
and b.  An operation *measures* the unique effect a = dual(I) = sum_i K_i* K_i,
and carries it as ``op.effect``: computed on first read, then cached on the
instance and read-only.  ``measured_effect(op)`` returns that same array.

Composition order is the measurement order: ``compose(first, second)`` is the
operation "perform ``first``, then ``second``", i.e. it applies ``first``
before ``second``.  This is the opposite of function-composition notation and
is the single most bug-prone convention in the package, so every identity test
pins it down.  A composite keeps at most min(k1*k2, d**2) Kraus operators:
beyond the Choi rank bound d**2, ``compose`` rebuilds a minimal family from
the composite's Choi matrix instead of forming every product, so chains of
compositions and conditionings stay at d**2 operators.  Every Kraus sum
(``apply``, ``dual_apply``, ``choi_matrix`` and the instrument totals) runs
over blocks of at most d**2 operators, so no temporary outgrows that bound.

Conditional probabilities, updated states and sequential products take the
operation alone: they condition on op.effect, so the effect they divide by is
always the one the operation measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

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
    "validate_operation",
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

    @cached_property
    def effect(self) -> np.ndarray:
        """The effect the operation measures, dual(I) = M* M with M the stack as (k*d, d).

        Computed on first read and cached on the instance; the array is read-only.
        """
        m = self.kraus.reshape(-1, self.dim)
        effect = dagger(m) @ m
        effect.flags.writeable = False
        return effect


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


def apply(op: Operation, rho) -> np.ndarray:
    """sum_i K_i rho K_i*"""
    return _kraus_sum((op.kraus,), rho)


def dual_apply(op: Operation, a) -> np.ndarray:
    """Dual (Heisenberg) action on effects: sum_i K_i* a K_i."""
    return _kraus_sum((op.kraus,), a, dual=True)


def _kraus_blocks(stacks: Sequence[np.ndarray]) -> Iterable[np.ndarray]:
    """The rows of a sequence of (k_i, d, d) Kraus stacks, in order, in blocks of <= d**2.

    Consecutive small stacks are concatenated while they fit in d**2 rows (the
    Choi rank bound) and a larger stack is sliced into d**2-row pieces; the
    blocks are made one at a time.  A lone stack of at most d**2 rows is the
    one block, as it is, without a copy.
    """
    n2 = stacks[0].shape[1] ** 2
    if sum(map(len, stacks)) <= n2:
        # One block in all, the common case: no generator's per-call cost.
        return stacks if len(stacks) == 1 else (np.concatenate(stacks),)
    return _grouped_blocks(stacks, n2)


def _grouped_blocks(stacks: Sequence[np.ndarray], n2: int) -> Iterator[np.ndarray]:
    pending: list[np.ndarray] = []
    rows = 0
    for stack in stacks:
        if len(stack) <= n2:
            pieces = (stack,)
        else:
            pieces = (stack[start : start + n2] for start in range(0, len(stack), n2))
        for piece in pieces:
            if rows + len(piece) > n2:
                yield pending[0] if len(pending) == 1 else np.concatenate(pending)
                pending, rows = [], 0
            pending.append(piece)
            rows += len(piece)
    yield pending[0] if len(pending) == 1 else np.concatenate(pending)


def _kraus_sum(stacks: Sequence[np.ndarray], m, dual: bool = False) -> np.ndarray:
    """sum K m K* over every Kraus operator K of the (k_i, d, d) stacks (dual: sum K* m K).

    Works block by block (``_kraus_blocks``), so no temporary holds more than
    d**2 operators however many the stacks hold together.  Each block's sum
    over K runs inside one matrix product, with the block read as (k*d, d)
    like ``Operation.effect``: the dual sum is V* (m V) with V the block, and
    sum K m K* is (m^T T)^T conj(T) with T the block of transposes K^T.
    Raises DimMismatchError unless m is a d x d matrix.
    """
    m = as_matrix(m)
    dim = stacks[0].shape[1]
    if m.shape[0] != dim:
        raise DimMismatchError(f"expected a {dim}x{dim} matrix, got shape {m.shape}")
    total = None
    for block in _kraus_blocks(stacks):
        if dual:
            term = dagger(block.reshape(-1, dim)) @ (m @ block).reshape(-1, dim)
        else:
            t = block.swapaxes(1, 2)
            term = (m.T @ t).reshape(-1, dim).T @ t.reshape(-1, dim).conj()
        if total is None:
            total = term
        else:
            total += term
    return total


def measured_effect(op: Operation) -> np.ndarray:
    """The unique effect the operation measures, dual(I) (read-only)."""
    return op.effect


def is_channel(op: Operation, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Trace preserving: sum K*K equals I within eq_tol."""
    return frobenius(measured_effect(op) - np.eye(op.dim)) <= tol.eq_tol


def compose(first: Operation, second: Operation) -> Operation:
    """The operation "first, then second" (applies ``first`` before ``second``).

    With k1 and k2 Kraus operators and k1*k2 <= d**2, the family is all
    products L_j K_i, second's index j outer and first's i inner.  Above d**2
    (the Choi rank bound) the products are never formed: the family is the
    eigenbasis of the composite's Choi matrix, each eigenvector scaled by the
    square root of its eigenvalue, largest first, dropping eigenvalues
    <= d**2 * eps * lambda_max (eps the float64 machine epsilon).  A zero map
    is then one zero operator.  Either way the result has at most
    min(k1*k2, d**2) operators and the same action up to round-off.
    """
    if first.dim != second.dim:
        raise DimMismatchError(f"cannot compose dims {first.dim} and {second.dim}")
    if len(first.kraus) * len(second.kraus) > first.dim**2:
        return _composite_from_choi(first, second)
    products = second.kraus[:, None] @ first.kraus[None, :]
    return Operation._adopt(products.reshape(-1, first.dim, first.dim))


def luders(a, tol: Tolerance = DEFAULT_TOL) -> Operation:
    """Lüders operation for effect a: the single Kraus operator a**(1/2).

    Self-dual: dual_apply is b -> a**(1/2) b a**(1/2), and it measures a.
    """
    return Operation((psd_sqrt(a, tol),))


def holevo(a, alpha, tol: Tolerance = DEFAULT_TOL) -> Operation:
    """Holevo operation for effect a with update state alpha: rho -> tr(rho a) alpha.

    Kraus operators are sqrt(mu_j nu_k) |w_j><v_k| over the spectral
    decompositions alpha = sum mu_j |w_j><w_j| and a = sum nu_k |v_k><v_k|,
    keeping eigenvalues above eq_tol.  The dual action is
    b -> tr(alpha b) a, with a's dropped eigenvalues left out of what it measures.
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
    return Operation._adopt(kraus)


def sequential_product(op: Operation, b) -> np.ndarray:
    """The effect "op's effect, then b": the dual of op on b."""
    return dual_apply(op, b)


def conditional_prob(rho, op: Operation, b, tol: Tolerance = DEFAULT_TOL) -> float:
    """Probability of b given that op's measurement occurred on rho.

    tr[op(rho) b] / tr[rho a], a = op.effect; raises ZeroProbabilityConditionError
    when the conditioning probability is below eq_tol.
    """
    p = prob(rho, op.effect, tol)
    if p <= tol.eq_tol:
        raise ZeroProbabilityConditionError(f"conditioning effect has probability {p:.3e}")
    q = trace_product(apply(op, rho), as_matrix(b)).real / p
    if -tol.eq_tol <= q <= 1.0 + tol.eq_tol:
        q = min(max(q, 0.0), 1.0)
    return float(q)


def updated_state(rho, op: Operation, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Post-measurement state op(rho) / tr[rho a], a = op.effect."""
    p = prob(rho, op.effect, tol)
    if p <= tol.eq_tol:
        raise ZeroProbabilityConditionError(f"conditioning effect has probability {p:.3e}")
    return apply(op, rho) / p


def bayes2_residual(rho, op_a: Operation, op_b: Operation, tol: Tolerance = DEFAULT_TOL) -> float:
    """How far the pair is from the second Bayes rule at rho.

    | P(b|a) - P(b) P(a|b) / P(a) |, conditioning through the two operations,
    a and b the effects they measure.  Vanishes for every rho exactly when the
    two dual transports agree: dual_a(b) == dual_b(a).
    """
    rho = as_matrix(rho)
    a, b = op_a.effect, op_b.effect
    pa = prob(rho, a, tol)
    pb = prob(rho, b, tol)
    if pa <= tol.eq_tol or pb <= tol.eq_tol:
        raise ZeroProbabilityConditionError("both conditioning effects need nonzero probability")
    lhs = trace_product(apply(op_a, rho), b).real / pa
    # P(b) * P(a|b) / P(a): the P(b) factors cancel against P(a|b)'s denominator.
    rhs = trace_product(apply(op_b, rho), a).real / pa
    return float(abs(lhs - rhs))


def choi_matrix(op: Operation) -> np.ndarray:
    """Choi matrix sum_ij E_ij (x) op(E_ij); equal maps have equal Choi matrices.

    Sums V^T conj(V) over rows v_i = vec(K_i), d**2 rows (the Choi rank bound) at
    a time, so no temporary outgrows the d**2 x d**2 result.
    """
    n2 = op.dim**2
    out = np.zeros((n2, n2), dtype=np.complex128)
    for block in _kraus_blocks((op.kraus,)):
        v = block.transpose(0, 2, 1).reshape(-1, n2)
        out += v.T @ v.conj()
    return out


def _reshuffle(m: np.ndarray, d: int) -> np.ndarray:
    """Swap the middle tensor factors: [(a, b), (c, e)] -> [(a, c), (b, e)] (an involution)."""
    return m.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def _composite_from_choi(first: Operation, second: Operation) -> Operation:
    """A minimal Kraus family of "first, then second" (see ``compose``).

    With m the stack as (k, d**2) rows vec(K), m^T conj(m) = sum vec(K) vec(K)*
    is the Choi matrix with its tensor factors swapped; reshuffled, it is the
    superoperator sum K (x) conj(K).  Superoperators multiply in application
    order; reshuffled back, their product is the composite's swapped Choi
    matrix, whose scaled eigenvectors are the vec(K) of a minimal family.
    """
    d = first.dim
    m1, m2 = (op.kraus.reshape(len(op.kraus), d * d) for op in (first, second))
    product = _reshuffle(m2.T @ m2.conj(), d) @ _reshuffle(m1.T @ m1.conj(), d)
    w, u = np.linalg.eigh(_reshuffle(product, d))
    w, u = w[::-1], u[:, ::-1]  # largest first
    keep = w > d * d * np.finfo(np.float64).eps * w[0]
    if not keep.any():
        return Operation._adopt(np.zeros((1, d, d), dtype=np.complex128))
    vecs = u[:, keep] * np.sqrt(w[keep])
    return Operation._adopt(vecs.T.reshape(-1, d, d))


def choi_distance(op1: Operation, op2: Operation) -> float:
    """Frobenius distance between Choi matrices: 0 iff the maps are equal."""
    if op1.dim != op2.dim:
        raise DimMismatchError("maps on different dimensions are never comparable")
    return frobenius(choi_matrix(op1) - choi_matrix(op2))


def maps_equal(op1: Operation, op2: Operation, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Extensional equality of operations (equal action on every state)."""
    return choi_distance(op1, op2) <= tol.eq_tol
