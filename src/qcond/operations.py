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
(``apply``, ``dual_apply``, Choi matrices and the instrument totals) takes
one Kraus stack, an operation's or an instrument's union over its outcomes,
and runs over d**2-row slices of it, and a stack of matrices transported
together (a conditioned observable's effects) meets each slice in chunks
small enough that no product holds more: no temporary outgrows that bound.

Conditional probabilities, updated states and sequential products take the
operation alone: they condition on op.effect, so the effect they divide by is
always the one the operation measures.  Conditional probabilities and
expectations and the second-rule residual go through the dual, tr[op(rho) b]
= tr[rho dual(b)]: that is linear in rho, so they also take an (n, d, d)
stack of states and judge it with one dual_apply and one contraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import Violation, _judged, _per_state, _zero_round_off, prob
from .errors import DimMismatchError, ZeroProbabilityConditionError
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _complex_array,
    _psd_floor,
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
            kraus = [_complex_array(k) for k in kraus]
            if len({k.shape for k in kraus}) > 1:
                raise DimMismatchError("Kraus operators have mixed dimensions")
        stack = _complex_array(kraus, copy=True)
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or not len(stack):
            raise DimMismatchError(f"expected a nonempty (k, d, d) Kraus stack, got {stack.shape}")
        stack.flags.writeable = False
        object.__setattr__(self, "kraus", stack)

    @classmethod
    def _adopt(cls, stack: np.ndarray) -> Operation:
        """Wrap a (k, d, d) complex128 stack the caller has just built, without copying it."""
        op = cls.__new__(cls)
        stack.setflags(write=False)
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
        effect = _measured(self.kraus)
        effect.flags.writeable = False
        return effect


def _measured(kraus: np.ndarray) -> np.ndarray:
    """M* M with M a (..., k, d, d) Kraus stack read as (..., k*d, d): what it measures."""
    m = kraus.reshape(kraus.shape[:-3] + (-1, kraus.shape[-1]))
    return dagger(m) @ m


def validate_operation(op: Operation, tol: Tolerance = DEFAULT_TOL) -> list[Violation]:
    """The Kraus trace bound: sum K*K <= I (the spectrum of the measured effect at most 1)."""
    return _judged([_operation_rows(op)], tol)[0]


def _operation_rows(op: Operation) -> list:
    """The operation's block for ``core._judged``: the effect it measures, under the trace bound."""
    return [(op.effect[None], "kraus", None)]


def apply(op: Operation, rho) -> np.ndarray:
    """sum_i K_i rho K_i*"""
    return _kraus_sum(op.kraus, as_matrix(rho))


def dual_apply(op: Operation, a) -> np.ndarray:
    """Dual (Heisenberg) action on effects: sum_i K_i* a K_i."""
    return _kraus_sum(op.kraus, as_matrix(a), dual=True)


def _kraus_blocks(kraus: np.ndarray) -> Sequence[np.ndarray]:
    """The rows of a (..., k, d, d) Kraus stack, in order, in slices of at most d**2 (the Choi rank bound).

    The slices are views; a stack of at most d**2 rows is the one block, as it is.
    """
    n2 = kraus.shape[-1] ** 2
    if kraus.shape[-3] <= n2:
        return (kraus,)
    return [kraus[..., start : start + n2, :, :] for start in range(0, kraus.shape[-3], n2)]


def _kraus_sum(kraus: np.ndarray, m: np.ndarray, dual: bool = False) -> np.ndarray:
    """sum K m K* over every Kraus operator K of a (k, d, d) stack (dual: sum K* m K).

    The stack is one operation's, or an instrument's union over its outcomes.
    Works block by block (``_kraus_blocks``), so no temporary holds more than
    d**2 operators however many the stack holds.  Each block's sum over K
    runs inside one matrix product, with the block read as (k*d, d) like
    ``Operation.effect``: the dual sum is V* (m V) with V the block, and
    sum K m K* is (m^T T)^T conj(T) with T the block of transposes K^T.
    Raises DimMismatchError unless m's matrices are d x d.

    m may also be an (n, d, d) stack: then the result is the stack of the n
    sums, in the same matrix products over the whole stack and equal bit for
    bit to n separate sums.  Against a block of k operators the stack goes in
    chunks of at most d**2 // k matrices, so no product outgrows d**2
    operators either.  The Kraus stack may instead carry one leading axis,
    (n, k, d, d), one operation per matrix of m: then each of the n
    operations sums against its own matrix, unchunked.
    """
    dim = kraus.shape[-1]
    if m.shape[-2:] != (dim, dim):
        raise DimMismatchError(f"expected a {dim}x{dim} matrix, got shape {m.shape[-2:]}")
    if m.ndim == 2:
        return _block_sum(kraus, m, dual)
    if kraus.ndim == 4:  # operation s's matrix m[s] against each of its operators
        return _block_sum(kraus, m[:, None], dual)
    # Every block holds at most min(d**2, k) of the stack's k operators.
    step = max(1, dim * dim // min(dim * dim, len(kraus)))
    return np.concatenate([_block_sum(kraus, m[s : s + step, None], dual) for s in range(0, len(m), step)])


def _block_sum(kraus: np.ndarray, m: np.ndarray, dual: bool) -> np.ndarray:
    """``_kraus_sum``'s total, block by block, with m broadcast against each block."""
    dim = m.shape[-1]
    total = None
    for block in _kraus_blocks(kraus):
        kraus_rows = block.shape[:-3] + (-1, dim)
        if dual:
            product = m @ block
            term = dagger(block.reshape(kraus_rows)) @ product.reshape(product.shape[:-3] + (-1, dim))
        else:
            t = block.swapaxes(-1, -2)
            product = m.swapaxes(-1, -2) @ t
            product_rows = product.reshape(product.shape[:-3] + (-1, dim))
            term = product_rows.swapaxes(-1, -2) @ t.reshape(kraus_rows).conj()
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
    return Operation._adopt(_kraus_products(first.kraus, second.kraus))


def _kraus_products(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """All products L_j K_i of two (..., k, d, d) Kraus stacks, j outer and i inner."""
    d = first.shape[-1]
    products = second[..., :, None, :, :] @ first[..., None, :, :, :]
    return products.reshape(products.shape[:-4] + (-1, d, d))


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
    b -> tr(alpha b) a, with a's dropped eigenvalues left out of what it
    measures.  Raises NotPSDError when either spectrum has an eigenvalue
    below -psd_tol or a NaN one (an entry near the float64 limit).
    """
    a, alpha = as_matrix(a), as_matrix(alpha)
    if a.shape != alpha.shape:
        raise DimMismatchError("effect and update state must share a dimension")
    (nu, mu), (v, w) = hermitian_eig(np.stack((a, alpha)), tol)
    return Operation._adopt(_holevo_kraus(nu[None], v[None], mu[None], w[None], tol)[0])


def _holevo_kraus(nu: np.ndarray, v: np.ndarray, mu: np.ndarray, w: np.ndarray, tol: Tolerance):
    """The Kraus union of n ``holevo`` operations and each one's operator count.

    Operation i's spectra are (nu[i], v[i]) of its effect and (mu[i], w[i])
    of its update state, stacks of n.  The union is allocated once, at the
    kept-eigenvalue counts, and each operation's family is written into its
    rows, with no temporary of its size.  Raises NotPSDError as ``psd_sqrt``
    does for the first effect spectrum, then the first update-state
    spectrum, that fails its floor.  A Holevo operation that keeps no
    eigenvalue is one zero operator.
    """
    _psd_floor(nu, tol)
    _psd_floor(mu, tol)
    keep_mu, keep_nu = mu > tol.eq_tol, nu > tol.eq_tol
    counts = np.maximum(1, keep_mu.sum(axis=1) * keep_nu.sum(axis=1)).tolist()
    kraus = np.zeros((sum(counts), *v.shape[1:]), dtype=np.complex128)
    start = 0
    for i, count in enumerate(counts):
        rows, start = kraus[start : start + count], start + count
        kept_mu, kept_nu = mu[i, keep_mu[i]], nu[i, keep_nu[i]]
        if len(kept_mu) * len(kept_nu):  # else the one zero operator
            # outer[j, k] = sqrt(mu_j nu_k) |w_j><v_k|, j-major over the kept eigenvalues.
            outer = rows.reshape(len(kept_mu), len(kept_nu), *v.shape[1:])
            np.multiply(w[i].T[keep_mu[i]][:, None, :, None], v[i].T.conj()[keep_nu[i]][None, :, None, :], out=outer)
            outer *= np.sqrt(kept_mu[:, None] * kept_nu)[:, :, None, None]
    return kraus, counts


def sequential_product(op: Operation, b) -> np.ndarray:
    """The effect "op's effect, then b": the dual of op on b."""
    return dual_apply(op, b)


def _conditioning_prob(rho, a, tol: Tolerance):
    """P = tr(rho a) per state; raises ZeroProbabilityConditionError if any P <= eq_tol."""
    p = prob(rho, a, tol)
    if np.count_nonzero(p <= tol.eq_tol):
        raise ZeroProbabilityConditionError(f"conditioning effect has probability {np.min(p):.3e}")
    return p


def _conditional(rho, a, dual_m, tol: Tolerance):
    """tr[rho dual(m)] / tr[rho a], dual the dual of an operation op that measures a.

    That is tr[op(rho) m] / tr[rho a]: m an effect gives a conditional
    probability, a stochastic operator a conditional expectation; a float for
    one state, one value per state of a stack.  Raises
    ZeroProbabilityConditionError when a conditioning probability is at most eq_tol.
    """
    p = _conditioning_prob(rho, a, tol)
    return trace_product(rho, dual_m).real / p


def conditional_prob(rho, op: Operation, b, tol: Tolerance = DEFAULT_TOL):
    """P(b | op's effect) at rho: ``_conditional`` on b, clamped into [0, 1] only within eq_tol."""
    return _probability(_conditional(rho, op.effect, dual_apply(op, b), tol), tol)


def _probability(q, tol: Tolerance):
    """q (a float or an array) with round-off below 0 or above 1, within eq_tol, clamped onto [0, 1]."""
    q = _zero_round_off(q, tol)
    return q - (q - 1.0) * ((q > 1.0) & (q <= 1.0 + tol.eq_tol))  # exactly 1.0 in (1, 1 + eq_tol]


def updated_state(rho, op: Operation, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Post-measurement state op(rho) / tr[rho a], a = op.effect."""
    return apply(op, rho) / _conditioning_prob(rho, op.effect, tol)


def bayes2_residual(rho, op_a: Operation, op_b: Operation, tol: Tolerance = DEFAULT_TOL):
    """How far the pair is from the second Bayes rule at rho.

    | P(b|a) - P(b) P(a|b) / P(a) |, conditioning through the two operations,
    a and b the effects they measure.  The P(b) factors cancel, and through
    the duals the residual is |tr[rho (dual_a(b) - dual_b(a))]| / P(a), so it
    vanishes for every rho exactly when the two dual transports agree.  rho
    is one state (a float result) or an (n, d, d) stack (one per state).
    """
    a, b = op_a.effect, op_b.effect
    pa = _conditioning_prob(rho, a, tol)
    _conditioning_prob(rho, b, tol)
    gap = trace_product(rho, dual_apply(op_a, b) - dual_apply(op_b, a)).real
    return _per_state(np.abs(gap) / pa)


def _gram(op: Operation) -> np.ndarray:
    """sum_i vec(K_i) vec(K_i)* over op's Kraus operators, vec(K) the rows of K laid end to end.

    This is the Choi matrix with its two tensor factors swapped in both
    indices.  Sums V^T conj(V) over d**2 rows V at a time (``_kraus_blocks``),
    so no temporary outgrows the d**2 x d**2 result.
    """
    n2 = op.dim**2
    out = np.zeros((n2, n2), dtype=np.complex128)
    for block in _kraus_blocks(op.kraus):
        v = block.reshape(-1, n2)
        out += v.T @ v.conj()
    return out


def choi_matrix(op: Operation) -> np.ndarray:
    """Choi matrix sum_ij E_ij (x) op(E_ij); equal maps have equal Choi matrices."""
    d = op.dim
    return _gram(op).reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)


def _reshuffle(m: np.ndarray, d: int) -> np.ndarray:
    """Swap the middle tensor factors: [(a, b), (c, e)] -> [(a, c), (b, e)] (an involution)."""
    return m.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def _composite_from_choi(first: Operation, second: Operation) -> Operation:
    """A minimal Kraus family of "first, then second" (see ``compose``).

    The Gram sum vec(K) vec(K)* (``_gram``) reshuffled is the superoperator
    sum K (x) conj(K).  Superoperators multiply in application order;
    reshuffled back, their product is the composite's Gram matrix, whose
    scaled eigenvectors are the vec(K) of a minimal family.  A map eigh
    cannot factor (one with a non-finite entry) is one NaN operator.
    """
    d = first.dim
    product = _reshuffle(_gram(second), d) @ _reshuffle(_gram(first), d)
    try:
        w, u = np.linalg.eigh(_reshuffle(product, d))
    except np.linalg.LinAlgError:
        return Operation._adopt(np.full((1, d, d), np.nan, dtype=np.complex128))
    w, u = w[::-1], u[:, ::-1]  # largest first
    keep = w > d * d * np.finfo(np.float64).eps * w[0]
    if not keep.any():
        return Operation._adopt(np.zeros((1, d, d), dtype=np.complex128))
    vecs = u[:, keep] * np.sqrt(w[keep])
    return Operation._adopt(vecs.T.reshape(-1, d, d))


def choi_distance(op1: Operation, op2: Operation) -> float:
    """Frobenius distance between Choi matrices: 0 iff the maps are equal.

    The Choi matrix is the Gram sum (``_gram``) with its entries permuted,
    which the Frobenius norm does not see, so the Gram sums are compared.
    """
    if op1.dim != op2.dim:
        raise DimMismatchError("maps on different dimensions are never comparable")
    return frobenius(_gram(op1) - _gram(op2))


def maps_equal(op1: Operation, op2: Operation, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Extensional equality of operations (equal action on every state)."""
    return choi_distance(op1, op2) <= tol.eq_tol
