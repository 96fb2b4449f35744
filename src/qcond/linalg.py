"""Finite-dimensional Hermitian linear algebra used by every other module.

All matrices are dense ``numpy.ndarray`` of complex128.  Comparisons are
tolerance-based and every tolerance flows through a :class:`Tolerance` value
instead of ad-hoc constants, so scene files and the CLI can override them
coherently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import (
    DimMismatchError, InvalidTypeError, InvalidValueError, NotCommutingFamilyError,
    NotHermitianError, NotPSDError,
)

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "as_matrix",
    "dagger",
    "frobenius",
    "commutator",
    "is_hermitian",
    "hermitian_eig",
    "psd_sqrt",
    "loewner_leq",
    "trace_product",
    "simultaneous_eigenbasis",
]


@dataclass(frozen=True)
class Tolerance:
    """Finite, non-negative slack: ``eq_tol`` for equalities, ``psd_tol`` for eigenvalue floors."""

    eq_tol: float = 1e-9
    psd_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not (0.0 <= self.eq_tol < math.inf and 0.0 <= self.psd_tol < math.inf):
            raise InvalidValueError("tolerances must be finite and non-negative")


DEFAULT_TOL = Tolerance()


def _complex_array(m, copy: bool = False) -> np.ndarray:
    """Array-like input as a complex128 array, a copy when copy is set (else only if needed).

    The one conversion of matrix arguments: a ragged or non-numeric input
    raises InvalidValueError or InvalidTypeError, not numpy's bare builtin.
    """
    try:
        return (np.array if copy else np.asarray)(m, dtype=np.complex128)
    except ValueError as exc:  # a ragged or non-numeric literal
        raise InvalidValueError(f"not a matrix of numbers: {exc}") from None
    except TypeError as exc:
        raise InvalidTypeError(f"not a matrix of numbers: {exc}") from None


def as_matrix(m) -> np.ndarray:
    """Coerce array-like input to a square complex128 matrix (copies)."""
    return _square_matrix(m, copy=True)


def _square_matrix(m, copy: bool = False) -> np.ndarray:
    """``_complex_array`` of m, which must be one square matrix (else DimMismatchError)."""
    a = _complex_array(m, copy)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimMismatchError(f"expected a square matrix, got shape {a.shape}")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes, so it maps over a Kraus stack."""
    return m.conj().swapaxes(-1, -2)


def frobenius(m: np.ndarray) -> float:
    """Frobenius norm, the default distance between operators here."""
    return float(np.linalg.norm(m))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m*) / 2, of one matrix or of each matrix of a stack."""
    return (m + dagger(m)) / 2.0


def _spectrum(m: np.ndarray, vectors: bool = False):
    """Ascending eigenvalues of m's Hermitian part (one matrix or each of a stack).

    With ``vectors`` the pair ``(w, v)`` from ``eigh``, the columns of v the
    eigenvectors.  A matrix whose Hermitian part is not finite (an entry near
    the float64 limit doubles past it) gets NaN eigenvalues, and NaN
    eigenvectors, at every d: LAPACK returns NaN for it at d = 2 but raises
    beyond, so such a matrix is kept out of the call.  No bound written as
    ``not w <= bound`` lets a NaN pass.  The others' spectra are equal bit for
    bit to one call per matrix.
    """
    h = _hermitian_part(m)
    sound = np.isfinite(h).all(axis=(-2, -1))
    if sound.all():
        return np.linalg.eigh(h) if vectors else np.linalg.eigvalsh(h)
    w = np.full(h.shape[:-1], np.nan)
    v = np.full(h.shape, np.nan, dtype=np.complex128)
    if sound.any():  # some matrices of a stack
        if vectors:
            w[sound], v[sound] = np.linalg.eigh(h[sound])
        else:
            w[sound] = np.linalg.eigvalsh(h[sound])
    return (w, v) if vectors else w


def _commutator_norms(mats: Sequence[np.ndarray]):
    """Lazily, ||[X, Y]|| (Frobenius) for each pair of the matrices, in ``combinations`` order."""
    return (frobenius(commutator(x, y)) for x, y in combinations(mats, 2))


def _hermitian_defect(m: np.ndarray, tol: Tolerance) -> float | None:
    """||m - m^dagger|| when it is not within eq_tol (NaN included), else None."""
    dev = frobenius(m - dagger(m))
    return None if dev <= tol.eq_tol else dev


def is_hermitian(m, tol: Tolerance = DEFAULT_TOL) -> bool:
    return _hermitian_defect(as_matrix(m), tol) is None


def hermitian_eig(m, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` real and ascending and the
    columns of ``v`` an orthonormal eigenbasis, so that
    ``m == (v * w) @ v.conj().T`` within tolerance.  ``m`` may also be an
    (n, d, d) stack: then ``w`` is (n, d) and ``v`` (n, d, d), from one
    stacked ``eigh`` and equal bit for bit to per-matrix calls.  Raises
    :class:`NotHermitianError` when ``m`` (any matrix of a stack) is not
    Hermitian within ``eq_tol``.
    """
    m = _complex_array(m)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise DimMismatchError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    # A stack's defect screens all its matrices at once; each is judged on its own.
    if _hermitian_defect(m, tol) is not None:
        for one in m.reshape(-1, *m.shape[-2:]):
            if (dev := _hermitian_defect(one, tol)) is not None:
                raise NotHermitianError(f"matrix deviates from Hermitian by {dev:.3e}")
    return _spectrum(m, vectors=True)


def psd_sqrt(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Positive-semidefinite square root with eigenvalue clamping.

    Eigenvalues within ``psd_tol`` of zero are treated as numerical noise
    and clamped to 0 — the square root would otherwise amplify round-off
    (sqrt turns a 1e-16 perturbation of a projection into a 1e-8 one).
    Anything below ``-psd_tol``, or NaN, raises :class:`NotPSDError`.  An
    (n, d, d) stack gives the stack of roots, matrix by matrix as ``hermitian_eig``.
    """
    w, v = hermitian_eig(m, tol)
    _psd_floor(w, tol)
    w = np.where(w < tol.psd_tol, 0.0, w)
    return (v * np.sqrt(w)[..., None, :]) @ dagger(v)


def _psd_floor(w: np.ndarray, tol: Tolerance) -> None:
    """Raise NotPSDError unless each ascending spectrum in w starts at -psd_tol or above (NaN fails).

    w is one spectrum or an (n, d) stack of them; the error names the lowest
    eigenvalue of the first spectrum that fails, as a call on that matrix alone would.
    """
    above = w[..., 0] >= -tol.psd_tol
    if not above.all():
        first = w.reshape(-1, w.shape[-1])[np.argmin(above.reshape(-1))]
        raise NotPSDError(f"matrix has eigenvalue {np.min(first):.3e} below -psd_tol")


def loewner_leq(a, b, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Loewner order test ``a <= b``: is ``b - a`` PSD within ``psd_tol``?"""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise DimMismatchError(f"operands have shapes {a.shape} and {b.shape}")
    for name, m in (("a", a), ("b", b)):
        if (dev := _hermitian_defect(m, tol)) is not None:
            raise NotHermitianError(f"operand {name} deviates from Hermitian by {dev:.3e}")
    return bool(_spectrum(b - a)[0] >= -tol.psd_tol)


def trace_product(a, b):
    """tr(a @ b) without forming the product matrix.

    Either operand may also be an (n, d, d) stack, or both, of one length:
    the result is the (n,) complex array of tr(a[s] @ b), tr(a @ b[s]) or
    tr(a[s] @ b[s]) from one contraction, equal bit for bit to one call per
    matrix (but not always to tr(b @ a), the operands swapped).
    """
    a = _complex_array(a)
    b = _complex_array(b)
    if (
        a.ndim not in (2, 3)
        or b.ndim not in (2, 3)
        or a.shape[-2:] != b.shape[-2:][::-1]
        or a.ndim == b.ndim == 3 and len(a) != len(b)
    ):
        raise DimMismatchError(f"cannot trace product of shapes {a.shape} and {b.shape}")
    out = np.einsum("...ij,...ji->...", a, b)
    return out if out.ndim else complex(out)


def _eig_blocks(w: np.ndarray, gap: float) -> list[slice]:
    """Split ascending eigenvalues into clusters separated by more than gap."""
    edges = [0]
    for i in range(1, len(w)):
        if w[i] - w[i - 1] > gap:
            edges.append(i)
    edges.append(len(w))
    return [slice(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]


def simultaneous_eigenbasis(
    mats: Sequence[np.ndarray], tol: Tolerance = DEFAULT_TOL
) -> list[np.ndarray]:
    """Common orthonormal eigenbasis of a commuting Hermitian family.

    Strategy: diagonalize a random real linear combination of the family,
    its coefficients drawn from a generator seeded with the fixed seed 0 (so
    the basis is deterministic), then refine every degenerate eigenvalue block
    against each family member in turn.  After refinement each block is a
    joint eigenspace, so any orthonormal basis of it is simultaneously
    diagonalizing.  Raises :class:`NotCommutingFamilyError` when some pair
    fails ``||[A, B]|| <= eq_tol`` (a NaN norm fails it).
    """
    family = [as_matrix(m) for m in mats]
    if not family:
        raise DimMismatchError("empty family")
    dim = family[0].shape[0]
    for m in family:
        if m.shape[0] != dim:
            raise DimMismatchError("family members have mixed dimensions")
        if (dev := _hermitian_defect(m, tol)) is not None:
            raise NotHermitianError(f"family member deviates from Hermitian by {dev:.3e}")
    for (i, j), dev in zip(combinations(range(len(family)), 2), _commutator_norms(family)):
        if not dev <= tol.eq_tol:
            raise NotCommutingFamilyError(f"members {i} and {j} have commutator norm {dev:.3e}")

    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal(len(family))
    probe = sum(c * m for c, m in zip(coeffs, family))

    basis = np.eye(dim, dtype=np.complex128)
    blocks = [slice(0, dim)]
    # Refining with the probe first splits everything generic; the family
    # pass guarantees correctness even where the probe stays degenerate.
    for m in [probe, *family]:
        scale = max(1.0, float(np.abs(_spectrum(m)).max()))
        gap = max(100.0 * tol.eq_tol, 1e-7) * scale
        new_blocks: list[slice] = []
        for blk in blocks:
            if blk.stop - blk.start == 1:
                new_blocks.append(blk)
                continue
            sub = dagger(basis[:, blk]) @ m @ basis[:, blk]
            w, u = _spectrum(sub, vectors=True)
            basis[:, blk] = basis[:, blk] @ u
            for inner in _eig_blocks(w, gap):
                new_blocks.append(slice(blk.start + inner.start, blk.start + inner.stop))
        blocks = new_blocks
    return [basis[:, k].copy() for k in range(dim)]
