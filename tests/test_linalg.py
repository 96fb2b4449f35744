from pathlib import Path

import numpy as np
import pytest

import qcond
from qcond import (
    DimMismatchError,
    NotCommutingFamilyError,
    NotHermitianError,
    NotPSDError,
    Tolerance,
    commutator,
    dagger,
    frobenius,
    hermitian_eig,
    loewner_leq,
    psd_sqrt,
    simultaneous_eigenbasis,
    trace_product,
)
from qcond.rand import Generator, random_hermitian, random_projection, random_unitary


def test_tolerance_rejects_negative():
    with pytest.raises(ValueError):
        Tolerance(eq_tol=-1.0)
    with pytest.raises(ValueError):
        Tolerance(psd_tol=-1e-3)


def test_hermitian_eig_diagonal():
    w, v = hermitian_eig(np.diag([3.0, 1.0]).astype(complex))
    assert np.allclose(w, [1.0, 3.0])
    assert np.allclose(np.abs(v), [[0, 1], [1, 0]])


def test_hermitian_eig_pauli_x():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    w, v = hermitian_eig(x)
    assert np.allclose(w, [-1.0, 1.0])
    # columns are (1, -1)/sqrt(2) and (1, 1)/sqrt(2) up to phase
    for k in range(2):
        assert np.allclose(x @ v[:, k], w[k] * v[:, k])


def test_hermitian_eig_complex_offdiagonal():
    # spectrum of [[2, i], [-i, 2]] is {1, 3}
    m = np.array([[2.0, 1j], [-1j, 2.0]])
    w, _ = hermitian_eig(m)
    assert np.allclose(w, [1.0, 3.0])


def test_hermitian_eig_reconstruction_random():
    for dim in range(2, 7):
        g = Generator(11).derive(dim)
        m = random_hermitian(g, dim)
        w, v = hermitian_eig(m)
        assert np.all(np.diff(w) >= -1e-12)  # ascending
        assert frobenius((v * w) @ dagger(v) - m) <= 1e-10
        assert frobenius(dagger(v) @ v - np.eye(dim)) <= 1e-10


def test_hermitian_eig_rejects_nonhermitian():
    with pytest.raises(NotHermitianError, match=r"^matrix deviates from Hermitian by 1\.414e\+00$"):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_psd_sqrt_examples():
    assert np.allclose(psd_sqrt(np.diag([4.0, 1.0])), np.diag([2.0, 1.0]))
    assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3))
    proj = np.full((2, 2), 0.5)
    assert np.allclose(psd_sqrt(proj), proj)


def test_psd_sqrt_squares_back():
    for dim in (2, 3, 5):
        g = Generator(12).derive(dim)
        m = random_hermitian(g, dim)
        m = m @ m  # PSD
        r = psd_sqrt(m)
        assert frobenius(r @ r - m) <= 1e-9
        assert frobenius(r - dagger(r)) <= 1e-12


def test_psd_sqrt_exact_on_projections():
    # Round-off eigenvalues of order 1e-16 must not surface as 1e-8 noise
    # in the root; projections come back bit-clean up to ~1e-15.
    g = Generator(13)
    p = random_projection(g, 4, 2)
    assert frobenius(psd_sqrt(p) - p) <= 1e-12


def test_psd_sqrt_clamps_small_negatives():
    m = np.diag([1.0, -5e-11])
    r = psd_sqrt(m)
    assert np.allclose(r, np.diag([1.0, 0.0]))


def test_psd_sqrt_rejects_negative():
    with pytest.raises(NotPSDError):
        psd_sqrt(np.diag([1.0, -0.5]))


def test_loewner_examples():
    assert loewner_leq(np.diag([1.0, 0.0]), np.eye(2))
    assert not loewner_leq(np.eye(2), np.diag([1.0, 0.0]))
    p = np.full((2, 2), 0.5)
    assert loewner_leq(0.5 * p, p)


def test_loewner_reflexive_and_antisymmetric():
    g = Generator(14)
    for t in range(10):
        m = random_hermitian(g.derive(t), 3)
        m = m @ m
        assert loewner_leq(m, m)
        bump = m + 1e-3 * np.eye(3)
        assert loewner_leq(m, bump) and not loewner_leq(bump, m)


def test_loewner_rejects_nonhermitian():
    with pytest.raises(NotHermitianError, match="^operand a deviates from Hermitian"):
        loewner_leq(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))
    with pytest.raises(NotHermitianError, match="^operand b deviates from Hermitian"):
        loewner_leq(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_trace_product_examples():
    assert trace_product(np.eye(2) / 2, np.diag([1.0, 0.0])) == pytest.approx(0.5)
    assert trace_product(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(0.0)
    assert trace_product(np.diag([0.75, 0.25]), np.diag([2.0, -2.0])).real == pytest.approx(1.0)


def test_trace_product_dim_mismatch():
    with pytest.raises(DimMismatchError):
        trace_product(np.eye(2), np.eye(3))


def test_simultaneous_eigenbasis_standard():
    basis = simultaneous_eigenbasis([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    m = np.abs(np.column_stack(basis))
    # standard basis up to column order and phase: a permutation matrix
    assert np.allclose(np.sort(m, axis=0), [[0.0, 0.0], [1.0, 1.0]])


def test_simultaneous_eigenbasis_x_family():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    basis = simultaneous_eigenbasis([x, np.eye(2)])
    for v in basis:
        assert np.allclose(np.abs(v), [np.sqrt(0.5), np.sqrt(0.5)])


def test_simultaneous_eigenbasis_rejects_noncommuting():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(NotCommutingFamilyError):
        simultaneous_eigenbasis([x, z])
    with pytest.raises(NotHermitianError, match="^family member deviates from Hermitian"):
        simultaneous_eigenbasis([np.array([[0.0, 1.0], [0.0, 0.0]])])


@pytest.mark.filterwarnings("ignore:.*encountered in matmul:RuntimeWarning")
def test_simultaneous_eigenbasis_rejects_a_nan_commutator():
    # Hermitian, but [x, z] has entries near 1e400, so its norm is NaN: no
    # evidence that the pair commutes.
    x = np.array([[0, 1e200], [1e200, 0]], dtype=complex)
    z = np.diag([1e200, -1e200]).astype(complex)
    with pytest.raises(NotCommutingFamilyError, match="members 1 and 2 have commutator norm nan"):
        simultaneous_eigenbasis([np.eye(2), x, z])


def test_simultaneous_eigenbasis_degenerate_family():
    """Shared degenerate blocks still come out jointly diagonal."""
    g = Generator(15)
    for t in range(8):
        dim = 4
        u = random_unitary(g.derive(t), dim)
        a = (u * np.array([1.0, 1.0, 0.0, 0.0])) @ dagger(u)
        b = (u * np.array([0.5, 0.2, 0.2, 0.9])) @ dagger(u)
        basis = simultaneous_eigenbasis([a, b])
        v = np.column_stack(basis)
        assert frobenius(dagger(v) @ v - np.eye(dim)) <= 1e-9
        for m in (a, b):
            conj = dagger(v) @ m @ v
            off = conj - np.diag(np.diag(conj))
            assert frobenius(off) <= 1e-9


def test_commutator_and_frobenius():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    c = commutator(x, z)
    assert np.allclose(c, x @ z - z @ x)
    assert frobenius(np.zeros((2, 2))) == 0.0


def test_the_hermitian_part_is_formed_only_in_linalg():
    # One (m + m*)/2, linalg._hermitian_part, so one place decides how it is taken.
    holders = {
        path.name: path.read_text(encoding="utf-8").count("+ dagger(")
        for path in sorted(Path(qcond.__file__).parent.glob("*.py"))
    }
    assert {name: n for name, n in holders.items() if n} == {"linalg.py": 1}
