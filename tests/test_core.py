import math

import numpy as np
import pytest

from qcond import (
    Violation,
    complement,
    is_atomic,
    is_sharp,
    perp,
    prob,
    validate_effect,
    validate_state,
)
from qcond.rand import Generator, random_effect, random_state


def test_prob_examples(qubit):
    assert prob(np.eye(2) / 2, qubit["P0"]) == pytest.approx(0.5)
    assert prob(qubit["P0"], np.eye(2)) == pytest.approx(1.0)
    assert prob(qubit["P0"], qubit["plus"]) == pytest.approx(0.5)


def test_prob_clamps_roundoff_negative():
    rho = np.diag([1.0, 0.0]).astype(complex)
    a = np.diag([0.0, -1e-12]).astype(complex)  # slightly negative population
    assert prob(rho, a) == 0.0


def test_prob_additive_over_complement():
    g = Generator(21)
    for t in range(20):
        rho = random_state(g.derive(t, 0), 3)
        a = random_effect(g.derive(t, 1), 3)
        assert prob(rho, a) + prob(rho, complement(a)) == pytest.approx(1.0, abs=1e-10)
        assert -1e-12 <= prob(rho, a) <= 1.0 + 1e-12


def test_complement(qubit):
    assert np.allclose(complement(qubit["P0"]), qubit["P1"])
    assert np.allclose(complement(np.eye(2)), np.zeros((2, 2)))
    assert np.allclose(complement(0.3 * np.eye(2)), 0.7 * np.eye(2))
    a = 0.4 * np.eye(2)
    assert np.allclose(complement(complement(a)), a)


def test_perp(qubit):
    assert perp(qubit["P0"], qubit["P1"])
    assert not perp(np.eye(2), np.eye(2))
    assert not perp(0.6 * np.eye(2), 0.5 * np.eye(2))


def test_sharp_and_atomic(qubit):
    assert is_sharp(qubit["P0"]) and is_atomic(qubit["P0"])
    assert is_sharp(np.eye(2)) and not is_atomic(np.eye(2))
    assert not is_sharp(0.5 * np.eye(2))
    assert is_atomic(qubit["plus"])


def test_validate_state():
    assert validate_state(np.diag([0.5, 0.5])) == []
    bad_trace = validate_state(np.diag([0.5, 0.4]))
    assert [v.invariant for v in bad_trace] == ["unit-trace"]
    not_psd = validate_state(np.diag([1.5, -0.5]))
    assert any(v.invariant == "positive" for v in not_psd)
    not_herm = validate_state(np.array([[0.5, 0.5], [0.0, 0.5]]))
    assert any(v.invariant == "hermitian" for v in not_herm)


def test_validate_effect():
    assert validate_effect(np.diag([1.0, 0.0])) == []
    too_big = validate_effect(np.diag([1.5, 0.0]))
    assert any(v.invariant == "below-identity" for v in too_big)
    negative = validate_effect(np.diag([-0.2, 0.5]))
    assert any(v.invariant == "positive" for v in negative)


def test_violation_reports_magnitude():
    (v,) = validate_state(np.diag([0.5, 0.4]))
    assert v.magnitude == pytest.approx(0.1)


@pytest.mark.parametrize("bad", (math.inf, math.nan), ids=("inf", "nan"))
def test_validate_state_of_a_non_finite_matrix_is_one_violation(bad):
    assert validate_state(np.diag([bad, 0.5])) == [Violation("finite", math.inf)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_spectrum_past_the_float64_limit_breaks_both_bounds():
    # (m + m*)/2 overflows to inf and eigvalsh returns NaN, which no "<" or ">" bound caught.
    big = np.full((2, 2), 1e308)
    effect = validate_effect(big)
    assert [v.invariant for v in effect] == ["positive", "below-identity"]
    assert all(math.isnan(v.magnitude) for v in effect)
    assert [v.invariant for v in validate_state(big)] == ["positive", "unit-trace"]
    # eigvalsh raises on such a matrix from d = 3 on; the validators still name both bounds.
    effect = validate_effect(np.full((3, 3), 1e308))
    assert [v.invariant for v in effect] == ["positive", "below-identity"]
    assert all(math.isnan(v.magnitude) for v in effect)
