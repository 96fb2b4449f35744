import numpy as np
import pytest

from qcond import (
    DimMismatchError,
    Operation,
    ZeroProbabilityConditionError,
    apply,
    bayes2_residual,
    choi_distance,
    choi_matrix,
    compose,
    conditional_prob,
    dual_apply,
    frobenius,
    holevo,
    is_channel,
    luders,
    maps_equal,
    measured_effect,
    psd_sqrt,
    sequential_product,
    updated_state,
    validate_operation,
)
from qcond.rand import (
    Generator,
    random_effect,
    random_hermitian,
    random_operation_measuring,
    random_state,
)


def test_apply_examples(qubit):
    half = np.eye(2) / 2
    assert np.allclose(apply(luders(qubit["P0"]), half), np.diag([0.5, 0.0]))
    assert np.allclose(
        apply(holevo(qubit["P0"], qubit["P1"]), half), 0.5 * qubit["P1"]
    )
    flip = Operation((qubit["X"],))
    assert np.allclose(apply(flip, qubit["P0"]), qubit["P1"])


def test_dual_apply_is_the_adjoint():
    g = Generator(31)
    for t in range(20):
        dim = 2 + t % 3
        op = random_operation_measuring(
            g.derive(t, 0), random_effect(g.derive(t, 1), dim), 2
        )
        rho = random_state(g.derive(t, 2), dim)
        h = random_hermitian(g.derive(t, 3), dim)
        lhs = np.trace(apply(op, rho) @ h)
        rhs = np.trace(rho @ dual_apply(op, h))
        assert abs(lhs - rhs) <= 1e-9


def test_luders_is_self_dual(qubit):
    a = np.array([[0.7, 0.1], [0.1, 0.4]], dtype=complex)
    ctx = luders(a)
    h = random_hermitian(Generator(32), 2)
    assert np.allclose(apply(ctx, h), dual_apply(ctx, h))


def test_holevo_dual_formula(qubit):
    alpha = np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex)
    a = np.array([[0.5, 0.1], [0.1, 0.8]], dtype=complex)
    ctx = holevo(a, alpha)
    for b in (qubit["P0"], qubit["plus"], np.eye(2)):
        expected = np.trace(alpha @ b) * a
        assert frobenius(dual_apply(ctx, b) - expected) <= 1e-12


def test_channel_dual_preserves_identity():
    g = Generator(33)
    from qcond.rand import random_channel

    ch = random_channel(g, 3, 2)
    assert frobenius(dual_apply(ch, np.eye(3)) - np.eye(3)) <= 1e-12


def test_measured_effect(qubit):
    a = np.array([[0.5, 0.1], [0.1, 0.8]], dtype=complex)
    assert frobenius(measured_effect(luders(a)) - a) <= 1e-12
    assert frobenius(measured_effect(holevo(a, qubit["P1"])) - a) <= 1e-12
    assert np.allclose(measured_effect(Operation((qubit["X"],))), np.eye(2))


def test_is_channel(qubit):
    assert is_channel(Operation((np.eye(2),)))
    assert not is_channel(luders(qubit["P0"]))
    assert is_channel(Operation((qubit["P0"], qubit["P1"])))


def test_compose_kraus_and_ordering(qubit):
    a = np.array([[0.5, 0.1], [0.1, 0.8]], dtype=complex)
    b = np.array([[0.9, 0.0], [0.0, 0.2]], dtype=complex)
    first, second = luders(a), luders(b)
    c = compose(first, second)
    assert len(c.kraus) == 1
    assert np.allclose(c.kraus[0], psd_sqrt(b) @ psd_sqrt(a))
    rho = np.full((2, 2), 0.5, dtype=complex)
    assert np.allclose(apply(c, rho), apply(second, apply(first, rho)))
    # dual runs in the reverse order
    h = qubit["Z"]
    assert np.allclose(
        dual_apply(c, h), dual_apply(first, dual_apply(second, h))
    )


def test_compose_identity_is_neutral():
    g = Generator(34)
    op = random_operation_measuring(g, random_effect(g.derive(1), 2), 2)
    ident = Operation((np.eye(2),))
    assert maps_equal(compose(ident, op), op)
    assert maps_equal(compose(op, ident), op)


def test_holevo_composition_law(qubit):
    a = np.array([[0.5, 0.1], [0.1, 0.8]], dtype=complex)
    b = np.array([[0.3, 0.0], [0.0, 0.9]], dtype=complex)
    alpha = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
    beta = qubit["plus"]
    composed = compose(holevo(a, alpha), holevo(b, beta))
    weight = np.trace(alpha @ b).real
    assert maps_equal(composed, holevo(weight * a, beta))


def test_sequential_product(qubit):
    a = np.array([[0.5, 0.1], [0.1, 0.8]], dtype=complex)
    b = qubit["plus"]
    ctx = luders(a)
    expected = psd_sqrt(a) @ b @ psd_sqrt(a)
    assert np.allclose(sequential_product(ctx, b), expected)
    # b = I returns the measured effect itself
    assert np.allclose(sequential_product(ctx, np.eye(2)), a)


def test_sequential_product_atomic_is_scalar_multiple(qubit):
    g = Generator(35)
    atom = qubit["plus"]
    ctx = random_operation_measuring(g, atom, 3)
    b = random_effect(g.derive(1), 2)
    out = sequential_product(ctx, b)
    lam = np.trace(atom @ out).real / np.trace(atom).real
    assert 0.0 - 1e-10 <= lam <= 1.0 + 1e-10
    assert frobenius(out - lam * atom) <= 1e-9


def test_conditional_prob(qubit):
    half = np.eye(2) / 2
    ctx = luders(qubit["P0"])
    assert conditional_prob(half, ctx, qubit["plus"]) == pytest.approx(0.5)
    assert conditional_prob(half, ctx, np.eye(2)) == pytest.approx(1.0)


def test_conditional_prob_holevo_is_state_independent(qubit):
    a = np.array([[0.5, 0.1], [0.1, 0.8]], dtype=complex)
    alpha = np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex)
    ctx = holevo(a, alpha)
    b = qubit["plus"]
    expected = np.trace(alpha @ b).real
    for rho in (np.eye(2) / 2, np.diag([0.9, 0.1]), np.diag([0.2, 0.8])):
        assert conditional_prob(rho.astype(complex), ctx, b) == pytest.approx(expected)


def test_conditional_prob_zero_condition(qubit):
    with pytest.raises(ZeroProbabilityConditionError):
        conditional_prob(qubit["P1"], luders(qubit["P0"]), qubit["plus"])


def test_updated_state(qubit):
    half = np.eye(2) / 2
    assert np.allclose(updated_state(half, luders(qubit["P0"])), qubit["P0"])
    alpha = np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex)
    hol = holevo(np.diag([0.5, 0.7]).astype(complex), alpha)
    assert np.allclose(updated_state(np.diag([0.3, 0.7]).astype(complex), hol), alpha)
    ident = Operation((np.eye(2),))
    assert np.allclose(updated_state(half, ident), half)


def test_constructor_shapes(qubit):
    assert len(luders(np.eye(2)).kraus) == 1
    assert is_channel(luders(np.eye(2)))
    assert np.allclose(
        apply(holevo(qubit["P0"], qubit["P1"]), qubit["P0"]), qubit["P1"]
    )
    assert len(luders(qubit["P0"]).kraus) == 1
    assert len(holevo(qubit["P0"], qubit["P1"]).kraus) == 1


def test_bayes2_residual(qubit):
    rho = np.diag([0.9, 0.1]).astype(complex)
    ctx0, ctx1 = luders(qubit["P0"]), luders(qubit["P1"])
    assert bayes2_residual(np.diag([0.5, 0.5]).astype(complex), ctx0, ctx1) <= 1e-12
    # a = P0, b = |+><+| at diag(.9, .1): the two routes differ by 2/9
    ctxp = luders(qubit["plus"])
    assert bayes2_residual(rho, ctx0, ctxp) == pytest.approx(2.0 / 9.0)
    assert bayes2_residual(rho, ctx0, ctx0) <= 1e-12


def test_dual_additivity():
    g = Generator(36)
    op = random_operation_measuring(g, random_effect(g.derive(1), 3), 2)
    b = random_effect(g.derive(2), 3)
    c = random_effect(g.derive(3), 3)
    lhs = dual_apply(op, b + c)
    rhs = dual_apply(op, b) + dual_apply(op, c)
    assert frobenius(lhs - rhs) <= 1e-12


def test_luders_closure_iff_commuting(qubit):
    # commuting pair: composition is the Lüders context of a^{1/2} b a^{1/2}
    a = np.diag([0.5, 0.125]).astype(complex)
    b = np.diag([0.25, 0.75]).astype(complex)
    composed = compose(luders(a), luders(b))
    target = luders(psd_sqrt(a) @ b @ psd_sqrt(a))
    assert maps_equal(composed, target)
    # noncommuting pair: the maps differ
    p = qubit["plus"]
    composed = compose(luders(a), luders(p))
    target = luders(psd_sqrt(a) @ p @ psd_sqrt(a))
    assert choi_distance(composed, target) > 1e-6


def test_choi_matrix_against_matrix_unit_loop():
    """The Choi matrix must agree with applying the map to every matrix unit."""
    g = Generator(37)
    op = random_operation_measuring(g, random_effect(g.derive(1), 3), 2)
    n = 3
    expected = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            unit = np.zeros((n, n), dtype=complex)
            unit[i, j] = 1.0
            expected[i * n : (i + 1) * n, j * n : (j + 1) * n] = apply(op, unit)
    assert frobenius(choi_matrix(op) - expected) <= 1e-9


def test_choi_distance_separates_maps(qubit):
    assert choi_distance(luders(qubit["P0"]), luders(qubit["P1"])) > 0.5
    with pytest.raises(DimMismatchError):
        choi_distance(Operation((np.eye(2),)), Operation((np.eye(3),)))


def test_validation_helpers(qubit):
    ok = luders(qubit["P0"])
    assert validate_operation(ok) == []
    too_big = Operation((np.eye(2) * 1.2,))
    assert any(v.invariant == "kraus-trace-bound" for v in validate_operation(too_big))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_kraus_operators_near_the_float64_limit_break_the_trace_bound():
    # sum K*K is finite (entries 1.6e308) but its Hermitian part is not, so its spectrum is NaN.
    (v,) = validate_operation(Operation((np.full((2, 2), 9e153),)))
    assert v.invariant == "kraus-trace-bound" and np.isnan(v.magnitude)
