import numpy as np
import pytest

from qcond import (
    Instrument,
    Observable,
    Operation,
    RealValuedObservable,
    commutator_trace,
    condition_observable,
    conditioned_stochastic_operator,
    contextual_correlation,
    contextual_covariance,
    contextual_expectation,
    contextual_variance,
    expectation,
    holevo_instrument,
    holevo_moments,
    luders_instrument,
    sharp_luders_moments,
    stochastic_operator,
    uncertainty_report,
)
from qcond.rand import (
    Generator,
    random_instrument_measuring,
    random_observable,
    random_projective_observable,
    random_real_values,
    random_state,
)


def _block_setup():
    """A dim-3 sharp degenerate context with every number worked out by hand."""
    rho = np.array(
        [[0.4, 0.1j, 0.0], [-0.1j, 0.3, 0.1], [0.0, 0.1, 0.3]], dtype=complex
    )
    blocks = Observable(
        ("01", "2"),
        {"01": np.diag([1.0, 1.0, 0.0]).astype(complex),
         "2": np.diag([0.0, 0.0, 1.0]).astype(complex)},
    )
    b_hit = np.array([[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0, 0.3]], dtype=complex)
    b = RealValuedObservable(
        Observable(("hit", "miss"), {"hit": b_hit, "miss": np.eye(3) - b_hit}),
        {"hit": 1.0, "miss": -1.0},
    )
    c_hit = np.diag([0.9, 0.2, 0.5]).astype(complex)
    c = RealValuedObservable(
        Observable(("hit", "miss"), {"hit": c_hit, "miss": np.eye(3) - c_hit}),
        {"hit": 1.0, "miss": -1.0},
    )
    return rho, blocks, b, c


def _holevo_setup(qubit):
    rho = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
    z = Observable(("0", "1"), {"0": qubit["P0"], "1": qubit["P1"]})
    alphas = {"0": qubit["plus"], "1": qubit["P1"]}
    b_hit = np.array([[0.9, 0.3], [0.3, 0.1]], dtype=complex)
    b = RealValuedObservable(
        Observable(("hit", "miss"), {"hit": b_hit, "miss": np.eye(2) - b_hit}),
        {"hit": 1.0, "miss": -1.0},
    )
    c = RealValuedObservable(z, {"0": 1.0, "1": -1.0})
    return rho, z, alphas, b, c


def test_sharp_block_numbers():
    rho, blocks, b, c = _block_setup()
    ins = luders_instrument(blocks)
    assert contextual_expectation(rho, ins, b) == pytest.approx(-0.12)
    assert contextual_expectation(rho, ins, c) == pytest.approx(0.14)
    assert contextual_correlation(rho, ins, b, c) == pytest.approx(0.0168 + 0.14j)
    assert contextual_covariance(rho, ins, b, c) == pytest.approx(0.0168)
    assert contextual_variance(rho, ins, b) == pytest.approx(0.7336)
    assert contextual_variance(rho, ins, c) == pytest.approx(0.3444)
    assert commutator_trace(rho, ins, b, c) == pytest.approx(0.28j)
    rep = uncertainty_report(rho, ins, b, c)
    assert rep.identity_residual <= 1e-12
    assert rep.inequality_slack == pytest.approx(0.2327696)


def test_holevo_numbers(qubit):
    rho, z, alphas, b, c = _holevo_setup(qubit)
    ins = holevo_instrument(z, alphas)
    assert contextual_expectation(rho, ins, b) == pytest.approx(0.18)
    assert contextual_expectation(rho, ins, c) == pytest.approx(-0.3)
    assert contextual_correlation(rho, ins, b, c) == pytest.approx(0.294 + 0j)
    assert contextual_variance(rho, ins, b) == pytest.approx(0.4116)
    assert contextual_variance(rho, ins, c) == pytest.approx(0.21)
    assert commutator_trace(rho, ins, b, c) == pytest.approx(0.0)
    rep = uncertainty_report(rho, ins, b, c)
    assert rep.identity_residual <= 1e-12
    # the Cauchy-Schwarz bound saturates for this rank-degenerate context
    assert rep.inequality_slack == pytest.approx(0.0, abs=1e-12)


def test_expectation_reduces_without_measurement(qubit):
    """The trivial instrument leaves the bare expectation untouched."""
    triv = Instrument(("u",), {"u": Operation((np.eye(2),))})
    b = RealValuedObservable(
        Observable(("+", "-"), {"+": qubit["plus"], "-": qubit["minus"]}),
        {"+": 1.0, "-": -1.0},
    )
    rho = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
    assert contextual_expectation(rho, triv, b) == pytest.approx(expectation(rho, b))


def test_sharp_luders_expectation_dephasing(qubit):
    z = Observable(("0", "1"), {"0": qubit["P0"], "1": qubit["P1"]})
    b = RealValuedObservable(z, {"0": 1.0, "1": -1.0})
    assert sharp_luders_moments(np.eye(2) / 2, z, b, b).expectation_b == pytest.approx(0.0)


def test_correlation_structure():
    rho, blocks, b, c = _block_setup()
    ins = luders_instrument(blocks)
    # self-correlation is the (real) variance
    cor_bb = contextual_correlation(rho, ins, b, b)
    assert cor_bb.imag == pytest.approx(0.0, abs=1e-12)
    assert cor_bb.real == pytest.approx(contextual_variance(rho, ins, b))
    # conjugate symmetry
    assert np.conj(contextual_correlation(rho, ins, b, c)) == pytest.approx(
        contextual_correlation(rho, ins, c, b)
    )
    # a constant observable decorrelates from everything
    const = RealValuedObservable(
        Observable(("u",), {"u": np.eye(3)}), {"u": 2.5}
    )
    assert contextual_correlation(rho, ins, const, c) == pytest.approx(0.0)
    assert contextual_variance(rho, ins, const) == pytest.approx(0.0)
    assert commutator_trace(rho, ins, b, b) == pytest.approx(0.0)


def test_conditioned_stochastic_operator_routes():
    # The dual of the bar channel on Btilde is, by linearity, the stochastic
    # operator of the conditioned observable (B | A).
    g = Generator(61)
    for dim in (2, 3, 5):
        a = random_observable(g.derive(dim, 0), dim, 3)
        b = random_real_values(g.derive(dim, 1), random_observable(g.derive(dim, 2), dim, 3))
        alphas = {x: random_state(g.derive(dim, 3, i), dim) for i, x in enumerate(a.outcomes)}
        for ins in (
            luders_instrument(random_projective_observable(g.derive(dim, 4), dim, 2)),
            holevo_instrument(a, alphas),
            random_instrument_measuring(g.derive(dim, 5), a, 2),
        ):
            bp = conditioned_stochastic_operator(ins, b)
            via_observable = stochastic_operator(condition_observable(b, ins))
            assert np.linalg.norm(bp - via_observable) <= 1e-12


def test_sharp_luders_closed_forms_match_generic():
    g = Generator(62)
    for t in range(10):
        dim = 2 + t % 3
        a = random_projective_observable(g.derive(t, 0), dim, 2)
        b = random_real_values(g.derive(t, 1), random_observable(g.derive(t, 2), dim, 2))
        c = random_real_values(g.derive(t, 3), random_observable(g.derive(t, 4), dim, 3))
        rho = random_state(g.derive(t, 5), dim)
        ins = luders_instrument(a)
        closed = sharp_luders_moments(rho, a, b, c)
        assert closed.expectation_b == pytest.approx(
            contextual_expectation(rho, ins, b), abs=1e-9
        )
        assert closed.correlation == pytest.approx(
            contextual_correlation(rho, ins, b, c), abs=1e-9
        )
        assert closed.covariance == pytest.approx(
            contextual_covariance(rho, ins, b, c), abs=1e-9
        )
        assert closed.variance_b == pytest.approx(
            contextual_variance(rho, ins, b), abs=1e-9
        )
        assert closed.commutator_trace == pytest.approx(
            commutator_trace(rho, ins, b, c), abs=1e-9
        )


def test_holevo_closed_forms_match_generic():
    g = Generator(63)
    for t in range(10):
        dim = 2 + t % 3
        a = random_observable(g.derive(t, 0), dim, 2)
        alphas = {x: random_state(g.derive(t, 1, i), dim) for i, x in enumerate(a.outcomes)}
        b = random_real_values(g.derive(t, 2), random_observable(g.derive(t, 3), dim, 2))
        c = random_real_values(g.derive(t, 4), random_observable(g.derive(t, 5), dim, 2))
        rho = random_state(g.derive(t, 6), dim)
        ins = holevo_instrument(a, alphas)
        closed = holevo_moments(rho, a, alphas, b, c)
        assert closed.expectation_b == pytest.approx(
            contextual_expectation(rho, ins, b), abs=1e-9
        )
        assert closed.correlation == pytest.approx(
            contextual_correlation(rho, ins, b, c), abs=1e-9
        )
        assert closed.covariance == pytest.approx(
            contextual_covariance(rho, ins, b, c), abs=1e-9
        )
        assert closed.variance_b == pytest.approx(
            contextual_variance(rho, ins, b), abs=1e-9
        )
        assert closed.commutator_trace == pytest.approx(
            commutator_trace(rho, ins, b, c), abs=1e-9
        )


def test_uncertainty_report_generic():
    g = Generator(64)
    for t in range(15):
        dim = 3
        a = random_observable(g.derive(t, 0), dim, 2)
        ins = random_instrument_measuring(g.derive(t, 1), a, 2)
        b = random_real_values(g.derive(t, 2), random_observable(g.derive(t, 3), dim, 3))
        c = random_real_values(g.derive(t, 4), random_observable(g.derive(t, 5), dim, 2))
        rho = random_state(g.derive(t, 6), dim)
        rep = uncertainty_report(rho, ins, b, c)
        assert rep.identity_residual <= 1e-9
        assert rep.inequality_slack >= -1e-9
        assert rep.variance_b >= 0.0 and rep.variance_c >= 0.0
        # commutator term is purely imaginary
        assert abs(rep.commutator_trace.real) <= 1e-9


def test_report_serializes_complex_as_pairs():
    rho, blocks, b, c = _block_setup()
    rep = uncertainty_report(rho, luders_instrument(blocks), b, c)
    payload = rep.to_json()
    assert payload["correlation"] == [pytest.approx(0.0168), pytest.approx(0.14)]
    assert payload["commutator_trace"] == [pytest.approx(0.0), pytest.approx(0.28)]
    assert payload["inequality_slack"] == pytest.approx(0.2327696)
