import numpy as np
import pytest

from qcond import (
    Instrument,
    MissingAlphaError,
    NotHermitianError,
    NotJointlyCommutingError,
    Observable,
    Operation,
    RealValuedObservable,
    apply,
    atomic_context,
    bar_channel,
    bayes1_check,
    bayes1_expectation_check,
    choi_distance,
    compose_instruments,
    condition_effect,
    condition_instrument,
    condition_observable,
    condition_subobservable,
    frobenius,
    holevo_instrument,
    is_atomic,
    is_channel,
    luders,
    luders_instrument,
    maps_equal,
    measured_observable,
    prob,
    psd_sqrt,
    stochastic_operator,
    validate_instrument,
)
from qcond.rand import (
    Generator,
    random_effect,
    random_instrument_measuring,
    random_observable,
    random_unitary,
)


def z_obs(q):
    return Observable(("0", "1"), {"0": q["P0"], "1": q["P1"]})


def x_obs(q):
    return Observable(("+", "-"), {"+": q["plus"], "-": q["minus"]})


def test_bar_channel_dephasing(qubit):
    ins = luders_instrument(z_obs(qubit))
    bar = bar_channel(ins)
    assert is_channel(bar)
    rho = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
    assert np.allclose(apply(bar, rho), np.diag([0.7, 0.3]))


def test_bar_channel_trivial_instrument():
    ins = Instrument(("only",), {"only": Operation((np.eye(2),))})
    assert maps_equal(bar_channel(ins), Operation((np.eye(2),)))


def test_holevo_bar_channel(qubit):
    alphas = {"0": qubit["plus"], "1": qubit["P0"]}
    ins = holevo_instrument(z_obs(qubit), alphas)
    rho = np.diag([0.6, 0.4]).astype(complex)
    expected = 0.6 * qubit["plus"] + 0.4 * qubit["P0"]
    assert np.allclose(apply(bar_channel(ins), rho), expected)


def test_measured_observable(qubit):
    a = z_obs(qubit)
    for ins in (luders_instrument(a), holevo_instrument(a, {"0": qubit["P1"], "1": qubit["P0"]})):
        m = measured_observable(ins)
        for x in a.outcomes:
            assert frobenius(m.effects[x] - a.effects[x]) <= 1e-10
    trivial = Instrument(("u",), {"u": Operation((np.eye(2),))})
    assert np.allclose(measured_observable(trivial).effects["u"], np.eye(2))


def test_instrument_constructors(qubit):
    ins = luders_instrument(z_obs(qubit))
    assert np.allclose(apply(ins.ops["0"], np.eye(2) / 2), np.diag([0.5, 0.0]))
    hol = holevo_instrument(z_obs(qubit), {"0": qubit["P1"], "1": qubit["P0"]})
    assert np.allclose(apply(hol.ops["0"], qubit["P0"]), qubit["P1"])
    with pytest.raises(MissingAlphaError):
        holevo_instrument(z_obs(qubit), {"0": qubit["P1"]})
    assert validate_instrument(ins) == []
    assert validate_instrument(hol) == []


def test_validate_instrument_flags_subnormalized(qubit):
    broken = Instrument(("0",), {"0": luders(qubit["P0"])})
    assert any(v.invariant == "bar-channel" for v in validate_instrument(broken))


def test_condition_effect_atomic_luders(qubit):
    """Through a sharp atomic instrument only the basis populations survive."""
    ins = luders_instrument(z_obs(qubit))
    a = np.array([[0.8, 0.3], [0.3, 0.4]], dtype=complex)
    got = condition_effect(a, ins)
    assert np.allclose(got, np.diag([0.8, 0.4]))
    assert np.allclose(condition_effect(np.eye(2), ins), np.eye(2))


def test_condition_effect_holevo(qubit):
    alphas = {"0": qubit["plus"], "1": qubit["P0"]}
    ins = holevo_instrument(z_obs(qubit), alphas)
    a = random_effect(Generator(51), 2)
    expected = sum(
        np.trace(alphas[x] @ a) * z_obs(qubit).effects[x] for x in ("0", "1")
    )
    assert frobenius(condition_effect(a, ins) - expected) <= 1e-12


def test_condition_effect_additive(qubit):
    ins = luders_instrument(x_obs(qubit))
    g = Generator(52)
    a, b = random_effect(g.derive(0), 2), random_effect(g.derive(1), 2)
    assert frobenius(
        condition_effect(a + b, ins) - condition_effect(a, ins) - condition_effect(b, ins)
    ) <= 1e-12


def test_condition_subobservable(qubit):
    ctx = luders(qubit["P0"])
    conditioned = condition_subobservable(x_obs(qubit), ctx)
    for y in ("+", "-"):
        expected = qubit["P0"] @ x_obs(qubit).effects[y] @ qubit["P0"]
        assert np.allclose(conditioned.effects[y], expected)
    # effects sum to the conditioning effect
    assert np.allclose(conditioned.total(), qubit["P0"])
    # Holevo context: every conditioned effect is a multiple of a
    alpha = np.diag([0.3, 0.7]).astype(complex)
    a = np.array([[0.5, 0.1], [0.1, 0.6]], dtype=complex)
    from qcond import holevo

    hol = holevo(a, alpha)
    conditioned = condition_subobservable(z_obs(qubit), hol)
    for x in ("0", "1"):
        weight = np.trace(alpha @ z_obs(qubit).effects[x])
        assert frobenius(conditioned.effects[x] - weight * a) <= 1e-12


def test_condition_observable(qubit):
    # diagonal B through the Lüders instrument of the atomic diagonal observable
    ins = luders_instrument(z_obs(qubit))
    b = Observable(("d0", "d1"), {"d0": np.diag([0.2, 0.9]).astype(complex),
                                  "d1": np.diag([0.8, 0.1]).astype(complex)})
    cond = condition_observable(b, ins)
    for y in b.outcomes:
        assert np.allclose(cond.effects[y], b.effects[y])
    # X-basis B dephases to the fair coin
    cond = condition_observable(x_obs(qubit), ins)
    for y in ("+", "-"):
        assert np.allclose(cond.effects[y], np.eye(2) / 2)
    # Holevo instrument closed form
    alphas = {"0": qubit["plus"], "1": qubit["P0"]}
    hol = holevo_instrument(z_obs(qubit), alphas)
    cond = condition_observable(x_obs(qubit), hol)
    for y in ("+", "-"):
        expected = sum(
            np.trace(alphas[x] @ x_obs(qubit).effects[y]) * z_obs(qubit).effects[x]
            for x in ("0", "1")
        )
        assert frobenius(cond.effects[y] - expected) <= 1e-12


def test_condition_observable_keeps_values(qubit):
    ins = luders_instrument(z_obs(qubit))
    b = RealValuedObservable(x_obs(qubit), {"+": 1.0, "-": -1.0})
    cond = condition_observable(b, ins)
    assert isinstance(cond, RealValuedObservable)
    assert cond.values == b.values


def test_condition_instrument(qubit):
    g = Generator(53)
    j = random_instrument_measuring(g.derive(0), x_obs(qubit), 2)
    ident = Instrument(("u",), {"u": Operation((np.eye(2),))})
    conditioned = condition_instrument(j, ident)
    for y in j.outcomes:
        assert maps_equal(conditioned.ops[y], j.ops[y])
    # it measures the conditioned observable
    i = random_instrument_measuring(g.derive(1), z_obs(qubit), 2)
    conditioned = condition_instrument(j, i)
    want = condition_observable(measured_observable(j), i)
    got = measured_observable(conditioned)
    for y in j.outcomes:
        assert frobenius(got.effects[y] - want.effects[y]) <= 1e-9


def test_condition_instrument_holevo_closed_form(qubit):
    alphas = {"0": qubit["plus"], "1": qubit["P0"]}
    betas = {"+": qubit["P1"], "-": qubit["plus"]}
    i = holevo_instrument(z_obs(qubit), alphas)
    j = holevo_instrument(x_obs(qubit), betas)
    conditioned = condition_instrument(j, i)
    rho = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
    for y in ("+", "-"):
        expected = sum(
            prob(rho, z_obs(qubit).effects[x])
            * np.trace(alphas[x] @ x_obs(qubit).effects[y]).real
            for x in ("0", "1")
        ) * betas[y]
        assert frobenius(apply(conditioned.ops[y], rho) - expected) <= 1e-12


def test_compose_instruments_labels_and_marginal(qubit):
    i = luders_instrument(z_obs(qubit))
    j = luders_instrument(x_obs(qubit))
    both = compose_instruments(i, j)
    assert both.outcomes == ("0,+", "0,-", "1,+", "1,-")
    # marginalizing over the first outcome gives the conditioned instrument
    conditioned = condition_instrument(j, i)
    for y in ("+", "-"):
        marginal = Operation(tuple(
            k for x in ("0", "1") for k in both.ops[f"{x},{y}"].kraus
        ))
        assert maps_equal(marginal, conditioned.ops[y])
    # bar channel factorizes
    assert maps_equal(
        bar_channel(both),
        Operation(tuple(
            k2 @ k1 for k2 in bar_channel(j).kraus for k1 in bar_channel(i).kraus
        )),
    )


def test_compose_holevo_instruments(qubit):
    alphas = {"0": qubit["plus"], "1": qubit["P0"]}
    betas = {"+": qubit["P1"], "-": qubit["plus"]}
    i = holevo_instrument(z_obs(qubit), alphas)
    j = holevo_instrument(x_obs(qubit), betas)
    both = compose_instruments(i, j)
    # outcome (x, y) is the Holevo op of effect tr(alpha_x B_y) A_x with state beta_y
    from qcond import holevo

    for x in ("0", "1"):
        for y in ("+", "-"):
            weight = np.trace(alphas[x] @ x_obs(qubit).effects[y]).real
            expected = holevo(weight * z_obs(qubit).effects[x], betas[y])
            assert choi_distance(both.ops[f"{x},{y}"], expected) <= 1e-9


def test_compose_luders_instruments(qubit):
    # commuting observables: each composite outcome is the Lüders op of A_x B_y
    d1 = Observable(("0", "1"), {"0": np.diag([0.7, 0.2]).astype(complex),
                                 "1": np.diag([0.3, 0.8]).astype(complex)})
    i = luders_instrument(z_obs(qubit))
    j = luders_instrument(d1)
    both = compose_instruments(i, j)
    for x in ("0", "1"):
        for y in ("0", "1"):
            product = z_obs(qubit).effects[x] @ d1.effects[y]
            expected = luders(product)
            assert choi_distance(both.ops[f"{x},{y}"], expected) <= 1e-9
    # noncommuting: the composite outcome op is *not* Lüders of a^{1/2} b a^{1/2}
    both = compose_instruments(i, luders_instrument(x_obs(qubit)))
    a, b = qubit["P0"], qubit["plus"]
    candidate = luders(psd_sqrt(a) @ b @ psd_sqrt(a))
    assert choi_distance(both.ops["0,+"], candidate) > 1e-6


def test_bayes1_check_atomic_luders(qubit):
    ins = luders_instrument(z_obs(qubit))
    rho = np.array([[0.75, 0.2], [0.2, 0.25]], dtype=complex)
    a = qubit["plus"]
    triple = bayes1_check(rho, ins, a)
    closed = sum(
        prob(rho, z_obs(qubit).effects[x]) * np.trace(z_obs(qubit).effects[x] @ a).real
        for x in ("0", "1")
    )
    for v in (triple.lhs, triple.mid, triple.rhs):
        assert v == pytest.approx(closed, abs=1e-12)
    assert triple.spread <= 1e-12


def test_bayes1_check_holevo(qubit):
    alphas = {"0": qubit["P1"], "1": qubit["P0"]}
    ins = holevo_instrument(z_obs(qubit), alphas)
    rho = np.array([[0.75, 0.2], [0.2, 0.25]], dtype=complex)
    a = np.array([[0.8, 0.1], [0.1, 0.3]], dtype=complex)
    triple = bayes1_check(rho, ins, a)
    closed = sum(
        prob(rho, z_obs(qubit).effects[x]) * np.trace(alphas[x] @ a).real
        for x in ("0", "1")
    )
    assert triple.lhs == pytest.approx(closed, abs=1e-12)
    assert triple.spread <= 1e-12
    # explicit frozen value: 0.75 * tr(P1 a) + 0.25 * tr(P0 a) = 0.425
    assert triple.mid == pytest.approx(0.425)


def test_bayes1_check_identity_effect(qubit):
    g = Generator(54)
    ins = random_instrument_measuring(g, z_obs(qubit), 2)
    triple = bayes1_check(np.eye(2) / 2, ins, np.eye(2))
    assert (triple.lhs, triple.mid, triple.rhs) == pytest.approx((1.0, 1.0, 1.0))


def test_bayes1_expectation_check(qubit):
    ins = luders_instrument(z_obs(qubit))
    rho = np.array([[0.75, 0.2], [0.2, 0.25]], dtype=complex)
    b = RealValuedObservable(x_obs(qubit), {"+": 1.0, "-": -1.0})
    triple = bayes1_expectation_check(rho, ins, b)
    btilde = stochastic_operator(b)
    closed = sum(
        prob(rho, z_obs(qubit).effects[x])
        * np.trace(z_obs(qubit).effects[x] @ btilde).real
        for x in ("0", "1")
    )
    assert triple.lhs == pytest.approx(closed, abs=1e-12)
    assert triple.spread <= 1e-12
    ones = RealValuedObservable(x_obs(qubit), {"+": 1.0, "-": 1.0})
    triple = bayes1_expectation_check(rho, ins, ones)
    assert (triple.lhs, triple.mid, triple.rhs) == pytest.approx((1.0, 1.0, 1.0))


def test_bayes_triple_serialization():
    from qcond import BayesTriple

    t = BayesTriple(0.5, 0.5, 0.5)
    assert t.to_json() == {"lhs": 0.5, "mid": 0.5, "rhs": 0.5, "spread": 0.0}


@pytest.mark.parametrize("routes", ((np.nan, 0.3, 0.3), (0.3, np.nan, 0.3), (0.3, 0.3, np.nan)))
def test_bayes_triple_spread_keeps_a_nan_route(routes):
    from qcond import BayesTriple

    # Python's max and min keep their running value against a NaN that is
    # not their first argument, which made the last two spreads 0.0.
    assert np.isnan(BayesTriple(*routes).spread)
    assert BayesTriple(0.25, 0.75, 0.5).spread == 0.5


def test_atomic_context_sharp_observable(qubit):
    atoms, ins = atomic_context([z_obs(qubit)])
    assert len(atoms.outcomes) == 2
    assert all(is_atomic(atoms.effects[x]) for x in atoms.outcomes)
    cond = condition_observable(z_obs(qubit), ins)
    for x in ("0", "1"):
        assert frobenius(cond.effects[x] - z_obs(qubit).effects[x]) <= 1e-10


def test_atomic_context_codiagonal_pair():
    g = Generator(55)
    u = random_unitary(g, 3)
    from qcond.rand import random_codiagonal_observable

    b = random_codiagonal_observable(g.derive(0), u, 2)
    c = random_codiagonal_observable(g.derive(1), u, 3)
    atoms, ins = atomic_context([b, c])
    assert all(is_atomic(atoms.effects[x]) for x in atoms.outcomes)
    for member in (b, c):
        cond = condition_observable(member, ins)
        for y in member.outcomes:
            assert frobenius(cond.effects[y] - member.effects[y]) <= 1e-8


def test_atomic_context_rejects_noncommuting(qubit):
    with pytest.raises(NotJointlyCommutingError):
        atomic_context([z_obs(qubit), x_obs(qubit)])


@pytest.mark.filterwarnings("ignore:.*encountered in matmul:RuntimeWarning")
def test_atomic_context_rejects_a_nan_commutator():
    # Hermitian effects whose commutator overflows to a NaN norm.
    x = np.array([[0, 1e200], [1e200, 0]], dtype=complex)
    z = np.diag([1e200, -1e200]).astype(complex)
    with pytest.raises(NotJointlyCommutingError):
        atomic_context([Observable(("x",), {"x": x}), Observable(("z",), {"z": z})])


def test_atomic_context_checks_hermiticity_before_commutation(qubit):
    skew = Observable(("a", "b"), {"a": qubit["P0"] + 0.5j * qubit["X"], "b": qubit["P1"]})
    with pytest.raises(NotHermitianError):
        atomic_context([skew, x_obs(qubit)])


def test_conditioned_families_jointly_commute(qubit):
    """Anything conditioned through an atomic sharp instrument lands in one basis."""
    g = Generator(56)
    atoms, ins = atomic_context([z_obs(qubit)])
    b = random_observable(g.derive(0), 2, 3)
    c = random_observable(g.derive(1), 2, 2)
    from qcond import jointly_commuting, Tolerance

    cond_b = condition_observable(b, ins)
    cond_c = condition_observable(c, ins)
    assert jointly_commuting([cond_b, cond_c], Tolerance(1e-8, 1e-10))
