import math

import numpy as np
import pytest

from qcond import (
    DimMismatchError,
    EXTENSION_LABEL,
    Observable,
    Operation,
    RealValuedObservable,
    SubObservable,
    UnknownLabelError,
    Violation,
    ZeroProbabilityConditionError,
    atomic_context,
    condition_effect,
    condition_observable,
    condition_subobservable,
    conditional_expectation,
    distribution,
    dual_apply,
    expectation,
    holevo,
    is_commuting,
    jointly_commuting,
    luders,
    measured_effect,
    measured_observable,
    minimal_extension,
    povm,
    stochastic_operator,
    validate_observable,
    validate_subobservable,
)
from qcond.rand import (
    Generator,
    random_instrument_measuring,
    random_observable,
    random_operation_measuring,
    random_real_values,
    random_state,
    random_states,
)


def z_observable(qubit):
    return Observable(("x0", "x1"), {"x0": qubit["P0"], "x1": qubit["P1"]})


def x_observable(qubit):
    return Observable(("x0", "x1"), {"x0": qubit["plus"], "x1": qubit["minus"]})


def test_povm(qubit):
    a = z_observable(qubit)
    assert np.allclose(povm(a, ["x0"]), qubit["P0"])
    assert np.allclose(povm(a, a.outcomes), np.eye(2))
    assert np.allclose(povm(a, []), np.zeros((2, 2)))
    with pytest.raises(UnknownLabelError):
        povm(a, ["nope"])


def test_distribution(qubit):
    a = z_observable(qubit)
    assert distribution(np.eye(2) / 2, a) == pytest.approx({"x0": 0.5, "x1": 0.5})
    assert distribution(qubit["P0"], a) == pytest.approx({"x0": 1.0, "x1": 0.0})
    d = distribution(np.diag([0.75, 0.25]).astype(complex), x_observable(qubit))
    assert d == pytest.approx({"x0": 0.5, "x1": 0.5})


def test_distribution_sums_to_one():
    g = Generator(41)
    for t in range(15):
        a = random_observable(g.derive(t, 0), 3, 4)
        rho = random_state(g.derive(t, 1), 3)
        assert sum(distribution(rho, a).values()) == pytest.approx(1.0, abs=1e-10)


def test_stochastic_operator(qubit):
    b = RealValuedObservable(z_observable(qubit), {"x0": 1.0, "x1": -1.0})
    assert np.allclose(stochastic_operator(b), qubit["Z"])
    const = RealValuedObservable(z_observable(qubit), {"x0": 3.0, "x1": 3.0})
    assert np.allclose(stochastic_operator(const), 3.0 * np.eye(2))
    b2 = RealValuedObservable(x_observable(qubit), {"x0": 2.0, "x1": 0.0})
    assert np.allclose(stochastic_operator(b2), np.ones((2, 2)))


def test_stochastic_operator_is_built_once_and_read_only(qubit):
    b = RealValuedObservable(z_observable(qubit), {"x0": 0.5, "x1": -2.0})
    bt = stochastic_operator(b)
    assert stochastic_operator(b) is bt is b.btilde
    assert np.array_equal(bt, 0.5 * b.effects["x0"] - 2.0 * b.effects["x1"])
    assert not bt.flags.writeable
    with pytest.raises(ValueError):
        bt[0, 0] = 7.0
    with pytest.raises(ValueError):
        bt += np.eye(2)
    assert np.array_equal(stochastic_operator(b), np.diag([0.5, -2.0]))


def test_expectation(qubit):
    b = RealValuedObservable(z_observable(qubit), {"x0": 1.0, "x1": -1.0})
    assert expectation(np.eye(2) / 2, b) == pytest.approx(0.0)
    assert expectation(qubit["P0"], b) == pytest.approx(1.0)
    assert expectation(np.diag([0.75, 0.25]).astype(complex), b) == pytest.approx(0.5)


def test_expectation_routes_agree():
    """Weighted distribution sum versus the stochastic-operator trace."""
    g = Generator(42)
    for t in range(10):
        obs = random_observable(g.derive(t, 0), 3, 3)
        values = {x: float(i) - 1.0 for i, x in enumerate(obs.outcomes)}
        b = RealValuedObservable(obs, values)
        rho = random_state(g.derive(t, 1), 3)
        via_dist = sum(values[x] * p for x, p in distribution(rho, obs).items())
        assert expectation(rho, b) == pytest.approx(via_dist, abs=1e-10)


def test_conditional_expectation(qubit):
    b = RealValuedObservable(z_observable(qubit), {"x0": 1.0, "x1": -1.0})
    rho = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
    ident = Operation((np.eye(2),))
    assert conditional_expectation(rho, ident, b) == pytest.approx(expectation(rho, b))
    # Holevo context: independent of the state
    alpha = np.diag([0.9, 0.1]).astype(complex)
    hol = holevo(np.diag([0.5, 0.7]).astype(complex), alpha)
    want = np.trace(alpha @ stochastic_operator(b)).real
    for r in (rho, np.eye(2, dtype=complex) / 2):
        assert conditional_expectation(r, hol, b) == pytest.approx(want)
    assert conditional_expectation(np.eye(2) / 2, luders(qubit["P0"]), b) == pytest.approx(1.0)
    with pytest.raises(ZeroProbabilityConditionError, match="probability 0.000e"):
        conditional_expectation(qubit["P1"], luders(qubit["P0"]), b)


def test_conditional_expectation_on_a_stack_matches_each_state():
    g = Generator(31)
    for dim in (2, 3, 5):
        b = random_real_values(g, random_observable(g, dim, 3))
        op = random_operation_measuring(g, random_observable(g, dim, 2).effects["x0"], 3)
        rho = random_states(g, dim, 6)
        stacked = conditional_expectation(rho, op, b)
        assert stacked.shape == (6,)
        for value, state in zip(stacked, rho):
            assert abs(value - conditional_expectation(state, op, b)) <= 1e-13


def test_real_valued_observable_is_an_observable(qubit):
    z = z_observable(qubit)
    b = RealValuedObservable(z, {"x0": 1.0, "x1": -1.0})
    assert isinstance(b, Observable)
    assert validate_observable(b) == []
    # It takes over the observable's outcomes and effects without copying them.
    assert b.outcomes is z.outcomes and b.stack is z.stack and b.effects is z.effects
    assert b.dim == 2 and np.array_equal(b.total(), z.total())


def test_minimal_extension(qubit):
    sub = SubObservable(("x0",), {"x0": qubit["P0"]})
    ext = minimal_extension(sub)
    assert ext.outcomes == ("x0", EXTENSION_LABEL)
    assert np.allclose(ext.effects[EXTENSION_LABEL], qubit["P1"])
    assert validate_observable(ext) == []

    complete = SubObservable(("a", "b"), {"a": qubit["P0"], "b": qubit["P1"]})
    assert minimal_extension(complete).outcomes == ("a", "b")

    half = SubObservable(("h",), {"h": 0.5 * np.eye(2)})
    ext2 = minimal_extension(half)
    assert np.allclose(ext2.effects[EXTENSION_LABEL], 0.5 * np.eye(2))


def test_commutation_checks(qubit):
    assert is_commuting(z_observable(qubit))
    assert not jointly_commuting([z_observable(qubit), x_observable(qubit)])
    xo = x_observable(qubit)
    assert jointly_commuting([xo, xo]) == is_commuting(xo)


def test_a_nan_commutator_does_not_commute(qubit):
    # NaN > eq_tol is false, so a pairwise loop that looks for a large norm
    # would call this family commuting.
    broken = qubit["P0"].copy()
    broken[0, 1] = np.nan
    o = Observable(("x0", "x1"), {"x0": broken, "x1": qubit["P1"]})
    assert not is_commuting(o)
    assert not jointly_commuting([o, z_observable(qubit)])


def test_observable_validation(qubit):
    incomplete = SubObservable(("x0",), {"x0": qubit["P0"]})
    assert validate_subobservable(incomplete) == []
    over = SubObservable(("x0", "x1"), {"x0": np.eye(2), "x1": 0.5 * np.eye(2)})
    assert any(v.invariant == "total-below-identity" for v in validate_subobservable(over))
    short = Observable(("x0",), {"x0": qubit["P0"]})
    assert any(v.invariant == "total-is-identity" for v in validate_observable(short))
    # A real-valued observable validates as its effect family.
    valued = RealValuedObservable(short, {"x0": 1.0})
    assert validate_observable(valued) == validate_observable(short)
    assert validate_subobservable(valued) == validate_subobservable(short) == []


@pytest.mark.parametrize(
    "effect", (np.diag([0.5, np.nan, 0.2]), np.array([[np.nan, 1.0], [1.0, np.nan]])), ids=("diag", "off")
)
def test_a_non_finite_effect_is_one_violation_not_a_spectrum(effect):
    # LAPACK either raises on the NaN total or reads a spurious eigenvalue from it.
    sub = SubObservable(("a",), {"a": effect})
    assert validate_subobservable(sub) == [Violation("effect[a].finite", math.inf)]


def test_constructor_rejects_bad_labels(qubit):
    with pytest.raises(ValueError):
        Observable(("a", "a"), {"a": np.eye(2)})
    with pytest.raises(UnknownLabelError):
        Observable(("a",), {"b": np.eye(2)})
    with pytest.raises(DimMismatchError):
        Observable(("a", "b"), {"a": np.eye(2), "b": np.eye(3)})
    with pytest.raises(ValueError):
        RealValuedObservable(z_observable(qubit), {"x0": math.inf, "x1": 0.0})


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_an_effect_past_the_float64_limit_is_invalid():
    # Its Hermitian part, and the total's, overflow: the spectra are NaN.
    sub = SubObservable(("a",), {"a": np.full((2, 2), 1e308)})
    assert [v.invariant for v in validate_subobservable(sub)] == [
        "effect[a].positive", "effect[a].below-identity", "total-below-identity",
    ]


def test_values_refuse_assignment_so_the_cached_btilde_stays_right(qubit):
    b = RealValuedObservable(z_observable(qubit), {"x0": 1.0, "x1": -1.0})
    half = np.eye(2) / 2
    assert expectation(half, b) == 0.0
    with pytest.raises(TypeError):
        b.values["x0"] = 3.0
    fresh = RealValuedObservable(z_observable(qubit), dict(b.values))
    assert expectation(half, b) == expectation(half, fresh) == 0.0


def test_effects_are_read_only_so_the_cached_btilde_stays_right(qubit):
    obs = z_observable(qubit)
    b = RealValuedObservable(obs, {"x0": 1.0, "x1": -1.0})
    assert b.effects is obs.effects  # shared, not copied
    before = stochastic_operator(b).copy()
    with pytest.raises(ValueError):
        b.effects["x0"][0, 0] = 5.0
    with pytest.raises(TypeError):
        b.effects["x0"] = np.eye(2)
    assert np.array_equal(stochastic_operator(b), before)
    assert np.array_equal(stochastic_operator(RealValuedObservable(z_observable(qubit), dict(b.values))), before)


def test_an_observable_freezes_its_own_copy_not_the_callers_array(qubit):
    p0 = qubit["P0"].copy()
    a = SubObservable(("x0",), {"x0": p0})
    p0[0, 0] = 0.5  # the caller's array stays writable and the family does not see the write
    assert a.effects["x0"][0, 0] == 1.0 and not a.effects["x0"].flags.writeable
    assert not np.shares_memory(a.stack, p0)


def test_an_observable_holds_its_effects_as_one_read_only_stack(qubit):
    obs = z_observable(qubit)
    assert obs.stack.shape == (2, 2, 2) and obs.stack.dtype == np.complex128
    with pytest.raises(ValueError):
        obs.stack[0, 0, 0] = 5.0
    for i, x in enumerate(obs.outcomes):
        assert np.shares_memory(obs.effects[x], obs.stack) and np.array_equal(obs.effects[x], obs.stack[i])


def _split_qutrit():
    return Observable(("p", "q"), {"p": np.diag([1.0, 0.0, 0.0]), "q": np.diag([0.0, 1.0, 1.0])})


def _adopted_and_constructed():
    """Pairs (a family built on a stack it was handed, the same family through the constructor)."""
    g = Generator(11)
    a = random_observable(g, 3, 3)
    b = random_observable(g, 3, 2)
    ins = random_instrument_measuring(g, a, 2)
    op = ins.ops["x0"]
    sub = SubObservable(("s",), {"s": 0.5 * a.effects["x1"]})
    context, context_ins = atomic_context([_split_qutrit()])
    return [
        (a, Observable(a.outcomes, dict(a.effects))),
        (condition_observable(b, ins), Observable(b.outcomes, {y: condition_effect(b.effects[y], ins) for y in b.outcomes})),
        (condition_subobservable(b, op), SubObservable(b.outcomes, {y: dual_apply(op, b.effects[y]) for y in b.outcomes})),
        (measured_observable(ins), Observable(ins.outcomes, {x: measured_effect(ins.ops[x]) for x in ins.outcomes})),
        (
            minimal_extension(sub),
            Observable(("s", EXTENSION_LABEL), {"s": sub.effects["s"], EXTENSION_LABEL: np.eye(3) - sub.total()}),
        ),
        (minimal_extension(a), Observable(a.outcomes, dict(a.effects))),
        (context, Observable(context.outcomes, {x: context_ins.ops[x].kraus[0] for x in context.outcomes})),
    ]


def test_families_built_on_a_stack_equal_the_constructors():
    for adopted, constructed in _adopted_and_constructed():
        assert type(adopted) is type(constructed) and adopted.outcomes == constructed.outcomes
        assert np.array_equal(adopted.stack, constructed.stack)
        assert not adopted.stack.flags.writeable
        assert all(np.shares_memory(adopted.effects[x], adopted.stack) for x in adopted.outcomes)


def test_atomic_context_shares_its_projections_with_its_luders_instrument():
    context, ins = atomic_context([_split_qutrit()])
    assert context.stack is ins.kraus


def test_total_adds_the_rows_from_zero_so_a_negative_zero_comes_out_positive():
    neg = np.array([[-0.0, 0.5], [0.5, -0.0]], dtype=complex)
    sub = SubObservable(("a", "b"), {"a": neg, "b": neg})
    total = sub.total()
    assert total.tobytes() == sum(sub.effects[x] for x in sub.outcomes).tobytes()  # signed zeros too
    assert not np.signbit(total.real).any()
