import math

import numpy as np
import pytest

from qcond import (
    Instrument,
    Observable,
    Operation,
    apply,
    bar_channel,
    compose_instruments,
    conditional_effect_entropy,
    conditional_observable_entropy_double,
    conditional_observable_entropy_single,
    condition_effect,
    effect_entropy,
    holevo,
    holevo_instrument,
    luders,
    observable_entropy,
    sequential_entropy,
    sequential_entropy_dominated,
)
from qcond.rand import (
    Generator,
    random_effect,
    random_instrument_measuring,
    random_observable,
    random_state,
)


def test_effect_entropy_boundaries(qubit):
    half = np.eye(2) / 2
    assert effect_entropy(half, np.eye(2)) == pytest.approx(math.log(2))
    assert effect_entropy(qubit["P1"], qubit["P0"]) == 0.0  # p = 0
    assert effect_entropy(qubit["P0"], qubit["P0"]) == 0.0  # p = t = 1
    assert effect_entropy(half, np.zeros((2, 2))) == 0.0  # t = 0 convention


def test_effect_entropy_keeps_a_negative_term(qubit):
    # diag(1.5, -1) is no effect: p = 1.5 > t = 0.5, so -p ln(p/t) < 0 shows it.
    h = effect_entropy(qubit["P0"], np.diag([1.5, -1.0]))
    assert h == pytest.approx(-1.5 * math.log(3.0), abs=1e-14)
    stacked = effect_entropy(np.stack([qubit["P0"], qubit["P1"]]), np.diag([1.5, -1.0]))
    assert stacked[0] == pytest.approx(-1.5 * math.log(3.0), abs=1e-14)
    assert stacked[1] == 0.0  # p = -1 is no probability: a dead term


def test_effect_entropy_frozen_value():
    rho = np.diag([0.75, 0.25]).astype(complex)
    a = np.diag([0.5, 0.125]).astype(complex)
    # p = 13/32, t = 5/8
    assert effect_entropy(rho, a) == pytest.approx(0.17500555966255954)


def test_luders_entropies_frozen():
    rho = np.diag([0.75, 0.25]).astype(complex)
    a = np.diag([0.5, 0.125]).astype(complex)
    plus = np.full((2, 2), 0.5, dtype=complex)
    ctx = luders(a)
    # p = 13/64 both ways; denominators tr(a^{1/2} b a^{1/2}) = 5/16 vs tr(b) = 1
    assert sequential_entropy(rho, ctx, plus) == pytest.approx(-13 / 64 * math.log(13 / 20))
    assert conditional_effect_entropy(rho, ctx, plus) == pytest.approx(-13 / 64 * math.log(13 / 64))
    assert sequential_entropy_dominated(ctx, plus)


def test_sequential_entropy_special_cases(qubit):
    rho = np.diag([0.75, 0.25]).astype(complex)
    a = np.diag([0.5, 0.125]).astype(complex)
    ctx = luders(a)
    # b = I: sequential entropy of the measured effect itself
    assert sequential_entropy(rho, ctx, np.eye(2)) == pytest.approx(
        effect_entropy(rho, a)
    )
    # commuting diagonal pair: closed form -tr(rho a b) ln(tr(rho a b)/tr(ab))
    b = np.diag([0.25, 0.75]).astype(complex)
    p = np.trace(rho @ a @ b).real
    t = np.trace(a @ b).real
    assert sequential_entropy(rho, ctx, b) == pytest.approx(-p * math.log(p / t))
    # transported effect ~ 0
    assert sequential_entropy(rho, luders(np.zeros((2, 2))), b) == 0.0


def test_conditional_entropy_special_cases(qubit):
    rho = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
    ident = Operation((np.eye(2),))
    b = random_effect(Generator(71), 2)
    assert conditional_effect_entropy(rho, ident, b) == pytest.approx(
        effect_entropy(rho, b)
    )
    # a = I Lüders: sequential and conditional coincide (tr dual(b) = tr b)
    ctx = luders(np.eye(2))
    assert sequential_entropy(rho, ctx, b) == pytest.approx(
        conditional_effect_entropy(rho, ctx, b)
    )


def test_dominance_criterion():
    g = Generator(72)
    # Lüders contexts always satisfy it
    for t in range(10):
        ctx = luders(random_effect(g.derive(t, 0), 3))
        b = random_effect(g.derive(t, 1), 3)
        assert sequential_entropy_dominated(ctx, b)
    # Holevo contexts go either way
    plus = np.full((2, 2), 0.5, dtype=complex)
    stretch = holevo(np.eye(2), plus)  # tr dual(b) = tr(alpha b) * 2
    assert not sequential_entropy_dominated(stretch, plus)
    shrink = holevo(np.diag([1.0, 0.0]).astype(complex), plus)
    assert sequential_entropy_dominated(shrink, plus)
    # b = 0 trivially satisfies it
    assert sequential_entropy_dominated(stretch, np.zeros((2, 2)))


def test_dominance_implies_inequality():
    g = Generator(73)
    for t in range(10):
        ctx = luders(random_effect(g.derive(t, 0), 2))
        b = random_effect(g.derive(t, 1), 2)
        for i in range(20):
            rho = random_state(g.derive(t, 2, i), 2)
            gap = sequential_entropy(rho, ctx, b) - conditional_effect_entropy(rho, ctx, b)
            assert gap <= 1e-9


def test_entropy_reversal_witness():
    """A Holevo context can make the sequential entropy the larger one."""
    rho = np.diag([0.75, 0.25]).astype(complex)
    plus = np.full((2, 2), 0.5, dtype=complex)
    ctx = holevo(np.eye(2), plus)
    assert not sequential_entropy_dominated(ctx, plus)
    s_seq = sequential_entropy(rho, ctx, plus)
    s_cond = conditional_effect_entropy(rho, ctx, plus)
    assert s_seq == pytest.approx(math.log(2))
    assert s_cond == pytest.approx(0.0, abs=1e-12)
    assert s_seq - s_cond > 1e-3


def test_observable_entropy(qubit):
    half = np.eye(2) / 2
    whole = Observable(("u",), {"u": np.eye(2)})
    assert observable_entropy(half, whole) == pytest.approx(math.log(2))
    z = Observable(("0", "1"), {"0": qubit["P0"], "1": qubit["P1"]})
    assert observable_entropy(qubit["P0"], z) == pytest.approx(0.0)
    assert observable_entropy(half, z) == pytest.approx(math.log(2))


def test_double_bar_basics(qubit):
    z = Observable(("0", "1"), {"0": qubit["P0"], "1": qubit["P1"]})
    x = Observable(("+", "-"), {"+": qubit["plus"], "-": qubit["minus"]})
    rho = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
    ident = Instrument(("u",), {"u": Operation((np.eye(2),))})
    assert conditional_observable_entropy_double(rho, ident, x) == pytest.approx(
        observable_entropy(rho, x)
    )
    # Holevo instrument: the entropy of B at the prepared mixture
    alphas = {"0": qubit["plus"], "1": qubit["P0"]}
    ins = holevo_instrument(z, alphas)
    mixed = apply(bar_channel(ins), rho)
    assert conditional_observable_entropy_double(rho, ins, x) == pytest.approx(
        observable_entropy(mixed, x)
    )


def test_double_bar_chain_identity():
    g = Generator(74)
    for t in range(8):
        dim = 2 + t % 2
        a = random_observable(g.derive(t, 0), dim, 2)
        b = random_observable(g.derive(t, 1), dim, 2)
        c = random_observable(g.derive(t, 2), dim, 3)
        ins_a = random_instrument_measuring(g.derive(t, 3), a, 2)
        ins_b = random_instrument_measuring(g.derive(t, 4), b, 1)
        rho = random_state(g.derive(t, 5), dim)
        # measuring A then B and asking about C: one pass through the
        # composite equals two nested conditionings
        via_composite = conditional_observable_entropy_double(
            rho, compose_instruments(ins_a, ins_b), c
        )
        inner = apply(bar_channel(ins_a), rho)
        via_nested = conditional_observable_entropy_double(inner, ins_b, c)
        assert via_composite == pytest.approx(via_nested, abs=1e-9)


def test_single_bar_basics(qubit):
    x = Observable(("+", "-"), {"+": qubit["plus"], "-": qubit["minus"]})
    rho = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
    ident = Instrument(("u",), {"u": Operation((np.eye(2),))})
    assert conditional_observable_entropy_single(rho, ident, x) == pytest.approx(
        observable_entropy(rho, x)
    )


def test_single_bar_differs_from_double_bar(qubit):
    """The two conditional entropies use different denominators."""
    z = Observable(("0", "1"), {"0": qubit["P0"], "1": qubit["P1"]})
    x = Observable(("+", "-"), {"+": qubit["plus"], "-": qubit["minus"]})
    alphas = {"0": np.diag([0.9, 0.1]).astype(complex),
              "1": np.diag([0.9, 0.1]).astype(complex)}
    ins = holevo_instrument(z, alphas)
    rho = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
    single = conditional_observable_entropy_single(rho, ins, z)
    double = conditional_observable_entropy_double(rho, ins, z)
    assert abs(single - double) > 1e-6
    # sanity: the numerators (probabilities) agree, only the traces differ
    p_single = np.trace(rho @ condition_effect(z.effects["0"], ins)).real
    p_double = np.trace(apply(bar_channel(ins), rho) @ z.effects["0"]).real
    assert p_single == pytest.approx(p_double)


def test_entropies_nonnegative_random():
    g = Generator(75)
    for t in range(15):
        dim = 2 + t % 3
        rho = random_state(g.derive(t, 0), dim)
        a = random_effect(g.derive(t, 1), dim)
        b = random_effect(g.derive(t, 2), dim)
        ctx = luders(a)
        for value in (
            effect_entropy(rho, a),
            sequential_entropy(rho, ctx, b),
            conditional_effect_entropy(rho, ctx, b),
        ):
            assert math.isfinite(value) and value >= 0.0


def test_the_suites_entropy_gap_is_the_public_entropies_subtracted():
    # One implementation: the gap the entropy suite reads from b's one transport
    # is sequential minus conditional entropy, bit for bit, and the sequential
    # entropy is the plain effect entropy of the transported effect.
    from qcond.entropy import _entropy_gap
    from qcond.operations import dual_apply
    from qcond.rand import random_states

    g = Generator(76)
    for t in range(6):
        dim = 2 + t % 3
        ctx = holevo(random_effect(g.derive(t, 0), dim), random_state(g.derive(t, 1), dim))
        b = random_effect(g.derive(t, 2), dim)
        transported = dual_apply(ctx, b)
        states = random_states(g.derive(t, 3), dim, 5, 1000)
        for rho in (states[0], states):
            seq = sequential_entropy(rho, ctx, b)
            assert np.array_equal(seq, effect_entropy(rho, transported))
            assert np.array_equal(_entropy_gap(rho, transported, b), seq - conditional_effect_entropy(rho, ctx, b))
