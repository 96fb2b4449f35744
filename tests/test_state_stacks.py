"""State stacks: random_states and the functions that judge a stack at once.

random_states must give, bit for bit, the states random_state draws one by
one from the same derived generators, however a draw is split into chunks.
Every stack-aware function must agree with its per-state scalar calls (the
scalar route returns a float), keep its clamps per element, refuse a stack
in which any one state conditions on probability <= eq_tol, and map an
empty stack to an empty array.
"""

import warnings

import numpy as np
import pytest

from qcond import (
    DEFAULT_TOL,
    Operation,
    ZeroProbabilityConditionError,
    apply,
    bayes2_residual,
    conditional_effect_entropy,
    conditional_prob,
    effect_entropy,
    luders,
    prob,
    sequential_entropy,
    trace_product,
)
from qcond.rand import (
    Generator,
    random_effect,
    random_operation_measuring,
    random_state,
    random_states,
)

EQ = DEFAULT_TOL.eq_tol


@pytest.mark.parametrize("dim", (2, 3, 8, 17))
@pytest.mark.parametrize("first", (0, 5))
def test_random_states_match_random_state_bit_for_bit(dim, first):
    g = Generator(11).derive(dim)
    stack = random_states(g, dim, 9, first)
    assert stack.shape == (9, dim, dim)
    for s in range(9):
        assert np.array_equal(stack[s], random_state(g.derive(first + s), dim))


def test_chunking_a_draw_changes_no_state():
    g = Generator(12)
    whole = random_states(g, 3, 12, 4)
    for split in range(13):
        parts = (random_states(g, 3, split, 4), random_states(g, 3, 12 - split, 4 + split))
        assert np.array_equal(np.concatenate(parts), whole)
    assert random_states(g, 3, 0).shape == (0, 3, 3)


def _setting(dim=3, n=20):
    g = Generator(13).derive(dim)
    a = random_effect(g.derive(0), dim)
    b = random_effect(g.derive(1), dim)
    return {
        "states": random_states(g, dim, n, 100),
        "a": a,
        "b": b,
        "op": random_operation_measuring(g.derive(2), a, 2),
        "op_b": luders(b),
    }


#: name -> f(states or one state, setting)
STACK_CALLS = {
    "prob": lambda r, s: prob(r, s["a"]),
    "conditional_prob": lambda r, s: conditional_prob(r, s["op"], s["b"]),
    "bayes2_residual": lambda r, s: bayes2_residual(r, s["op"], s["op_b"]),
    "effect_entropy": lambda r, s: effect_entropy(r, s["a"]),
    "sequential_entropy": lambda r, s: sequential_entropy(r, s["op"], s["b"]),
    "conditional_effect_entropy": lambda r, s: conditional_effect_entropy(r, s["op"], s["b"]),
}


@pytest.mark.parametrize("name", STACK_CALLS)
def test_stack_agrees_with_scalar_calls(name):
    s = _setting()
    call = STACK_CALLS[name]
    stacked = call(s["states"], s)
    scalars = [call(rho, s) for rho in s["states"]]
    assert all(type(v) is float for v in scalars)
    assert stacked.shape == (len(s["states"]),)
    np.testing.assert_allclose(stacked, scalars, rtol=0.0, atol=1e-14)


def test_conditional_prob_matches_the_schrodinger_route():
    s = _setting()
    stacked = conditional_prob(s["states"], s["op"], s["b"])
    for q, rho in zip(stacked, s["states"]):
        direct = trace_product(apply(s["op"], rho), s["b"]).real / prob(rho, s["a"])
        assert abs(q - direct) <= 1e-13


def _basis_states(dim):
    return np.stack([np.diag(np.eye(dim)[i]).astype(np.complex128) for i in range(dim)])


def _check_elementwise(call, states, expected):
    stacked = call(states)
    np.testing.assert_array_equal(stacked, expected)
    assert [call(rho) for rho in states] == list(expected)


def test_prob_clamps_round_off_per_element():
    a = np.diag([-0.5 * EQ, -1e-3, 0.5])
    _check_elementwise(lambda r: prob(r, a), _basis_states(3), [0.0, -1e-3, 0.5])


def test_conditional_prob_clamps_into_the_unit_interval_per_element():
    identity = Operation([np.eye(4)])
    b = np.diag([1.0 + 0.5 * EQ, -0.5 * EQ, 0.3, 1.0 + 1e-3])
    _check_elementwise(
        lambda r: conditional_prob(r, identity, b), _basis_states(4), [1.0, 0.0, 0.3, 1.0 + 1e-3]
    )


def test_entropy_terms_vanish_at_the_boundaries_per_element():
    states = _basis_states(3)
    a = np.diag([0.5 * EQ, 0.5, 0.25])
    t = 0.75 + 0.5 * EQ
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # p <= eq_tol contributes 0
        _check_elementwise(
            lambda r: effect_entropy(r, a),
            states,
            [0.0, -0.5 * np.log(0.5 / t), -0.25 * np.log(0.25 / t)],
        )
        # t <= eq_tol contributes 0, even where p is not small
        flat = np.diag([0.5, -0.5, 0.0])
        _check_elementwise(lambda r: effect_entropy(r, flat), states, [0.0, 0.0, 0.0])


def test_one_zero_probability_state_fails_the_whole_stack():
    a = np.diag([1.0, 0.0])
    b = np.diag([0.5, 0.5])
    states = np.stack([np.eye(2) / 2, np.diag([0.0, 1.0]), np.eye(2) / 2]).astype(np.complex128)
    with pytest.raises(ZeroProbabilityConditionError, match="probability 0.000e"):
        conditional_prob(states, luders(a), b)
    with pytest.raises(ZeroProbabilityConditionError):
        bayes2_residual(states, luders(a), luders(b))
    with pytest.raises(ZeroProbabilityConditionError):
        bayes2_residual(states, luders(b), luders(a))
    assert conditional_prob(states[::2], luders(a), b).shape == (2,)


@pytest.mark.parametrize("name", STACK_CALLS)
def test_empty_stack_gives_an_empty_array(name):
    s = _setting()
    empty = random_states(Generator(1), 3, 0)
    out = STACK_CALLS[name](empty, s)
    assert isinstance(out, np.ndarray) and out.shape == (0,)
