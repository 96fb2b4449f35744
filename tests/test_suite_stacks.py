"""Stacked suites: a dim's trials run as one stack, bit for bit as one by one.

``duality``, ``sequential-product-bounds`` and ``composition-laws`` run
their linear algebra once over the trials of a dim.  Each trial still draws
from its own generator, so a trial evaluated alone (a one-trial stack) must
give exactly its row of the full stack, and both must equal the per-trial
computation through the public API below, which is the reference.
"""

import json

import numpy as np
import pytest

from qcond import suites
from qcond.core import prob
from qcond.linalg import DEFAULT_TOL, commutator, dagger, frobenius, trace_product
from qcond.operations import (
    apply,
    compose,
    conditional_prob,
    dual_apply,
    measured_effect,
    sequential_product,
)
from qcond.rand import (
    Generator,
    random_atomic_effect,
    random_effect,
    random_hermitian,
    random_operation_measuring,
    random_projection,
    random_state,
)
from qcond.serialize import value_to_json


def _duality(g, dim, t):
    a = random_effect(g, dim)
    op = random_operation_measuring(g.derive(0), a, 1 + t % 3)
    rho = random_state(g, dim)
    h = random_hermitian(g, dim)
    r = abs(trace_product(apply(op, rho), h) - trace_product(rho, dual_apply(op, h)))
    return {"duality": r}, {"dim": dim, "effect": a, "operation": op, "state": rho, "probe": h}


def _sequential_product_bounds(g, dim, t):
    a = random_effect(g, dim)
    op = random_operation_measuring(g.derive(0), a, 1 + t % 3)
    b = random_effect(g, dim)
    p = random_projection(g, dim, g.integer(1, dim))
    op_p = random_operation_measuring(g.derive(1), p, 1 + (t + 1) % 3)
    b2 = random_effect(g, dim)
    atom = random_atomic_effect(g, dim)
    op_atom = random_operation_measuring(g.derive(2), atom, 1 + (t + 2) % 3)
    transported = sequential_product(op_atom, random_effect(g, dim))
    lam = trace_product(atom, transported).real
    gap = a - sequential_product(op, b)
    values = {
        "transport-below-effect": float(
            np.max(-np.linalg.eigvalsh((gap + dagger(gap)) / 2.0)[:1], initial=0.0)
        ),
        "sharp-transport-commutes": frobenius(commutator(sequential_product(op_p, b2), p)),
        "atomic-transport-proportional": frobenius(transported - lam * atom),
        "atomic-coefficient-in-unit-interval": max(-lam, lam - 1.0, 0.0),
    }
    return values, {"dim": dim, "effect": a, "sharp": p, "atom": atom, "coefficient": lam}


def _composition_laws(g, dim, t):
    a = random_effect(g, dim)
    op_i = random_operation_measuring(g.derive(0), a, 1 + t % 2)
    b = random_effect(g, dim)
    op_j = random_operation_measuring(g.derive(1), b, 1 + (t + 1) % 2)
    c = random_effect(g, dim)
    rho = random_state(g, dim)
    h = random_hermitian(g, dim)
    comp = compose(op_i, op_j)
    a_then_b = sequential_product(op_i, b)
    pa = prob(rho, a)
    pab = prob(rho, a_then_b)
    chain = None
    if pa > DEFAULT_TOL.eq_tol and pab > DEFAULT_TOL.eq_tol:
        lhs = pa * conditional_prob(rho, op_i, sequential_product(op_j, c))
        chain = abs(lhs - pab * conditional_prob(rho, comp, c))
    values = {
        "dual-of-composite": frobenius(dual_apply(comp, h) - dual_apply(op_i, dual_apply(op_j, h))),
        "composite-measures-sequential-effect": frobenius(measured_effect(comp) - a_then_b),
        "sequential-products-associate": frobenius(
            sequential_product(op_i, sequential_product(op_j, c)) - dual_apply(comp, c)
        ),
        "conditional-probability-chain": chain,
    }
    return values, {"dim": dim, "a": a, "b": b, "c": c, "state": rho}


REFERENCE = {
    "duality": _duality,
    "sequential-product-bounds": _sequential_product_bounds,
    "composition-laws": _composition_laws,
}


def _bits(row):
    """A row's law values and witness as exact text (floats by repr, arrays entry by entry)."""
    values, witness = row
    return tuple(json.dumps(value_to_json(part), sort_keys=True) for part in (values, witness))


@pytest.mark.parametrize("dims", ((2, 3), (8,)), ids=str)
@pytest.mark.parametrize("name", tuple(REFERENCE))
def test_a_trial_alone_equals_its_row_of_the_full_stack(name, dims):
    trials = 7
    trial, _laws = suites._SUITES[name]
    root = Generator(7).derive(suites.SUITE_NAMES.index(name))
    for dim in dims:
        full = trial(root._derive_stack((dim,), 0, trials), dim, list(range(trials)))
        assert len(full) == trials
        for t in range(trials):
            [alone] = trial([root.derive(dim, t)], dim, [t])
            reference = REFERENCE[name](root.derive(dim, t), dim, t)
            assert _bits(alone) == _bits(full[t]) == _bits(reference), (dim, t)


def test_the_chain_is_skipped_only_in_its_own_trials(monkeypatch):
    # The second state of each stack is zeroed: trials 2 and 3 (the second
    # even and the second odd trial) condition on probability 0, so their
    # chain is skipped (None); the other trials keep their values.
    trial, _laws = suites._SUITES["composition-laws"]
    root = Generator(7).derive(suites.SUITE_NAMES.index("composition-laws"))

    def rows():
        return trial(root._derive_stack((3,), 0, 6), 3, list(range(6)))

    unpatched = rows()
    real = suites._normalized_gram

    def zero_second_state(m):
        rho = real(m)
        rho[1] = 0.0
        return rho

    monkeypatch.setattr(suites, "_normalized_gram", zero_second_state)
    chains = [values["conditional-probability-chain"] for values, _ in rows()]
    expected = [values["conditional-probability-chain"] for values, _ in unpatched]
    assert chains == [expected[0], expected[1], None, None, expected[4], expected[5]]
    assert None not in expected


@pytest.mark.parametrize("name", tuple(REFERENCE) + ("bayes1",))
def test_the_report_does_not_depend_on_the_stack_size(monkeypatch, name):
    # The runner hands a dim's trials over in stacks of at most
    # _STACK_TRIALS; any size, down to one trial, gives the same bytes.
    whole = json.dumps(suites.run_suite(name, (2, 3), 11, 7).to_json(), sort_keys=True)
    for size in (1, 4):
        monkeypatch.setattr(suites, "_STACK_TRIALS", size)
        assert json.dumps(suites.run_suite(name, (2, 3), 11, 7).to_json(), sort_keys=True) == whole
