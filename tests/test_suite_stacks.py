"""Stacked suites: a dim's trials run as one stack, bit for bit as one by one.

``duality``, ``sequential-product-bounds``, ``composition-laws``,
``bayes2-luders-commuting``, ``bayes2-luders-noncommuting`` and
``holevo-laws`` run their linear algebra once over the trials of a dim that
share a residue class of the suite's period.  Each trial still draws from
its own generator, so a trial evaluated alone (a one-trial stack) must give
exactly its row of the full stack, and both must equal the per-trial
computation through the public API below, which is the reference.

No suite transports one matrix through one operation twice in a run: the
``entropy`` suite takes each effect's transport once for its trace
criterion and every state's entropy gap, and ``composition-laws`` takes
each side of its associativity law once for that law and for the
conditional-probability chain.  The one exception is named in its test: a
public call that conditions a state the trial has already conditioned.
"""

import collections
import json
import sys

import numpy as np
import pytest

from qcond import operations, rand, suites
from qcond.core import prob
from qcond.errors import RetryExhaustedError
from qcond.linalg import DEFAULT_TOL, commutator, dagger, frobenius, trace_product
from qcond.operations import (
    apply,
    bayes2_residual,
    choi_distance,
    compose,
    conditional_prob,
    dual_apply,
    holevo,
    luders,
    measured_effect,
    sequential_product,
)
from qcond.rand import (
    Generator,
    random_atomic_effect,
    random_codiagonal_effects,
    random_effect,
    random_hermitian,
    random_operation_measuring,
    random_projection,
    random_state,
)
from qcond.suites import SEARCH_BUDGET, WITNESS_MARGIN, _first_hit, _usable_states
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


def _noncommuting_effect_pair(g, dim):
    """Effects whose Lüders transports of each other visibly disagree."""
    for _ in range(100):
        a = random_effect(g, dim)
        b = random_effect(g, dim)
        gap = frobenius(sequential_product(luders(a), b) - sequential_product(luders(b), a))
        if gap >= 1e-3:
            return a, b
    raise RetryExhaustedError("random effects kept commuting (or their gap was NaN) in 100 draws")


def _luders_closure_gap(a, b) -> float:
    """Choi distance between L_a then L_b and the Lüders operation of a∘b."""
    op_a = luders(a)
    return choi_distance(compose(op_a, luders(b)), luders(sequential_product(op_a, b)))


def _bayes2_commuting(g, dim, t):
    """Second Bayes rule holds for co-diagonal Lüders pairs, 20 states each."""
    a, b = random_codiagonal_effects(g, dim)
    op_a = luders(a)
    op_b = luders(b)
    states = _usable_states(
        g, dim, 20, SEARCH_BUDGET, lambda s: (prob(s, a) > 1e-6) & (prob(s, b) > 1e-6)
    )
    values = {
        "bayes2": float(np.max(bayes2_residual(states, op_a, op_b), initial=0.0)),
        "twenty-states-checked": len(states) == 20,
    }
    return values, {"dim": dim, "a": a, "b": b}


def _bayes2_noncommuting(g, dim, t):
    """Search: every non-commuting Lüders pair should expose a violating state."""
    a, b = _noncommuting_effect_pair(g, dim)
    op_a = luders(a)
    op_b = luders(b)

    def residuals(states):
        # States where either conditioning probability vanishes are skipped (0).
        usable = (prob(states, a) > DEFAULT_TOL.eq_tol) & (prob(states, b) > DEFAULT_TOL.eq_tol)
        r = np.zeros(len(states))
        r[usable] = bayes2_residual(states[usable], op_a, op_b)
        return r

    witness = {"dim": dim, "a": a, "b": b}
    state, best = _first_hit(g, dim, residuals, WITNESS_MARGIN)
    if state is not None:
        witness.update(state=state, residual=best)
    return {"bayes2-violated": best}, witness


def _holevo_laws(g, dim, t):
    """Holevo conditional probabilities and composition; Lüders (non-)closure."""
    a = random_effect(g, dim)
    alpha = random_state(g, dim)
    op_h = holevo(a, alpha)
    b = random_effect(g, dim)
    expected = trace_product(alpha, b).real
    states = _usable_states(g, dim, 50, 500, lambda s: prob(s, a) >= 1e-2)
    beta = random_state(g, dim)
    predicted = holevo(expected * a, beta)
    ac, bc = random_codiagonal_effects(g, dim)
    an, bn = _noncommuting_effect_pair(g, dim)
    gap_open = _luders_closure_gap(an, bn)
    values = {
        "conditional-prob-is-alpha-b": float(
            np.max(np.abs(conditional_prob(states, op_h, b) - expected), initial=0.0)
        ),
        "fifty-states-checked": len(states) == 50,
        "holevo-composition": choi_distance(compose(op_h, holevo(b, beta)), predicted),
        "luders-closed-when-commuting": _luders_closure_gap(ac, bc),
        "luders-open-when-noncommuting": gap_open > WITNESS_MARGIN,
    }
    return values, {"dim": dim, "a": a, "alpha": alpha, "b": b, "luders_gap": gap_open}


REFERENCE = {
    "duality": _duality,
    "sequential-product-bounds": _sequential_product_bounds,
    "composition-laws": _composition_laws,
    "bayes2-luders-commuting": _bayes2_commuting,
    "bayes2-luders-noncommuting": _bayes2_noncommuting,
    "holevo-laws": _holevo_laws,
}

def _bits(row):
    """A row's law values and witness as exact text (floats by repr, arrays entry by entry)."""
    values, witness = row
    return tuple(json.dumps(value_to_json(part), sort_keys=True) for part in (values, witness))


def _stacked_rows(name, gens, dim, ts):
    """The rows of trials ts as the runner makes them: one stack per residue class of the period."""
    trial, period, _laws = suites._SUITES[name]
    rows = {}
    for r in range(period):
        rows.update(zip(ts[r::period], trial(gens[r::period], dim, ts[r::period])))
    return [rows[t] for t in ts]


def _assert_stack_matches_reference(name, dims, trials=7, seed=7):
    trial, _period, _laws = suites._SUITES[name]
    root = Generator(seed).derive(suites.SUITE_NAMES.index(name))
    for dim in dims:
        full = _stacked_rows(name, root._derive_stack((dim,), 0, trials), dim, list(range(trials)))
        assert len(full) == trials
        for t in range(trials):
            [alone] = trial([root.derive(dim, t)], dim, [t])
            reference = REFERENCE[name](root.derive(dim, t), dim, t)
            assert _bits(alone) == _bits(full[t]) == _bits(reference), (dim, t)


@pytest.mark.parametrize("dims", ((2, 3), (8,)), ids=str)
@pytest.mark.parametrize("name", tuple(REFERENCE))
def test_a_trial_alone_equals_its_row_of_the_full_stack(name, dims):
    _assert_stack_matches_reference(name, dims)


def _diagonal_when_first_entry_positive(real):
    """real, with the off-diagonal entries of each effect whose input has h[0, 0] > 0 zeroed.

    A per-matrix map, so the stacked and the per-trial draws see the same
    effects.  A pair of such effects commutes, so its Lüders gap is round-off
    and the pair search must draw again.
    """

    def patched(h):
        out = real(h)
        diagonal = out * np.eye(h.shape[-1])
        return np.where((h[..., 0, 0].real > 0)[..., None, None], diagonal, out)

    return patched


@pytest.mark.parametrize("name", ("holevo-laws", "bayes2-luders-noncommuting"))
def test_a_pair_that_commutes_at_its_first_draw_is_redrawn_as_alone(monkeypatch, name):
    # About a quarter of the first pairs are both diagonal; those trials
    # retry one by one, and every row must still equal the reference.
    patched = _diagonal_when_first_entry_positive(rand._unit_spectrum)
    monkeypatch.setattr(rand, "_unit_spectrum", patched)
    monkeypatch.setattr(suites, "_unit_spectrum", patched)
    real_draws, retries = suites._draws, []

    def counted(gens, count, *shape):
        if len(gens) == 1 and count == 2:
            retries.append(gens[0]._key)
        return real_draws(gens, count, *shape)

    monkeypatch.setattr(suites, "_draws", counted)
    _assert_stack_matches_reference(name, (2, 3), trials=8)
    assert retries


def test_a_pair_search_that_never_finds_raises_as_the_reference(monkeypatch):
    # Every effect is 0.5 I, so every pair commutes and all 100 draws fail.
    def flat(h):
        return np.broadcast_to(0.5 * np.eye(h.shape[-1], dtype=complex), h.shape).copy()

    monkeypatch.setattr(rand, "_unit_spectrum", flat)
    monkeypatch.setattr(suites, "_unit_spectrum", flat)
    root = Generator(7)
    with pytest.raises(RetryExhaustedError, match="in 100 draws") as stacked:
        suites._noncommuting_pairs([root.derive(2, t) for t in range(5)], 2)
    with pytest.raises(RetryExhaustedError) as alone:
        _noncommuting_effect_pair(root.derive(2, 0), 2)
    assert str(stacked.value) == str(alone.value)


def test_the_runner_hands_a_trial_function_one_residue_class_at_a_time(monkeypatch):
    calls = []

    def stub(gens, dim, ts):
        calls.append((dim, list(ts)))
        assert len(gens) == len(ts)
        return [({"t-is-even": t % 2 == 0}, {"t": t}) for t in ts]

    monkeypatch.setitem(suites._SUITES, "duality", (stub, 3, {"t-is-even": suites._HOLDS}))
    for size, chunks in ((64, [range(0, 11)]), (4, [range(0, 4), range(4, 8), range(8, 11)])):
        calls.clear()
        monkeypatch.setattr(suites, "_STACK_TRIALS", size)
        report = suites.run_suite("duality", dims=(2, 3), trials=11, seed=7)
        expected = [
            (dim, list(chunk[r::3])) for dim in (2, 3) for chunk in chunks for r in range(min(3, len(chunk)))
        ]
        assert calls == expected
        for _dim, ts in calls:
            assert len({t % 3 for t in ts}) == 1
        # rows are judged in trial order, whatever the classes
        assert [f.trial for f in report.failures] == [1, 3, 5, 7, 9, 12, 14, 16, 18, 20]
        assert [f.witness["t"] for f in report.failures] == [1, 3, 5, 7, 9] * 2


def test_the_chain_is_skipped_only_in_its_own_trials(monkeypatch):
    # The second state of each stack is zeroed: trials 2 and 3 (the second
    # even and the second odd trial) condition on probability 0, so their
    # chain is skipped (None); the other trials keep their values.
    root = Generator(7).derive(suites.SUITE_NAMES.index("composition-laws"))

    def rows():
        return _stacked_rows("composition-laws", root._derive_stack((3,), 0, 6), 3, list(range(6)))

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


@pytest.mark.parametrize("name, forced", (
    # The one repeat a public call forces: the single- vs double-bar witness
    # compares with the public double-bar entropy, which conditions rho on
    # ins_i again (the trial already did, for the double-bar chain).  The
    # witness runs until it is found, here in the first trial.
    ("entropy", [[False, True]]),
    ("composition-laws", []),
), ids=("entropy", "composition-laws"))
def test_a_suite_transports_each_matrix_once(monkeypatch, name, forced):
    # Every input of the transport kernel: the Kraus stack, the matrices and
    # the direction, each call marked by whether the witness made it.
    calls = collections.defaultdict(list)
    real = operations._block_sum

    def counted(kraus, m, dual):
        frame, inside = sys._getframe(1), False
        while frame is not None and not inside:
            inside, frame = frame.f_code.co_name == "single_double_gap", frame.f_back
        calls[kraus.shape, kraus.tobytes(), m.shape, m.tobytes(), dual].append(inside)
        return real(kraus, m, dual)

    monkeypatch.setattr(operations, "_block_sum", counted)
    suites.run_suite(name, dims=(2, 3), trials=3, seed=7)
    assert calls
    assert [sorted(sites) for sites in calls.values() if len(sites) > 1] == forced
