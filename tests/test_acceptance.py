"""Acceptance battery: one test per numbered release criterion.

Each test re-derives its expectations from first principles (closed forms,
independent formulas, hand-constructed witnesses) rather than trusting the
code under test, and pins the tolerance stated in the release contract.
`pytest -v tests/test_acceptance.py` prints one pass/fail line per criterion.
"""

import json
import pathlib
import time

import numpy as np
import pytest

from qcond.cli import main
from qcond.context_stats import (
    commutator_trace,
    contextual_correlation,
    contextual_covariance,
    contextual_expectation,
    contextual_variance,
    holevo_moments,
    sharp_luders_moments,
    uncertainty_report,
)
from qcond.core import is_atomic, prob
from qcond.entropy import (
    conditional_effect_entropy,
    conditional_observable_entropy_double,
    conditional_observable_entropy_single,
    effect_entropy,
    observable_entropy,
    sequential_entropy,
    sequential_entropy_dominated,
)
from qcond.errors import NotJointlyCommutingError, ZeroProbabilityConditionError
from qcond.instruments import (
    atomic_context,
    bar_channel,
    bayes1_check,
    bayes1_expectation_check,
    condition_instrument,
    condition_observable,
    holevo_instrument,
    luders_instrument,
    measured_observable,
)
from qcond.linalg import commutator, frobenius, psd_sqrt, trace_product
from qcond.observables import jointly_commuting, stochastic_operator
from qcond.operations import (
    apply,
    bayes2_residual,
    choi_distance,
    compose,
    conditional_prob,
    dual_apply,
    holevo,
    luders,
    maps_equal,
    measured_effect,
    sequential_product,
)
from qcond.rand import (
    Generator,
    random_atomic_effect,
    random_atomic_observable,
    random_codiagonal_effects,
    random_codiagonal_observable,
    random_effect,
    random_hermitian,
    random_instrument_measuring,
    random_observable,
    random_operation_measuring,
    random_projection,
    random_projective_observable,
    random_real_values,
    random_state,
    random_unitary,
)
from qcond.scene import load_scene, run_scene

SCENE_DIR = pathlib.Path(__file__).resolve().parent.parent / "docs" / "scenes"


def _tr(m) -> float:
    return float(np.trace(m).real)


def test_criterion_01_operation_duality():
    """tr[I(rho) h] == tr[rho I*(h)] on 200 triples per dim in {2,3,4,5}."""
    start = time.monotonic()
    worst = 0.0
    for dim in (2, 3, 4, 5):
        g = Generator(401).derive(0, dim)
        for i in range(200):
            a = random_effect(g, dim)
            op = random_operation_measuring(g, a, 1 + i % 3)
            rho = random_state(g, dim)
            h = random_hermitian(g, dim)
            lhs = trace_product(apply(op, rho), h)
            rhs = trace_product(rho, dual_apply(op, h))
            worst = max(worst, abs(lhs - rhs))
    elapsed = time.monotonic() - start
    assert worst <= 1e-9, f"worst duality residual {worst:.3e}"
    assert elapsed < 5.0, f"duality battery took {elapsed:.2f}s"


def test_criterion_02_sequential_product_bounds():
    """Dominance, sharp commutation, atomic proportionality of a-then-b."""
    g = Generator(402)
    # (i) the product never exceeds the measured effect in the operator order
    for i in range(100):
        dim = 2 + i % 3
        gi = g.derive(1, i)
        a = random_effect(gi, dim)
        op = random_operation_measuring(gi, a, 1 + i % 3)
        c = dual_apply(op, random_effect(gi, dim))
        low = float(np.linalg.eigvalsh(a - c).min())
        assert low >= -1e-8, f"instance {i}: order violated by {low:.3e}"
    # (ii) a projection commutes with every product it dominates
    for i in range(100):
        dim = 2 + i % 3
        gi = g.derive(2, i)
        p = random_projection(gi, dim, 1 + i % (dim - 1)) if dim > 2 else random_projection(gi, 2, 1)
        op = random_operation_measuring(gi, p, 1 + i % 3)
        c = dual_apply(op, random_effect(gi, dim))
        assert frobenius(c @ p - p @ c) <= 1e-8
    # (iii) below a rank-1 projection everything is a multiple of it
    for i in range(100):
        dim = 2 + i % 3
        gi = g.derive(3, i)
        p = random_atomic_effect(gi, dim)
        op = random_operation_measuring(gi, p, 1 + i % 3)
        c = dual_apply(op, random_effect(gi, dim))
        lam = float(trace_product(p, c).real)
        assert frobenius(c - lam * p) <= 1e-8
        assert -1e-10 <= lam <= 1 + 1e-10, f"instance {i}: lambda {lam!r}"


def test_criterion_03_operation_composition_laws():
    """Dual reversal, measured effect, associativity and the chained
    conditional-probability identity for composed operations."""
    g = Generator(403)
    checked = skipped = 0
    for i in range(100):
        dim = 2 + i % 3
        gi = g.derive(4, i)
        a = random_effect(gi, dim)
        b = random_effect(gi, dim)
        op_a = random_operation_measuring(gi, a, 1 + i % 2)
        op_b = random_operation_measuring(gi, b, 1 + (i // 2) % 2)
        c = random_effect(gi, dim)
        h = random_hermitian(gi, dim)
        rho = random_state(gi, dim)
        comp = compose(op_a, op_b)

        # (i) the dual of first-then-second applies the duals in reverse
        r1 = frobenius(
            dual_apply(comp, h) - dual_apply(op_a, dual_apply(op_b, h))
        )
        assert r1 <= 1e-9
        # (ii) the composite measures a-then-b
        ab = sequential_product(op_a, b)
        assert frobenius(measured_effect(comp) - ab) <= 1e-9
        # (iii) associativity: a-then-(b-then-c) == (a-then-b)-then-c
        lhs = sequential_product(op_a, sequential_product(op_b, c))
        assert frobenius(lhs - dual_apply(comp, c)) <= 1e-9
        # (iv) tr(rho a) P(b-then-c | a) == tr(rho ab) P(c | ab),
        # skipped (and counted) when either conditioning probability vanishes
        p_a = prob(rho, a)
        p_ab = prob(rho, ab)
        if p_a <= 1e-9 or p_ab <= 1e-9:
            skipped += 1
            continue
        left = p_a * conditional_prob(rho, op_a, sequential_product(op_b, c))
        right = p_ab * conditional_prob(rho, comp, c)
        assert abs(left - right) <= 1e-9
        checked += 1
    assert checked + skipped == 100
    assert checked >= 90, f"too many degenerate draws: {skipped} skipped"


def test_criterion_04_bayes_second_rule_luders():
    """Exact for commuting pairs; violated states found for non-commuting."""
    g = Generator(404)
    for i in range(50):
        dim = 2 + i % 3
        gi = g.derive(5, i)
        a, b = random_codiagonal_effects(gi, dim)
        ca, cb = luders(a), luders(b)
        for _ in range(20):
            rho = random_state(gi, dim)
            try:
                residual = bayes2_residual(rho, ca, cb)
            except ZeroProbabilityConditionError:
                continue
            assert residual <= 1e-9, f"pair {i}: residual {residual:.3e}"
    unfound = []
    for i in range(50):
        dim = 2 + i % 3
        gi = g.derive(6, i)
        while True:
            a = random_effect(gi, dim)
            b = random_effect(gi, dim)
            if frobenius(commutator(a, b)) > 1e-2:
                break
        ca, cb = luders(a), luders(b)
        for _ in range(200):
            rho = random_state(gi, dim)
            try:
                if bayes2_residual(rho, ca, cb) > 1e-6:
                    break
            except ZeroProbabilityConditionError:
                continue
        else:
            unfound.append(i)
    # tolerate <= 2% of pairs without a witness, but flag them
    assert len(unfound) <= 1, f"no violating state found for pairs {unfound}"


def test_criterion_05_holevo_operation_laws():
    """State-independent conditionals, closure under composition, and the
    commutation criterion for collapsing two Lüders measurements into one."""
    g = Generator(405)
    worst = 0.0
    for i in range(50):
        dim = 2 + i % 3
        gi = g.derive(7, i)
        a = random_effect(gi, dim)
        alpha = random_state(gi, dim)
        b = random_effect(gi, dim)
        rho = random_state(gi, dim)
        got = conditional_prob(rho, holevo(a, alpha), b)
        worst = max(worst, abs(got - float(trace_product(alpha, b).real)))
    assert worst <= 1e-10, f"worst conditional-probability residual {worst:.3e}"

    for i in range(20):
        dim = 2 + i % 3
        gi = g.derive(8, i)
        a = random_effect(gi, dim)
        b = random_effect(gi, dim)
        alpha = random_state(gi, dim)
        beta = random_state(gi, dim)
        left = compose(holevo(a, alpha), holevo(b, beta))
        weight = float(trace_product(alpha, b).real)
        right = holevo(weight * a, beta)
        assert choi_distance(left, right) <= 1e-9

    for i in range(10):
        gi = g.derive(9, i)
        dim = 2 + i % 3
        a, b = random_codiagonal_effects(gi, dim)
        sa = psd_sqrt(a)
        composed = compose(luders(a), luders(b))
        collapsed = luders(sa @ b @ sa)
        assert choi_distance(composed, collapsed) <= 1e-9
        assert maps_equal(composed, collapsed)
        while True:
            a = random_effect(gi, dim)
            b = random_effect(gi, dim)
            if frobenius(commutator(a, b)) > 1e-2:
                break
        sa = psd_sqrt(a)
        composed = compose(luders(a), luders(b))
        collapsed = luders(sa @ b @ sa)
        assert choi_distance(composed, collapsed) > 1e-6
        assert not maps_equal(composed, collapsed)


def test_criterion_06_instrument_conditioning_laws():
    """A conditioned instrument measures the conditioned observable, and
    two-step conditioning collapses to conditioning on the conditioned."""
    g = Generator(406)
    for i in range(100):
        dim = 2 + i % 3
        gi = g.derive(10, i)
        obs_a = random_observable(gi, dim, 2 + i % 2)
        obs_b = random_observable(gi, dim, 2 + (i // 2) % 2)
        obs_c = random_observable(gi, dim, 2 + (i // 4) % 2)
        ins_a = random_instrument_measuring(gi, obs_a, 1 + i % 2)
        ins_b = random_instrument_measuring(gi, obs_b, 1 + (i // 3) % 2)
        conditioned = condition_instrument(ins_b, ins_a)

        got = measured_observable(conditioned)
        want = condition_observable(obs_b, ins_a)
        assert got.outcomes == want.outcomes
        r1 = max(frobenius(got.effects[y] - want.effects[y]) for y in want.outcomes)
        assert r1 <= 1e-9, f"instance {i}: measured-observable residual {r1:.3e}"

        left = condition_observable(condition_observable(obs_c, ins_b), ins_a)
        right = condition_observable(obs_c, conditioned)
        r2 = max(frobenius(left.effects[z] - right.effects[z]) for z in obs_c.outcomes)
        assert r2 <= 1e-9, f"instance {i}: two-step conditioning residual {r2:.3e}"


def test_criterion_07_bayes_first_rules():
    """Both first-rule triples agree on random instruments, and the atomic
    Lüders / state-preparing closed forms reproduce the generic engine."""
    g = Generator(407)
    for i in range(100):
        dim = 2 + i % 3
        gi = g.derive(11, i)
        obs_a = random_observable(gi, dim, 2 + i % 2)
        flavor = i % 3
        if flavor == 0:
            ins = luders_instrument(obs_a)
        elif flavor == 1:
            alphas = {x: random_state(gi, dim) for x in obs_a.outcomes}
            ins = holevo_instrument(obs_a, alphas)
        else:
            ins = random_instrument_measuring(gi, obs_a, 1 + i % 2)
        rho = random_state(gi, dim)
        a = random_effect(gi, dim)
        triple = bayes1_check(rho, ins, a)
        assert triple.spread <= 1e-9, f"instance {i}: spread {triple.spread:.3e}"
        b = random_real_values(gi, random_observable(gi, dim, 2))
        etriple = bayes1_expectation_check(rho, ins, b)
        assert etriple.spread <= 1e-9

    # closed form for an atomic projective measurement:
    # P(a|A) = sum_x <x|rho|x><x|a|x>, E(B|A) = sum_x <x|rho|x><x|Btilde|x>
    for i in range(20):
        dim = 2 + i % 3
        gi = g.derive(12, i)
        obs_a = random_atomic_observable(gi, dim)
        ins = luders_instrument(obs_a)
        rho = random_state(gi, dim)
        a = random_effect(gi, dim)
        b = random_real_values(gi, random_observable(gi, dim, 2))
        bt = stochastic_operator(b)
        closed_p = sum(
            _tr(rho @ px) * _tr(a @ px) for px in obs_a.effects.values()
        )
        closed_e = sum(
            _tr(rho @ px) * _tr(bt @ px) for px in obs_a.effects.values()
        )
        assert abs(bayes1_check(rho, ins, a).mid - closed_p) <= 1e-9
        assert abs(bayes1_expectation_check(rho, ins, b).mid - closed_e) <= 1e-9

    # closed form for a state-preparing instrument:
    # P(a|A) = sum_x tr(rho A_x) tr(alpha_x a), likewise with Btilde
    for i in range(20):
        dim = 2 + i % 3
        gi = g.derive(13, i)
        obs_a = random_observable(gi, dim, 2 + i % 2)
        alphas = {x: random_state(gi, dim) for x in obs_a.outcomes}
        ins = holevo_instrument(obs_a, alphas)
        rho = random_state(gi, dim)
        a = random_effect(gi, dim)
        b = random_real_values(gi, random_observable(gi, dim, 2))
        bt = stochastic_operator(b)
        closed_p = sum(
            _tr(rho @ obs_a.effects[x]) * _tr(alphas[x] @ a) for x in obs_a.outcomes
        )
        closed_e = sum(
            _tr(rho @ obs_a.effects[x]) * _tr(alphas[x] @ bt) for x in obs_a.outcomes
        )
        assert abs(bayes1_check(rho, ins, a).mid - closed_p) <= 1e-9
        assert abs(bayes1_expectation_check(rho, ins, b).mid - closed_e) <= 1e-9


def test_criterion_08_atomic_context_recovery():
    """Jointly commuting pairs are fixed points of conditioning on a common
    atomic observable; non-commuting inputs are rejected."""
    g = Generator(408)
    for i in range(50):
        dim = 2 + i % 3
        gi = g.derive(14, i)
        u = random_unitary(gi, dim)
        obs_b = random_codiagonal_observable(gi, u, 2 + i % 2)
        obs_c = random_codiagonal_observable(gi, u, 2 + (i // 2) % 2)
        atoms, ins = atomic_context([obs_b, obs_c])
        assert all(is_atomic(p) for p in atoms.effects.values())
        for obs in (obs_b, obs_c):
            cond = condition_observable(obs, ins)
            residual = max(
                frobenius(cond.effects[y] - obs.effects[y]) for y in obs.outcomes
            )
            assert residual <= 1e-8, f"pair {i}: residual {residual:.3e}"

    for i in range(10):
        gi = g.derive(15, i)
        while True:
            obs_b = random_observable(gi, 2, 2)
            obs_c = random_observable(gi, 2, 2)
            if not jointly_commuting([obs_b, obs_c]):
                break
        with pytest.raises(NotJointlyCommutingError):
            atomic_context([obs_b, obs_c])


def test_criterion_09_uncertainty_identity():
    """The correlation identity holds exactly, the variance product bounds
    it, and both closed-form statistics families match the generic engine."""
    g = Generator(409)
    for i in range(300):
        dim = 2 + i % 3
        gi = g.derive(16, i)
        obs_a = random_observable(gi, dim, 2 + i % 2)
        flavor = i % 3
        if flavor == 0:
            ins = luders_instrument(obs_a)
        elif flavor == 1:
            alphas = {x: random_state(gi, dim) for x in obs_a.outcomes}
            ins = holevo_instrument(obs_a, alphas)
        else:
            ins = random_instrument_measuring(gi, obs_a, 1 + i % 2)
        b = random_real_values(gi, random_observable(gi, dim, 2 + (i // 3) % 2))
        c = random_real_values(gi, random_observable(gi, dim, 2))
        rho = random_state(gi, dim)
        report = uncertainty_report(rho, ins, b, c)
        assert report.identity_residual <= 1e-9, f"instance {i}"
        assert report.inequality_slack >= -1e-9, f"instance {i}"

    for i in range(20):
        dim = 2 + i % 3
        gi = g.derive(17, i)
        obs_a = random_projective_observable(gi, dim, 2 if dim == 2 else 2 + i % (dim - 1))
        ins = luders_instrument(obs_a)
        b = random_real_values(gi, random_observable(gi, dim, 2))
        c = random_real_values(gi, random_observable(gi, dim, 2))
        rho = random_state(gi, dim)
        closed = sharp_luders_moments(rho, obs_a, b, c)
        assert abs(contextual_expectation(rho, ins, b) - closed.expectation_b) <= 1e-9
        assert abs(contextual_correlation(rho, ins, b, c) - closed.correlation) <= 1e-9
        assert abs(contextual_covariance(rho, ins, b, c) - closed.covariance) <= 1e-9
        assert abs(contextual_variance(rho, ins, b) - closed.variance_b) <= 1e-9
        assert abs(commutator_trace(rho, ins, b, c) - closed.commutator_trace) <= 1e-9

    for i in range(20):
        dim = 2 + i % 3
        gi = g.derive(13, i)
        obs_a = random_observable(gi, dim, 2 + i % 2)
        alphas = {x: random_state(gi, dim) for x in obs_a.outcomes}
        ins = holevo_instrument(obs_a, alphas)
        b = random_real_values(gi, random_observable(gi, dim, 2))
        c = random_real_values(gi, random_observable(gi, dim, 2))
        rho = random_state(gi, dim)
        closed = holevo_moments(rho, obs_a, alphas, b, c)
        assert abs(contextual_expectation(rho, ins, b) - closed.expectation_b) <= 1e-9
        assert abs(contextual_correlation(rho, ins, b, c) - closed.correlation) <= 1e-9
        assert abs(contextual_covariance(rho, ins, b, c) - closed.covariance) <= 1e-9
        assert abs(contextual_variance(rho, ins, b) - closed.variance_b) <= 1e-9
        assert abs(commutator_trace(rho, ins, b, c) - closed.commutator_trace) <= 1e-9


def test_criterion_10_entropy_laws():
    """Non-negativity, the trace criterion and its consequences, a reversal
    witness for a state-preparing measurement, the two-conditioning chain
    identity, and a serialized chain-failure witness."""
    g = Generator(410)
    for i in range(15):
        dim = 2 + i % 3
        gi = g.derive(19, i)
        a = random_effect(gi, dim)
        b = random_effect(gi, dim)
        luders_ctx = luders(a)
        assert sequential_entropy_dominated(luders_ctx, b)
        contexts = (
            luders_ctx,
            random_operation_measuring(gi, a, 1 + i % 2),
            holevo(a, random_state(gi, dim)),
        )
        for ctx in contexts:
            dominated = sequential_entropy_dominated(ctx, b)
            for _ in range(50):
                rho = random_state(gi, dim)
                s_seq = sequential_entropy(rho, ctx, b)
                s_cond = conditional_effect_entropy(rho, ctx, b)
                assert s_seq >= -1e-12 and s_cond >= -1e-12
                assert effect_entropy(rho, a) >= -1e-12
                if dominated:
                    assert s_seq <= s_cond + 1e-9

    # a state-preparing measurement can reverse the ordering: measure the
    # trivial question, always prepare |+>, then ask for |+> again
    plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    ctx = holevo(np.eye(2, dtype=complex), plus)
    assert not sequential_entropy_dominated(ctx, plus)
    gw = g.derive(20)
    for _ in range(200):
        rho = random_state(gw, 2)
        gap = sequential_entropy(rho, ctx, plus) - conditional_effect_entropy(
            rho, ctx, plus
        )
        if gap > 1e-6:
            break
    else:
        pytest.fail("no state found with sequential entropy above conditional")

    # measuring twice then asking about C: the composite instrument, the
    # nested form, and the twice-averaged state all give the same entropy
    for i in range(10):
        dim = 2 + i % 2
        gi = g.derive(21, i)
        obs_a = random_observable(gi, dim, 2)
        obs_b = random_observable(gi, dim, 2)
        obs_c = random_observable(gi, dim, 2 + i % 2)
        ins_a = random_instrument_measuring(gi, obs_a, 1 + i % 2)
        ins_b = random_instrument_measuring(gi, obs_b, 1)
        rho = random_state(gi, dim)
        via_conditioned = conditional_observable_entropy_double(
            rho, condition_instrument(ins_b, ins_a), obs_c
        )
        via_nested = conditional_observable_entropy_double(
            apply(bar_channel(ins_a), rho), ins_b, obs_c
        )
        via_state = observable_entropy(
            apply(bar_channel(ins_b), apply(bar_channel(ins_a), rho)), obs_c
        )
        assert abs(via_conditioned - via_nested) <= 1e-9
        assert abs(via_conditioned - via_state) <= 1e-9
        assert conditional_observable_entropy_single(rho, ins_a, obs_c) >= -1e-12

    # the single-denominator entropy is context-dependent: conditioning on
    # (B|A) measured fresh differs from threading the original instrument
    witness = None
    for i in range(50):
        dim = 2 + i % 2
        gi = g.derive(22, i)
        obs_a = random_observable(gi, dim, 2)
        obs_b = random_observable(gi, dim, 2)
        obs_c = random_observable(gi, dim, 2)
        ins_a = random_instrument_measuring(gi, obs_a, 1 + i % 2)
        ins_b = random_instrument_measuring(gi, obs_b, 1)
        rho = random_state(gi, dim)
        left = conditional_observable_entropy_single(
            rho, ins_a, condition_observable(obs_c, ins_b)
        )
        fresh = luders_instrument(condition_observable(obs_b, ins_a))
        right = conditional_observable_entropy_single(rho, fresh, obs_c)
        if abs(left - right) > 1e-6:
            witness = {
                "dim": dim,
                "state": [[ [z.real, z.imag] for z in row] for row in rho],
                "left": left,
                "right": right,
                "gap": abs(left - right),
            }
            break
    assert witness is not None, "no chain-failure witness found"
    assert json.loads(json.dumps(witness)) == witness


def test_criterion_11_scenes_and_cli_determinism(tmp_path, capsys):
    """All nine shipped scenes pass, and repeated full verification runs
    with the same seed emit byte-identical JSON reports."""
    scene_files = sorted(SCENE_DIR.glob("*.json"))
    assert len(scene_files) == 9
    for path in scene_files:
        report = run_scene(load_scene(path))
        failed = [(c.index, c.op, c.residual) for c in report.checks if not c.passed]
        assert report.passed, f"{path.stem}: failing checks {failed}"

    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    rc1 = main(["verify", "--all", "--seed", "7", "--json", str(first)])
    rc2 = main(["verify", "--all", "--seed", "7", "--json", str(second)])
    capsys.readouterr()
    assert rc1 == 0 and rc2 == 0
    assert first.read_bytes() == second.read_bytes()
