"""Seeded property suites: run a law over many random instances, report residuals.

Each suite draws its objects from per-trial derived generators, so a report
is a pure function of (suite, dims, trials, seed).  Identity suites pass when
every residual stays inside tolerance; counterexample-search suites pass by
*finding* witnesses (a trial that fails to find one is the failure).

Report schema (JSON): suite, seed, dims, trials, passes, failures
[{trial, residual, witness}], max_residual, plus witnesses/notes when
present.  Witnesses are fully serialized objects, so any failure or found
counterexample can be replayed by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .context_stats import (
    commutator_trace,
    contextual_correlation,
    contextual_covariance,
    contextual_expectation,
    contextual_variance,
    holevo_commutator_trace,
    holevo_correlation,
    holevo_covariance,
    holevo_expectation,
    holevo_variance,
    sharp_luders_commutator_trace,
    sharp_luders_correlation,
    sharp_luders_covariance,
    sharp_luders_expectation,
    sharp_luders_variance,
    uncertainty_report,
)
from .core import is_atomic, prob
from .entropy import (
    conditional_effect_entropy,
    conditional_observable_entropy_double,
    conditional_observable_entropy_single,
    effect_entropy,
    observable_entropy,
    sequential_entropy,
    sequential_entropy_dominated,
)
from .errors import NotJointlyCommutingError, UnknownSuiteError
from .instruments import (
    atomic_context,
    bar_channel,
    bayes1_check,
    bayes1_expectation_check,
    compose_instruments,
    condition_instrument,
    condition_observable,
    holevo_instrument,
    luders_instrument,
    measured_observable,
)
from .linalg import DEFAULT_TOL, Tolerance, commutator, dagger, frobenius, trace_product
from .observables import jointly_commuting
from .operations import (
    Operation,
    apply,
    choi_distance,
    compose,
    conditional_prob,
    bayes2_residual,
    dual_apply,
    luders,
    holevo,
    measured_effect,
    sequential_product,
)
from .rand import (
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
from .serialize import value_to_json

__all__ = ["TrialFailure", "SuiteReport", "SUITE_NAMES", "DEFAULT_SEED", "run_suite"]

DEFAULT_SEED = 7

#: Minimum residual for a found counterexample to count as a witness.
WITNESS_MARGIN = 1e-6
#: State draws allowed per counterexample search.
SEARCH_BUDGET = 200
#: Fraction of search trials allowed to come up empty (flagged, not failed).
UNFOUND_TOLERANCE = 0.02


@dataclass(frozen=True)
class TrialFailure:
    trial: int
    residual: float
    witness: dict | None = None

    def to_json(self) -> dict:
        return {"trial": self.trial, "residual": self.residual, "witness": self.witness}


@dataclass
class SuiteReport:
    suite: str
    seed: int
    dims: list[int]
    trials: int
    passes: int
    failures: list[TrialFailure]
    max_residual: float
    witnesses: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        out = {
            "suite": self.suite,
            "seed": self.seed,
            "dims": list(self.dims),
            "trials": self.trials,
            "passes": self.passes,
            "failures": [f.to_json() for f in self.failures],
            "max_residual": self.max_residual,
        }
        if self.witnesses:
            out["witnesses"] = self.witnesses
        if self.notes:
            out["notes"] = self.notes
        return out


class _Run:
    """Mutable accumulator handed to each suite body."""

    def __init__(self) -> None:
        self.trial = 0
        self.passes = 0
        self.failures: list[TrialFailure] = []
        self.witnesses: list[dict] = []
        self.notes: list[str] = []
        self.max_residual = 0.0

    def record(self, ok: bool, residual: float, witness=None) -> None:
        residual = float(residual)
        self.max_residual = max(self.max_residual, residual)
        if ok:
            self.passes += 1
        else:
            payload = value_to_json(witness) if witness is not None else None
            self.failures.append(TrialFailure(self.trial, residual, payload))
        self.trial += 1

    def witness(self, payload: dict) -> None:
        self.witnesses.append(value_to_json(payload))

    def note(self, text: str) -> None:
        self.notes.append(text)


def _hermitian_floor(m: np.ndarray) -> float:
    """Most negative eigenvalue of the Hermitian part."""
    return float(np.linalg.eigvalsh((m + dagger(m)) / 2.0)[0])


def _noncommuting_effect_pair(g: Generator, dim: int, tol: Tolerance):
    """Effects whose Lüders transports of each other visibly disagree."""
    for _ in range(100):
        a = random_effect(g, dim)
        b = random_effect(g, dim)
        gap = frobenius(
            sequential_product(luders(a, tol), b) - sequential_product(luders(b, tol), a)
        )
        if gap >= 1e-3:
            return a, b
    raise RuntimeError("random effects kept commuting; astronomically unlikely")


# --- identity suites ---------------------------------------------------------


def _suite_duality(root: Generator, dims, trials, tol: Tolerance, run: _Run) -> None:
    """tr[op(rho) h] == tr[rho dual(h)] for random operations, states, probes."""
    for dim in dims:
        for t in range(trials):
            g = root.derive(dim, t)
            a = random_effect(g, dim)
            op = random_operation_measuring(g.derive(0), a, 1 + t % 3, tol)
            rho = random_state(g, dim)
            h = random_hermitian(g, dim)
            r = abs(trace_product(apply(op, rho), h) - trace_product(rho, dual_apply(op, h)))
            run.record(
                r <= tol.eq_tol,
                r,
                witness={"dim": dim, "effect": a, "operation": op, "state": rho, "probe": h},
            )


def _suite_sequential_product_bounds(root, dims, trials, tol, run) -> None:
    """Transported effects sit below the measured effect; sharp/atomic structure.

    The Loewner floor and commutator/proportionality residuals use 10x eq_tol
    (1e-8 at defaults); the atomic coefficient must land in [-psd_tol, 1+psd_tol].
    """
    bound = 10.0 * tol.eq_tol
    for dim in dims:
        for t in range(trials):
            g = root.derive(dim, t)
            a = random_effect(g, dim)
            op = random_operation_measuring(g.derive(0), a, 1 + t % 3, tol)
            b = random_effect(g, dim)
            r_order = max(0.0, -_hermitian_floor(a - sequential_product(op, b)))

            p = random_projection(g, dim, g.integer(1, dim))
            op_p = random_operation_measuring(g.derive(1), p, 1 + (t + 1) % 3, tol)
            b2 = random_effect(g, dim)
            r_sharp = frobenius(commutator(sequential_product(op_p, b2), p))

            atom = random_atomic_effect(g, dim)
            op_atom = random_operation_measuring(g.derive(2), atom, 1 + (t + 2) % 3, tol)
            b3 = random_effect(g, dim)
            transported = sequential_product(op_atom, b3)
            lam = trace_product(atom, transported).real
            r_atom = frobenius(transported - lam * atom)
            lam_ok = -tol.psd_tol <= lam <= 1.0 + tol.psd_tol

            residual = max(r_order, r_sharp, r_atom)
            ok = residual <= bound and lam_ok
            run.record(
                ok,
                residual if lam_ok else max(residual, abs(lam - 0.5) - 0.5),
                witness={"dim": dim, "effect": a, "sharp": p, "atom": atom, "coefficient": lam},
            )


def _suite_composition_laws(root, dims, trials, tol, run) -> None:
    """Duals, measured effects and conditional probabilities of composed operations."""
    skipped = 0
    for dim in dims:
        for t in range(trials):
            g = root.derive(dim, t)
            a = random_effect(g, dim)
            op_i = random_operation_measuring(g.derive(0), a, 1 + t % 2, tol)
            b = random_effect(g, dim)
            op_j = random_operation_measuring(g.derive(1), b, 1 + (t + 1) % 2, tol)
            c = random_effect(g, dim)
            rho = random_state(g, dim)
            h = random_hermitian(g, dim)

            comp = compose(op_i, op_j)
            a_then_b = sequential_product(op_i, b)
            # dual of "first i then j" applies j's dual first
            r1 = frobenius(dual_apply(comp, h) - dual_apply(op_i, dual_apply(op_j, h)))
            r2 = frobenius(measured_effect(comp) - a_then_b)
            r3 = frobenius(
                sequential_product(op_i, sequential_product(op_j, c)) - dual_apply(comp, c)
            )

            pa = prob(rho, a, tol)
            pab = prob(rho, a_then_b, tol)
            if pa <= tol.eq_tol or pab <= tol.eq_tol:
                skipped += 1
                r4 = 0.0
            else:
                lhs = pa * conditional_prob(rho, op_i, sequential_product(op_j, c), tol)
                rhs = pab * conditional_prob(rho, comp, c, tol)
                r4 = abs(lhs - rhs)

            residual = max(r1, r2, r3, r4)
            run.record(
                residual <= tol.eq_tol,
                residual,
                witness={"dim": dim, "a": a, "b": b, "c": c, "state": rho},
            )
    if skipped:
        run.note(f"{skipped} conditional-probability legs skipped (conditioning prob <= eq_tol)")


def _suite_bayes2_commuting(root, dims, trials, tol, run) -> None:
    """Second Bayes rule holds for co-diagonal Lüders pairs, 20 states each."""
    for dim in dims:
        for t in range(trials):
            g = root.derive(dim, t)
            a, b = random_codiagonal_effects(g, dim)
            op_a = luders(a, tol)
            op_b = luders(b, tol)
            worst = 0.0
            checked = 0
            draw = 0
            while checked < 20 and draw < SEARCH_BUDGET:
                rho = random_state(g.derive(draw), dim)
                draw += 1
                if prob(rho, a, tol) <= 1e-6 or prob(rho, b, tol) <= 1e-6:
                    continue
                worst = max(worst, bayes2_residual(rho, op_a, op_b, tol))
                checked += 1
            run.record(
                checked == 20 and worst <= tol.eq_tol,
                worst,
                witness={"dim": dim, "a": a, "b": b},
            )


def _suite_bayes2_noncommuting(root, dims, trials, tol, run) -> None:
    """Search suite: every non-commuting Lüders pair should expose a violating state."""
    unfound: list[TrialFailure] = []
    for dim in dims:
        for t in range(trials):
            g = root.derive(dim, t)
            a, b = _noncommuting_effect_pair(g, dim, tol)
            op_a = luders(a, tol)
            op_b = luders(b, tol)
            best = 0.0
            found = None
            for draw in range(SEARCH_BUDGET):
                rho = random_state(g.derive(draw), dim)
                if prob(rho, a, tol) <= tol.eq_tol or prob(rho, b, tol) <= tol.eq_tol:
                    continue
                r = bayes2_residual(rho, op_a, op_b, tol)
                best = max(best, r)
                if r > WITNESS_MARGIN:
                    found = (rho, r)
                    break
            if found is not None:
                rho, r = found
                run.witness(
                    {"dim": dim, "a": a, "b": b, "state": rho, "residual": r}
                )
                run.record(True, r)
            else:
                unfound.append(
                    TrialFailure(run.trial, best, value_to_json({"dim": dim, "a": a, "b": b}))
                )
                run.record(True, best)  # provisionally a pass; reclassified below
    total = run.trial
    if unfound:
        if len(unfound) / total <= UNFOUND_TOLERANCE:
            run.note(
                f"{len(unfound)}/{total} trials found no violating state within "
                f"{SEARCH_BUDGET} draws (within the {UNFOUND_TOLERANCE:.0%} allowance)"
            )
        else:
            run.passes -= len(unfound)
            run.failures.extend(unfound)
            run.note(
                f"{len(unfound)}/{total} trials found no violating state; "
                f"exceeds the {UNFOUND_TOLERANCE:.0%} allowance"
            )


def _suite_holevo_laws(root, dims, trials, tol, run) -> None:
    """Holevo conditional probabilities and composition; Lüders (non-)closure."""
    for dim in dims:
        for t in range(trials):
            g = root.derive(dim, t)
            a = random_effect(g, dim)
            alpha = random_state(g, dim)
            op_h = holevo(a, alpha, tol)
            b = random_effect(g, dim)
            expected = trace_product(alpha, b).real
            worst_cp = 0.0
            checked = 0
            draw = 0
            while checked < 50 and draw < 500:
                rho = random_state(g.derive(draw), dim)
                draw += 1
                if prob(rho, a, tol) < 1e-2:
                    continue
                worst_cp = max(worst_cp, abs(conditional_prob(rho, op_h, b, tol) - expected))
                checked += 1
            ok_cp = checked == 50 and worst_cp <= 0.1 * tol.eq_tol

            beta = random_state(g, dim)
            op_h2 = holevo(b, beta, tol)
            predicted = holevo(expected * a, beta, tol)
            r_comp = choi_distance(compose(op_h, op_h2), predicted)

            ac, bc = random_codiagonal_effects(g, dim)
            op_ac = luders(ac, tol)
            r_closed = choi_distance(
                compose(op_ac, luders(bc, tol)),
                luders(sequential_product(op_ac, bc), tol),
            )

            an, bn = _noncommuting_effect_pair(g, dim, tol)
            op_an = luders(an, tol)
            gap_open = choi_distance(
                compose(op_an, luders(bn, tol)),
                luders(sequential_product(op_an, bn), tol),
            )
            ok = ok_cp and r_comp <= tol.eq_tol and r_closed <= tol.eq_tol and gap_open > WITNESS_MARGIN
            run.record(
                ok,
                max(worst_cp, r_comp, r_closed),
                witness={"dim": dim, "a": a, "alpha": alpha, "b": b, "luders_gap": gap_open},
            )


def _suite_conditioning_laws(root, dims, trials, tol, run) -> None:
    """Conditioned instruments measure conditioned observables; conditioning chains."""
    for dim in dims:
        for t in range(trials):
            g = root.derive(dim, t)
            a_obs = random_observable(g, dim, g.integer(2, dim + 1), tol)
            ins_i = random_instrument_measuring(g.derive(0), a_obs, 1 + t % 2, tol)
            b_obs = random_observable(g, dim, g.integer(2, dim + 1), tol)
            ins_j = random_instrument_measuring(g.derive(1), b_obs, 1 + (t + 1) % 2, tol)
            c_obs = random_observable(g, dim, g.integer(2, dim + 1), tol)

            cond = condition_instrument(ins_j, ins_i)
            measured = measured_observable(cond)
            conditioned = condition_observable(b_obs, ins_i)
            r1 = max(
                frobenius(measured.effects[y] - conditioned.effects[y]) for y in b_obs.outcomes
            )

            left = condition_observable(condition_observable(c_obs, ins_j), ins_i)
            right = condition_observable(c_obs, cond)
            r2 = max(frobenius(left.effects[z] - right.effects[z]) for z in c_obs.outcomes)

            comp = compose_instruments(ins_i, ins_j)
            r3 = choi_distance(
                bar_channel(comp), compose(bar_channel(ins_i), bar_channel(ins_j))
            )
            r4 = 0.0
            for y in ins_j.outcomes:
                kraus = np.concatenate([comp.ops[f"{x},{y}"].kraus for x in ins_i.outcomes])
                r4 = max(r4, choi_distance(Operation(kraus), cond.ops[y]))

            residual = max(r1, r2, r3, r4)
            run.record(
                residual <= tol.eq_tol,
                residual,
                witness={"dim": dim, "A": a_obs, "B": b_obs, "C": c_obs},
            )


def _suite_bayes1(root, dims, trials, tol, run) -> None:
    """First Bayes rule, probability and expectation forms, all instrument kinds.

    Lüders-of-atomic and Holevo trials are additionally pinned to their
    closed forms.
    """
    for dim in dims:
        for t in range(trials):
            g = root.derive(dim, t)
            kind = t % 3
            alphas = None
            if kind == 0:
                a_obs = random_atomic_observable(g, dim)
                ins = luders_instrument(a_obs, tol)
            elif kind == 1:
                a_obs = random_observable(g, dim, g.integer(2, dim + 1), tol)
                alphas = {
                    x: random_state(g.derive(10 + i), dim) for i, x in enumerate(a_obs.outcomes)
                }
                ins = holevo_instrument(a_obs, alphas, tol)
            else:
                a_obs = random_observable(g, dim, g.integer(2, dim + 1), tol)
                ins = random_instrument_measuring(g.derive(0), a_obs, 1 + t % 2, tol)
            rho = random_state(g, dim)
            a = random_effect(g, dim)

            triple = bayes1_check(rho, ins, a, tol)
            residual = triple.spread
            if kind == 0:
                closed = sum(
                    prob(rho, a_obs.effects[x], tol) * trace_product(a_obs.effects[x], a).real
                    for x in a_obs.outcomes
                )
                residual = max(residual, abs(triple.mid - closed))
            elif kind == 1:
                closed = sum(
                    prob(rho, a_obs.effects[x], tol) * trace_product(alphas[x], a).real
                    for x in a_obs.outcomes
                )
                residual = max(residual, abs(triple.mid - closed))

            b_vals = random_real_values(g, random_observable(g, dim, g.integer(2, dim + 1), tol))
            triple_e = bayes1_expectation_check(rho, ins, b_vals, tol)
            residual = max(residual, triple_e.spread)

            run.record(
                residual <= tol.eq_tol,
                residual,
                witness={"dim": dim, "kind": float(kind), "A": a_obs, "state": rho, "effect": a},
            )


def _suite_atomic_context(root, dims, trials, tol, run) -> None:
    """Jointly commuting pairs are fixed points of their atomic context.

    Reconstruction residual allowed 10x eq_tol.  Non-commuting inputs must be
    rejected, and conditioning through any instrument of an atomic observable
    must land in a jointly commuting family.
    """
    bound = 10.0 * tol.eq_tol
    for dim in dims:
        for t in range(trials):
            g = root.derive(dim, t)
            u = random_unitary(g, dim)
            b_obs = random_codiagonal_observable(g, u, g.integer(2, dim + 1))
            c_obs = random_codiagonal_observable(g, u, g.integer(2, dim + 1))
            ok = jointly_commuting([b_obs, c_obs], tol)
            residual = 0.0
            if ok:
                a_obs, ins = atomic_context([b_obs, c_obs], tol)
                ok = all(is_atomic(a_obs.effects[x], tol) for x in a_obs.outcomes)
                rb = max(
                    frobenius(condition_observable(b_obs, ins).effects[y] - b_obs.effects[y])
                    for y in b_obs.outcomes
                )
                rc = max(
                    frobenius(condition_observable(c_obs, ins).effects[y] - c_obs.effects[y])
                    for y in c_obs.outcomes
                )
                residual = max(rb, rc)
                ok = ok and residual <= bound

            d1 = random_observable(g, dim, 2, tol)
            d2 = random_observable(g, dim, 2, tol)
            if not jointly_commuting([d1, d2], tol):
                try:
                    atomic_context([d1, d2], tol)
                    ok = False
                    run.note(f"trial {run.trial}: non-commuting pair was not rejected")
                except NotJointlyCommutingError:
                    pass

            atom_obs = random_atomic_observable(g, dim)
            ins_d = random_instrument_measuring(g.derive(5), atom_obs, 1 + t % 2, tol)
            fam = [
                condition_observable(random_observable(g, dim, 2, tol), ins_d)
                for _ in range(2)
            ]
            loose = Tolerance(bound, tol.psd_tol)
            ok = ok and jointly_commuting(fam, loose)

            run.record(ok, residual, witness={"dim": dim, "B": b_obs, "C": c_obs})


def _suite_uncertainty(root, dims, trials, tol, run) -> None:
    """The uncertainty decomposition holds; closed forms match the generic path."""
    for dim in dims:
        for t in range(trials):
            g = root.derive(dim, t)
            kind = t % 3
            alphas = None
            if kind == 0:
                a_obs = random_projective_observable(g, dim, g.integer(1, dim))
                ins = luders_instrument(a_obs, tol)
            elif kind == 1:
                a_obs = random_observable(g, dim, g.integer(2, dim + 1), tol)
                alphas = {
                    x: random_state(g.derive(10 + i), dim) for i, x in enumerate(a_obs.outcomes)
                }
                ins = holevo_instrument(a_obs, alphas, tol)
            else:
                a_obs = random_observable(g, dim, g.integer(2, dim + 1), tol)
                ins = random_instrument_measuring(g.derive(0), a_obs, 1 + t % 2, tol)
            b = random_real_values(g, random_observable(g, dim, g.integer(2, dim + 1), tol))
            c = random_real_values(g, random_observable(g, dim, g.integer(2, dim + 1), tol))
            rho = random_state(g, dim)

            rep = uncertainty_report(rho, ins, b, c, tol)
            residual = rep.identity_residual
            ok = residual <= tol.eq_tol and rep.inequality_slack >= -tol.eq_tol

            if kind == 0:
                diffs = [
                    abs(sharp_luders_expectation(rho, a_obs, b) - contextual_expectation(rho, ins, b)),
                    abs(sharp_luders_correlation(rho, a_obs, b, c) - contextual_correlation(rho, ins, b, c)),
                    abs(sharp_luders_covariance(rho, a_obs, b, c) - contextual_covariance(rho, ins, b, c)),
                    abs(sharp_luders_variance(rho, a_obs, b) - contextual_variance(rho, ins, b)),
                    abs(sharp_luders_variance(rho, a_obs, c) - contextual_variance(rho, ins, c)),
                    abs(sharp_luders_commutator_trace(rho, a_obs, b, c) - commutator_trace(rho, ins, b, c)),
                ]
                residual = max(residual, *diffs)
                ok = ok and max(diffs) <= tol.eq_tol
            elif kind == 1:
                diffs = [
                    abs(holevo_expectation(rho, a_obs, alphas, b) - contextual_expectation(rho, ins, b)),
                    abs(holevo_correlation(rho, a_obs, alphas, b, c) - contextual_correlation(rho, ins, b, c)),
                    abs(holevo_covariance(rho, a_obs, alphas, b, c) - contextual_covariance(rho, ins, b, c)),
                    abs(holevo_variance(rho, a_obs, alphas, b) - contextual_variance(rho, ins, b)),
                    abs(holevo_variance(rho, a_obs, alphas, c) - contextual_variance(rho, ins, c)),
                    abs(holevo_commutator_trace(rho, a_obs, alphas, b, c) - commutator_trace(rho, ins, b, c)),
                ]
                residual = max(residual, *diffs)
                ok = ok and max(diffs) <= tol.eq_tol

            run.record(
                ok,
                residual,
                witness={"dim": dim, "kind": float(kind), "A": a_obs, "B": b, "C": c, "state": rho},
            )


def _suite_entropy(root, dims, trials, tol, run) -> None:
    """Entropy laws: positivity, the trace criterion both ways, chain behavior."""
    holevo_violation_found = False
    single_double_gap_found = False
    chain_witness_found = False
    for dim in dims:
        for t in range(trials):
            g = root.derive(dim, t)
            rho = random_state(g, dim)
            a = random_effect(g, dim)
            b = random_effect(g, dim)
            oks: list[bool] = []
            residual = 0.0

            oks.append(effect_entropy(rho, a, tol) >= 0.0)

            op = random_operation_measuring(g.derive(0), a, 1 + t % 3, tol)
            if sequential_entropy_dominated(op, b, tol):
                worst = 0.0
                for s in range(50):
                    rs = random_state(g.derive(1000 + s), dim)
                    worst = max(
                        worst,
                        sequential_entropy(rs, op, b, tol)
                        - conditional_effect_entropy(rs, op, b, tol),
                    )
                oks.append(worst <= tol.eq_tol)
                residual = max(residual, worst)
            else:
                reversed_found = False
                for s in range(SEARCH_BUDGET):
                    rs = random_state(g.derive(2000 + s), dim)
                    gap = sequential_entropy(rs, op, b, tol) - conditional_effect_entropy(
                        rs, op, b, tol
                    )
                    if gap > 1e-12:
                        reversed_found = True
                        break
                if not reversed_found:
                    run.note(
                        f"trial {run.trial}: criterion fails but no reversal witness found"
                    )

            oks.append(sequential_entropy_dominated(luders(a, tol), b, tol))

            if not holevo_violation_found:
                for i in range(100):
                    gh = g.derive(100 + i)
                    if i % 2 == 0:
                        ah = random_effect(gh, dim)
                        alh = random_state(gh, dim)
                        bh = random_effect(gh, dim)
                    else:
                        # Reversal needs tr(alpha b) tr(a) > tr(b): push the
                        # measured effect toward the identity and align the
                        # update state with b.
                        ah = np.eye(dim) - 0.1 * random_effect(gh, dim)
                        alh = random_atomic_effect(gh, dim)
                        bh = alh
                    op_h = holevo(ah, alh, tol)
                    if sequential_entropy_dominated(op_h, bh, tol):
                        continue
                    for s in range(SEARCH_BUDGET):
                        rh = random_state(gh.derive(s), dim)
                        gap = sequential_entropy(rh, op_h, bh, tol) - conditional_effect_entropy(
                            rh, op_h, bh, tol
                        )
                        if gap > WITNESS_MARGIN:
                            run.witness(
                                {
                                    "law": "sequential-entropy-exceeds-conditional",
                                    "dim": dim,
                                    "effect": ah,
                                    "alpha": alh,
                                    "b": bh,
                                    "state": rh,
                                    "gap": gap,
                                }
                            )
                            holevo_violation_found = True
                            break
                    if holevo_violation_found:
                        break

            a1 = random_observable(g, dim, g.integer(2, dim + 1), tol)
            ins_i = random_instrument_measuring(g.derive(1), a1, 1 + t % 2, tol)
            b1 = random_observable(g, dim, g.integer(2, dim + 1), tol)
            ins_j = random_instrument_measuring(g.derive(2), b1, 1 + (t + 1) % 2, tol)
            c1 = random_observable(g, dim, g.integer(2, dim + 1), tol)

            chain1 = conditional_observable_entropy_double(
                rho, condition_instrument(ins_j, ins_i), c1, tol
            )
            chain2 = conditional_observable_entropy_double(
                apply(bar_channel(ins_i), rho), ins_j, c1, tol
            )
            chain3 = observable_entropy(
                apply(bar_channel(ins_j), apply(bar_channel(ins_i), rho)), c1, tol
            )
            chain_r = max(abs(chain1 - chain2), abs(chain1 - chain3))
            oks.append(chain_r <= tol.eq_tol)
            residual = max(residual, chain_r)

            if not single_double_gap_found:
                gap = abs(
                    conditional_observable_entropy_single(rho, ins_i, c1, tol)
                    - conditional_observable_entropy_double(rho, ins_i, c1, tol)
                )
                if gap > WITNESS_MARGIN:
                    run.witness(
                        {
                            "law": "single-bar-differs-from-double-bar",
                            "dim": dim,
                            "A": a1,
                            "C": c1,
                            "state": rho,
                            "gap": gap,
                        }
                    )
                    single_double_gap_found = True

            left = conditional_observable_entropy_single(
                rho, ins_i, condition_observable(c1, ins_j), tol
            )
            right_canonical = conditional_observable_entropy_single(
                rho, condition_instrument(ins_j, ins_i), c1, tol
            )
            oks.append(abs(left - right_canonical) <= tol.eq_tol)
            residual = max(residual, abs(left - right_canonical))

            if not chain_witness_found:
                fresh = luders_instrument(condition_observable(b1, ins_i), tol)
                right_fresh = conditional_observable_entropy_single(rho, fresh, c1, tol)
                if abs(left - right_fresh) > WITNESS_MARGIN:
                    run.witness(
                        {
                            "law": "single-bar-chain-fails-for-fresh-measurement",
                            "dim": dim,
                            "A": a1,
                            "B": b1,
                            "C": c1,
                            "state": rho,
                            "left": left,
                            "right": right_fresh,
                            "gap": abs(left - right_fresh),
                        }
                    )
                    chain_witness_found = True

            run.record(
                all(oks),
                residual,
                witness={"dim": dim, "state": rho, "a": a, "b": b},
            )
    if run.trial == 0:
        # Nothing ran, so nothing was required to be found.
        return
    if not holevo_violation_found:
        run.passes = max(0, run.passes - 1)
        run.failures.append(
            TrialFailure(run.trial, 1.0, {"law": "sequential-entropy-exceeds-conditional"})
        )
        run.note("no Holevo entropy-reversal instance found")
    if not single_double_gap_found:
        run.passes = max(0, run.passes - 1)
        run.failures.append(
            TrialFailure(run.trial, 1.0, {"law": "single-bar-differs-from-double-bar"})
        )
        run.note("no single/double-bar gap found")
    if not chain_witness_found:
        run.passes = max(0, run.passes - 1)
        run.failures.append(
            TrialFailure(run.trial, 1.0, {"law": "single-bar-chain-fails-for-fresh-measurement"})
        )
        run.note("no single-bar chain-failure witness found")


_SUITES = {
    "duality": _suite_duality,
    "sequential-product-bounds": _suite_sequential_product_bounds,
    "composition-laws": _suite_composition_laws,
    "bayes2-luders-commuting": _suite_bayes2_commuting,
    "bayes2-luders-noncommuting": _suite_bayes2_noncommuting,
    "holevo-laws": _suite_holevo_laws,
    "conditioning-laws": _suite_conditioning_laws,
    "bayes1": _suite_bayes1,
    "atomic-context": _suite_atomic_context,
    "uncertainty": _suite_uncertainty,
    "entropy": _suite_entropy,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(
    name: str,
    dims=(2, 3),
    trials: int = 25,
    seed: int = DEFAULT_SEED,
    tol: Tolerance = DEFAULT_TOL,
) -> SuiteReport:
    """Run one registered suite and return its (deterministic) report."""
    if name not in _SUITES:
        raise UnknownSuiteError(
            f"unknown suite {name!r}; available: {', '.join(SUITE_NAMES)}"
        )
    dims = [int(d) for d in dims]
    if any(d < 2 for d in dims):
        raise ValueError("dims must all be >= 2")
    run = _Run()
    # Salt the stream with the suite index so suites see unrelated objects.
    salt = list(_SUITES).index(name)
    root = Generator(seed).derive(salt)
    _SUITES[name](root, dims, int(trials), tol, run)
    return SuiteReport(
        suite=name,
        seed=int(seed),
        dims=dims,
        trials=run.trial,
        passes=run.passes,
        failures=run.failures,
        max_residual=run.max_residual,
        witnesses=run.witnesses,
        notes=run.notes,
    )
