"""Seeded property suites: run a law over many random instances, report residuals.

Each suite is one row of ``_SUITES``: a trial function and its table of
named laws.  The runner (``run_suite`` and ``_Run``) loops over dims and
trials, gives each trial its own derived generator, and judges the
``{law: value}`` the trial returns by the kind the table declares:

- a number s: a residual bounded by s × the default eq_tol;
- ``_HOLDS``: an exact condition (a count, predicate, sign or search margin);
- ``_SEARCH``: the largest violation a per-trial counterexample search
  found, which must exceed WITNESS_MARGIN in all but UNFOUND_TOLERANCE of
  the trials; each find adds the trial's witness payload to ``witnesses``;
- ``_ONCE``: a function returning a witness payload or None, called until
  it succeeds once in the run.

No law is compared with a tolerance inside a trial: the table holds every
bound, and trials call the library at its default tolerance.  A trial
leaves out a law that does not apply to its draws and gives None for one it
had to skip (skips are noted).  A trial fails, naming its laws, when a bound
or condition breaks.  The residual is the largest bounded or search value.
A search that comes up short is named under ``missing``.  Trials that sweep
many states draw them as (n, d, d) stacks (``random_states``) and judge
each stack in one call.

Report schema (JSON): suite, seed, dims, trials, passes, failures
[{trial, residual, witness, laws}], max_residual, plus missing, witnesses
and notes when not empty; ok means no failures and nothing missing.
Witnesses are fully serialized objects, so any failure or found
counterexample can be replayed by hand.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from .context_stats import (
    UncertaintyReport,
    contextual_moments,
    holevo_moments,
    sharp_luders_moments,
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
from .errors import NotJointlyCommutingError, SuiteArgumentError, UnknownSuiteError
from .instruments import (
    atomic_context,
    bar_channel,
    bayes1_check,
    bayes1_expectation_check,
    compose_instruments,
    condition_instrument,
    condition_observable,
    condition_state,
    holevo_instrument,
    luders_instrument,
    measured_observable,
)
from .linalg import DEFAULT_TOL, _commutator_norms, commutator, dagger, frobenius, trace_product
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
    random_states,
    random_unitary,
)
from .serialize import value_to_json

__all__ = ["TrialFailure", "SuiteReport", "SUITE_NAMES", "DEFAULT_SEED", "run_suite"]

DEFAULT_SEED = 7

#: Minimum residual for a found counterexample to count as a witness.
WITNESS_MARGIN = 1e-6
#: State draws allowed per counterexample search.
SEARCH_BUDGET = 200
#: Fraction of search trials allowed to come up empty (noted, not failed).
UNFOUND_TOLERANCE = 0.02


@dataclass(frozen=True)
class TrialFailure:
    trial: int
    residual: float
    witness: dict | None = None
    laws: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return asdict(self)


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
    missing: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures and not self.missing

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
        for key in ("missing", "witnesses", "notes"):
            if getattr(self, key):
                out[key] = getattr(self, key)
        return out


#: Law kinds besides a bounded residual, whose table entry is its bound in eq_tol.
_HOLDS, _SEARCH, _ONCE = "holds", "search", "once"


class _Run:
    """Judges each trial's law values against one suite's table, filling in its report."""

    def __init__(self, report: SuiteReport, laws: dict) -> None:
        self.report = report
        self.laws = laws
        self.pending = [law for law, kind in laws.items() if kind == _ONCE]
        self.skips: Counter[str] = Counter()
        self.unfound: Counter[str] = Counter()

    def judge(self, values: dict, witness: dict) -> None:
        out = self.report
        bounded: list[float] = []
        broken: list[str] = []
        for law, value in values.items():
            if law not in self.laws:
                raise KeyError(f"trial returned undeclared law {law!r}")
            kind = self.laws[law]
            if kind == _ONCE:
                found = value() if law in self.pending else None
                if found is not None:
                    out.witnesses.append(value_to_json({"law": law, **found}))
                    self.pending.remove(law)
            elif value is None:
                self.skips[law] += 1
            elif kind == _HOLDS:
                if not value:
                    broken.append(law)
            else:
                bounded.append(float(value))
                if kind != _SEARCH:
                    if not value <= kind * DEFAULT_TOL.eq_tol:
                        broken.append(law)
                elif value > WITNESS_MARGIN:
                    out.witnesses.append(value_to_json(witness))
                else:
                    self.unfound[law] += 1
        residual = float(np.max(bounded, initial=0.0))  # unlike max, np.max keeps a NaN
        out.max_residual = float(np.max([out.max_residual, residual]))
        if broken:
            out.failures.append(TrialFailure(out.trials, residual, value_to_json(witness), broken))
        else:
            out.passes += 1
        out.trials += 1

    def finish(self) -> SuiteReport:
        out = self.report
        out.notes = [f"{law}: skipped in {n}/{out.trials} trials" for law, n in self.skips.items()]
        # With no trials run, nothing was required to be found.
        out.missing = list(self.pending) if out.trials else []
        for law, n in self.unfound.items():
            within = n / out.trials <= UNFOUND_TOLERANCE
            out.notes.append(
                f"{law}: {n}/{out.trials} trials found no witness within {SEARCH_BUDGET} "
                f"draws ({'within' if within else 'beyond'} the {UNFOUND_TOLERANCE:.0%} allowance)"
            )
            if not within:
                out.missing.append(law)
        return out


def _noncommuting_effect_pair(g: Generator, dim: int):
    """Effects whose Lüders transports of each other visibly disagree."""
    for _ in range(100):
        a = random_effect(g, dim)
        b = random_effect(g, dim)
        gap = frobenius(sequential_product(luders(a), b) - sequential_product(luders(b), a))
        if gap >= 1e-3:
            return a, b
    raise RuntimeError("random effects kept commuting; astronomically unlikely")


def _usable_states(g: Generator, dim: int, count: int, budget: int, usable) -> np.ndarray:
    """The first count states of g.derive(0), ..., g.derive(budget - 1) that usable keeps.

    usable maps an (n, d, d) stack to a boolean mask.  Each chunk draws
    exactly the shortfall, so no state past the last one kept is drawn.
    """
    kept = [np.empty((0, dim, dim), dtype=np.complex128)]
    have = drawn = 0
    while have < count and drawn < budget:
        chunk = random_states(g, dim, min(count - have, budget - drawn), drawn)
        drawn += len(chunk)
        kept.append(chunk[usable(chunk)])
        have += len(kept[-1])
    return np.concatenate(kept)


def _first_hit(g: Generator, dim: int, score, threshold: float, first: int = 0):
    """Search SEARCH_BUDGET states from g.derive(first) on for the first scoring above threshold.

    score maps an (n, d, d) stack to its scores.  The states come in chunks
    of 1, 2, 4, ..., so a hit at the first state costs one draw.  Returns
    (that state, its score), or (None, the best score seen, at least 0).
    """
    best = 0.0
    drawn, size = 0, 1
    while drawn < SEARCH_BUDGET:
        chunk = random_states(g, dim, min(size, SEARCH_BUDGET - drawn), first + drawn)
        scores = score(chunk)
        hits = np.flatnonzero(scores > threshold)
        if len(hits):
            return chunk[hits[0]], float(scores[hits[0]])
        best = max(best, float(np.max(scores, initial=0.0)))
        drawn += len(chunk)
        size *= 2
    return None, best


def _luders_closure_gap(a, b) -> float:
    """Choi distance between L_a then L_b and the Lüders operation of a∘b."""
    op_a = luders(a)
    return choi_distance(compose(op_a, luders(b)), luders(sequential_product(op_a, b)))


def _effects_gap(a, b) -> float:
    """Largest Frobenius distance between same-labelled effects, over b's outcomes."""
    return float(np.max([frobenius(a.effects[y] - b.effects[y]) for y in b.outcomes], initial=0.0))


def _kind_instrument(g: Generator, dim: int, t: int, sharp_observable):
    """Trial t's instrument by kind t % 3: 0 Lüders of a sharp observable, 1 Holevo, 2 random.

    Returns (kind, observable, instrument, Holevo update states or None).
    """
    kind = t % 3
    if kind == 0:
        a_obs = sharp_observable(g, dim)
        return kind, a_obs, luders_instrument(a_obs), None
    a_obs = random_observable(g, dim, g.integer(2, dim + 1))
    if kind == 1:
        alphas = {x: random_state(g.derive(10 + i), dim) for i, x in enumerate(a_obs.outcomes)}
        return kind, a_obs, holevo_instrument(a_obs, alphas), alphas
    return kind, a_obs, random_instrument_measuring(g.derive(0), a_obs, 1 + t % 2), None


# --- trial functions: (generator, dim, trial index) -> ({law: value}, witness) ---


def _duality(g, dim, t):
    """tr[op(rho) h] == tr[rho dual(h)] for random operations, states, probes."""
    a = random_effect(g, dim)
    op = random_operation_measuring(g.derive(0), a, 1 + t % 3)
    rho = random_state(g, dim)
    h = random_hermitian(g, dim)
    r = abs(trace_product(apply(op, rho), h) - trace_product(rho, dual_apply(op, h)))
    return {"duality": r}, {"dim": dim, "effect": a, "operation": op, "state": rho, "probe": h}


def _sequential_product_bounds(g, dim, t):
    """Transported effects sit below the measured effect; sharp/atomic structure.

    The atomic coefficient may leave [0, 1] by at most 0.1 eq_tol.
    """
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
        # minus the lowest eigenvalue of a - op's transport of b, if negative; NaN stays NaN
        "transport-below-effect": float(
            np.max(-np.linalg.eigvalsh((gap + dagger(gap)) / 2.0)[:1], initial=0.0)
        ),
        "sharp-transport-commutes": frobenius(commutator(sequential_product(op_p, b2), p)),
        "atomic-transport-proportional": frobenius(transported - lam * atom),
        # how far the coefficient lies outside [0, 1]; NaN stays NaN
        "atomic-coefficient-in-unit-interval": max(-lam, lam - 1.0, 0.0),
    }
    return values, {"dim": dim, "effect": a, "sharp": p, "atom": atom, "coefficient": lam}


def _composition_laws(g, dim, t):
    """Duals, measured effects and conditional probabilities of composed operations.

    The conditional-probability chain is skipped when a conditioning
    probability is at most eq_tol.
    """
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
        # dual of "first i then j" applies j's dual first
        "dual-of-composite": frobenius(dual_apply(comp, h) - dual_apply(op_i, dual_apply(op_j, h))),
        "composite-measures-sequential-effect": frobenius(measured_effect(comp) - a_then_b),
        "sequential-products-associate": frobenius(
            sequential_product(op_i, sequential_product(op_j, c)) - dual_apply(comp, c)
        ),
        "conditional-probability-chain": chain,
    }
    return values, {"dim": dim, "a": a, "b": b, "c": c, "state": rho}


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


def _conditioning_laws(g, dim, t):
    """Conditioned instruments measure conditioned observables; conditioning chains."""
    a_obs = random_observable(g, dim, g.integer(2, dim + 1))
    ins_i = random_instrument_measuring(g.derive(0), a_obs, 1 + t % 2)
    b_obs = random_observable(g, dim, g.integer(2, dim + 1))
    ins_j = random_instrument_measuring(g.derive(1), b_obs, 1 + (t + 1) % 2)
    c_obs = random_observable(g, dim, g.integer(2, dim + 1))

    cond = condition_instrument(ins_j, ins_i)
    comp = compose_instruments(ins_i, ins_j)
    marginals = [
        choi_distance(
            Operation(np.concatenate([comp.ops[f"{x},{y}"].kraus for x in ins_i.outcomes])),
            cond.ops[y],
        )
        for y in ins_j.outcomes
    ]
    values = {
        "measures-conditioned-observable": _effects_gap(
            measured_observable(cond), condition_observable(b_obs, ins_i)
        ),
        "conditioning-chains": _effects_gap(
            condition_observable(condition_observable(c_obs, ins_j), ins_i),
            condition_observable(c_obs, cond),
        ),
        "bar-of-composite": choi_distance(
            bar_channel(comp), compose(bar_channel(ins_i), bar_channel(ins_j))
        ),
        "composite-marginals": float(np.max(marginals, initial=0.0)),
    }
    return values, {"dim": dim, "A": a_obs, "B": b_obs, "C": c_obs}


def _bayes1(g, dim, t):
    """First Bayes rule, probability and expectation forms, all instrument kinds.

    Lüders-of-atomic and Holevo trials are additionally pinned to their
    closed forms, in which outcome x leaves A_x and alpha_x.
    """
    kind, a_obs, ins, alphas = _kind_instrument(g, dim, t, random_atomic_observable)
    rho = random_state(g, dim)
    a = random_effect(g, dim)
    b_vals = random_real_values(g, random_observable(g, dim, g.integer(2, dim + 1)))

    triple = bayes1_check(rho, ins, a)
    values = {
        "bayes1-probability": triple.spread,
        "bayes1-expectation": bayes1_expectation_check(rho, ins, b_vals).spread,
    }
    if kind < 2:
        left = a_obs.effects if kind == 0 else alphas
        closed = sum(
            prob(rho, a_obs.effects[x]) * trace_product(left[x], a).real
            for x in a_obs.outcomes
        )
        values["closed-form"] = abs(triple.mid - closed)
    return values, {"dim": dim, "kind": float(kind), "A": a_obs, "state": rho, "effect": a}


def _atomic_context(g, dim, t):
    """Jointly commuting pairs are fixed points of their atomic context.

    Non-commuting inputs must be rejected, and conditioning through any
    instrument of an atomic observable must land in a family whose largest
    pairwise commutator norm is at most 10 eq_tol.
    """
    u = random_unitary(g, dim)
    b_obs = random_codiagonal_observable(g, u, g.integer(2, dim + 1))
    c_obs = random_codiagonal_observable(g, u, g.integer(2, dim + 1))
    values = {"codiagonal-pair-commutes": jointly_commuting([b_obs, c_obs])}
    if values["codiagonal-pair-commutes"]:
        a_obs, ins = atomic_context([b_obs, c_obs])
        values["context-is-atomic"] = all(is_atomic(a_obs.effects[x]) for x in a_obs.outcomes)
        gaps = [_effects_gap(condition_observable(o, ins), o) for o in (b_obs, c_obs)]
        values["context-fixes-pair"] = float(np.max(gaps, initial=0.0))

    d1 = random_observable(g, dim, 2)
    d2 = random_observable(g, dim, 2)
    if not jointly_commuting([d1, d2]):
        try:
            atomic_context([d1, d2])
            values["noncommuting-rejected"] = False
        except NotJointlyCommutingError:
            values["noncommuting-rejected"] = True

    atom_obs = random_atomic_observable(g, dim)
    ins_d = random_instrument_measuring(g.derive(5), atom_obs, 1 + t % 2)
    fam = [condition_observable(random_observable(g, dim, 2), ins_d) for _ in range(2)]
    norms = [*_commutator_norms([m for o in fam for m in o.effects.values()])]
    values["conditioned-family-commutes"] = float(np.max(norms))  # unlike max, keeps a NaN
    return values, {"dim": dim, "B": b_obs, "C": c_obs}


def _uncertainty(g, dim, t):
    """The uncertainty decomposition holds; closed forms match the generic path."""
    kind, a_obs, ins, alphas = _kind_instrument(
        g, dim, t, lambda g, dim: random_projective_observable(g, dim, g.integer(1, dim))
    )
    b = random_real_values(g, random_observable(g, dim, g.integer(2, dim + 1)))
    c = random_real_values(g, random_observable(g, dim, g.integer(2, dim + 1)))
    rho = random_state(g, dim)

    generic = contextual_moments(rho, ins, b, c)
    rep = UncertaintyReport.from_moments(generic)
    values = {
        "uncertainty-identity": rep.identity_residual,
        # how far Var(B) Var(C) - |Cor|^2 dips below 0; NaN stays NaN
        "uncertainty-inequality": max(-rep.inequality_slack, 0.0),
    }
    if kind < 2:
        if kind == 0:
            closed = sharp_luders_moments(rho, a_obs, b, c)
        else:
            closed = holevo_moments(rho, a_obs, alphas, b, c)
        gaps = [abs(x - y) for x, y in zip(closed, generic)]
        values["closed-forms"] = float(np.max(gaps, initial=0.0))
    return values, {"dim": dim, "kind": float(kind), "A": a_obs, "B": b, "C": c, "state": rho}


def _entropy_gap(rho, op: Operation, b):
    """Sequential minus conditional entropy of b after op at rho (or at each state of a stack)."""
    return sequential_entropy(rho, op, b) - conditional_effect_entropy(rho, op, b)


def _holevo_entropy_reversal(g: Generator, dim: int):
    """A Holevo operation and a state where sequential entropy beats conditional, or None."""
    for i in range(100):
        gh = g.derive(100 + i)
        if i % 2 == 0:
            ah = random_effect(gh, dim)
            alh = random_state(gh, dim)
            bh = random_effect(gh, dim)
        else:
            # Reversal needs tr(alpha b) tr(a) > tr(b): push the measured
            # effect toward the identity and align the update state with b.
            ah = np.eye(dim) - 0.1 * random_effect(gh, dim)
            alh = bh = random_atomic_effect(gh, dim)
        op_h = holevo(ah, alh)
        if sequential_entropy_dominated(op_h, bh):
            continue
        rh, gap = _first_hit(gh, dim, lambda s: _entropy_gap(s, op_h, bh), WITNESS_MARGIN)
        if rh is not None:
            return {"dim": dim, "effect": ah, "alpha": alh, "b": bh, "state": rh, "gap": gap}
    return None


def _entropy(g, dim, t):
    """Entropy laws: positivity, the trace criterion both ways, chain behavior.

    Where the trace criterion fails, its order law holds vacuously (0) and a
    state must reverse the order instead.
    """
    rho = random_state(g, dim)
    a = random_effect(g, dim)
    b = random_effect(g, dim)
    op = random_operation_measuring(g.derive(0), a, 1 + t % 3)
    dominated = sequential_entropy_dominated(op, b)
    worst = 0.0
    if dominated:
        gaps = _entropy_gap(random_states(g, dim, 50, 1000), op, b)
        worst = float(np.max(gaps, initial=0.0))

    a1 = random_observable(g, dim, g.integer(2, dim + 1))
    ins_i = random_instrument_measuring(g.derive(1), a1, 1 + t % 2)
    b1 = random_observable(g, dim, g.integer(2, dim + 1))
    ins_j = random_instrument_measuring(g.derive(2), b1, 1 + (t + 1) % 2)
    c1 = random_observable(g, dim, g.integer(2, dim + 1))

    cond = condition_instrument(ins_j, ins_i)
    chain1 = conditional_observable_entropy_double(rho, cond, c1)
    after_i = condition_state(rho, ins_i)
    chain2 = conditional_observable_entropy_double(after_i, ins_j, c1)
    chain3 = observable_entropy(condition_state(after_i, ins_j), c1)
    left = conditional_observable_entropy_single(rho, ins_i, condition_observable(c1, ins_j))

    def single_double_gap():
        gap = abs(
            conditional_observable_entropy_single(rho, ins_i, c1)
            - conditional_observable_entropy_double(rho, ins_i, c1)
        )
        if gap > WITNESS_MARGIN:
            return {"dim": dim, "A": a1, "C": c1, "state": rho, "gap": gap}
        return None

    def fresh_chain_failure():
        fresh = luders_instrument(condition_observable(b1, ins_i))
        right = conditional_observable_entropy_single(rho, fresh, c1)
        if abs(left - right) > WITNESS_MARGIN:
            return {
                "dim": dim, "A": a1, "B": b1, "C": c1, "state": rho,
                "left": left, "right": right, "gap": abs(left - right),
            }
        return None

    values = {
        "effect-entropy-nonnegative": effect_entropy(rho, a) >= 0.0,
        "dominated-sequential-below-conditional": worst,
        "undominated-has-reversal": dominated
        or _first_hit(g, dim, lambda s: _entropy_gap(s, op, b), 1e-12, 2000)[0] is not None,
        "luders-dominated": sequential_entropy_dominated(luders(a), b),
        "sequential-entropy-exceeds-conditional": lambda: _holevo_entropy_reversal(g, dim),
        "double-bar-chain": float(
            np.max([abs(chain1 - chain2), abs(chain1 - chain3)], initial=0.0)
        ),
        "single-bar-differs-from-double-bar": single_double_gap,
        "single-bar-chain": abs(left - conditional_observable_entropy_single(rho, cond, c1)),
        "single-bar-chain-fails-for-fresh-measurement": fresh_chain_failure,
    }
    return values, {"dim": dim, "state": rho, "a": a, "b": b}


#: suite name -> (trial function, {law: kind}); the order salts each suite's stream.
_SUITES = {
    "duality": (_duality, {"duality": 1.0}),
    "sequential-product-bounds": (_sequential_product_bounds, {
        "transport-below-effect": 10.0,
        "sharp-transport-commutes": 10.0,
        "atomic-transport-proportional": 10.0,
        "atomic-coefficient-in-unit-interval": 0.1,
    }),
    "composition-laws": (_composition_laws, {
        "dual-of-composite": 1.0,
        "composite-measures-sequential-effect": 1.0,
        "sequential-products-associate": 1.0,
        "conditional-probability-chain": 1.0,
    }),
    "bayes2-luders-commuting": (_bayes2_commuting, {
        "bayes2": 1.0,
        "twenty-states-checked": _HOLDS,
    }),
    "bayes2-luders-noncommuting": (_bayes2_noncommuting, {"bayes2-violated": _SEARCH}),
    "holevo-laws": (_holevo_laws, {
        "conditional-prob-is-alpha-b": 0.1,
        "fifty-states-checked": _HOLDS,
        "holevo-composition": 1.0,
        "luders-closed-when-commuting": 1.0,
        "luders-open-when-noncommuting": _HOLDS,
    }),
    "conditioning-laws": (_conditioning_laws, {
        "measures-conditioned-observable": 1.0,
        "conditioning-chains": 1.0,
        "bar-of-composite": 1.0,
        "composite-marginals": 1.0,
    }),
    "bayes1": (_bayes1, {
        "bayes1-probability": 1.0,
        "bayes1-expectation": 1.0,
        "closed-form": 1.0,
    }),
    "atomic-context": (_atomic_context, {
        "codiagonal-pair-commutes": _HOLDS,
        "context-is-atomic": _HOLDS,
        "context-fixes-pair": 10.0,
        "noncommuting-rejected": _HOLDS,
        "conditioned-family-commutes": 10.0,
    }),
    "uncertainty": (_uncertainty, {
        "uncertainty-identity": 1.0,
        "uncertainty-inequality": 1.0,
        "closed-forms": 1.0,
    }),
    "entropy": (_entropy, {
        "effect-entropy-nonnegative": _HOLDS,
        "dominated-sequential-below-conditional": 1.0,
        "undominated-has-reversal": _HOLDS,
        "luders-dominated": _HOLDS,
        "sequential-entropy-exceeds-conditional": _ONCE,
        "double-bar-chain": 1.0,
        "single-bar-differs-from-double-bar": _ONCE,
        "single-bar-chain": 1.0,
        "single-bar-chain-fails-for-fresh-measurement": _ONCE,
    }),
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, dims=(2, 3), trials: int = 25, seed: int = DEFAULT_SEED) -> SuiteReport:
    """Run one registered suite and return its (deterministic) report.

    Bounded laws are judged against their table entry × the default eq_tol.
    Raises UnknownSuiteError for an unregistered name and SuiteArgumentError
    for dims below 2 or a negative trial count.
    """
    if name not in _SUITES:
        raise UnknownSuiteError(
            f"unknown suite {name!r}; available: {', '.join(SUITE_NAMES)}"
        )
    dims = [int(d) for d in dims]
    trials = int(trials)
    if any(d < 2 for d in dims):
        raise SuiteArgumentError("dims must all be >= 2")
    if trials < 0:
        raise SuiteArgumentError(f"trials must be >= 0, got {trials}")
    trial, laws = _SUITES[name]
    run = _Run(SuiteReport(name, int(seed), dims, 0, 0, [], 0.0), laws)
    # Salt the stream with the suite index so suites see unrelated objects.
    root = Generator(seed).derive(SUITE_NAMES.index(name))
    for dim in dims:
        for t in range(trials):
            run.judge(*trial(root.derive(dim, t), dim, t))
    return run.finish()
