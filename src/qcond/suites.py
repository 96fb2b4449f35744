"""Seeded property suites: run a law over many random instances, report residuals.

Each suite is one row of ``_SUITES``: a stacked trial function and its
table of named laws.  The runner (``run_suite`` and ``_Run``) hands the
trial function, per dim, the generators of all the dim's trials and their
indices, and judges the ``({law: value}, witness)`` row it returns for
each trial, in trial order, by the kind the table declares:

- a number s: a residual bounded by s × the default eq_tol;
- ``_HOLDS``: an exact condition (a count, predicate, sign or search margin);
- ``_SEARCH``: the largest violation a per-trial counterexample search
  found, which must exceed WITNESS_MARGIN in all but UNFOUND_TOLERANCE of
  the trials; each find adds the trial's witness payload to ``witnesses``;
- ``_ONCE``: a function returning a witness payload or None, called until
  it succeeds once in the run.

The stacked trial contract: each row of ``_SUITES`` declares a period, and
``trial(gens, dim, ts)`` gets the generators ``root.derive(dim, t)`` of
trials ``ts`` that share ``t % period``, seeded as one stack, and returns
one row per trial.  Trial t draws only from its own generator, in the same
order alone or in a stack, and no law value depends on which other trials
share its stack, so results are chunk-invariant: the runner splits a dim's
trials into chunks of at most ``_STACK_TRIALS``, each chunk into its
residue classes, and one-trial stacks in any order give the same report
bytes.  ``duality`` and ``sequential-product-bounds`` (period 3) and
``composition-laws`` (period 2) fix their Kraus counts by t's class;
``holevo-laws`` and both ``bayes2-luders`` suites read no t (period 1).
These six run their linear algebra once per stack, bit for bit as trial by
trial; only their state searches, pair retries and a few per-trial
operations (conditional probabilities over a trial's states, compositions,
Choi distances) loop over trials.  The other suites run a per-trial
function through ``_per_trial``, with period 1.

No law is compared with a tolerance inside a trial: the table holds every
bound, and trials call the library at its default tolerance.  A trial
leaves out a law that does not apply to its draws and gives None for one it
had to skip (skips are noted).  A trial fails, naming its laws, when a bound
or condition breaks.  The residual is the largest bounded or search value.
A search that comes up short is named under ``missing``.  Trials that sweep
many states draw them as (n, d, d) stacks (``random_states``) and judge
each stack in one call.

Which laws check which claim of the paper's abstract:

- the conditional probability P_rho(b | a) = tr[I(rho) b] / P_rho(a):
  ``duality``, ``conditional-prob-is-alpha-b`` (holevo-laws),
  ``conditional-probability-chain`` (composition-laws);
- operations and the effects they measure, sequential products:
  sequential-product-bounds, the other composition-laws;
- when Bayes' second rule holds: bayes2-luders-commuting (``bayes2``),
  bayes2-luders-noncommuting (``bayes2-violated``);
- Lüders and Holevo operations: holevo-laws;
- (B | A) and the instrument that measures it: conditioning-laws;
- Bayes' first rule and its form for expectations: bayes1;
- jointly commuting iff an atomic A fixes both: atomic-context;
- the uncertainty principle for conditioned observables: uncertainty;
- observable conditioned entropies: entropy.

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
    _dominated,
    _entropy_gap,
    conditional_observable_entropy_double,
    conditional_observable_entropy_single,
    effect_entropy,
    sequential_entropy_dominated,
)
from .errors import (
    NotJointlyCommutingError, RetryExhaustedError, SuiteArgumentError, UnknownSuiteError
)
from .instruments import (
    COMPOSITE_LABEL_SEPARATOR,
    _bayes1 as _bayes1_triples,
    atomic_context,
    bar_channel,
    compose_instruments,
    condition_instrument,
    condition_observable,
    condition_state,
    holevo_instrument,
    luders_instrument,
    measured_observable,
)
from .linalg import (
    DEFAULT_TOL, _commutator_norms, _hermitian_part, _spectrum, commutator, dagger, frobenius,
    hermitian_eig, psd_sqrt, trace_product,
)
from .observables import _effects_distance, jointly_commuting, stochastic_operator
from .operations import (
    Operation,
    _conditional,
    _holevo_kraus,
    _kraus_products,
    _kraus_sum,
    _measured,
    _probability,
    choi_distance,
    compose,
    conditional_prob,
    bayes2_residual,
    dual_apply,
    luders,
    holevo,
)
from .rand import (
    Generator,
    _atomic,
    _derive_each,
    _draws,
    _measuring_kraus,
    _normalized_gram,
    _projection,
    _unit_spectrum,
    _unitary,
    random_atomic_effect,
    random_atomic_observable,
    random_codiagonal_observable,
    random_effect,
    random_instrument_measuring,
    random_observable,
    random_operation_measuring,
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
#: Most trials of one dim handed to a trial function at once: enough to
#: spread each numpy call's overhead, few enough that a run's memory does
#: not grow with its trial count.
_STACK_TRIALS = 64


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


# --- trial functions.  Stacked: (generators, dim, trial indices) -> [({law: value}, witness)];
# per trial: (generator, dim, t) -> ({law: value}, witness), run through _per_trial. ---


def _per_trial(trial):
    """The stacked form of a trial function of one generator: (generator, dim, t) -> row."""

    def stacked(gens, dim, ts):
        return [trial(g, dim, t) for g, t in zip(gens, ts)]

    return stacked


def _measuring_stack(gens, key: int, a: np.ndarray, n_kraus: int) -> np.ndarray:
    """(n, n_kraus, d, d): per trial, the Kraus stack of random_operation_measuring.

    Trial s's is that of random_operation_measuring(g.derive(key), a[s], n_kraus).
    """
    dim = a.shape[-1]
    return _measuring_kraus(_draws(_derive_each(gens, key), 1, n_kraus * dim, dim)[:, 0], a, n_kraus)


def _dual(kraus: np.ndarray, m: np.ndarray) -> np.ndarray:
    """dual_apply of each trial's operation (an (n, k, d, d) stack) to its matrix of m."""
    return _kraus_sum(kraus, m, dual=True)


def _conditional_probs(rho: np.ndarray, kraus: np.ndarray, transported: np.ndarray) -> np.ndarray:
    """conditional_prob(rho[s], op_s, m[s]) for each trial's operation op_s of an (n, k, d, d) stack.

    transported is _dual(kraus, m).  Raises ZeroProbabilityConditionError at a probability <= eq_tol.
    """
    q = _conditional(rho, _measured(kraus), transported, DEFAULT_TOL)
    return _probability(q, DEFAULT_TOL)


def _duality(gens, dim, ts):
    """tr[op(rho) h] == tr[rho dual(h)] for random operations, states, probes."""
    n_kraus = 1 + ts[0] % 3
    draws = _draws(gens, 3, dim, dim)
    a = _unit_spectrum(_hermitian_part(draws[:, 0]))
    ops = _measuring_stack(gens, 0, a, n_kraus)
    rho = _normalized_gram(draws[:, 1])
    h = _hermitian_part(draws[:, 2])
    gaps = trace_product(_kraus_sum(ops, rho), h) - trace_product(rho, _dual(ops, h))
    return [
        ({"duality": abs(gap)},  # Python's complex abs, whose last bit np.abs does not always match
         {"dim": dim, "effect": a[s], "operation": Operation._adopt(ops[s]), "state": rho[s],
          "probe": h[s]})
        for s, gap in enumerate(gaps.tolist())
    ]


def _sequential_product_bounds(gens, dim, ts):
    """Transported effects sit below the measured effect; sharp/atomic structure.

    The atomic coefficient may leave [0, 1] by at most 0.1 eq_tol.
    """
    t = ts[0]
    a, b = _unit_spectrum(_hermitian_part(_draws(gens, 2, dim, dim))).swapaxes(0, 1)
    op = _measuring_stack(gens, 0, a, 1 + t % 3)
    ranks = [g.integer(1, dim) for g in gens]
    u, b2 = _draws(gens, 2, dim, dim).swapaxes(0, 1)
    p = np.stack([_projection(one, rank) for one, rank in zip(_unitary(u), ranks)])
    op_p = _measuring_stack(gens, 1, p, 1 + (t + 1) % 3)
    b2 = _unit_spectrum(_hermitian_part(b2))
    atom = np.stack([_atomic(v) for v in _draws(gens, 1, dim)[:, 0]])
    op_atom = _measuring_stack(gens, 2, atom, 1 + (t + 2) % 3)
    transported = _dual(op_atom, _unit_spectrum(_hermitian_part(_draws(gens, 1, dim, dim)[:, 0])))
    lam = trace_product(atom, transported).real
    gap = a - _dual(op, b)
    lowest = _spectrum(gap)[:, :1]  # NaN for a gap that is not finite
    commutators = commutator(_dual(op_p, b2), p)
    rows = []
    for s, coefficient in enumerate(lam.tolist()):
        values = {
            # minus the lowest eigenvalue of a - op's transport of b, if negative; NaN stays NaN
            "transport-below-effect": float(np.max(-lowest[s], initial=0.0)),
            "sharp-transport-commutes": frobenius(commutators[s]),
            "atomic-transport-proportional": frobenius(transported[s] - coefficient * atom[s]),
            # how far the coefficient lies outside [0, 1]; NaN stays NaN
            "atomic-coefficient-in-unit-interval": max(-coefficient, coefficient - 1.0, 0.0),
        }
        witness = {
            "dim": dim, "effect": a[s], "sharp": p[s], "atom": atom[s], "coefficient": coefficient,
        }
        rows.append((values, witness))
    return rows


def _composition_laws(gens, dim, ts):
    """Duals, measured effects and conditional probabilities of composed operations.

    The conditional-probability chain is skipped when a conditioning
    probability is at most eq_tol.  With one or two Kraus operators each,
    a composite has k1 k2 = 2 <= d**2 products: compose's product family.
    """
    t = ts[0]
    draws = _draws(gens, 5, dim, dim)
    a, b, c = _unit_spectrum(_hermitian_part(draws[:, :3])).swapaxes(0, 1)
    op_i = _measuring_stack(gens, 0, a, 1 + t % 2)
    op_j = _measuring_stack(gens, 1, b, 1 + (t + 1) % 2)
    rho = _normalized_gram(draws[:, 3])
    h = _hermitian_part(draws[:, 4])

    comp = _kraus_products(op_i, op_j)
    a_then_b = _dual(op_i, b)
    j_then_c = _dual(op_j, c)
    i_then_jc = _dual(op_i, j_then_c)
    comp_c = _dual(comp, c)
    pa = prob(rho, a)
    pab = prob(rho, a_then_b)
    chain: list = [None] * len(gens)
    # skipped only at a probability of at most eq_tol: a NaN one is judged, and fails
    usable = np.flatnonzero(~((pa <= DEFAULT_TOL.eq_tol) | (pab <= DEFAULT_TOL.eq_tol)))
    if len(usable):
        rho_u = rho[usable]
        lhs = pa[usable] * _conditional_probs(rho_u, op_i[usable], i_then_jc[usable])
        gaps = np.abs(lhs - pab[usable] * _conditional_probs(rho_u, comp[usable], comp_c[usable]))
        for s, gap in zip(usable.tolist(), gaps.tolist()):
            chain[s] = gap
    # dual of "first i then j" applies j's dual first
    dual_gap = _dual(comp, h) - _dual(op_i, _dual(op_j, h))
    effect_gap = _measured(comp) - a_then_b
    associate_gap = i_then_jc - comp_c
    return [
        ({
            "dual-of-composite": frobenius(dual_gap[s]),
            "composite-measures-sequential-effect": frobenius(effect_gap[s]),
            "sequential-products-associate": frobenius(associate_gap[s]),
            "conditional-probability-chain": chain[s],
        }, {"dim": dim, "a": a[s], "b": b[s], "c": c[s], "state": rho[s]})
        for s in range(len(gens))
    ]


def _codiagonal_pairs(gens, u: np.ndarray) -> np.ndarray:
    """(n, 2, d, d): per trial, random_codiagonal_effects's pair, drawn after its unitary u[s].

    Each generator draws the pair's two uniform(0, 1, d) spectra in one call, the same numbers.
    """
    spectra = np.stack([g.uniform(0.0, 1.0, 2, u.shape[-1]) for g in gens])
    return (u[:, None] * spectra[:, :, None, :]) @ dagger(u)[:, None]


def _luders_pairs(pairs: np.ndarray):
    """Roots [√a, √b] and sequential products [√a b √a, √b a √b] of an (n, 2, d, d) stack of pairs.

    One psd_sqrt and one dual transport over the stack, each (n, 2, d, d).
    """
    dim = pairs.shape[-1]
    roots = psd_sqrt(pairs.reshape(-1, dim, dim))
    products = _dual(roots[:, None], pairs[:, ::-1].reshape(-1, dim, dim))
    return roots.reshape(pairs.shape), products.reshape(pairs.shape)


def _noncommuting_pairs(gens, dim: int):
    """Per trial, random effects a, b whose Lüders transports of each other visibly disagree.

    Returns the (n, 2, d, d) stacks of the pairs and their ``_luders_pairs``
    roots and products.  Each trial draws pairs until the Frobenius gap
    between its two products is at least 1e-3 (a NaN gap never is), at most
    100 times.  The first pairs are drawn and screened as one stack; only
    the rare trials below the gap retry, one by one.
    """
    pairs = _unit_spectrum(_hermitian_part(_draws(gens, 2, dim, dim)))
    roots, products = _luders_pairs(pairs)
    for s in range(len(gens)):
        tries = 1
        while not frobenius(products[s, 0] - products[s, 1]) >= 1e-3:
            if tries == 100:
                raise RetryExhaustedError("random effects kept commuting (or their gap was NaN) in 100 draws")
            pairs[s] = _unit_spectrum(_hermitian_part(_draws(gens[s : s + 1], 2, dim, dim)))
            [roots[s]], [products[s]] = _luders_pairs(pairs[s : s + 1])
            tries += 1
    return pairs, roots, products


def _luders_ops(roots: np.ndarray) -> list:
    """Per trial, the Lüders operations (L_a, L_b) of an (n, 2, d, d) stack of roots [√a, √b]."""
    return [(Operation._adopt(r[:1]), Operation._adopt(r[1:])) for r in roots]


def _bayes2_commuting(gens, dim, ts):
    """Second Bayes rule holds for co-diagonal Lüders pairs, 20 states each."""
    pairs = _codiagonal_pairs(gens, _unitary(_draws(gens, 1, dim, dim)[:, 0]))
    rows = []
    for g, (a, b), (op_a, op_b) in zip(gens, pairs, _luders_ops(_luders_pairs(pairs)[0])):
        states = _usable_states(
            g, dim, 20, SEARCH_BUDGET, lambda s: (prob(s, a) > 1e-6) & (prob(s, b) > 1e-6)
        )
        values = {
            "bayes2": float(np.max(bayes2_residual(states, op_a, op_b), initial=0.0)),
            "twenty-states-checked": len(states) == 20,
        }
        rows.append((values, {"dim": dim, "a": a, "b": b}))
    return rows


def _bayes2_noncommuting(gens, dim, ts):
    """Search: every non-commuting Lüders pair should expose a violating state."""
    pairs, roots, _ = _noncommuting_pairs(gens, dim)
    rows = []
    for g, (a, b), (op_a, op_b) in zip(gens, pairs, _luders_ops(roots)):

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
        rows.append(({"bayes2-violated": best}, witness))
    return rows


def _holevo_laws(gens, dim, ts):
    """Holevo conditional probabilities and composition; Lüders (non-)closure.

    Per trial, the Holevo operations of (a, alpha), (tr(alpha b) a, beta)
    and (b, beta) come from one spectrum stack of the effects, one of the
    states and one Kraus union.  The Lüders closure gaps of the
    non-commuting and the co-diagonal pair take the roots and products of
    ``_luders_pairs`` and one psd_sqrt of both pairs' a∘b = √a b √a.
    """
    n = len(gens)
    draws = _draws(gens, 5, dim, dim)
    a, b = _unit_spectrum(_hermitian_part(draws[:, [0, 2]])).swapaxes(0, 1)
    alpha, beta = _normalized_gram(draws[:, [1, 3]]).swapaxes(0, 1)
    codiagonal = _codiagonal_pairs(gens, _unitary(draws[:, 4]))
    pairs, roots, products = _noncommuting_pairs(gens, dim)

    expected = trace_product(alpha, b).real
    nu, v = hermitian_eig(np.stack((a, expected[:, None, None] * a, b), axis=1).reshape(-1, dim, dim))
    mu, w = hermitian_eig(np.stack((alpha, beta), axis=1).reshape(-1, dim, dim))
    updates = (2 * np.arange(n)[:, None] + [0, 1, 1]).ravel()  # alpha, beta, beta
    kraus, counts = _holevo_kraus(nu, v, mu[updates], w[updates], DEFAULT_TOL)
    ops = [Operation._adopt(k) for k in np.split(kraus, np.cumsum(counts)[:-1])]

    # L_a then L_b has the one Kraus operator √b √a; a∘b's Lüders operation has √(√a b √a).
    c_roots, c_products = _luders_pairs(codiagonal)
    both = np.concatenate((roots, c_roots))
    firsts = _kraus_products(both[:, :1], both[:, 1:])
    closures = psd_sqrt(np.concatenate((products[:, 0], c_products[:, 0])))[:, None]
    gaps = [choi_distance(Operation._adopt(x), Operation._adopt(y)) for x, y in zip(firsts, closures)]

    rows = []
    for s, g in enumerate(gens):
        op_h, predicted, op_hb = ops[3 * s : 3 * s + 3]
        states = _usable_states(g, dim, 50, 500, lambda m: prob(m, a[s]) >= 1e-2)
        values = {
            "conditional-prob-is-alpha-b": float(
                np.max(np.abs(conditional_prob(states, op_h, b[s]) - expected[s]), initial=0.0)
            ),
            "fifty-states-checked": len(states) == 50,
            "holevo-composition": choi_distance(compose(op_h, op_hb), predicted),
            "luders-closed-when-commuting": gaps[n + s],
            "luders-open-when-noncommuting": gaps[s] > WITNESS_MARGIN,
        }
        witness = {"dim": dim, "a": a[s], "alpha": alpha[s], "b": b[s], "luders_gap": gaps[s]}
        rows.append((values, witness))
    return rows


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
            Operation(np.concatenate([comp.ops[f"{x}{COMPOSITE_LABEL_SEPARATOR}{y}"].kraus for x in ins_i.outcomes])),
            cond.ops[y],
        )
        for y in ins_j.outcomes
    ]
    values = {
        "measures-conditioned-observable": _effects_distance(
            measured_observable(cond), condition_observable(b_obs, ins_i).effects
        ),
        "conditioning-chains": _effects_distance(
            condition_observable(condition_observable(c_obs, ins_j), ins_i),
            condition_observable(c_obs, cond).effects,
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

    triple, expectation = _bayes1_triples(rho, ins, np.stack([a, stochastic_operator(b_vals)]), DEFAULT_TOL)
    values = {"bayes1-probability": triple.spread, "bayes1-expectation": expectation.spread}
    if kind < 2:
        left = a_obs.stack if kind == 0 else np.stack([alphas[x] for x in a_obs.outcomes])
        closed = sum((prob(rho, a_obs.stack) * trace_product(left, a).real).tolist())
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
        gaps = [_effects_distance(condition_observable(o, ins), o.effects) for o in (b_obs, c_obs)]
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
        transported = dual_apply(holevo(ah, alh), bh)
        if _dominated(transported, bh):
            continue
        rh, gap = _first_hit(gh, dim, lambda s: _entropy_gap(s, transported, bh), WITNESS_MARGIN)
        if rh is not None:
            return {"dim": dim, "effect": ah, "alpha": alh, "b": bh, "state": rh, "gap": gap}
    return None


def _entropy(g, dim, t):
    """Entropy laws: positivity, the trace criterion both ways, chain behavior.

    Where the trace criterion fails, its order law holds vacuously (0) and a
    state must reverse the order instead.  Both read b's one transport by op's dual.
    """
    rho = random_state(g, dim)
    a = random_effect(g, dim)
    b = random_effect(g, dim)
    transported = dual_apply(random_operation_measuring(g.derive(0), a, 1 + t % 3), b)
    dominated = _dominated(transported, b)
    worst = 0.0
    if dominated:
        gaps = _entropy_gap(random_states(g, dim, 50, 1000), transported, b)
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
    left = conditional_observable_entropy_single(rho, ins_i, condition_observable(c1, ins_j))

    def single_double_gap():
        single = conditional_observable_entropy_single(rho, ins_i, c1)
        gap = abs(single - conditional_observable_entropy_double(rho, ins_i, c1))
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
        or _first_hit(g, dim, lambda s: _entropy_gap(s, transported, b), 1e-12, 2000)[0] is not None,
        "luders-dominated": sequential_entropy_dominated(luders(a), b),
        "sequential-entropy-exceeds-conditional": lambda: _holevo_entropy_reversal(g, dim),
        "double-bar-chain": abs(chain1 - chain2),
        "single-bar-differs-from-double-bar": single_double_gap,
        "single-bar-chain": abs(left - conditional_observable_entropy_single(rho, cond, c1)),
        "single-bar-chain-fails-for-fresh-measurement": fresh_chain_failure,
    }
    return values, {"dim": dim, "state": rho, "a": a, "b": b}


#: suite name -> (stacked trial function, period, {law: kind}); the order salts each suite's stream.
_SUITES = {
    "duality": (_duality, 3, {"duality": 1.0}),
    "sequential-product-bounds": (_sequential_product_bounds, 3, {
        "transport-below-effect": 10.0,
        "sharp-transport-commutes": 10.0,
        "atomic-transport-proportional": 10.0,
        "atomic-coefficient-in-unit-interval": 0.1,
    }),
    "composition-laws": (_composition_laws, 2, {
        "dual-of-composite": 1.0,
        "composite-measures-sequential-effect": 1.0,
        "sequential-products-associate": 1.0,
        "conditional-probability-chain": 1.0,
    }),
    "bayes2-luders-commuting": (_bayes2_commuting, 1, {
        "bayes2": 1.0,
        "twenty-states-checked": _HOLDS,
    }),
    "bayes2-luders-noncommuting": (_bayes2_noncommuting, 1, {"bayes2-violated": _SEARCH}),
    "holevo-laws": (_holevo_laws, 1, {
        "conditional-prob-is-alpha-b": 0.1,
        "fifty-states-checked": _HOLDS,
        "holevo-composition": 1.0,
        "luders-closed-when-commuting": 1.0,
        "luders-open-when-noncommuting": _HOLDS,
    }),
    "conditioning-laws": (_per_trial(_conditioning_laws), 1, {
        "measures-conditioned-observable": 1.0,
        "conditioning-chains": 1.0,
        "bar-of-composite": 1.0,
        "composite-marginals": 1.0,
    }),
    "bayes1": (_per_trial(_bayes1), 1, {
        "bayes1-probability": 1.0,
        "bayes1-expectation": 1.0,
        "closed-form": 1.0,
    }),
    "atomic-context": (_per_trial(_atomic_context), 1, {
        "codiagonal-pair-commutes": _HOLDS,
        "context-is-atomic": _HOLDS,
        "context-fixes-pair": 10.0,
        "noncommuting-rejected": _HOLDS,
        "conditioned-family-commutes": 10.0,
    }),
    "uncertainty": (_per_trial(_uncertainty), 1, {
        "uncertainty-identity": 1.0,
        "uncertainty-inequality": 1.0,
        "closed-forms": 1.0,
    }),
    "entropy": (_per_trial(_entropy), 1, {
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


def _size(name: str, value) -> int:
    """value as an int when it is one (a numpy integer too, a bool not); else SuiteArgumentError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise SuiteArgumentError(f"{name}: expected an integer, got {value!r}")
    return int(value)


def run_suite(name: str, dims=(2, 3), trials: int = 25, seed: int = DEFAULT_SEED) -> SuiteReport:
    """Run one registered suite and return its (deterministic) report.

    Bounded laws are judged against their table entry × the default eq_tol.
    Raises UnknownSuiteError for an unregistered name and SuiteArgumentError
    for dims, a trial count or a seed that are not integers, dims below 2 or
    a negative trial count.
    """
    if name not in _SUITES:
        raise UnknownSuiteError(
            f"unknown suite {name!r}; available: {', '.join(SUITE_NAMES)}"
        )
    try:
        dims = [_size("dims", d) for d in dims]
    except TypeError:  # not iterable
        raise SuiteArgumentError(f"dims must be a sequence of integers, got {dims!r}") from None
    trials = _size("trials", trials)
    seed = _size("seed", seed)
    if any(d < 2 for d in dims):
        raise SuiteArgumentError("dims must all be >= 2")
    if trials < 0:
        raise SuiteArgumentError(f"trials must be >= 0, got {trials}")
    trial, period, laws = _SUITES[name]
    run = _Run(SuiteReport(name, seed, dims, 0, 0, [], 0.0), laws)
    # Salt the stream with the suite index so suites see unrelated objects.
    root = Generator(seed).derive(SUITE_NAMES.index(name))
    for dim in dims:
        for first in range(0, trials, _STACK_TRIALS):
            ts = list(range(first, min(first + _STACK_TRIALS, trials)))
            gens = root._derive_stack((dim,), first, len(ts))
            rows: list = [None] * len(ts)
            for r in range(min(period, len(ts))):  # ts[r::period] is one residue class of t
                rows[r::period] = trial(gens[r::period], dim, ts[r::period])
            for values, witness in rows:
                run.judge(values, witness)
    return run.finish()
