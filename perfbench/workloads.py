"""Job lists for the benchmark workloads, generated from the workload seed.

A job is one user-level command: one ``run_suite(name, dims, trials, seed)``
call, or one scene parsed from JSON text, loaded, run and serialized.  Suite
seeds and generated scenes are derived from the workload seed here, so qcond
only ever sees generated inputs.  Every generated scene check has a value
known by construction (an identity that is 0, a predicate that is true, a
probability inside [0, 1], or a number computed independently with numpy),
so a correct qcond passes every job.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import qcond.scene
import qcond.suites

#: Suites that pass by finding counterexamples; witness_ratio reads these.
SEARCH_SUITES = ("bayes2-luders-noncommuting", "entropy")

LARGE_D_SUITES = ("holevo-laws", "conditioning-laws", "uncertainty", "composition-laws", "bayes1")


@dataclass(frozen=True)
class SuiteJob:
    name: str
    dims: tuple[int, ...]
    trials: int
    seed: int

    @property
    def key(self) -> str:
        return f"suite:{self.name}:{','.join(map(str, self.dims))}:{self.trials}:{self.seed}"

    def run(self) -> tuple[bool, str, dict]:
        # Called through the module so a traced pass sees the wrapped function.
        report = qcond.suites.run_suite(self.name, self.dims, self.trials, self.seed)
        payload = report.to_json()
        return report.ok, json.dumps(payload, sort_keys=True), payload


@dataclass(frozen=True)
class SceneJob:
    label: str
    text: str

    @property
    def key(self) -> str:
        return f"scene:{self.label}"

    def run(self) -> tuple[bool, str, dict]:
        scene = qcond.scene.load_scene(json.loads(self.text))
        report = qcond.scene.run_scene(scene)
        payload = report.to_json()
        return report.passed, json.dumps(payload, sort_keys=True), payload


def _suite_seeds(workload: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(1, 2**31) for _ in range(count)]


#: verify-default job size.  ``qcond verify --all`` runs every suite at
#: dims (2, 3) with 25 trials; the benchmark makes the same calls with
#: 3 trials (one ``t % 3`` instrument-kind cycle) over 8 suite seeds, so a
#: pass does about the work of one ``verify --all`` (24 trials per suite).
#: Jobs of 2-40 ms timed in 20-30 passes repeat from run to run on a shared
#: host; 25-trial jobs (10-400 ms) timed in 5-10 passes spread up to 0.25
#: between runs of the same work.
VERIFY_TRIALS, VERIFY_SEEDS = 3, 8


def verify_default(seed: int, tiny: bool = False) -> tuple[list, list]:
    """The ``qcond verify --all`` suites at dims (2, 3) over several suite seeds."""
    n_seeds, trials = (1, 2) if tiny else (VERIFY_SEEDS, VERIFY_TRIALS)
    jobs = [
        SuiteJob(name, (2, 3), trials, s)
        for s in _suite_seeds("verify-default", seed, n_seeds)
        for name in qcond.suites.SUITE_NAMES
    ]
    warmup = [SuiteJob(name, (2, 3), 2, seed) for name in qcond.suites.SUITE_NAMES]
    return jobs, warmup


#: large-d jobs: (suite, d, trials per job, jobs per pass), each job with its
#: own suite seed.  Thirty jobs take 30-40 ms each on a 2-core Xeon; bayes1 at
#: d = 12 and uncertainty (one ``t % 3`` instrument-kind cycle) and
#: holevo-laws (one trial) are the smallest whole units of their kind.
#: Short jobs timed in many passes repeat from run to run on a shared host.
#: The counts put the median among the thirty like-sized jobs and the tail
#: (the eleventh-slowest job) among the ten holevo-laws jobs at d = 8, not
#: on the boundary between two suites.  Holevo operators have d^2 Kraus
#: operators and compose to d^4 (8,100 at d = 10 once the zero eigenvalue is
#: dropped), so holevo-laws makes Choi-matrix work the largest cost.
LARGE_D_PLAN = (
    ("composition-laws", 8, 60, 6),
    ("composition-laws", 12, 45, 6),
    ("bayes1", 8, 3, 6),
    ("conditioning-laws", 8, 3, 6),
    ("conditioning-laws", 12, 1, 6),
    ("bayes1", 12, 3, 2),
    ("uncertainty", 8, 3, 2),
    ("holevo-laws", 8, 1, 10),
    ("holevo-laws", 10, 1, 6),
)


def large_d(seed: int, tiny: bool = False) -> tuple[list, list]:
    """Five Kraus-heavy suites at d = 8 and 12, plus holevo-laws at d = 10."""
    if tiny:
        jobs = [SuiteJob(name, (4,), 3, seed) for name in LARGE_D_SUITES]
        return jobs + [SuiteJob("holevo-laws", (5,), 1, seed)], jobs[:1]
    plan = [(name, d, trials) for name, d, trials, count in LARGE_D_PLAN for _ in range(count)]
    seeds = _suite_seeds("large-d", seed, len(plan))
    jobs = [SuiteJob(name, (d,), trials, s) for (name, d, trials), s in zip(plan, seeds)]
    warmup = [SuiteJob(name, (3,), 3, seed) for name in LARGE_D_SUITES]
    return jobs, warmup


def scene_batch(seed: int, scene_dir: Path, tiny: bool = False) -> tuple[list, list]:
    """The committed scenes plus seeded generated scenes at d = 2..6."""
    committed = [
        SceneJob(f"docs/{p.stem}", p.read_text(encoding="utf-8"))
        for p in sorted(scene_dir.glob("*.json"))
    ]
    per_dim = 1 if tiny else 12
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5CE4E]))
    generated = [
        SceneJob(f"gen-d{d}-{i}", json.dumps(generated_scene(rng, d, i, f"gen-d{d}-{i}")))
        for d in range(2, 7)
        for i in range(per_dim)
    ]
    warmup_rng = np.random.default_rng(np.random.SeedSequence([seed, 0x3A2]))
    warmup = committed + [
        SceneJob(f"warm-d{d}", json.dumps(generated_scene(warmup_rng, d, d, f"warm-d{d}")))
        for d in range(2, 7)
    ]
    return committed + generated, warmup


def build(workload: str, seed: int, scene_dir: Path, tiny: bool = False) -> tuple[list, list]:
    """(timed jobs, warm-up jobs) for one workload and seed."""
    if workload == "verify-default":
        return verify_default(seed, tiny)
    if workload == "large-d":
        return large_d(seed, tiny)
    if workload == "scene-batch":
        return scene_batch(seed, scene_dir, tiny)
    raise ValueError(f"unknown workload {workload!r}")


# --- generated scenes ----------------------------------------------------------
#
# Objects are built with plain numpy, never with qcond, and symmetrized so
# they are Hermitian to the last bit; spectra stay inside [0.05, 0.95] so no
# conditioning probability approaches the zero-probability guard.


def _m(a: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(a)]


def _herm(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().T) / 2.0


def _cnormal(rng, *shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(_cnormal(rng, d, d))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _state(rng, d: int) -> np.ndarray:
    g = _cnormal(rng, d, d)
    rho = _herm(g @ g.conj().T)
    return rho / np.trace(rho).real


def _effect(rng, d: int, u=None) -> np.ndarray:
    u = _unitary(rng, d) if u is None else u
    return _herm((u * rng.uniform(0.05, 0.95, d)) @ u.conj().T)


def _sqrt(a: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(a)
    return _herm((v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T)


def _povm(rng, d: int, n: int) -> list[np.ndarray]:
    """A_i = S^(-1/2) M_i S^(-1/2): random PSD M_i normalised to sum to I."""
    mats = [g @ g.conj().T for g in (_cnormal(rng, d, d) + np.eye(d) for _ in range(n))]
    w, v = np.linalg.eigh(sum(mats))
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return [_herm(inv_sqrt @ m @ inv_sqrt) for m in mats]


def _isometry_blocks(rng, d: int, k: int) -> list[np.ndarray]:
    """k blocks C_i with sum C_i* C_i = I, from the QR of a stacked Gaussian."""
    q, _ = np.linalg.qr(_cnormal(rng, k * d, d))
    return [q[i * d : (i + 1) * d] for i in range(k)]


def _observable(effects, values=None) -> dict:
    labels = [f"o{i}" for i in range(len(effects))]
    out = {"outcomes": labels, "effects": {x: _m(e) for x, e in zip(labels, effects)}}
    if values is not None:
        out["values"] = {x: float(v) for x, v in zip(labels, values)}
    return out


def generated_scene(rng, d: int, shape: int, name: str) -> dict:
    """One scene at dimension d with states, effects, Kraus, Lüders, Holevo
    and instrument literals, and checks whose expected values are known.

    ``shape`` fixes the sizes (outcome counts, Kraus ranks), so a scene's
    work does not depend on the seed; ``rng`` draws the matrices."""
    rho, alpha = _state(rng, d), _state(rng, d)
    a, b = _effect(rng, d), _effect(rng, d)
    u = _unitary(rng, d)
    ac, bc = _effect(rng, d, u), _effect(rng, d, u)
    root_a = _sqrt(a)
    a_then_b = _herm(root_a @ b @ root_a)
    eye = np.eye(d)

    n_out = 2 + shape % d
    povm = _povm(rng, d, n_out)
    labels = [f"o{i}" for i in range(n_out)]
    povm_b = _povm(rng, d, 2 + (shape + 1) % d)
    n_diag = 2 + (shape + 2) % d
    weights = rng.uniform(0.05, 1.0, (2, n_diag, d))
    weights /= weights.sum(axis=1, keepdims=True)
    diag = [[_herm((u * w) @ u.conj().T) for w in fam] for fam in weights]
    n_kraus = 1 + shape % 3
    instrument_kraus = {
        x: {"kraus": [_m(c @ _sqrt(e)) for c in _isometry_blocks(rng, d, n_kraus)]}
        for x, e in zip(labels, povm)
    }

    objects = {
        "rho": {"state": _m(rho)},
        "alpha": {"state": _m(alpha)},
        "a": {"effect": _m(a)},
        "b": {"effect": _m(b)},
        "ac": {"effect": _m(ac)},
        "bc": {"effect": _m(bc)},
        "id": {"effect": _m(eye)},
        "K": {"kraus": [_m(c) for c in _isometry_blocks(rng, d, n_kraus)]},
        "La": {"luders": _m(a)},
        "Ka": {"kraus": [_m(root_a)]},
        "Lac": {"luders": _m(ac)},
        "Lbc": {"luders": _m(bc)},
        "Ha": {"holevo": {"effect": _m(a), "alpha": _m(alpha)}},
        "Hb": {"holevo": {"effect": _m(b), "alpha": _m(alpha)}},
        "A": {"observable": _observable(povm, rng.uniform(-1.0, 1.0, n_out))},
        "B": {"observable": _observable(povm_b, rng.uniform(-1.0, 1.0, len(povm_b)))},
        "D1": {"observable": _observable(diag[0])},
        "D2": {"observable": _observable(diag[1])},
        "IL": {"instrument": {"luders_of": "A"}},
        "IH": {"instrument": {"holevo_of": {
            "observable": "A", "alphas": {x: _m(_state(rng, d)) for x in labels}}}},
        "IK": {"instrument": {"outcomes": labels, "ops": instrument_kraus}},
    }
    zero_spread = {"spread": 0.0}
    checks = [
        {"op": "prob", "args": ["rho", "a"], "expect_min": 0.0, "expect_max": 1.0},
        {"op": "trace_product", "args": ["rho", "id"], "expect": 1.0},
        {"op": "psd_sqrt", "args": ["a"], "expect": _m(root_a)},
        {"op": "commutator_norm", "args": ["ac", "bc"], "expect": 0.0},
        {"op": "is_channel", "args": ["K"], "expect": True},
        {"op": "measured_effect", "args": ["K"], "expect": _m(eye)},
        {"op": "maps_equal", "args": ["La", "Ka"], "expect": True},
        {"op": "measured_effect", "args": ["Ha"], "expect": _m(a)},
        {"op": "updated_state", "args": ["rho", "Ha"], "expect": _m(alpha)},
        {"op": "conditional_prob", "args": ["rho", "Ha", "b"],
         "expect": float(np.trace(alpha @ b).real)},
        {"op": "conditional_prob", "args": ["rho", "La", "id"], "expect": 1.0},
        {"op": "compose", "args": ["La", "Hb"],
         "expect": {"holevo": {"effect": _m(a_then_b), "alpha": _m(alpha)}}},
        {"op": "bayes2_residual", "args": ["rho", "Lac", "Lbc"], "expect": 0.0},
        {"op": "sequential_entropy_dominated", "args": ["La", "b"], "expect": True},
        {"op": "effect_entropy", "args": ["rho", "a"], "expect_min": 0.0},
        {"op": "jointly_commuting", "args": ["D1", "D2"], "expect": True},
        {"op": "measured_observable", "args": ["IK"],
         "expect": {"effects": {x: _m(e) for x, e in zip(labels, povm)}}},
        {"op": "bayes1_check", "args": ["rho", "IL", "id"], "expect": 1.0},
        {"op": "bayes1_check", "args": ["rho", "IK", "b"], "expect": zero_spread},
        {"op": "bayes1_expectation_check", "args": ["rho", "IH", "B"], "expect": zero_spread},
        {"op": "uncertainty_report", "args": ["rho", "IK", "A", "B"],
         "expect": {"identity_residual": 0.0}},
        {"op": "contextual_variance", "args": ["rho", "IL", "B"], "expect_min": 0.0},
        {"op": "observable_entropy", "args": ["rho", "A"], "expect_min": 0.0},
        {"op": "conditional_observable_entropy_double", "args": ["rho", "IH", "B"],
         "expect_min": 0.0},
    ]
    return {"name": name, "objects": objects, "checks": checks}
