"""Outcome families as one stack, bit for bit as one outcome at a time.

A random instrument, a random observable, the Lüders and Holevo instruments
and the conditioned observables run each per-outcome kernel once over the
(n, d, d) stack of an observable's effects.  Each test below keeps the
per-outcome computation as its reference and compares with np.array_equal,
at outcome counts on both sides of ``rand._LANES_MIN`` and at d = 2, 3 and 8.
Invalid effects raise what the per-outcome path raises.

The quantities over an outcome family are one call on its stack too: a
state's distribution, the observable entropies, an instrument's JSON form
and the distance between two families, each compared with its
outcome-by-outcome form at 1, 3 and 9 outcomes.  An event's effect stays a
sum in event order from +0.0; its bits and signs are pinned the same way.

Validation judges stacks too: ``core._judge`` runs one spectral kernel over
a stack of states, effects, measured effects and totals, and gives each
row's violations as the per-matrix rules kept here as the reference do,
magnitudes included, on rows built to sit just inside and just outside each
bound.  An instrument's measured effects come from one ``_measured`` per
run of equal Kraus counts, equal to each operation's own, and loading a
valid scene calls the kernel once per dimension.
"""

import collections
import importlib.util
import math
import pathlib
import sys

import numpy as np
import pytest

from qcond import (
    DEFAULT_TOL,
    Instrument,
    Observable,
    QcondError,
    DimMismatchError,
    SubObservable,
    condition_effect,
    condition_observable,
    condition_subobservable,
    conditional_observable_entropy_double,
    conditional_observable_entropy_single,
    condition_state,
    distribution,
    dual_apply,
    effect_entropy,
    holevo,
    holevo_instrument,
    luders,
    luders_instrument,
    measured_observable,
    observable_entropy,
    povm,
    prob,
    psd_sqrt,
    trace_product,
    validate_instrument,
)
from qcond import core
from qcond.linalg import dagger, frobenius
from qcond.observables import _effects_distance
from qcond.operations import Operation
from qcond.serialize import instrument_to_json, operation_to_json
from qcond.scene import load_scene
from qcond.rand import (
    _LANES_MIN,
    Generator,
    random_atomic_effect,
    random_instrument_measuring,
    random_observable,
    random_operation_measuring,
    random_projective_observable,
    random_state,
)

COUNTS = (1, 2, 3, 4, 7)
DIMS = (2, 3, 8)
GRID = [(n, d) for n in COUNTS for d in DIMS]


def test_counts_straddle_the_lane_threshold():
    assert min(COUNTS) < _LANES_MIN <= max(COUNTS)


def _same_instrument(got: Instrument, ref: dict) -> None:
    assert got.outcomes == tuple(ref)
    for x, op in ref.items():
        assert np.array_equal(got.ops[x].kraus, op.kraus), x


def _same_effects(got: SubObservable, ref: dict) -> None:
    assert got.outcomes == tuple(ref)
    for x, m in ref.items():
        assert np.array_equal(got.effects[x], m, equal_nan=True), x


def _observable(seed: int, n: int, dim: int) -> Observable:
    return random_observable(Generator(seed), dim, n)


def _random_observable_by_outcome(g: Generator, dim: int, n: int) -> dict:
    """The effects of random_observable drawn one outcome at a time, summed by Python's sum."""
    while True:
        mats = []
        for _ in range(n):
            m = g.complex_normal(dim, dim)
            mats.append(m @ dagger(m))
        w, v = np.linalg.eigh(sum(mats))
        if w[0] > 1e-8 * w[-1]:
            inv_sqrt = (v / np.sqrt(w)) @ dagger(v)
            return {f"x{i}": inv_sqrt @ mats[i] @ inv_sqrt for i in range(n)}


@pytest.mark.parametrize("n,dim", GRID)
def test_random_observable_matches_outcome_by_outcome_draws(n, dim):
    seed = 100 * dim + n
    _same_effects(random_observable(Generator(seed), dim, n), _random_observable_by_outcome(Generator(seed), dim, n))


@pytest.mark.parametrize("n,dim", GRID)
@pytest.mark.parametrize("n_kraus", (1, 2))
@pytest.mark.parametrize("keys", ((), (3, 1, 4)), ids=("root", "trial-depth"))
def test_random_instrument_matches_one_operation_per_outcome(n, dim, n_kraus, keys):
    # A root's children derive one by one; a suite trial's depth continues its pool, in lanes from _LANES_MIN on.
    a = _observable(200 + 10 * dim + n, n, dim)
    g = Generator(7).derive(*keys)
    ref = {
        x: random_operation_measuring(g.derive(i), a.effects[x], n_kraus) for i, x in enumerate(a.outcomes)
    }
    _same_instrument(random_instrument_measuring(g, a, n_kraus), ref)


@pytest.mark.parametrize("n,dim", GRID)
def test_luders_instrument_matches_luders_per_outcome(n, dim):
    a = _observable(300 + 10 * dim + n, n, dim)
    _same_instrument(luders_instrument(a), {x: luders(a.effects[x]) for x in a.outcomes})


def _alphas(g: Generator, a: Observable) -> dict:
    """Update states alternating pure and full rank, so the outcomes keep different Kraus counts."""
    return {
        x: random_atomic_effect(g.derive(i), a.dim) if i % 2 else random_state(g.derive(i), a.dim)
        for i, x in enumerate(a.outcomes)
    }


@pytest.mark.parametrize("n,dim", GRID)
def test_holevo_instrument_matches_holevo_per_outcome(n, dim):
    a = _observable(400 + 10 * dim + n, n, dim)
    alphas = _alphas(Generator(401), a)
    _same_instrument(holevo_instrument(a, alphas), {x: holevo(a.effects[x], alphas[x]) for x in a.outcomes})


def test_holevo_outcomes_keep_different_kraus_counts():
    # Projections of different ranks and pure or mixed update states.
    a = random_projective_observable(Generator(410), 8, 3)
    alphas = _alphas(Generator(411), a)
    ins = holevo_instrument(a, alphas)
    assert len({len(op.kraus) for op in ins.ops.values()}) > 1
    _same_instrument(ins, {x: holevo(a.effects[x], alphas[x]) for x in a.outcomes})


def _mixed_instrument(seed: int, dim: int) -> Instrument:
    """An instrument whose outcomes hold 1, 2, ... Kraus operators."""
    g = Generator(seed)
    a = random_observable(g.derive(0), dim, 4)
    return Instrument(
        a.outcomes,
        {x: random_operation_measuring(g.derive(1, i), a.effects[x], 1 + i) for i, x in enumerate(a.outcomes)},
    )


def _instruments(dim: int) -> dict:
    """Instruments of one block of Kraus operators and of several, mixed Kraus counts in each."""
    a = _observable(500 + dim, 3, dim)
    return {
        "mixed-kraus": _mixed_instrument(510 + dim, dim),
        "holevo": holevo_instrument(a, _alphas(Generator(520 + dim), a)),
    }


@pytest.mark.parametrize("n,dim", GRID)
def test_condition_observable_matches_condition_effect_per_outcome(n, dim):
    b = _observable(600 + 10 * dim + n, n, dim)
    for name, ins in _instruments(dim).items():
        ref = {y: condition_effect(b.effects[y], ins) for y in b.outcomes}
        _same_effects(condition_observable(b, ins), ref)


@pytest.mark.parametrize("n,dim", GRID)
def test_single_bar_entropy_matches_condition_effect_per_outcome(n, dim):
    b = _observable(650 + 10 * dim + n, n, dim)
    rho = random_state(Generator(660 + dim), dim)
    for name, ins in _instruments(dim).items():
        ref = sum(effect_entropy(rho, condition_effect(b.effects[y], ins)) for y in b.outcomes)
        assert conditional_observable_entropy_single(rho, ins, b) == ref, name


def test_the_instruments_span_blocks_and_chunks():
    # Over d**2 operators in all, and blocks too large for the whole effect stack in one product.
    for dim in DIMS:
        ins = _instruments(dim)
        assert len({len(op.kraus) for op in ins["mixed-kraus"].ops.values()}) == 4
        assert sum(len(op.kraus) for op in ins["holevo"].ops.values()) > dim**2


@pytest.mark.parametrize("n,dim", GRID)
def test_condition_subobservable_matches_dual_apply_per_outcome(n, dim):
    b = _observable(700 + 10 * dim + n, n, dim)
    op = _mixed_instrument(710 + dim, dim).ops["x3"]
    _same_effects(condition_subobservable(b, op), {y: dual_apply(op, b.effects[y]) for y in b.outcomes})


# --- quantities over an outcome family, one call on its stack ------------------

FAMILY = [(n, d) for n in (1, 3, 9) for d in DIMS]


def test_a_state_against_an_effect_stack_is_one_trace_per_effect():
    a = _observable(1000, 3, 3)
    rho = random_state(Generator(1001), 3)
    got = trace_product(rho, a.stack)
    assert got.shape == (3,)
    assert np.array_equal(got, [trace_product(rho, m) for m in a.stack])
    for a_shape, b_shape in (((2, 3, 3), (3, 3, 3)), ((3, 3), (2, 3, 2)), ((3, 3), (3, 2, 2)), ((2, 2, 3), (3, 3))):
        with pytest.raises(DimMismatchError):
            trace_product(np.ones(a_shape), np.ones(b_shape))


@pytest.mark.parametrize("n,dim", FAMILY)
def test_a_distribution_is_each_outcomes_probability(n, dim):
    a = _observable(1100 + 10 * dim + n, n, dim)
    rho = random_state(Generator(1101 + dim), dim)
    got = distribution(rho, a)
    assert list(got) == list(a.outcomes)
    assert np.array_equal(list(got.values()), [prob(rho, a.effects[x]) for x in a.outcomes])
    assert all(type(p) is float for p in got.values())


def _povm_by_outcome(a: SubObservable, labels) -> np.ndarray:
    out = np.zeros((a.dim, a.dim), dtype=np.complex128)
    for x in labels:
        out += a.effects[x]
    return out


@pytest.mark.parametrize("n,dim", FAMILY)
def test_an_events_effect_is_its_outcomes_summed_in_order(n, dim):
    a = _observable(1200 + 10 * dim + n, n, dim)
    for event in ([], a.outcomes[:1], a.outcomes[::-1], a.outcomes[1::2]):
        got, ref = povm(a, event), _povm_by_outcome(a, event)
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got.view(float)), np.signbit(ref.view(float)))


def test_an_events_effect_has_no_negative_zero():
    # Summed from +0.0, a -0.0 entry of a single effect comes out as +0.0, as it did outcome by outcome.
    a = SubObservable(("x", "y"), {"x": np.diag([0.5, -0.0]), "y": np.diag([0.5, 1.0])})
    assert np.signbit(a.effects["x"].real).any()
    assert not np.signbit(povm(a, ["x"]).view(float)).any()


@pytest.mark.parametrize("n,dim", FAMILY)
def test_observable_entropies_are_summed_effect_entropies(n, dim):
    b = _observable(1300 + 10 * dim + n, n, dim)
    rho = random_state(Generator(1301 + dim), dim)
    assert np.array_equal(observable_entropy(rho, b), sum(effect_entropy(rho, b.effects[y]) for y in b.outcomes))
    for name, ins in _instruments(dim).items():
        after = condition_state(rho, ins)
        double = sum(effect_entropy(after, b.effects[y]) for y in b.outcomes)
        single = sum(effect_entropy(rho, condition_effect(b.effects[y], ins)) for y in b.outcomes)
        assert np.array_equal(conditional_observable_entropy_double(rho, ins, b), double), name
        assert np.array_equal(conditional_observable_entropy_single(rho, ins, b), single), name


def test_an_observable_entropy_keeps_its_boundary_terms():
    # A zero effect, a zero-probability effect and a full one: each term as effect_entropy gives it.
    b = SubObservable(("z", "p", "q"), {"z": np.zeros((2, 2)), "p": np.diag([0.0, 1.0]), "q": np.diag([1.0, 0.0])})
    rho = np.diag([1.0, 0.0]).astype(complex)
    terms = [effect_entropy(rho, b.effects[y]) for y in b.outcomes]
    assert terms == [0.0, 0.0, 0.0]
    assert np.array_equal(observable_entropy(rho, b), sum(terms))


@pytest.mark.parametrize("n,dim", FAMILY)
def test_an_instruments_json_is_each_operations_json(n, dim):
    a = _observable(1400 + 10 * dim + n, n, dim)
    g = Generator(1401 + dim)
    for ins in (holevo_instrument(a, _alphas(g, a)), random_instrument_measuring(g, a, 2)):
        got = instrument_to_json(ins)
        assert got == {"outcomes": list(a.outcomes), "ops": {x: operation_to_json(ins.ops[x]) for x in a.outcomes}}
        assert list(got["ops"]) == list(a.outcomes)


@pytest.mark.parametrize("n,dim", FAMILY)
def test_an_effects_distance_is_the_largest_outcome_distance(n, dim):
    a = _observable(1500 + 10 * dim + n, n, dim)
    b = _observable(1501 + 10 * dim + n, n, dim)
    ref = max(frobenius(a.effects[x] - b.effects[x]) for x in b.outcomes)
    assert np.array_equal(_effects_distance(a, b.effects), ref)
    assert _effects_distance(a, a.effects) == 0.0
    assert _effects_distance(a, {}) == 0.0


def _outcome(call):
    """("raised", type, message) or ("returned", value) of a call."""
    try:
        return ("returned", call())
    except QcondError as exc:
        return ("raised", type(exc), str(exc))


_BAD_EFFECTS = {
    "non-hermitian": np.array([[0.5, 0.3], [0.0, 0.5]]),
    "non-psd": np.diag([-1e-3, 0.5]),
    "nan": np.full((2, 2), np.nan),
}


def _with_bad_effect(bad: str, where: int) -> Observable:
    effects = [np.diag([1.0, 0.0]), np.diag([0.0, 0.5]), np.diag([0.0, 0.5])]
    effects[where] = _BAD_EFFECTS[bad]
    return Observable(("a", "b", "c"), dict(zip(("a", "b", "c"), effects)))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("where", (0, 1, 2))
@pytest.mark.parametrize("bad", sorted(_BAD_EFFECTS))
def test_a_bad_effect_raises_what_the_per_outcome_path_raises(bad, where):
    a = _with_bad_effect(bad, where)
    alphas = {x: np.eye(2) / 2 for x in a.outcomes}
    got = _outcome(lambda: luders_instrument(a))
    assert got[0] == "raised"
    assert got == _outcome(lambda: [luders(a.effects[x]) for x in a.outcomes])
    got = _outcome(lambda: holevo_instrument(a, alphas))
    assert got[0] == "raised"
    assert got == _outcome(lambda: [holevo(a.effects[x], alphas[x]) for x in a.outcomes])
    # Conditioning checks no effect: the bad one is transported like the others.
    ins = luders_instrument(_observable(800, 2, 2))
    _same_effects(condition_observable(a, ins), {y: condition_effect(a.effects[y], ins) for y in a.outcomes})


@pytest.mark.parametrize(
    "stack",
    (
        [np.eye(2), np.diag([-1e-3, 1.0]), np.diag([-0.5, 1.0])],
        [np.eye(2), np.array([[1.0, 0.3], [0.0, 1.0]]), np.array([[1.0, 0.9], [0.0, 1.0]])],
    ),
    ids=("non-psd", "non-hermitian"),
)
def test_a_stacked_root_names_the_first_failing_matrix(stack):
    # The later matrix fails by more, so a stack-wide figure would name it instead.
    got = _outcome(lambda: psd_sqrt(np.stack(stack)))
    assert got[0] == "raised" and got == _outcome(lambda: psd_sqrt(stack[1]))


def test_a_misshapen_update_state_is_a_dim_mismatch():
    a = _observable(900, 2, 2)
    for alpha in (np.eye(3) / 3, np.ones((2, 3))):
        with pytest.raises(QcondError) as stacked:
            holevo_instrument(a, {"x0": np.eye(2) / 2, "x1": alpha})
        with pytest.raises(QcondError) as single:
            holevo(a.effects["x1"], alpha)
        assert (type(stacked.value), str(stacked.value)) == (type(single.value), str(single.value))


# --- validation as one kernel over a stack -------------------------------------

_TESTS = ("state", "effect", "kraus", "total", "total-is-identity", "bar-channel")
_CEILINGS = {"effect": "below-identity", "kraus": "kraus-trace-bound", "total": "total-below-identity"}


def _reference(m: np.ndarray, test: str, tol=DEFAULT_TOL) -> list:
    """One matrix judged on its own, by the per-matrix rules: the kernel must say the same."""
    if test in ("total-is-identity", "bar-channel"):
        dev = float(np.linalg.norm(m - np.eye(len(m))))
        return [(test, dev)] if dev > tol.eq_tol else []
    if not np.all(np.isfinite(m)):
        return [] if test == "total" else [("finite", math.inf)]
    out = []
    if test in ("state", "effect"):
        dev = float(np.linalg.norm(m - m.conj().T))
        if not dev <= tol.eq_tol:
            out.append(("hermitian", dev))
    if not out:
        h = (m + m.conj().T) / 2.0
        # Past the float64 limit there is no spectrum: NaN, as eigvalsh gives at d = 2.
        w = np.linalg.eigvalsh(h) if np.all(np.isfinite(h)) else np.full(len(m), np.nan)
        if test in ("state", "effect") and not w[0] >= -tol.psd_tol:
            out.append(("positive", float(-w[0])))
        if test in _CEILINGS and not w[-1] <= 1.0 + tol.psd_tol:
            out.append((_CEILINGS[test], float(w[-1] - 1.0)))
    if test == "state":
        dev = abs(complex(np.trace(m)) - 1.0)
        if dev > tol.eq_tol:
            out.append(("unit-trace", float(dev)))
    return out


def _edge_stack(dim: int) -> np.ndarray:
    """Matrices at each bound: eigenvalues a hair either side of -psd_tol and 1 + psd_tol,
    a trace 2 eq_tol off, a Hermitian defect, NaN and infinite entries, and entries past
    the float64 limit, all in a random eigenbasis."""
    rng = np.random.default_rng(dim)
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))

    def spectral(*top) -> np.ndarray:
        w = np.linspace(0.2, 0.6, dim)
        w[: len(top)] = top
        h = (u * w) @ u.conj().T
        return (h + h.conj().T) / 2.0

    psd, eq = DEFAULT_TOL.psd_tol, DEFAULT_TOL.eq_tol
    state = spectral() / np.trace(spectral()).real
    skew = np.zeros((dim, dim), dtype=complex)
    skew[0, 1] = 1e-6
    rows = [
        state,
        state * (1.0 + 2 * eq),
        spectral(),
        spectral(-psd * 1.01),
        spectral(-psd * 0.99),
        spectral(1.0 + psd * 1.01),
        spectral(1.0 + psd * 0.99),
        spectral() + skew,
        spectral() + skew * 1e-4,
        np.eye(dim),
        np.eye(dim) + skew * 1e-3,
        np.full((dim, dim), 1e308),
    ]
    for bad in (np.nan, np.inf, -np.inf):
        m = spectral()
        m[0, -1] = bad
        rows.append(m)
    return np.array(rows, dtype=np.complex128)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("dim", range(2, 9))
def test_the_kernel_judges_each_row_as_the_per_matrix_rules_do(dim):
    rows = _edge_stack(dim)
    stack = np.concatenate([rows] * len(_TESTS))
    tests = [test for test in _TESTS for _ in rows]
    got = core._judge(stack, tests, DEFAULT_TOL)
    for i, (m, test) in enumerate(zip(stack, tests)):
        have = [(v.invariant, v.magnitude) for v in got.get(i, [])]
        # repr keeps every bit and names a NaN, which == never matches.
        assert repr(have) == repr(_reference(m, test)), (i % len(rows), test)
    # Every kind of verdict occurs, on both sides of each bound.
    found = {v.invariant for row in got.values() for v in row}
    assert found >= {"finite", "hermitian", "positive", "unit-trace", *_CEILINGS.values(), "bar-channel"}
    assert len(got) < len(stack)


def test_a_group_keeps_its_blocks_names_and_dimensions_in_order():
    bad2, bad3 = np.diag([2.0, 0.0]), np.diag([-1.0, 0.5, 0.5])
    groups = [
        [(bad3[None], "effect", None), (np.stack([np.eye(2) / 2, bad2]), "state", ["a.", "b."])],
        [],
        [(np.eye(2)[None], "bar-channel", None)],
    ]
    got = core._judged(groups, DEFAULT_TOL)
    assert [[v.invariant for v in g] for g in got] == [["positive", "b.unit-trace"], [], []]


def _effects_one_by_one(ins: Instrument) -> np.ndarray:
    return np.stack([Operation(ins.ops[x].kraus).effect for x in ins.outcomes])


@pytest.mark.parametrize("dim", range(2, 9))
def test_measured_effects_match_each_operations_own(dim):
    a = _observable(1000 + dim, 3, dim)
    many = {x: random_operation_measuring(Generator(1010 + i), a.effects[x], dim * dim + 1 + i)
            for i, x in enumerate(a.outcomes)}
    for ins in (*_instruments(dim).values(), Instrument(a.outcomes, many)):
        counts = [len(op.kraus) for op in ins.ops.values()]
        assert len(set(counts)) > 1 or counts[0] > dim**2
        ref = _effects_one_by_one(ins)
        assert np.array_equal(measured_observable(ins).stack, ref)
        # The operations read the same rows as their effects.
        assert all(np.array_equal(ins.ops[x].effect, m) for x, m in zip(ins.outcomes, ref))
    assert validate_instrument(_mixed_instrument(1020 + dim, dim)) == []


def _generated_scene(dim: int) -> dict:
    """A benchmark scene at dimension dim (perfbench/workloads.py), imported without writing bytecode."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(workloads)
    finally:
        sys.dont_write_bytecode = write_bytecode
        del sys.modules[spec.name]
    return workloads.generated_scene(np.random.default_rng(dim), dim, dim, f"gen-d{dim}")


SCENES = sorted((pathlib.Path(__file__).resolve().parents[1] / "docs" / "scenes").glob("*.json"))


@pytest.mark.parametrize("source", ["generated-d4", *SCENES], ids=lambda s: getattr(s, "stem", s))
def test_loading_a_valid_scene_calls_the_kernel_once_per_dimension(source, monkeypatch):
    calls = []
    kernel = core._judge
    monkeypatch.setattr(core, "_judge", lambda stack, *args: calls.append(stack.shape[-1]) or kernel(stack, *args))
    scene = load_scene(_generated_scene(4) if source == "generated-d4" else source)
    counts = collections.Counter(calls)
    assert counts and max(counts.values()) == 1
    if source == "generated-d4":
        # Every operation input, object and expectation input, in one call.
        assert calls == [4] and len(scene.objects) == 21
