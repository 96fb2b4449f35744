"""Outcome families as one stack, bit for bit as one outcome at a time.

A random instrument, a random observable, the Lüders and Holevo instruments
and the conditioned observables run each per-outcome kernel once over the
(n, d, d) stack of an observable's effects.  Each test below keeps the
per-outcome computation as its reference and compares with np.array_equal,
at outcome counts on both sides of ``rand._LANES_MIN`` and at d = 2, 3 and 8.
Invalid effects raise what the per-outcome path raises.
"""

import numpy as np
import pytest

from qcond import (
    Instrument,
    Observable,
    QcondError,
    SubObservable,
    condition_effect,
    condition_observable,
    condition_subobservable,
    dual_apply,
    holevo,
    holevo_instrument,
    luders,
    luders_instrument,
    psd_sqrt,
)
from qcond.linalg import dagger
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
