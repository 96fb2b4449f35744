"""The stacked Kraus representation: batched kernels and the constructor contract.

Each batched kernel in qcond.operations is compared with a per-Kraus loop
written out here.  The batched forms sum in another order, so they agree to
round-off, not bit for bit; 1e-12 is far above complex128 round-off at these
sizes and far below any law's tolerance.

Every producer also keeps the measured-effect contract: ``op.effect`` is the
effect the operation is meant to measure, within round-off that grows with d
(about 8e-16 per dimension seen for psd_sqrt and eigendecomposition round
trips at d <= 10, so 1e-14 per dimension), computed once, read-only, and
the very array ``measured_effect`` returns.
"""

import numpy as np
import pytest

from qcond import (
    DimMismatchError,
    Instrument,
    Operation,
    apply,
    bar_channel,
    choi_distance,
    choi_matrix,
    compose,
    condition_effect,
    condition_instrument,
    condition_state,
    dual_apply,
    frobenius,
    holevo,
    holevo_instrument,
    luders,
    luders_instrument,
    measured_effect,
)
from qcond.linalg import DEFAULT_TOL, hermitian_eig
from qcond.rand import (
    Generator,
    random_channel,
    random_effect,
    random_instrument_measuring,
    random_observable,
    random_operation_measuring,
    random_projection,
    random_state,
)

ATOL = 1e-12
CHOI_TOL = 1e-12
EFFECT_TOL_PER_DIM = 1e-14
# k = d**2 is exactly one block; d**2 + 3 and 3 d**2 + 1 end in a ragged one.
CASES = [(d, k) for d in (2, 5, 10) for k in (1, 3, d * d, d * d + 3, 3 * d * d + 1)]


def _random_kraus(seed, dim, n_kraus):
    """A list of Kraus matrices with sum K*K <= I, not a channel in general."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n_kraus, dim, dim)) + 1j * rng.normal(size=(n_kraus, dim, dim))
    return list(z / np.sqrt(2 * n_kraus * dim * dim))


def _close(x, y):
    return np.max(np.abs(np.asarray(x) - np.asarray(y))) <= ATOL


def _ref_apply(kraus, rho):
    return sum(k @ rho @ k.conj().T for k in kraus)


def _ref_dual(kraus, a):
    return sum(k.conj().T @ a @ k for k in kraus)


def _ref_choi(kraus):
    n = kraus[0].shape[0]
    out = np.zeros((n * n, n * n), dtype=complex)
    for k in kraus:
        v = k.T.reshape(-1)
        out += np.outer(v, v.conj())
    return out


def _products(first, second):
    """The product family L_j K_i of "first, then second", second's index outer."""
    return Operation(np.array([l @ k for l in second.kraus for k in first.kraus]))


def _assert_measures(op, intended):
    """op.effect is the intended effect, cached, read-only, and what measured_effect returns."""
    assert frobenius(op.effect - intended) <= EFFECT_TOL_PER_DIM * op.dim
    assert op.effect is op.effect
    assert not op.effect.flags.writeable
    with pytest.raises(ValueError):
        op.effect[0, 0] += 1.0
    with pytest.raises(AttributeError):
        op.effect = np.eye(op.dim)
    assert measured_effect(op) is op.effect


def _ref_holevo(a, alpha, tol=DEFAULT_TOL):
    nu, v = hermitian_eig(a, tol)
    mu, w = hermitian_eig(alpha, tol)
    kraus = [
        np.sqrt(mu[j] * nu[k]) * np.outer(w[:, j], v[:, k].conj())
        for j in range(len(mu))
        if mu[j] > tol.eq_tol
        for k in range(len(nu))
        if nu[k] > tol.eq_tol
    ]
    return kraus or [np.zeros_like(a)]


@pytest.mark.parametrize("dim,n_kraus", CASES)
def test_apply_dual_and_measured_effect_match_loops(dim, n_kraus):
    g = Generator(900 + dim)
    kraus = _random_kraus(dim * 100 + n_kraus, dim, n_kraus)
    op = Operation(kraus)
    rho, a = random_state(g.derive(0), dim), random_effect(g.derive(1), dim)
    assert _close(apply(op, rho), _ref_apply(kraus, rho))
    assert _close(dual_apply(op, a), _ref_dual(kraus, a))
    _assert_measures(op, _ref_dual(kraus, np.eye(dim)))


@pytest.mark.parametrize("dim", (2, 5, 10))
def test_instrument_totals_match_the_bar_channel(dim):
    # The totals sum over the outcome stacks in blocks of at most d**2 rows;
    # the stacks of 1, d**2 - 1 and d**2 + 2 rows are grouped and sliced.
    g = Generator(980 + dim)
    a_obs = random_observable(g.derive(0), dim, 3)
    alphas = {x: random_state(g.derive(1, i), dim) for i, x in enumerate(a_obs.outcomes)}
    ragged = {
        x: Operation(_random_kraus(dim * 10 + n, dim, n))
        for x, n in zip("uvw", (1, dim * dim - 1, dim * dim + 2))
    }
    instruments = [
        luders_instrument(a_obs),
        holevo_instrument(a_obs, alphas),
        random_instrument_measuring(g.derive(2), a_obs, 3),
        Instrument("uvw", ragged),
    ]
    rho, a = random_state(g.derive(3), dim), random_effect(g.derive(4), dim)
    for ins in instruments:
        bar = bar_channel(ins)
        assert _close(condition_effect(a, ins), dual_apply(bar, a))
        assert _close(condition_state(rho, ins), apply(bar, rho))


def test_dimension_mismatch_is_typed():
    g = Generator(990)
    ins = random_instrument_measuring(g.derive(0), random_observable(g.derive(1), 2, 2), 2)
    op = ins.ops[ins.outcomes[0]]
    wrong = np.eye(3)
    for call in (
        lambda: apply(op, wrong),
        lambda: dual_apply(op, wrong),
        lambda: condition_effect(wrong, ins),
        lambda: condition_state(wrong, ins),
    ):
        with pytest.raises(DimMismatchError):
            call()


@pytest.mark.parametrize("dim,n_kraus", CASES)
def test_choi_matrix_matches_loop(dim, n_kraus):
    # n_kraus = d**2 + 3 spans two row blocks of the Choi accumulation.
    kraus = _random_kraus(dim * 100 + n_kraus + 1, dim, n_kraus)
    assert _close(choi_matrix(Operation(kraus)), _ref_choi(kraus))


@pytest.mark.parametrize("dim,n_kraus", CASES)
def test_compose_matches_loop_in_order(dim, n_kraus):
    g = Generator(910 + dim)
    first = random_channel(g.derive(0), dim, n_kraus)
    second = Operation(_random_kraus(dim * 100 + n_kraus + 2, dim, 3))
    expected = [l @ k for l in second.kraus for k in first.kraus]
    composed = compose(first, second)
    if 3 * n_kraus <= dim * dim:
        # Within the Choi rank bound: every product, second's index outer.
        assert composed.kraus.shape == (3 * n_kraus, dim, dim)
        assert _close(composed.kraus, expected)
    else:
        # Above it: a minimal family of the same map.
        assert len(composed.kraus) <= dim * dim
        assert choi_distance(composed, _products(first, second)) <= CHOI_TOL
    # Lazy: composing computes no effect; it measures first's effect, then second's.
    assert not {"effect"} & (vars(composed).keys() | vars(first).keys() | vars(second).keys())
    _assert_measures(composed, _ref_dual(first.kraus, _ref_dual(second.kraus, np.eye(dim))))


@pytest.mark.parametrize("dim", (2, 5, 10))
def test_compose_of_zero_maps_is_one_zero_operator(dim):
    many = Operation(np.zeros((dim * dim + 1, dim, dim)))
    channel = random_channel(Generator(950 + dim), dim, dim)
    for first, second in ((many, many), (many, channel), (channel, many)):
        composed = compose(first, second)
        assert composed.kraus.shape == (1, dim, dim)
        assert not composed.kraus.any()
        _assert_measures(composed, np.zeros((dim, dim)))


@pytest.mark.parametrize("dim", (2, 5, 10))
def test_compose_holevo_keeps_the_choi_rank(dim):
    # holevo(a, alpha) then holevo(b, beta) is rho -> tr(rho a) tr(alpha b) beta:
    # Choi rank rank(a) * rank(beta), though the product family has
    # rank(a) rank(alpha) rank(b) rank(beta) operators.
    g = Generator(960 + dim)
    rank_a, rank_beta = dim - 1, 2
    a = random_projection(g.derive(0), dim, rank_a)
    alpha, b = random_state(g.derive(1), dim), random_state(g.derive(2), dim)  # full rank
    beta = random_projection(g.derive(3), dim, rank_beta) / rank_beta
    first, second = holevo(a, alpha), holevo(b, beta)
    products = _products(first, second)
    assert len(products.kraus) > dim * dim
    composed = compose(first, second)
    assert len(composed.kraus) == rank_a * rank_beta
    assert choi_distance(composed, products) <= CHOI_TOL
    _assert_measures(composed, np.trace(alpha @ b).real * a)


def test_condition_instrument_chain_stays_within_the_choi_rank():
    # Three outcomes of two Kraus operators each: the product families of a
    # conditioning chain grow 12 -> 72 -> 432 per outcome at d = 4.
    dim = 4
    g = Generator(970)
    given = random_instrument_measuring(g.derive(0), random_observable(g.derive(1), dim, 3), 2)
    ins = random_instrument_measuring(g.derive(2), random_observable(g.derive(3), dim, 3), 2)
    bar = bar_channel(given)
    chained, products = ins, dict(ins.ops)
    for _ in range(3):
        chained = condition_instrument(chained, given)
        products = {y: _products(bar, op) for y, op in products.items()}
        for y, op in chained.ops.items():
            assert len(op.kraus) <= dim * dim
            assert choi_distance(op, products[y]) <= CHOI_TOL
    assert max(len(op.kraus) for op in products.values()) == 432


@pytest.mark.parametrize("dim", (2, 5, 10))
def test_holevo_matches_loop(dim):
    g = Generator(920 + dim)
    cases = [
        (random_effect(g.derive(0), dim), random_state(g.derive(1), dim)),
        # rank-deficient on both sides: the eigenvalue mask drops operators
        (random_projection(g.derive(2), dim, 1), random_projection(g.derive(3), dim, dim - 1) / (dim - 1)),
        (np.zeros((dim, dim)), random_state(g.derive(4), dim)),
    ]
    for a, alpha in cases:
        expected = _ref_holevo(a, alpha)
        op = holevo(a, alpha)
        assert op.kraus.shape == (len(expected), dim, dim)
        assert _close(op.kraus, expected)
        _assert_measures(op, a)


@pytest.mark.parametrize("dim", (2, 5, 10))
def test_luders_and_random_operations_measure_their_effect(dim):
    g = Generator(940 + dim)
    for a in (random_effect(g.derive(0), dim), random_projection(g.derive(1), dim, dim // 2)):
        _assert_measures(luders(a), a)
        for n_kraus in (1, 3):
            _assert_measures(random_operation_measuring(g.derive(2, n_kraus), a, n_kraus), a)


def test_constructor_stacks_and_freezes():
    kraus = _random_kraus(1, 3, 4)
    op = Operation(kraus)
    assert op.kraus.shape == (4, 3, 3)
    assert op.kraus.dtype == np.complex128
    assert not op.kraus.flags.writeable
    with pytest.raises(ValueError):
        op.kraus[0, 0, 0] = 1.0
    assert Operation(np.stack(kraus)).kraus.shape == (4, 3, 3)
    assert Operation([[[1, 0], [0, 1]]]).kraus.shape == (1, 2, 2)


def test_constructor_copies_caller_data():
    kraus = _random_kraus(2, 2, 3)
    stack = np.stack(kraus)
    from_list, from_array = Operation(kraus), Operation(stack)
    before = np.stack(kraus)
    kraus[0][0, 0] += 5.0
    stack[1] *= 2.0
    assert np.array_equal(from_list.kraus, before)
    assert np.array_equal(from_array.kraus, before)


@pytest.mark.parametrize(
    "bad",
    [
        [],
        np.zeros((0, 2, 2)),
        [np.zeros((2, 3))],
        np.zeros((2, 2, 3)),
        np.eye(2),
        [np.zeros(2)],
        [np.eye(2), np.eye(3)],
    ],
    ids=["empty", "empty-array", "non-square", "non-square-array", "single-matrix", "vector", "mixed-dims"],
)
def test_constructor_rejects_bad_shapes(bad):
    with pytest.raises(DimMismatchError):
        Operation(bad)


def test_producers_return_read_only_stacks():
    g = Generator(930)
    a = random_effect(g.derive(0), 3)
    op = random_operation_measuring(g.derive(1), a, 2)
    ctx = holevo(a, random_state(g.derive(2), 3))
    ins = Instrument(("x", "y"), {"x": op, "y": ctx})
    for produced in (op, ctx, compose(op, ctx), bar_channel(ins), random_channel(g, 3, 2)):
        assert produced.kraus.ndim == 3
        assert not produced.kraus.flags.writeable
