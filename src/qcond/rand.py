"""Seeded generators for every object the property suites draw.

Determinism contract: a :class:`Generator` built from the same seed yields a
bit-identical stream, and :meth:`Generator.derive` produces child generators
keyed by integers.  A child's stream depends only on the seed and its keys,
not on the order in which siblings are derived or on any draws made from the
parent or a sibling, so per-trial objects do not depend on other trials.
:func:`random_states` relies on it: it draws the states of derived
generators ``first``, ``first + 1``, ... as one (n, d, d) stack, equal bit
for bit to drawing them one by one, so a sweep may draw its states in
chunks of any size.

Stream contract: the generator at key (seed, *keys) draws exactly what
``np.random.PCG64(np.random.SeedSequence(key))`` draws, each key coerced to
its uint32 words as SeedSequence does.  A child is seeded by continuing its
parent's SeedSequence pool with its own key words, which SeedSequence allows
once the parent's key holds four words; a shallower parent has numpy mix the
child's whole key.  :func:`random_states` continues the pool for a whole
stack at once, in uint32 lanes, and then builds one PCG64 per state.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import InvalidValueError, RetryExhaustedError
from .instruments import Instrument
from .linalg import dagger, psd_sqrt
from .observables import Observable, RealValuedObservable
from .operations import Operation

__all__ = [
    "Generator",
    "random_state",
    "random_states",
    "random_effect",
    "random_hermitian",
    "random_unitary",
    "random_atomic_effect",
    "random_projection",
    "random_observable",
    "random_real_values",
    "random_projective_observable",
    "random_atomic_observable",
    "random_codiagonal_effects",
    "random_codiagonal_observable",
    "random_channel",
    "random_operation_measuring",
    "random_instrument_measuring",
]

_MASK64 = (1 << 64) - 1
_RETRIES = 100

# numpy's SeedSequence hash and mix constants (O'Neill's seed_seq_fe with a
# pool of four uint32 words).  Every derived stream stays bit for bit
# np.random.PCG64(np.random.SeedSequence(key)); these only let a child
# continue its parent's pool instead of mixing its whole key again.
_M32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_L = 0xCA01F9DD
_MIX_R = 0x4973F715


def _hash_run(h: int, n: int, mult: int = _MULT_A) -> list[int]:
    """h and the n hash constants after it: hash j xors run[j] and multiplies by run[j + 1]."""
    run = [h]
    for _ in range(n):
        run.append(run[-1] * mult & _M32)
    return run


# generate_state(4, uint64) hashes the pool cycled twice with a fresh INIT_B run.
_STATE_RUN = _hash_run(_INIT_B, 8, _MULT_B)


@functools.cache
def _seed_words_type() -> type:
    """The seed sequence PCG64 takes from this module, built at the first draw.

    Its base class lives in numpy.random, which ``import qcond`` does not load.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """The generate_state(4, uint64) words of a SeedSequence, mixed by this module.

        PCG64 asks its seed sequence for exactly these four words, so handing
        them over seeds it as that SeedSequence would.
        """

        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("SeedWords holds only the 4 uint64 words PCG64 asks for")
            return self.words

    return SeedWords


def _pcg64(words: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_seed_words_type()(words)))


def _seed(key: tuple[int, ...]) -> tuple[tuple[int, ...] | None, int, np.random.Generator]:
    """(pool, hash constant, stream) of SeedSequence(key), its pool mixed by numpy.

    The pool can be continued only when the key holds at least four uint32
    words: a shorter key is zero-padded, and then the pool's cross-mix has
    run over words that a longer key would replace.  Such a pool is None.
    """
    pool = np.random.SeedSequence(key).pool.tolist()
    rng = _pcg64(_state_words(pool))
    n_words = sum((k.bit_length() + 31) // 32 or 1 for k in key)
    if n_words < 4:
        return None, 0, rng
    # Mixing n >= 4 words runs 4n hashmixes: 4 fill the pool, 12 cross-mix
    # it and each word past the fourth is hashed once per pool word.
    return tuple(pool), _INIT_A * pow(_MULT_A, 4 * n_words, 1 << 32) & _M32, rng


def _mix_in(pool: list[int], h: int, key: int) -> int:
    """Mix key's uint32 words into pool in place, as SeedSequence does past its fourth word.

    Returns the hash constant after them.
    """
    while True:
        word = key & _M32
        for i in range(4):
            v = word ^ h
            h = h * _MULT_A & _M32
            v = v * h & _M32
            v ^= v >> 16
            x = (_MIX_L * pool[i] - _MIX_R * v) & _M32
            pool[i] = x ^ (x >> 16)
        key >>= 32
        if not key:
            return h


def _state_words(pool: list[int]) -> np.ndarray:
    """SeedSequence.generate_state(4, np.uint64) of one pool."""
    w = []
    for j in range(8):
        v = (pool[j & 3] ^ _STATE_RUN[j]) * _STATE_RUN[j + 1] & _M32
        w.append(v ^ (v >> 16))
    # little-endian uint64 pairs of uint32 words, as SeedSequence reads them
    return np.array(
        [w[0] | w[1] << 32, w[2] | w[3] << 32, w[4] | w[5] << 32, w[6] | w[7] << 32], dtype=np.uint64
    )


# The stacked path works in uint32 lanes, whose products wrap mod 2**32 as
# SeedSequence's do.
_LANE_MIX_L = np.uint32(_MIX_L)
_LANE_MIX_R = np.uint32(_MIX_R)
_LANE_16 = np.uint32(16)
_LANE_STATE_XOR = np.array(_STATE_RUN[:8], dtype=np.uint32)
_LANE_STATE_MUL = np.array(_STATE_RUN[1:], dtype=np.uint32)


def _mix_lanes(pools: np.ndarray, words: np.ndarray, h: int) -> np.ndarray:
    """_mix_in of one uint32 word per row into uint32 pools, all four lanes at once.

    pools is (4,) or (n, 4), words (n,); the mixed pools are (n, 4).
    """
    run = np.array(_hash_run(h, 4), dtype=np.uint32)
    v = (words[:, None] ^ run[:4]) * run[1:]
    v ^= v >> _LANE_16
    x = _LANE_MIX_L * pools - _LANE_MIX_R * v
    x ^= x >> _LANE_16
    return x


def _lane_state_words(pools: np.ndarray) -> np.ndarray:
    """_state_words of each row of (n, 4) uint32 pools: an (n, 4) uint64 array."""
    v = (np.concatenate((pools, pools), axis=1) ^ _LANE_STATE_XOR) * _LANE_STATE_MUL
    v ^= v >> _LANE_16
    # SeedSequence reads its uint32 words as little-endian uint64 pairs.
    return v.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class Generator:
    """Deterministic random source keyed by a 64-bit seed (plus derive keys)."""

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._key: tuple[int, ...] = (self.seed,)
        self._pool, self._hash, self._rng = _seed(self._key)

    def derive(self, *keys: int) -> "Generator":
        """Child generator at (seed, *keys); independent of this one's draw count."""
        child = object.__new__(Generator)
        child.seed = self.seed
        new = tuple(int(k) & _MASK64 for k in keys)
        child._key = self._key + new
        if self._pool is None:
            child._pool, child._hash, child._rng = _seed(child._key)
            return child
        pool, h = list(self._pool), self._hash
        for k in new:
            h = _mix_in(pool, h, k)
        child._pool, child._hash = tuple(pool), h
        child._rng = _pcg64(_state_words(pool))
        return child

    def _child_streams(self, first: int, count: int) -> list[np.random.Generator]:
        """The streams of derive(first), ..., derive(first + count - 1), seeded as one stack."""
        if self._pool is None:
            return [self.derive(first + s)._rng for s in range(count)]
        start = first & _MASK64
        keys = np.arange(count, dtype=np.uint64) + np.uint64(start)  # wraps as derive's keys do
        pools = np.array(self._pool, dtype=np.uint32)
        pools = _mix_lanes(pools, keys.astype(np.uint32), self._hash)
        if start + count > 1 << 32:  # some keys hold a second uint32 word
            wide = keys >> np.uint64(32) != 0
            high = (keys[wide] >> np.uint64(32)).astype(np.uint32)
            pools[wide] = _mix_lanes(pools[wide], high, _hash_run(self._hash, 4)[4])
        return [_pcg64(words) for words in _lane_state_words(pools)]

    def normal(self, *shape: int) -> np.ndarray:
        return self._rng.standard_normal(shape)

    def complex_normal(self, *shape: int) -> np.ndarray:
        parts = self._rng.standard_normal((2, *shape))
        return (parts[0] + 1j * parts[1]) / np.sqrt(2.0)

    def uniform(self, low: float, high: float, *shape: int):
        out = self._rng.uniform(low, high, shape)
        return float(out) if shape == () else out

    def integer(self, low: int, high: int) -> int:
        """Uniform integer in [low, high]."""
        return int(self._rng.integers(low, high + 1))

    def shuffled(self, items):
        items = list(items)
        self._rng.shuffle(items)
        return items


def _normalized_gram(m: np.ndarray) -> np.ndarray:
    """G G* / tr(G G*) for one matrix G or each matrix of a stack."""
    rho = m @ dagger(m)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def random_state(g: Generator, dim: int) -> np.ndarray:
    """Full-rank-almost-surely density matrix G G* / tr."""
    return _normalized_gram(g.complex_normal(dim, dim))


def random_states(g: Generator, dim: int, count: int, first: int = 0) -> np.ndarray:
    """(count, dim, dim) stack whose s-th state is random_state(g.derive(first + s), dim).

    Bit for bit: each state keeps its own derived generator and its normal
    draws, while the complex arithmetic, the Gram products and the
    traces each run once over the whole stack.
    """
    # parts[s] is state s's real then imaginary draw: one call fills both,
    # in complex_normal's draw order.
    parts = np.empty((count, 2, dim, dim))
    for s, rng in enumerate(g._child_streams(first, count)):
        rng.standard_normal(out=parts[s])
    return _normalized_gram((parts[:, 0] + 1j * parts[:, 1]) / np.sqrt(2.0))


def random_hermitian(g: Generator, dim: int) -> np.ndarray:
    m = g.complex_normal(dim, dim)
    return (m + dagger(m)) / 2.0


def random_effect(g: Generator, dim: int) -> np.ndarray:
    """Random Hermitian rescaled so its spectrum fills [0, 1]."""
    h = random_hermitian(g, dim)
    w = np.linalg.eigvalsh(h)
    spread = float(w[-1] - w[0])
    if spread < 1e-12:
        return 0.5 * np.eye(dim, dtype=np.complex128)
    return (h - w[0] * np.eye(dim)) / spread


def random_unitary(g: Generator, dim: int) -> np.ndarray:
    """Haar-ish unitary from the QR of a complex Gaussian matrix."""
    q, r = np.linalg.qr(g.complex_normal(dim, dim))
    # Fix the phase convention so the distribution does not depend on QR's sign choices.
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_atomic_effect(g: Generator, dim: int) -> np.ndarray:
    v = g.complex_normal(dim)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_projection(g: Generator, dim: int, rank: int) -> np.ndarray:
    """Projection onto a random rank-dimensional subspace."""
    u = random_unitary(g, dim)
    cols = u[:, :rank]
    return cols @ dagger(cols)


def random_observable(g: Generator, dim: int, n_outcomes: int) -> Observable:
    """Random POVM: A_i = S**(-1/2) M_i S**(-1/2) for random PSD M_i, S = sum M_i.

    Retries when S is too ill-conditioned to invert stably; raises
    RetryExhaustedError after the retry budget.
    """
    for _ in range(_RETRIES):
        mats = []
        for _i in range(n_outcomes):
            m = g.complex_normal(dim, dim)
            mats.append(m @ dagger(m))
        total = sum(mats)
        w, v = np.linalg.eigh(total)
        if w[0] <= 1e-8 * w[-1]:
            continue
        inv_sqrt = (v / np.sqrt(w)) @ dagger(v)
        effects = {f"x{i}": inv_sqrt @ mats[i] @ inv_sqrt for i in range(n_outcomes)}
        return Observable(tuple(f"x{i}" for i in range(n_outcomes)), effects)
    raise RetryExhaustedError(f"no well-conditioned POVM in {_RETRIES} tries")


def random_real_values(g: Generator, a: Observable) -> RealValuedObservable:
    """Attach independent Uniform(-1, 1) values to each outcome."""
    return RealValuedObservable(a, {x: g.uniform(-1.0, 1.0) for x in a.outcomes})


def random_projective_observable(g: Generator, dim: int, n_outcomes: int) -> Observable:
    """Sharp observable: orthogonal projections summing to I (n_outcomes <= dim)."""
    if n_outcomes > dim:
        raise InvalidValueError("a projective observable needs n_outcomes <= dim")
    u = random_unitary(g, dim)
    owners = g.shuffled(list(range(n_outcomes)) + [g.integer(0, n_outcomes - 1) for _ in range(dim - n_outcomes)])
    effects = {}
    for i in range(n_outcomes):
        cols = u[:, [k for k, owner in enumerate(owners) if owner == i]]
        effects[f"x{i}"] = cols @ dagger(cols)
    return Observable(tuple(f"x{i}" for i in range(n_outcomes)), effects)


def random_atomic_observable(g: Generator, dim: int) -> Observable:
    """Sharp observable with one rank-one projection per basis vector."""
    return random_projective_observable(g, dim, dim)


def random_codiagonal_effects(g: Generator, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """A commuting pair of effects: both diagonal in one random basis."""
    u = random_unitary(g, dim)
    da = g.uniform(0.0, 1.0, dim)
    db = g.uniform(0.0, 1.0, dim)
    return (u * da) @ dagger(u), (u * db) @ dagger(u)


def random_codiagonal_observable(
    g: Generator, u: np.ndarray, n_outcomes: int
) -> Observable:
    """Observable whose effects are all diagonal in the basis u.

    Per basis vector the outcome weights are a random point of the simplex,
    so the effects sum to the identity exactly.
    """
    dim = u.shape[0]
    weights = -np.log(g.uniform(1e-12, 1.0, n_outcomes, dim))
    weights = weights / weights.sum(axis=0)
    effects = {
        f"x{i}": (u * weights[i]) @ dagger(u) for i in range(n_outcomes)
    }
    return Observable(tuple(f"x{i}" for i in range(n_outcomes)), effects)


def _stacked_isometry(g: Generator, dim: int, n_kraus: int) -> np.ndarray:
    """(n_kraus, dim, dim) blocks C_i with sum C_i* C_i = I (QR of a stacked Gaussian)."""
    q, _ = np.linalg.qr(g.complex_normal(n_kraus * dim, dim))
    return q.reshape(n_kraus, dim, dim)


def random_channel(g: Generator, dim: int, n_kraus: int) -> Operation:
    return Operation._adopt(_stacked_isometry(g, dim, n_kraus))


def random_operation_measuring(g: Generator, a: np.ndarray, n_kraus: int) -> Operation:
    """Random operation with dual(I) = a: Kraus C_i a**(1/2) over a random channel."""
    root = psd_sqrt(a)
    return Operation._adopt(_stacked_isometry(g, a.shape[0], n_kraus) @ root)


def random_instrument_measuring(g: Generator, a: Observable, n_kraus: int) -> Instrument:
    """Random instrument measuring the observable a, n_kraus operators per outcome."""
    ops = {
        x: random_operation_measuring(g.derive(i), a.effects[x], n_kraus)
        for i, x in enumerate(a.outcomes)
    }
    return Instrument(a.outcomes, ops)
