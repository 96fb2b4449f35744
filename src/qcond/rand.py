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
its uint32 words as SeedSequence does.  This module mixes the SeedSequence
pool itself.  A child continues its parent's pool with its own key words,
which SeedSequence allows once the parent's key holds four words; a
shallower parent mixes the child's whole key.  A stack of children (a
suite's trials, the states of :func:`random_states`, the outcomes of
:func:`random_instrument_measuring`) is mixed at once, one uint32 lane per
child, and then gets one PCG64 each, if it has at least
``_LANES_MIN`` children, child keys of four or more words and last keys of
one word, as every such stack the suites make has; others derive one by one.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import InvalidValueError, RetryExhaustedError
from .instruments import Instrument
from .linalg import _hermitian_part, dagger, psd_sqrt
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
# pool of four uint32 words), so that this module can mix the pool itself.
_M32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_L = 0xCA01F9DD
_MIX_R = 0x4973F715


def _hash_run(h: int, n: int, mult: int) -> list[int]:
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


def _key_words(key: tuple[int, ...]) -> list[int]:
    """The uint32 words SeedSequence reads from a key of non-negative ints, low word first."""
    words = []
    for k in key:
        words.append(k & _M32)
        while k := k >> 32:
            words.append(k & _M32)
    return words


def _mix_in(pool: list[int], h: int, key: int) -> int:
    """Mix key's uint32 words into pool in place, as SeedSequence does past its fourth word.

    Returns the hash constant after them.
    """
    while True:
        word = key & _M32
        for i in range(4):
            v = (word ^ h) * (h := h * _MULT_A & _M32) & _M32
            v ^= v >> 16
            x = (_MIX_L * pool[i] - _MIX_R * v) & _M32
            pool[i] = x ^ (x >> 16)
        key >>= 32
        if not key:
            return h


def _seed(key: tuple[int, ...]) -> tuple[tuple[int, ...] | None, int, np.random.Generator]:
    """(pool, hash constant, stream) of a whole key, its pool mixed by numpy's SeedSequence.

    The pool is None when the key holds fewer than four words (see ``_fill_lanes``).
    """
    pool = np.random.SeedSequence(key).pool.tolist()
    rng = _pcg64(_state_words(pool))
    n_words = len(_key_words(key))
    if n_words < 4:
        return None, 0, rng
    # n >= 4 words take 4n hashes: 4 fill the pool, 12 cross-mix it and each
    # word past the fourth is hashed once per pool word.
    return tuple(pool), _INIT_A * pow(_MULT_A, 4 * n_words, 1 << 32) & _M32, rng


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


_LANE_MIX_L = np.uint32(_MIX_L)
_LANE_MIX_R = np.uint32(_MIX_R)
_LANE_16 = np.uint32(16)
_LANE_STATE_XOR = np.array(_STATE_RUN[:8], dtype=np.uint32)
_LANE_STATE_MUL = np.array(_STATE_RUN[1:], dtype=np.uint32)
_FILL_RUN = np.array(_hash_run(_INIT_A, 16, _MULT_A), dtype=np.uint32)


def _mix_lanes(pools: np.ndarray, h: int, words: list) -> tuple[np.ndarray, int]:
    """_mix_in of a stack, all four pool words at once: (n, 4) uint32 pools out.

    pools is (4,) or (n, 4); each word an int or (n,) uint32 lanes.
    """
    for word in words:
        run = np.array(_hash_run(h, 4, _MULT_A), dtype=np.uint32)
        h = int(run[4])
        v = (np.asarray(word, dtype=np.uint32)[..., None] ^ run[:4]) * run[1:]
        v ^= v >> _LANE_16
        pools = _LANE_MIX_L * pools - _LANE_MIX_R * v
        pools ^= pools >> _LANE_16
    return pools, h


def _fill_lanes(words: list, n: int) -> tuple[np.ndarray, int]:
    """((n, 4) uint32 pools, hash constant) after SeedSequence mixes a key of four or more words.

    Each word is an int or (n,) uint32 lanes.  4 hashes fill the pool, 12 hash each pool word
    in turn into the three others, then words past the fourth are mixed in.  A shorter key is
    padded with zero words that a longer key would replace, so its pool cannot be continued.
    """
    pools = np.empty((n, 4), dtype=np.uint32)
    for i in range(4):
        pools[:, i] = words[i]
    pools = (pools ^ _FILL_RUN[:4]) * _FILL_RUN[1:5]
    pools ^= pools >> _LANE_16
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        run = _FILL_RUN[4 + 3 * src : 8 + 3 * src]
        v = (pools[:, src, None] ^ run[:3]) * run[1:]
        v ^= v >> _LANE_16
        mixed = _LANE_MIX_L * pools[:, dst] - _LANE_MIX_R * v
        pools[:, dst] = mixed ^ (mixed >> _LANE_16)
    return _mix_lanes(pools, int(_FILL_RUN[16]), words[4:])


def _lane_state_words(pools: np.ndarray) -> np.ndarray:
    """_state_words of each row of (n, 4) uint32 pools: an (n, 4) uint64 array."""
    v = (np.concatenate((pools, pools), axis=1) ^ _LANE_STATE_XOR) * _LANE_STATE_MUL
    v ^= v >> _LANE_16
    # SeedSequence reads its uint32 words as little-endian uint64 pairs.
    return v.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


#: Stacks of fewer children derive one by one: mixing in lanes costs a fixed
#: 15-60 µs of numpy calls (more for a parent too short to continue), about
#: what three or four derives cost.  So verify's default 3-trial stacks
#: derive one by one, and its 25-trial stacks use lanes.
_LANES_MIN = 4


class Generator:
    """Deterministic random source keyed by a 64-bit seed (plus derive keys)."""

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._key: tuple[int, ...] = (self.seed,)
        self._pool, self._hash, self._rng = _seed(self._key)

    def derive(self, *keys: int) -> "Generator":
        """Child generator at (seed, *keys); independent of this one's draw count."""
        new = tuple(int(k) & _MASK64 for k in keys)
        child = object.__new__(Generator)
        child.seed, child._key = self.seed, self._key + new
        if self._pool is None:
            child._pool, child._hash, child._rng = _seed(child._key)
            return child
        pool, h = list(self._pool), self._hash
        for k in new:
            h = _mix_in(pool, h, k)
        child._pool, child._hash = tuple(pool), h
        child._rng = _pcg64(_state_words(pool))
        return child

    def _lanes(self, keys: tuple, first: int, count: int):
        """(key prefix, (n, 4) uint32 pools, hash constant) of derive(*keys, first + s), s < count.

        None, for the caller to derive one by one, when there are fewer than
        _LANES_MIN children, a last key outside one uint32 word, or child
        keys of fewer than four words.
        """
        if count < _LANES_MIN or not 0 <= first <= (1 << 32) - count:
            return None
        new = tuple(int(k) & _MASK64 for k in keys)
        words = _key_words(new) + [np.arange(first, first + count, dtype=np.uint32)]
        if self._pool is not None:
            pools, h = _mix_lanes(np.array(self._pool, dtype=np.uint32), self._hash, words)
        elif len(words := _key_words(self._key) + words) >= 4:
            pools, h = _fill_lanes(words, count)
        else:
            return None
        return self._key + new, pools, h

    def _derive_stack(self, keys: tuple, first: int, count: int) -> list["Generator"]:
        """[derive(*keys, first + s) for s < count], mixed as one stack if ``_lanes`` can.

        The suite runner's trial chunks: four or more trials use lanes (its
        trial keys hold four words), verify's default three derive one by one.
        """
        lanes = self._lanes(keys, first, count)
        if lanes is None:
            return [self.derive(*keys, first + s) for s in range(count)]
        prefix, pools, h = lanes
        return _generators(self.seed, [prefix + (first + s,) for s in range(count)], pools, h)

    def _child_streams(self, first: int, count: int) -> list[np.random.Generator]:
        """The streams of derive(first), ..., derive(first + count - 1), seeded as one stack.

        random_states' chunks of four or more states use lanes when the parent's
        key holds three words or more (a suite's trial generators hold four).
        """
        lanes = self._lanes((), first, count)
        if lanes is None:
            return [self.derive(first + s)._rng for s in range(count)]
        return [_pcg64(words) for words in _lane_state_words(lanes[1])]

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


def _generators(seed: int, keys: list, pools: np.ndarray, h: int) -> list[Generator]:
    """The generators at keys, from their (n, 4) pools and hash constant."""
    out = []
    for key, row, words in zip(keys, pools.tolist(), _lane_state_words(pools)):
        g = object.__new__(Generator)
        g.seed, g._key, g._rng = seed, key, _pcg64(words)
        g._pool, g._hash = tuple(row), h
        out.append(g)
    return out


def _derive_each(gens: list[Generator], *keys: int) -> list[Generator]:
    """[g.derive(*keys) for g in gens], their pools continued as one stack in uint32 lanes.

    Fewer than _LANES_MIN generators, or generators that cannot share one pass (a pool
    not continuable, or keys of different lengths), derive one by one.
    """
    h = gens[0]._hash
    if len(gens) < _LANES_MIN or gens[0]._pool is None or any(g._hash != h for g in gens):
        return [g.derive(*keys) for g in gens]
    new = tuple(int(k) & _MASK64 for k in keys)
    pools, h = _mix_lanes(np.array([g._pool for g in gens], dtype=np.uint32), h, _key_words(new))
    return _generators(gens[0].seed, [g._key + new for g in gens], pools, h)


def _at_least(name: str, value: int, minimum: int) -> None:
    """Raise InvalidValueError naming the size argument ``name`` when value < minimum."""
    if value < minimum:
        raise InvalidValueError(f"{name} must be at least {minimum}, got {value}")


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
    _at_least("count", count, 0)
    return _normalized_gram(_complex_normals(g._child_streams(first, count), 1, dim, dim)[:, 0])


# Several random_<kind> functions below apply a private transform to their
# generator's draws.  _unit_spectrum, _unitary, _normalized_gram, _isometry
# and _measuring_kraus, like linalg's _hermitian_part, also map a stack of
# draws (leading axis n) to a stack of objects, matrix by matrix bit for bit,
# so a stacked suite draws per trial (_draws) and transforms once, and so
# does random_instrument_measuring per outcome.


def _complex_normals(streams: list, count: int, *shape: int) -> np.ndarray:
    """(n, count, *shape): count complex_normal(*shape) draws from each of n numpy streams.

    Each stream fills its count draws in one standard_normal call, in
    complex_normal's order (real then imaginary part, draw after draw).
    """
    parts = np.empty((len(streams), count, 2, *shape))
    for s, rng in enumerate(streams):
        rng.standard_normal(out=parts[s])
    return (parts[:, :, 0] + 1j * parts[:, :, 1]) / np.sqrt(2.0)


def _draws(gens: list[Generator], count: int, *shape: int) -> np.ndarray:
    """(n, count, *shape): count complex_normal(*shape) draws from each of n generators."""
    return _complex_normals([g._rng for g in gens], count, *shape)


def random_hermitian(g: Generator, dim: int) -> np.ndarray:
    return _hermitian_part(g.complex_normal(dim, dim))


def _unit_spectrum(h: np.ndarray) -> np.ndarray:
    """Hermitian h rescaled so its spectrum fills [0, 1]; 0.5 I if its spectrum is flat."""
    w = np.linalg.eigvalsh(h)
    low = w[..., :1, None]  # one (1, 1) block per matrix
    spread = w[..., -1:, None] - low
    eye = np.eye(h.shape[-1])
    flat = spread < 1e-12
    if np.count_nonzero(flat):
        return np.where(flat, 0.5 * eye, (h - low * eye) / np.where(flat, 1.0, spread))
    return (h - low * eye) / spread


def random_effect(g: Generator, dim: int) -> np.ndarray:
    """Random Hermitian rescaled so its spectrum fills [0, 1]."""
    return _unit_spectrum(random_hermitian(g, dim))


def _unitary(m: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(m)
    # Fix the phase convention so the distribution does not depend on QR's sign choices.
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases))[..., None, :]


def random_unitary(g: Generator, dim: int) -> np.ndarray:
    """Haar-ish unitary from the QR of a complex Gaussian matrix."""
    return _unitary(g.complex_normal(dim, dim))


def _atomic(v: np.ndarray) -> np.ndarray:
    """The projection onto one complex vector v (not a stack)."""
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_atomic_effect(g: Generator, dim: int) -> np.ndarray:
    return _atomic(g.complex_normal(dim))


def _projection(u: np.ndarray, rank: int) -> np.ndarray:
    """The projection onto the first rank columns of the unitary u (not a stack)."""
    cols = u[:, :rank]
    return cols @ dagger(cols)


def random_projection(g: Generator, dim: int, rank: int) -> np.ndarray:
    """Projection onto a random rank-dimensional subspace."""
    return _projection(random_unitary(g, dim), rank)


def random_observable(g: Generator, dim: int, n_outcomes: int) -> Observable:
    """Random POVM: A_i = S**(-1/2) M_i S**(-1/2) for random PSD M_i, S = sum M_i.

    Retries when S is too ill-conditioned to invert stably; raises
    RetryExhaustedError after the retry budget.
    """
    _at_least("n_outcomes", n_outcomes, 1)
    labels = tuple(f"x{i}" for i in range(n_outcomes))
    for _ in range(_RETRIES):
        # One draw of n_outcomes complex_normal(dim, dim) matrices, as one stack.
        m = _draws([g], n_outcomes, dim, dim)[0]
        mats = m @ dagger(m)
        w, v = np.linalg.eigh(mats.sum(axis=0))
        if w[0] <= 1e-8 * w[-1]:
            continue
        inv_sqrt = (v / np.sqrt(w)) @ dagger(v)
        return Observable._adopt(labels, inv_sqrt @ mats @ inv_sqrt)
    raise RetryExhaustedError(f"no well-conditioned POVM in {_RETRIES} tries")


def random_real_values(g: Generator, a: Observable) -> RealValuedObservable:
    """Attach independent Uniform(-1, 1) values to each outcome."""
    return RealValuedObservable(a, {x: g.uniform(-1.0, 1.0) for x in a.outcomes})


def random_projective_observable(g: Generator, dim: int, n_outcomes: int) -> Observable:
    """Sharp observable: orthogonal projections summing to I (n_outcomes <= dim)."""
    _at_least("n_outcomes", n_outcomes, 1)
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


def _isometry(m: np.ndarray, n_kraus: int) -> np.ndarray:
    """(..., n_kraus, d, d) blocks C_i with sum C_i* C_i = I, from the QR of Gaussians m.

    m is (..., n_kraus * d, d).
    """
    q, _ = np.linalg.qr(m)
    return q.reshape(m.shape[:-2] + (n_kraus, m.shape[-1], m.shape[-1]))


def random_channel(g: Generator, dim: int, n_kraus: int) -> Operation:
    _at_least("n_kraus", n_kraus, 1)
    return Operation._adopt(_isometry(g.complex_normal(n_kraus * dim, dim), n_kraus))


def _measuring_kraus(m: np.ndarray, a: np.ndarray, n_kraus: int) -> np.ndarray:
    """Kraus C_i a**(1/2) of an operation measuring a, C the isometry of the Gaussians m."""
    return _isometry(m, n_kraus) @ psd_sqrt(a)[..., None, :, :]


def random_operation_measuring(g: Generator, a: np.ndarray, n_kraus: int) -> Operation:
    """Random operation with dual(I) = a: Kraus C_i a**(1/2) over a random channel."""
    _at_least("n_kraus", n_kraus, 1)
    dim = a.shape[0]
    return Operation._adopt(_measuring_kraus(g.complex_normal(n_kraus * dim, dim), a, n_kraus))


def random_instrument_measuring(g: Generator, a: Observable, n_kraus: int) -> Instrument:
    """Random instrument measuring the observable a, n_kraus operators per outcome.

    Outcome i's operation is random_operation_measuring(g.derive(i), A_i,
    n_kraus), bit for bit: the children are derived as one stack, and their
    draws, QRs and effect roots each run once over the outcomes, into the
    instrument's one Kraus stack.
    """
    _at_least("n_kraus", n_kraus, 1)
    dim, n = a.dim, len(a.outcomes)
    m = _draws(g._derive_stack((), 0, n), 1, n_kraus * dim, dim)[:, 0]
    kraus = _measuring_kraus(m, a.stack, n_kraus)
    return Instrument._adopt(a.outcomes, kraus.reshape(-1, dim, dim), [n_kraus] * n)
