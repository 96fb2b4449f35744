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
"""

from __future__ import annotations

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


class Generator:
    """Deterministic random source keyed by a 64-bit seed (plus derive keys)."""

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._key: tuple[int, ...] = (self.seed,)
        self._rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(self._key)))

    def derive(self, *keys: int) -> "Generator":
        """Child generator at (seed, *keys); independent of this one's draw count."""
        child = object.__new__(Generator)
        child.seed = self.seed
        child._key = self._key + tuple(int(k) & _MASK64 for k in keys)
        child._rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(child._key)))
        return child

    def normal(self, *shape: int) -> np.ndarray:
        return self._rng.standard_normal(shape)

    def complex_normal(self, *shape: int) -> np.ndarray:
        re = self._rng.standard_normal(shape)
        im = self._rng.standard_normal(shape)
        return (re + 1j * im) / np.sqrt(2.0)

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
    for s in range(count):
        g.derive(first + s)._rng.standard_normal(out=parts[s])
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
