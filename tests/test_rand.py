import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qcond import (
    choi_distance,
    frobenius,
    is_atomic,
    is_channel,
    is_sharp,
    measured_effect,
    measured_observable,
    validate_effect,
    validate_instrument,
    validate_observable,
    validate_state,
)
from qcond.rand import (
    Generator,
    _derive_each,
    _unit_spectrum,
    random_atomic_effect,
    random_channel,
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

SRC = Path(__file__).resolve().parents[1] / "src"


def test_same_seed_same_stream():
    a = random_state(Generator(7), 3)
    b = random_state(Generator(7), 3)
    assert np.array_equal(a, b)  # bit-for-bit
    h1 = random_hermitian(Generator(9).derive(1, 2), 4)
    h2 = random_hermitian(Generator(9).derive(1, 2), 4)
    assert np.array_equal(h1, h2)


def test_derive_gives_independent_streams():
    g = Generator(7)
    a = random_state(g.derive(0), 3)
    b = random_state(g.derive(1), 3)
    assert frobenius(a - b) > 1e-3
    # deriving does not perturb the parent
    c = random_state(Generator(7).derive(0), 3)
    assert np.array_equal(a, c)


def test_derived_streams_ignore_sibling_order_and_draws():
    """A suite's per-trial objects are the same however its trials are scheduled."""
    keys = [(dim, t) for dim in (2, 3) for t in range(6)]

    def trial_objects(g, dim):
        obs = random_observable(g.derive(0), dim, 3)
        return [random_state(g, dim), *(obs.effects[x] for x in obs.outcomes), g.normal(4)]

    root = Generator(7)
    in_order = {key: trial_objects(root.derive(*key), key[0]) for key in keys}

    root = Generator(7)
    shuffled = list(keys)
    random.Random(3).shuffle(shuffled)
    rescheduled = {}
    for key in shuffled:
        root.normal(5)  # draws from the parent between derivations
        g = root.derive(*key)
        root.derive(99, key[1]).normal(3)  # a sibling derived and drawn from
        rescheduled[key] = trial_objects(g, key[0])

    for key in keys:
        assert len(in_order[key]) == len(rescheduled[key])
        for want, got in zip(in_order[key], rescheduled[key]):
            assert np.array_equal(want, got)  # bit-for-bit


def test_generated_objects_are_valid():
    g = Generator(8)
    for t in range(10):
        dim = 2 + t % 4
        assert validate_state(random_state(g.derive(t, 0), dim)) == []
        assert validate_effect(random_effect(g.derive(t, 1), dim)) == []
        obs = random_observable(g.derive(t, 2), dim, 3)
        assert validate_observable(obs) == []
        assert frobenius(obs.total() - np.eye(dim)) <= 1e-10


def test_random_unitary_and_projection():
    g = Generator(9)
    u = random_unitary(g, 4)
    assert frobenius(u @ u.conj().T - np.eye(4)) <= 1e-10
    p = random_projection(g.derive(1), 4, 2)
    assert is_sharp(p)
    assert np.trace(p).real == pytest.approx(2.0)
    atom = random_atomic_effect(g.derive(2), 3)
    assert is_atomic(atom)


def test_random_projective_observable():
    g = Generator(10)
    a = random_projective_observable(g, 4, 3)
    assert validate_observable(a) == []
    for x in a.outcomes:
        assert is_sharp(a.effects[x])
    # orthogonality of distinct outcomes
    e = list(a.effects.values())
    assert frobenius(e[0] @ e[1]) <= 1e-10


def test_codiagonal_generators_commute():
    g = Generator(11)
    a, b = random_codiagonal_effects(g, 3)
    assert frobenius(a @ b - b @ a) <= 1e-12
    u = random_unitary(g.derive(1), 3)
    obs = random_codiagonal_observable(g.derive(2), u, 3)
    assert validate_observable(obs) == []
    mats = list(obs.effects.values())
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            assert frobenius(mats[i] @ mats[j] - mats[j] @ mats[i]) <= 1e-12


def test_random_channel_is_channel():
    g = Generator(12)
    for k in (1, 2, 4):
        assert is_channel(random_channel(g.derive(k), 3, k))


def test_operation_measuring_hits_target():
    g = Generator(13)
    for t in range(10):
        a = random_effect(g.derive(t, 0), 3)
        op = random_operation_measuring(g.derive(t, 1), a, 3)
        assert frobenius(measured_effect(op) - a) <= 1e-10


def test_different_seeds_give_different_maps():
    g = Generator(15)
    a = random_effect(g, 2)
    op1 = random_operation_measuring(Generator(1), a, 2)
    op2 = random_operation_measuring(Generator(2), a, 2)
    assert choi_distance(op1, op2) > 1e-6


def test_instrument_measuring():
    g = Generator(16)
    a = random_observable(g.derive(0), 3, 3)
    ins = random_instrument_measuring(g.derive(1), a, 2)
    assert validate_instrument(ins) == []
    m = measured_observable(ins)
    for x in a.outcomes:
        assert frobenius(m.effects[x] - a.effects[x]) <= 1e-10


def test_random_real_values():
    g = Generator(17)
    obs = random_observable(g.derive(0), 2, 3)
    b = random_real_values(g.derive(1), obs)
    assert set(b.values) == set(obs.outcomes)
    assert all(np.isfinite(v) for v in b.values.values())


def test_uniform_and_integer_ranges():
    g = Generator(18)
    xs = g.uniform(0.25, 0.75, 100)
    assert np.all((xs >= 0.25) & (xs < 0.75))
    ks = [g.integer(2, 5) for _ in range(50)]
    assert set(ks) <= {2, 3, 4, 5}
    assert min(ks) >= 2 and max(ks) <= 5


# --- the stream contract, pinned against numpy itself ----------------------
#
# A generator at key (seed, *keys) draws exactly what
# np.random.PCG64(np.random.SeedSequence(key)) draws, however the key was
# reached: keys of one or two uint32 words each, roots shorter than
# SeedSequence's four-word pool, and chains that continue a parent's pool.

_WORDS = (0, 1, 7, 2**32 - 1, 2**32, 2**40 + 3, 2**64 - 1)


def _numpy_stream(key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def _numpy_state(key, dim):
    parts = _numpy_stream(key).standard_normal((2, dim, dim))
    m = (parts[0] + 1j * parts[1]) / np.sqrt(2.0)
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("root", (0, 7, 2**32 - 1, 2**32, 2**64 - 1))
def test_derived_streams_are_numpy_seed_sequences(root):
    rng = random.Random(root)
    for chain in range(12):
        g, key = Generator(root), (root,)
        assert np.array_equal(g.normal(5), _numpy_stream(key).standard_normal(5))
        # one to three keys per step, up to seven steps: from one word to 20+
        for _step in range(1 + chain % 7):
            keys = tuple(rng.choice(_WORDS) for _ in range(1 + rng.randrange(3)))
            g, key = g.derive(*keys), key + keys
            assert np.array_equal(g.normal(5), _numpy_stream(key).standard_normal(5)), key


def test_grandchildren_of_continued_children_are_numpy_seed_sequences():
    g = Generator(1009).derive(3).derive(2, 5)  # four words: continued from here on
    for i in range(3):
        child = g.derive(i)
        for j in (0, 2**32 + i, 2**64 - 1):
            grandchild = child.derive(j)
            key = (1009, 3, 2, 5, i, j)
            assert np.array_equal(grandchild.normal(4), _numpy_stream(key).standard_normal(4))
            great = grandchild.derive(j, i)
            assert np.array_equal(great.normal(4), _numpy_stream(key + (j, i)).standard_normal(4))


@pytest.mark.parametrize(
    "parent", ((5,), (5, 1), (5, 2, 3), (5, 2, 3, 4), (2**40, 1, 2**64 - 1)), ids=str
)
@pytest.mark.parametrize("first", (0, 2**32 - 3, 2**64 - 2))
def test_random_states_are_numpy_seed_sequences(parent, first):
    # 2**32 - 3 crosses from one-word to two-word keys within the stack;
    # 2**64 - 2 wraps, as derive's 64-bit keys do.
    g = Generator(parent[0]).derive(*parent[1:])
    dim, count = 3, 6
    stack = random_states(g, dim, count, first)
    for s in range(count):
        key = parent + ((first + s) % 2**64,)
        assert np.array_equal(stack[s], _numpy_state(key, dim)), key


def test_complex_normal_is_two_standard_normal_calls_bit_for_bit():
    # One draw of shape (2, *shape) fills the real parts, then the imaginary
    # parts, and leaves the stream where two separate draws would.
    for seed in range(200):
        for shape in ((), (1,), (3,), (2, 2), (3, 3), (4, 2)):
            g, rng = Generator(seed), _numpy_stream((seed,))
            re = rng.standard_normal(shape)
            im = rng.standard_normal(shape)
            assert np.array_equal(g.complex_normal(*shape), (re + 1j * im) / np.sqrt(2.0))
            assert np.array_equal(g.normal(3), rng.standard_normal(3))


@pytest.mark.parametrize("seed", (5, 2**32 - 1, 2**32 + 5, 2**64 - 1))
@pytest.mark.parametrize("parent", ((), (3,), (3, 2**40)), ids=str)
@pytest.mark.parametrize("first", (0, 2**32 - 2, 2**64 - 3))
def test_stacked_children_are_numpy_seed_sequences(seed, parent, first):
    # A parent key of one to five uint32 words hands out children (*keys,
    # first + s) as one stack, as the suite runner does with (dim, t); each
    # child's derive(0) and derive(1, 2**33) are derived as a stack too, and
    # the grandchildren keep continuing their parents' pools.
    g = Generator(seed).derive(*parent)
    base = (seed, *parent)
    children = g._derive_stack((4,), first, 5)
    for s, child in enumerate(children):
        key = base + (4, (first + s) % 2**64)
        assert child._key == key
        assert np.array_equal(child.normal(3), _numpy_stream(key).standard_normal(3)), key
    for keys in ((0,), (1, 2**33)):
        for s, grandchild in enumerate(_derive_each(children, *keys)):
            key = base + (4, (first + s) % 2**64, *keys)
            assert np.array_equal(grandchild.normal(3), _numpy_stream(key).standard_normal(3)), key
            great = grandchild.derive(2**64 - 1)
            assert np.array_equal(great.normal(3), _numpy_stream(key + (2**64 - 1,)).standard_normal(3))


# (parent key, keys, first, count, derive calls): the stacks the suites make are
# mixed in lanes without a derive call; any other stack derives each child.
_STACKS = (
    ((1009, 2), (8,), 0, 4, 0),  # a suite root's chunk of trials
    ((1009, 2), (8,), 0, 64, 0),
    ((2**40, 2), (8,), 7, 5, 0),  # a root whose fourth word is a key, not the lane
    ((1009, 2, 8, 0), (), 0, 6, 0),  # a trial generator's states
    ((1009, 2, 8, 0), (), 100, 50, 0),
    ((1009, 2), (8,), 0, 3, 3),  # too few children
    ((1009, 2), (8,), 2**32 - 2, 5, 5),  # last keys crossing 2**32
    ((1009,), (8,), 0, 6, 6),  # child keys of three words
)


def test_a_stack_of_children_equals_deriving_them_one_by_one(monkeypatch):
    derive, calls = Generator.derive, []
    monkeypatch.setattr(Generator, "derive", lambda g, *keys: calls.append(keys) or derive(g, *keys))
    for parent, keys, first, count, derives in _STACKS:
        g = derive(Generator(parent[0]), *parent[1:])
        calls.clear()
        stack = g._derive_stack(keys, first, count)
        assert len(calls) == derives, (parent, keys, first, count)
        one_by_one = [derive(g, *keys, first + t) for t in range(count)]
        for a, b in zip(stack, one_by_one, strict=True):
            assert (a._key, a._pool, a._hash) == (b._key, b._pool, b._hash)
            assert np.array_equal(a.normal(6), b.normal(6))
        if not keys:  # random_states seeds the same stack
            calls.clear()
            states = random_states(g, 3, count, first)
            assert len(calls) == derives, (parent, first, count)
            for s, state in enumerate(states):
                assert np.array_equal(state, random_state(derive(g, first + s), 3))
    assert g._derive_stack((8,), 0, 0) == []


def test_import_leaves_numpy_random_unloaded():
    # numpy.random costs import time and memory; qcond loads it at the first draw.
    code = "import sys, qcond, qcond.cli; print('numpy.random' in sys.modules)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_a_flat_spectrum_maps_to_half_the_identity_alone_and_in_a_stack():
    flat = 3.0 * np.eye(3, dtype=np.complex128)
    assert np.array_equal(_unit_spectrum(flat), 0.5 * np.eye(3))
    g = Generator(5)
    stack = np.stack([random_hermitian(g, 3), flat, random_hermitian(g, 3), -flat])
    out = _unit_spectrum(stack)
    for h, one in zip(stack, out):
        assert np.array_equal(one, _unit_spectrum(h))
    assert np.array_equal(out[1], 0.5 * np.eye(3)) and np.array_equal(out[3], 0.5 * np.eye(3))
