"""Each literal kind's reader gives back what its writer wrote, bit for bit.

``serialize`` holds one codec per kind: ``matrix_from_json`` beside
``complex_to_json`` (a matrix, state or effect), and the operation,
observable and instrument readers beside ``operation_to_json``,
``observable_to_json`` and ``instrument_to_json``.  Every value goes through
JSON text, as a scene file does.  "Bit for bit" is the bytes of each array
(so a -0.0 stays negative), the labels, each outcome's Kraus count and
order, and the bytes of a real-valued observable's values.

The writers emit every entry as [re, im] and every operation as kraus, so a
scene's own literal text is not what they give back: for each codec literal
of the committed scenes, read(write(read(L))) is compared with read(L).
"""

import json
import pathlib

import numpy as np
import pytest

from qcond import (
    Instrument, Observable, Operation, RealValuedObservable, Tolerance, compose_instruments,
    holevo_instrument, luders_instrument,
)
from qcond.errors import SceneValidationError
from qcond.rand import (
    Generator, random_instrument_measuring, random_observable, random_operation_measuring,
    random_real_values, random_state,
)
from qcond.scene import load_scene, run_scene
from qcond.serialize import (
    _instrument_from_json, _observable_from_json, _operation_from_json, complex_to_json,
    instrument_to_json, matrix_from_json, observable_to_json, operation_to_json,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENES = [*sorted((ROOT / "docs" / "scenes").glob("*.json")), ROOT / "tests" / "scenes" / "every-op.json"]
DIMS = (2, 3, 8)
TOL = Tolerance()


def _ignore(where, *blocks):
    """A judge that lets every input through: the round trip is about the form, not validity."""


def _read_operation(literal):
    return _operation_from_json(literal, "op", TOL, _ignore)


def _read_instrument(literal):
    return _instrument_from_json(literal, "ins", lambda op, x: _read_operation(op))


# kind -> (reader, writer)
CODECS = {
    "matrix": (matrix_from_json, complex_to_json),
    "operation": (_read_operation, operation_to_json),
    "observable": (lambda literal: _observable_from_json(literal, "obs"), observable_to_json),
    "instrument": (_read_instrument, instrument_to_json),
}


def _bits(value):
    """What a reader must give back: array bytes (sign bits included), labels, Kraus counts, values."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, Operation):
        return "operation", _bits(value.kraus)
    if isinstance(value, Instrument):
        counts = [len(value.ops[x].kraus) for x in value.outcomes]
        return "instrument", value.outcomes, counts, _bits(value.kraus)
    values = None
    if isinstance(value, RealValuedObservable):
        values = np.array([value.values[x] for x in value.outcomes]).tobytes()
    return type(value).__name__, value.outcomes, _bits(value.stack), values


def _round_trip(kind, value):
    read, write = CODECS[kind]
    return read(json.loads(json.dumps(write(value))))


def _signed_zeros(dim):
    """A matrix whose entries include -0.0 in either part."""
    m = np.full((dim, dim), complex(-0.0, 0.0))
    m[0, -1] = complex(0.0, -0.0)
    m[-1, 0] = complex(-0.5, 0.25)
    return m


def _ragged(g, a):
    """An instrument measuring a whose outcomes hold 1, 2, ... Kraus operators."""
    ops = {x: random_operation_measuring(g.derive(i), a.effects[x], 1 + i) for i, x in enumerate(a.outcomes)}
    return Instrument(a.outcomes, ops)


def _values(dim):
    g = Generator(900 + dim)
    a = random_observable(g.derive(0), dim, 3)
    alphas = {x: random_state(g.derive(1, i), dim) for i, x in enumerate(a.outcomes)}
    signed = Observable(["z", "i"], {"z": _signed_zeros(dim), "i": np.eye(dim) - _signed_zeros(dim)})
    measuring = random_operation_measuring(g.derive(3), a.effects[a.outcomes[0]], 2)
    return {
        "matrix": [random_state(g.derive(2), dim), _signed_zeros(dim)],
        "operation": [measuring, Operation([_signed_zeros(dim)])],
        "observable": [
            a, random_real_values(g.derive(4), a), signed,
            RealValuedObservable(signed, {"z": -0.0, "i": 1.5}),
        ],
        "instrument": [
            luders_instrument(a), holevo_instrument(a, alphas), random_instrument_measuring(g.derive(5), a, 2),
            _ragged(g.derive(6), a),
        ],
    }


@pytest.mark.parametrize("kind", sorted(CODECS))
@pytest.mark.parametrize("dim", DIMS)
def test_a_reader_gives_back_what_its_writer_wrote(kind, dim):
    for value in _values(dim)[kind]:
        assert _bits(_round_trip(kind, value)) == _bits(value)


def test_the_ragged_instruments_are_ragged():
    counts = [len(op.kraus) for op in _values(3)["instrument"][-1].ops.values()]
    assert counts == [1, 2, 3]


def _codec_literals(path):
    """(kind, body) of each object of the scene whose literal one codec reads."""
    for name, literal in json.loads(path.read_text())["objects"].items():
        [(key, body)] = literal.items()
        if key in ("state", "effect", "matrix"):
            yield name, "matrix", body
        elif key in ("kraus", "luders", "holevo"):
            yield name, "operation", literal
        elif key == "observable" or key == "instrument" and set(body) == {"outcomes", "ops"}:
            yield name, key, body


@pytest.mark.parametrize("path", SCENES, ids=lambda p: p.stem)
def test_a_committed_scene_literal_survives_a_write_and_a_read(path):
    literals = list(_codec_literals(path))
    assert literals
    for name, kind, body in literals:
        value = CODECS[kind][0](body)
        assert _bits(_round_trip(kind, value)) == _bits(value), name


def test_the_committed_scenes_hold_every_codec_form():
    keys = set()
    for path in SCENES:
        for _, kind, body in _codec_literals(path):
            keys.add(next(iter(body)) if kind == "operation" else kind)
    assert keys == {"matrix", "kraus", "luders", "holevo", "observable", "instrument"}


def test_an_expectation_reads_back_a_composite_instrument():
    # The composite's labels hold the reserved separator: an expectation may
    # carry it, an object may not.
    g = Generator(950)
    a = random_observable(g.derive(0), 2, 2)
    composite = compose_instruments(luders_instrument(a), _ragged(g.derive(1), a))
    objects = {"a": {"observable": observable_to_json(a)}, "ins": {"instrument": {"luders_of": "a"}}}
    second = {"instrument": instrument_to_json(_ragged(g.derive(1), a))}
    literal = json.loads(json.dumps(instrument_to_json(composite)))
    check = {"op": "compose_instruments", "args": ["ins", "second"], "expect": literal}
    scene = load_scene({"objects": {**objects, "second": second}, "checks": [check]})
    assert _bits(scene.checks[0].want) == _bits(composite)
    assert run_scene(scene).checks[0].residual == 0.0
    with pytest.raises(SceneValidationError, match="contains reserved character ','"):
        load_scene({"objects": {**objects, "bad": {"instrument": literal}}, "checks": []})
