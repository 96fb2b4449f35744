"""The matrix literal parser against a per-entry reference, and the report forms.

`_reference` below parses a literal one entry at a time: each entry is
complex(x, 0.0) or complex(re, im), checked in row-major order.  The
library's `matrix_from_json` must give the same bits for every literal the
reference accepts, and the same error message, naming the same entry, for
every literal it rejects.

Reports write every complex value as [re, im] pairs, whatever its imaginary
parts, and a non-finite number as a string, so they are strict JSON.
"""

import json
import math
import random

import numpy as np
import pytest

from qcond import Operation
from qcond.errors import SceneParseError
from qcond.serialize import matrix_from_json, strict_json, value_to_json


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _reference_entry(entry, where):
    if isinstance(entry, bool):
        raise SceneParseError(f"{where}: matrix entries must be numbers, got a boolean")
    try:
        if isinstance(entry, (int, float)):
            value = complex(entry, 0.0)
        elif isinstance(entry, list) and len(entry) == 2 and all(map(_is_number, entry)):
            value = complex(entry[0], entry[1])
        else:
            raise SceneParseError(f"{where}: matrix entries must be numbers or [re, im] pairs")
    except OverflowError:
        raise SceneParseError(f"{where}: matrix entries must be finite") from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise SceneParseError(f"{where}: matrix entries must be finite")
    return value


def _reference(rows, where="matrix"):
    if not isinstance(rows, list) or not rows:
        raise SceneParseError(f"{where}: expected a non-empty array of rows")
    n = len(rows)
    out = np.zeros((n, n), dtype=np.complex128)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise SceneParseError(f"{where} row {i}: expected {n} entries (square matrix)")
        for j, entry in enumerate(row):
            out[i, j] = _reference_entry(entry, f"{where} row {i} col {j}")
    return out


def _outcome(parse, rows):
    """("ok", dtype, shape, bytes) for a parsed literal, ("error", message) for a rejected one."""
    try:
        m = parse(rows, "lit")
    except SceneParseError as exc:
        return ("error", str(exc))
    return ("ok", m.dtype, m.shape, m.tobytes())


# --- accepted literals: bit for bit ---------------------------------------------

_SPECIAL_REALS = (
    0, 1, -1, 7, 2**53 + 1, 2**63, 2**63 + 1, -(2**63) - 1, 2**64 + 3, 2**80 + 12345,
    10**300, -(10**300), 0.0, -0.0, 0.1, -2.5e-308, 5e-324, 1.7976931348623157e308,
)


def _real(rng):
    roll = rng.random()
    if roll < 0.35:
        return rng.gauss(0.0, 1.0) * 10.0 ** rng.randint(-20, 20)
    if roll < 0.55:
        return rng.randint(-1000, 1000)
    if roll < 0.8:
        return rng.choice(_SPECIAL_REALS)
    if roll < 0.9:
        return rng.randint(2**63, 2**200) * rng.choice((1, -1))
    return np.float64(rng.gauss(0.0, 1.0))


def _literal(rng, d):
    style = rng.choice(("reals", "pairs", "mixed"))
    rows = []
    for _ in range(d):
        row = []
        for _ in range(d):
            pair = style == "pairs" or (style == "mixed" and rng.random() < 0.5)
            if pair and rng.random() < 0.05:
                row.append([-0.0, -0.0])
            else:
                row.append([_real(rng), _real(rng)] if pair else _real(rng))
        rows.append(row)
    return rows


def test_seeded_corpus_matches_the_reference_bit_for_bit():
    rng = random.Random(20231013)
    count = 0
    for d in range(1, 7):
        for _ in range(900):
            rows = _literal(rng, d)
            want = _outcome(_reference, rows)
            assert want[0] == "ok"
            assert _outcome(matrix_from_json, rows) == want, rows
            count += 1
    assert count >= 5000


@pytest.mark.parametrize(
    "rows",
    [
        [[-0.0]],
        [[[-0.0, -0.0]]],
        [[[0, -0.0], [-0.0, 0]], [-0.0, 0]],
        [[2**63 + 1, [2**64 + 3, -(2**63) - 1]], [10**300, np.float64(-0.0)]],
        [[np.float64(1.5), [np.float64(2.0), -3]], [0, 1]],
    ],
    ids=["neg-zero", "neg-zero-pair", "neg-zero-mixed", "big-ints", "np-float64"],
)
def test_edge_literals_match_the_reference(rows):
    want = _outcome(_reference, rows)
    assert want[0] == "ok"
    assert _outcome(matrix_from_json, rows) == want


def test_signed_zeros_survive():
    m = matrix_from_json([[[-0.0, -0.0], -0.0], [0, [0.0, -0.0]]])
    assert np.signbit(m.real).tolist() == [[True, True], [False, False]]
    assert np.signbit(m.imag).tolist() == [[True, False], [False, True]]


# --- rejected literals: the same message, naming the same entry -------------------

_ERRORS = {
    "bool": ([[True, 0], [0, 1]], "lit row 0 col 0: matrix entries must be numbers, got a boolean"),
    "bool-in-pair": (
        [[1, [0, False]], [0, 1]],
        "lit row 0 col 1: matrix entries must be numbers or [re, im] pairs",
    ),
    "string": ([[1, 0], ["1", 1]], "lit row 1 col 0: matrix entries must be numbers or [re, im] pairs"),
    "null": ([[1, 0], [0, None]], "lit row 1 col 1: matrix entries must be numbers or [re, im] pairs"),
    "pair-of-1": ([[[1], 0], [0, 1]], "lit row 0 col 0: matrix entries must be numbers or [re, im] pairs"),
    "pair-of-3": (
        [[[1, 0], [0, 0]], [[0, 0], [1, 0, 0]]],
        "lit row 1 col 1: matrix entries must be numbers or [re, im] pairs",
    ),
    "nan": ([[1, float("nan")], [0, 1]], "lit row 0 col 1: matrix entries must be finite"),
    "inf": ([[1, 0], [float("inf"), 1]], "lit row 1 col 0: matrix entries must be finite"),
    "minus-inf-in-pair": (
        [[[1, 0], [0, float("-inf")]], [[0, 0], [1, 0]]],
        "lit row 0 col 1: matrix entries must be finite",
    ),
    "huge-int": ([[1, 0], [0, 10**400]], "lit row 1 col 1: matrix entries must be finite"),
    "huge-int-in-pair": ([[[1, 10**400], 0], [0, 1]], "lit row 0 col 0: matrix entries must be finite"),
    "ragged": ([[1, 0], [0]], "lit row 1: expected 2 entries (square matrix)"),
    "non-square": ([[1, 0, 0], [0, 1, 0]], "lit row 0: expected 2 entries (square matrix)"),
    "row-not-a-list": ([[1, 0], (0, 1)], "lit row 1: expected 2 entries (square matrix)"),
    "empty": ([], "lit: expected a non-empty array of rows"),
    "not-a-list": ({"0": [1]}, "lit: expected a non-empty array of rows"),
    "bad-entry-before-short-row": (
        [[1, "x", 0], [0, 1, 0], [0, 1]],
        "lit row 0 col 1: matrix entries must be numbers or [re, im] pairs",
    ),
    "nan-before-short-row": (
        [[float("nan"), 0, 0], [0, 1, 0], [0]],
        "lit row 0 col 0: matrix entries must be finite",
    ),
    "first-of-two-bad-entries": (
        [[1, 0], [10**400, True]],
        "lit row 1 col 0: matrix entries must be finite",
    ),
}


@pytest.mark.parametrize("case", sorted(_ERRORS))
def test_errors_match_the_reference(case):
    rows, message = _ERRORS[case]
    assert _outcome(_reference, rows) == ("error", message)
    assert _outcome(matrix_from_json, rows) == ("error", message)


def test_seeded_corruptions_match_the_reference():
    rng = random.Random(7)
    bad_entries = (True, "1", None, [1], [1, 2, 3], float("nan"), float("inf"), 10**400, [0, 10**400])
    for d in range(1, 7):
        for _ in range(100):
            rows = _literal(rng, d)
            for _ in range(rng.randint(1, 2)):
                rows[rng.randrange(d)][rng.randrange(d)] = rng.choice(bad_entries)
            if rng.random() < 0.3:
                rows[rng.randrange(d)] = rows[0][:-1]
            want = _outcome(_reference, rows)
            assert want[0] == "error"
            assert _outcome(matrix_from_json, rows) == want, rows


# --- report forms: one JSON form per type ---------------------------------------


def _shape(x):
    """The nesting of a JSON value, its numbers blanked out."""
    return [_shape(v) for v in x] if isinstance(x, list) else type(x).__name__


def test_round_off_cannot_change_a_matrix_shape():
    m = np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)
    jittered = m + 1j * np.array([[1e-17, -1e-17], [0.0, -0.0]])
    assert _shape(value_to_json(m)) == _shape(value_to_json(jittered)) == [[["float"] * 2] * 2] * 2
    assert value_to_json(m)[0] == [[0.5, 0.0], [0.25, 0.0]]


def test_every_complex_value_is_pairs():
    assert value_to_json(1 + 2j) == [1.0, 2.0]
    assert value_to_json(np.complex128(3.0)) == [3.0, 0.0]
    assert value_to_json(np.array(-1j)) == [-0.0, -1.0]
    stack = np.arange(8).reshape(2, 2, 2) + 0.5j
    kraus = value_to_json(Operation(stack))["kraus"]
    assert np.array(kraus).shape == (2, 2, 2, 2)
    assert kraus[1][0] == [[4.0, 0.5], [5.0, 0.5]]
    # Reals stay plain numbers.
    assert value_to_json({"p": np.float64(0.25), "n": 3}) == {"p": 0.25, "n": 3.0}


def test_a_matrix_round_trips_bit_for_bit():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    m[0, 0], m[1, 2] = complex(-0.0, -0.0), complex(0.0, -0.0)
    back = matrix_from_json(json.loads(json.dumps(value_to_json(m))))
    assert back.tobytes() == m.tobytes()


def test_strict_json_names_non_finite_numbers(strict_loads):
    payload = {
        "r": math.inf,
        "v": [math.nan, -math.inf, 1.5],
        "m": value_to_json(np.array([[math.nan]])),
        "t": (0.0, math.inf),
        "note": "NaN",
    }
    text = strict_json(payload, sort_keys=True)
    assert strict_loads(text) == {
        "r": "Infinity",
        "v": ["NaN", "-Infinity", 1.5],
        "m": [[["NaN", 0.0]]],
        "t": [0.0, "Infinity"],
        "note": "NaN",
    }
    finite = {"a": [1.0, [2.0, -0.0]], "b": "x", "c": None, "d": True}
    assert strict_json(finite, indent=2) == json.dumps(finite, indent=2)
