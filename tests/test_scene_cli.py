"""Scene files and the command-line front end.

Covers the shipped example scenes, scene parsing/validation failure modes,
check comparison semantics (expect vs expect_min/expect_max, per-check tol),
and the CLI exit-code contract: 0 all passed, 1 failing checks or suites,
2 malformed input / unknown names.
"""

import copy
import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import pytest

from qcond.cli import main
from qcond.errors import (
    SceneError,
    SceneParseError,
    SceneReferenceError,
    SceneValidationError,
)
from qcond import observables as observables_module
from qcond import scene as scene_module
from qcond import serialize as serialize_module
from qcond.scene import load_scene, run_scene

SCENE_DIR = pathlib.Path(__file__).resolve().parent.parent / "docs" / "scenes"
SCENE_FILES = sorted(SCENE_DIR.glob("*.json"))


def _write(tmp_path, payload, name="scene.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _basic_scene(**overrides):
    scene = {
        "name": "basic",
        "objects": {
            "rho": {"state": [[0.5, 0], [0, 0.5]]},
            "p0": {"effect": [[1, 0], [0, 0]]},
        },
        "checks": [{"op": "prob", "args": ["rho", "p0"], "expect": 0.5}],
    }
    scene.update(overrides)
    return scene


# --- shipped scenes -----------------------------------------------------------


def test_nine_scenes_ship():
    assert len(SCENE_FILES) == 9


@pytest.mark.parametrize("path", SCENE_FILES, ids=lambda p: p.stem)
def test_shipped_scene_passes(path):
    scene = load_scene(path)
    assert scene.checks, "every shipped scene should assert something"
    report = run_scene(scene)
    failed = [c for c in report.checks if not c.passed]
    assert report.passed, f"failed checks: {[(c.index, c.op, c.residual) for c in failed]}"


@pytest.mark.parametrize("path", SCENE_FILES, ids=lambda p: p.stem)
def test_shipped_scene_report_round_trips(path):
    report = run_scene(load_scene(path))
    payload = report.to_json()
    assert json.loads(json.dumps(payload)) == payload
    assert payload["total"] == len(report.checks)
    assert payload["failed"] == 0


@pytest.mark.parametrize("path", SCENE_FILES, ids=lambda p: p.stem)
def test_scene_from_path_and_from_mapping_report_the_same(path):
    from_path = run_scene(load_scene(path)).to_json()
    from_mapping = run_scene(load_scene(json.loads(path.read_text(encoding="utf-8")))).to_json()
    # Only the provenance field differs: a mapping has no file behind it.
    assert (from_path.pop("path"), from_mapping.pop("path")) == (str(path), None)
    assert json.dumps(from_path) == json.dumps(from_mapping)


# --- parsing and validation ---------------------------------------------------


def test_load_scene_from_mapping():
    scene = load_scene(_basic_scene())
    assert scene.name == "basic"
    assert scene.path is None
    assert run_scene(scene).passed


def test_malformed_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SceneParseError):
        load_scene(str(path))


def test_missing_file():
    with pytest.raises(SceneParseError):
        load_scene("/no/such/scene.json")


def test_unknown_top_level_key():
    with pytest.raises(SceneParseError):
        load_scene(_basic_scene(extras=1))


def test_invalid_state_names_the_violation():
    scene = _basic_scene()
    scene["objects"]["rho"] = {"state": [[1.5, 0], [0, -0.5]]}
    with pytest.raises(SceneValidationError, match="positive"):
        load_scene(scene)


def test_effect_above_identity_rejected():
    scene = _basic_scene()
    scene["objects"]["p0"] = {"effect": [[2, 0], [0, 0]]}
    with pytest.raises(SceneValidationError, match="below-identity"):
        load_scene(scene)


def test_reserved_label_in_observable():
    scene = _basic_scene()
    scene["objects"]["obs"] = {
        "observable": {
            "outcomes": ["⊥"],
            "effects": {"⊥": [[1, 0], [0, 1]]},
        }
    }
    with pytest.raises(SceneValidationError, match="reserved"):
        load_scene(scene)


def test_reserved_separator_in_instrument_label():
    scene = _basic_scene()
    scene["objects"]["ins"] = {
        "instrument": {
            "outcomes": ["a,b"],
            "ops": {"a,b": {"kraus": [[[1, 0], [0, 1]]]}},
        }
    }
    with pytest.raises(SceneValidationError, match="reserved"):
        load_scene(scene)


def test_unknown_op_lists_alternatives():
    scene = _basic_scene()
    scene["checks"] = [{"op": "no_such_op", "args": []}]
    with pytest.raises(SceneValidationError, match="unknown op"):
        load_scene(scene)


def test_dangling_object_reference():
    scene = _basic_scene()
    scene["checks"] = [{"op": "prob", "args": ["rho", "ghost"], "expect": 0.5}]
    with pytest.raises(SceneReferenceError, match="ghost"):
        load_scene(scene)


def test_wrong_argument_count():
    scene = _basic_scene()
    scene["checks"] = [{"op": "prob", "args": ["rho"], "expect": 0.5}]
    with pytest.raises(SceneValidationError, match="takes 2 arguments"):
        load_scene(scene)


def test_wrong_argument_kind():
    scene = _basic_scene()
    # prob wants (state, effect); a state is not accepted where an
    # operation is required.
    scene["checks"] = [{"op": "apply", "args": ["rho", "rho"], "expect": 0.5}]
    with pytest.raises(SceneValidationError, match="kind"):
        load_scene(scene)


def test_mixed_dimensions_rejected():
    scene = _basic_scene()
    scene["objects"]["big"] = {
        "state": [[0.5, 0, 0], [0, 0.5, 0], [0, 0, 0]]
    }
    scene["checks"] = [{"op": "prob", "args": ["big", "p0"], "expect": 0.5}]
    with pytest.raises(SceneValidationError, match="mix dimensions"):
        load_scene(scene)


def test_expect_and_bounds_are_exclusive():
    scene = _basic_scene()
    scene["checks"] = [
        {"op": "prob", "args": ["rho", "p0"], "expect": 0.5, "expect_min": 0.0}
    ]
    with pytest.raises(SceneParseError, match="exclusive"):
        load_scene(scene)


def test_nonpositive_tolerance_rejected():
    with pytest.raises(SceneParseError, match="positive"):
        load_scene(_basic_scene(tolerance={"eq_tol": -1.0}))


def test_instrument_may_reference_later_observable():
    # Instruments are built after plain objects, so a luders_of reference
    # works regardless of declaration order.
    scene = {
        "objects": {
            "ins": {"instrument": {"luders_of": "z"}},
            "z": {
                "observable": {
                    "outcomes": ["0", "1"],
                    "effects": {"0": [[1, 0], [0, 0]], "1": [[0, 0], [0, 1]]},
                }
            },
        },
        "checks": [],
    }
    loaded = load_scene(scene)
    assert loaded.objects["ins"].kind == "instrument"


# --- check semantics -----------------------------------------------------------


def test_expect_bounds_pass_and_fail():
    scene = _basic_scene()
    scene["checks"] = [
        {"op": "prob", "args": ["rho", "p0"], "expect_min": 0.4, "expect_max": 0.6},
        {"op": "prob", "args": ["rho", "p0"], "expect_min": 0.7},
    ]
    report = run_scene(load_scene(scene))
    assert report.checks[0].passed
    assert not report.checks[1].passed
    assert report.checks[1].residual == pytest.approx(0.2)
    assert not report.passed


# [x, z] has entries near 1e400, so its norm is not finite (NaN here).
_OVERFLOW_OBJECTS = {
    "x": {"matrix": [[0, 1e200], [1e200, 0]]},
    "z": {"matrix": [[1e200, 0], [0, -1e200]]},
}


@pytest.mark.filterwarnings("ignore:.*encountered in matmul:RuntimeWarning")
def test_non_finite_result_fails_every_bound(tmp_path, capsys):
    scene = {
        "objects": _OVERFLOW_OBJECTS,
        "checks": [
            {"op": "commutator_norm", "args": ["x", "z"], "expect_max": 1.0},
            {"op": "commutator_norm", "args": ["x", "z"], "expect_min": 0.0},
            {"op": "commutator_norm", "args": ["x", "z"], "expect_min": 0.0, "expect_max": 1.0},
        ],
    }
    report = run_scene(load_scene(scene))
    assert not math.isfinite(report.checks[0].value)
    assert [c.passed for c in report.checks] == [False, False, False]
    assert [c.residual for c in report.checks] == [math.inf] * 3
    out_path = tmp_path / "report.json"
    assert main(["run", _write(tmp_path, scene), "--json", str(out_path)]) == 1
    assert "FAIL" in capsys.readouterr().out
    assert json.loads(out_path.read_text())["passed"] is False


@pytest.mark.filterwarnings("ignore:.*encountered in matmul:RuntimeWarning")
def test_run_json_names_non_finite_numbers(tmp_path, capsys, strict_loads):
    # A NaN result fails its bound with residual inf.  Strict JSON has no
    # such numbers, so the report writes them as strings.
    scene = {
        "objects": _OVERFLOW_OBJECTS,
        "checks": [{"op": "commutator_norm", "args": ["x", "z"], "expect_max": 1.0}],
    }
    out_path = tmp_path / "report.json"
    assert main(["run", _write(tmp_path, scene), "--json", str(out_path)]) == 1
    capsys.readouterr()
    check = strict_loads(out_path.read_text())["checks"][0]
    assert (check["residual"], check["value"]) == ("Infinity", "NaN")


def test_check_tolerance_precedence():
    # check tol > runner --tol > scene eq_tol.
    scene = _basic_scene()
    scene["checks"] = [
        {"op": "prob", "args": ["rho", "p0"], "expect": 0.5 + 1e-10},
        {"op": "prob", "args": ["rho", "p0"], "expect": 0.5 + 1e-10, "tol": 1e-9},
    ]
    default = run_scene(load_scene(scene))
    assert default.passed  # both within the scene's 1e-9
    tight = run_scene(load_scene(scene), default_tol=1e-12)
    assert not tight.checks[0].passed  # runner default tightened
    assert tight.checks[1].passed  # pinned tol ignores the runner


def test_boolean_checks_need_boolean_expectations():
    scene = _basic_scene()
    scene["checks"] = [{"op": "is_sharp", "args": ["p0"], "expect": 1}]
    with pytest.raises(SceneValidationError, match="true/false"):
        run_scene(load_scene(scene))


def test_runtime_error_is_captured_not_raised():
    # Conditioning on an effect with zero probability raises inside the
    # check; the runner records it as a failed check instead of crashing.
    scene = {
        "objects": {
            "rho": {"state": [[0, 0], [0, 1]]},
            "ctx": {"luders": [[1, 0], [0, 0]]},
            "b": {"effect": [[1, 0], [0, 1]]},
        },
        "checks": [
            {"op": "conditional_prob", "args": ["rho", "ctx", "b"], "expect": 1.0}
        ],
    }
    report = run_scene(load_scene(scene))
    check = report.checks[0]
    assert not check.passed
    assert check.error is not None and "ZeroProbability" in check.error
    assert check.residual == float("inf")
    assert not report.passed


def test_matrix_expectation_shape_mismatch():
    scene = _basic_scene()
    scene["checks"] = [
        {"op": "complement", "args": ["p0"], "expect": [[0, 0, 0], [0, 1, 0], [0, 0, 1]]}
    ]
    with pytest.raises(SceneValidationError, match="2x2"):
        run_scene(load_scene(scene))


def test_complex_expectation_pairs():
    scene = {
        "objects": {
            "sx": {"matrix": [[0, 1], [1, 0]]},
            "sy": {"matrix": [[0, [0, -1]], [[0, 1], 0]]},
        },
        "checks": [
            {"op": "trace_product", "args": ["sx", "sy"], "expect": [0, 0]},
            {"op": "commutator_norm", "args": ["sx", "sy"], "expect": 2.8284271247461903},
        ],
    }
    assert run_scene(load_scene(scene)).passed


def test_compose_of_holevo_literals_reports_a_minimal_family():
    # Each qubit Holevo literal has 4 Kraus operators; their 16 products
    # exceed the Choi rank bound d**2 = 4, so compose returns a minimal family.
    scene = _basic_scene(
        objects={
            "h1": {"holevo": {"effect": [[0.75, 0], [0, 0.5]], "alpha": [[0.5, 0.25], [0.25, 0.5]]}},
            "h2": {"holevo": {"effect": [[0.6, 0.1], [0.1, 0.4]], "alpha": [[0.7, 0], [0, 0.3]]}},
        },
        # rho -> tr(rho a1) tr(alpha1 a2) alpha2, with tr(alpha1 a2) = 0.55
        checks=[{"op": "compose", "args": ["h1", "h2"], "expect": {"holevo": {
            "effect": [[0.4125, 0], [0, 0.275]], "alpha": [[0.7, 0], [0, 0.3]],
        }}}],
    )
    report = run_scene(load_scene(scene))
    assert report.passed
    assert len(report.checks[0].value["kraus"]) <= 4


# --- CLI ------------------------------------------------------------------------


def test_cli_validate_ok(capsys):
    rc = main(["validate", *(str(p) for p in SCENE_FILES)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("ok ") == len(SCENE_FILES)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_rejects_an_effect_past_the_float64_limit(tmp_path, capsys):
    scene = _basic_scene()
    scene["objects"]["p0"] = {"effect": [[1e308, 1e308], [1e308, 1e308]]}
    path = _write(tmp_path, scene)
    for command in ("validate", "run"):
        assert main([command, path]) == 2
        assert "below-identity" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_rejects_a_3x3_effect_past_the_float64_limit(tmp_path, capsys):
    # eigvalsh raises on such a matrix from d = 3 on; the scene still names the bound.
    scene = _basic_scene(checks=[])
    scene["objects"]["p0"] = {"effect": [[1e308] * 3] * 3}
    path = _write(tmp_path, scene)
    for command in ("validate", "run"):
        assert main([command, path]) == 2
        assert "below-identity" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_run_fails_the_checks_of_a_3x3_matrix_past_the_float64_limit(tmp_path, capsys):
    # eigh raises numpy's LinAlgError on such a matrix from d = 3 on; each check fails typed.
    scene = {
        "objects": {"m": {"matrix": [[1e308] * 3] * 3}, "i": {"matrix": _I3}},
        "checks": [
            {"op": "psd_sqrt", "args": ["m"], "expect": _I3},
            {"op": "loewner_leq", "args": ["m", "i"], "expect": True},
        ],
    }
    report = tmp_path / "report.json"
    assert main(["run", _write(tmp_path, scene), "--json", str(report)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    root, leq = json.loads(report.read_text())["checks"]
    assert not root["passed"] and root["error"].startswith("NotPSDError:")
    assert not leq["passed"] and leq["value"] is False


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_rejects_a_3x3_luders_effect_past_the_float64_limit(tmp_path, capsys):
    path = _write(tmp_path, {"objects": {"l": {"luders": [[1e308] * 3] * 3}}, "checks": []})
    assert main(["validate", path]) == 2
    assert capsys.readouterr().err == f"invalid {path}: object 'l': positive (by nan); below-identity (by nan)\n"


def test_cli_prints_no_numpy_warning_before_the_typed_error(tmp_path):
    # A fresh process, so numpy's RuntimeWarnings would reach stderr unfiltered.
    path = _write(tmp_path, {"objects": {"l": {"luders": [[1e308] * 3] * 3}}, "checks": []})
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from qcond.cli import main; sys.exit(main())", "validate", path],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
    )
    assert done.returncode == 2
    assert done.stderr == f"invalid {path}: object 'l': positive (by nan); below-identity (by nan)\n"


def test_cli_validate_rejects_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2")
    good = str(SCENE_FILES[0])
    rc = main(["validate", good, str(bad)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "ok" in captured.out
    assert "invalid" in captured.err


_I3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
_MIXED_SIZES = {
    "kraus": (
        {"k": {"kraus": [[[1, 0], [0, 1]], _I3]}},
        [],
        "object 'k': Kraus operators have mixed dimensions",
    ),
    "observable": (
        {"o": {"observable": {"outcomes": ["0", "1"], "effects": {"0": [[1, 0], [0, 1]], "1": _I3}}}},
        [],
        "object 'o': effects have mixed dimensions [2, 3]",
    ),
    "holevo": (
        {"h": {"holevo": {"effect": [[1, 0], [0, 0]], "alpha": [[1, 0, 0], [0, 0, 0], [0, 0, 0]]}}},
        [],
        "object 'h': effect and update state must share a dimension",
    ),
    "expected-kraus": (
        {"a": {"luders": [[1, 0], [0, 0]]}},
        [{"op": "compose", "args": ["a", "a"], "expect": {"kraus": [[[1, 0], [0, 1]], _I3]}}],
        "check[0] expect: Kraus operators have mixed dimensions",
    ),
}


@pytest.mark.parametrize("case", sorted(_MIXED_SIZES))
def test_cli_validate_names_a_literal_of_mixed_sizes(case, tmp_path, capsys):
    objects, checks, message = _MIXED_SIZES[case]
    mixed = _write(tmp_path, {"objects": objects, "checks": checks}, "a.json")
    good = _write(tmp_path, _basic_scene(), "b.json")
    with pytest.raises(SceneValidationError, match=re.escape(message)):
        load_scene(mixed)
    assert main(["validate", mixed, good]) == 2
    captured = capsys.readouterr()
    assert f"invalid {mixed}: {message}" in captured.err
    assert f"ok {good}" in captured.out
    assert main(["run", mixed]) == 2
    assert f"error: {message}" in capsys.readouterr().err


# A scene with several faults raises the first object's, in load order
# (instruments last), then the first check's.  Within one object, its inputs
# come first, in reading order, then the object built from them; a malformed
# literal read after an invalid one never wins.  Each case pins the message
# byte for byte.
_S3 = [[0.5, 0, 0], [0, 0.25, 0], [0, 0, 0.25]]
_SPLIT = {"outcomes": ["0", "1"], "effects": {"0": [[1, 0], [0, 0]], "1": [[0, 0], [0, 1]]}}
_FIRST_FAULT = {
    "invalid-effect-then-malformed-matrix": (
        {"e": {"effect": [[2, 0], [0, 0]]}, "m": {"matrix": [[1, 0], [0]]}},
        [],
        "object 'e': below-identity (by 1.000e+00)",
    ),
    "luders-of-a-non-psd-observable": (
        {
            "I": {"instrument": {"luders_of": "A"}},
            "A": {"observable": {"outcomes": ["0", "1"], "effects": {"0": [[-0.5, 0], [0, 0]], "1": [[1.5, 0], [0, 1]]}}},
        },
        [],
        "object 'A': effect[0].positive (by 5.000e-01); effect[1].below-identity (by 5.000e-01)",
    ),
    "kraus-over-bound-then-invalid-state": (
        {"K": {"kraus": [[[1.2, 0], [0, 1]]]}, "rho": {"state": [[2, 0], [0, 0]]}},
        [],
        "object 'K': kraus-trace-bound (by 4.400e-01)",
    ),
    "holevo-bad-effect-and-bad-alpha": (
        {"H": {"holevo": {"effect": [[2, 0], [0, 0]], "alpha": [[0.5, 0], [0, 0.4]]}}},
        [],
        "object 'H': below-identity (by 1.000e+00); unit-trace (by 1.000e-01)",
    ),
    "instrument-second-op-and-bar-channel": (
        {"I": {"instrument": {"outcomes": ["a", "b"], "ops": {
            "a": {"kraus": [[[0.5, 0], [0, 0.5]]]}, "b": {"kraus": [[[1.5, 0], [0, 0]]]}}}}},
        [],
        "object 'I': op[b].kraus-trace-bound (by 1.250e+00); bar-channel (by 1.677e+00)",
    ),
    "mixed-dims-input-fault-first": (
        {
            "rho3": {"state": _S3},
            "e2": {"effect": [[1, 0], [0, 0]]},
            "L3": {"luders": [[1.5, 0, 0], [0, 0, 0], [0, 0, 0]]},
            "s2": {"state": [[2, 0], [0, 0]]},
        },
        [],
        "object 'L3': below-identity (by 5.000e-01)",
    ),
    "mixed-dims-built-fault-first": (
        {"K2": {"kraus": [[[1.2, 0], [0, 1]]]}, "L3": {"luders": [[-1, 0, 0], [0, 0, 0], [0, 0, 0]]}},
        [],
        "object 'K2': kraus-trace-bound (by 4.400e-01)",
    ),
    "bad-luders-op-then-malformed-op": (
        {"I": {"instrument": {"outcomes": ["a", "b"], "ops": {"a": {"luders": [[-1, 0], [0, 1]]}, "b": {"kraus": "x"}}}}},
        [],
        "object 'I' op 'a': positive (by 1.000e+00)",
    ),
    "bad-alpha-then-alpha-of-another-size": (
        {"A": {"observable": _SPLIT},
         "H": {"instrument": {"holevo_of": {"observable": "A", "alphas": {"0": [[2, 0], [0, 0]], "1": _S3}}}}},
        [],
        "object 'H' alpha '0': unit-trace (by 1.000e+00)",
    ),
    "alpha-of-another-size": (
        {"A": {"observable": _SPLIT},
         "H": {"instrument": {"holevo_of": {"observable": "A", "alphas": {"0": [[1, 0], [0, 0]], "1": _S3}}}}},
        [],
        "object 'H': effect and update state must share a dimension",
    ),
    "observable-effects-and-total": (
        {"A": {"observable": {"outcomes": ["0", "1"], "effects": {"0": [[-0.5, 0], [0, 0]], "1": [[0.5, 0], [0, 1]]}}}},
        [],
        "object 'A': effect[0].positive (by 5.000e-01); total-is-identity (by 1.000e+00)",
    ),
    "non-hermitian-state-off-trace": (
        {"s": {"state": [[0.5, 1], [0, 0.4]]}},
        [],
        "object 's': hermitian (by 1.414e+00); unit-trace (by 1.000e-01)",
    ),
    "object-over-bound-then-checks-not-a-list": (
        {"K": {"kraus": [[[1.2, 0], [0, 1]]]}},
        "nope",
        "object 'K': kraus-trace-bound (by 4.400e-01)",
    ),
    "bad-expected-luders-then-unknown-op": (
        {"L": {"luders": [[1, 0], [0, 0]]}},
        [{"op": "compose", "args": ["L", "L"], "expect": {"luders": [[2, 0], [0, 0]]}}, {"op": "nope"}],
        "check[0] expect: below-identity (by 1.000e+00)",
    ),
    "expected-holevo-shapes-before-size": (
        {"L": {"luders": [[1, 0], [0, 0]]}},
        [{"op": "compose", "args": ["L", "L"], "expect": {"holevo": {"effect": _S3, "alpha": [[1, 0], [0, 0]]}}}],
        "check[0] expect: effect and update state must share a dimension",
    ),
}


@pytest.mark.parametrize("case", sorted(_FIRST_FAULT))
def test_a_scene_raises_its_first_fault(case):
    objects, checks, message = _FIRST_FAULT[case]
    with pytest.raises(SceneValidationError) as exc:
        load_scene({"objects": objects, "checks": checks})
    assert str(exc.value) == message


def test_an_invalid_scene_reads_each_literal_once(monkeypatch):
    # One pass reads the scene, and its first fault is found among what that pass read.
    read, where = serialize_module.matrix_from_json, []
    for module in (scene_module, serialize_module):
        monkeypatch.setattr(module, "matrix_from_json", lambda rows, at="matrix": where.append(at) or read(rows, at))
    objects = {"rho": {"state": [[1, 0], [0, 0]]}, "e": {"effect": [[2, 0], [0, 0]]}, "f": {"effect": [[1, 0], [0, 0]]}}
    with pytest.raises(SceneValidationError) as exc:
        load_scene({"objects": objects, "checks": []})
    assert str(exc.value) == "object 'e': below-identity (by 1.000e+00)"
    assert where == ["object 'rho'", "object 'e'", "object 'f'"]


def _replace_first_matrix(literal, new):
    """The object literal with its first matrix in reading order replaced by new(matrix).

    None for a literal that no matrix of its own can make invalid: a plain
    matrix, or the luders_of an observable.
    """
    [(kind, body)] = literal.items()
    body = copy.deepcopy(body)
    if kind in ("state", "effect", "luders"):
        return {kind: new(body)}
    if kind == "kraus":
        body[0] = new(body[0])
    elif kind == "holevo":
        body["effect"] = new(body["effect"])
    elif kind == "observable":
        x = next(iter(body["effects"]))
        body["effects"][x] = new(body["effects"][x])
    elif kind == "instrument" and "ops" in body:
        x = next(iter(body["ops"]))
        body["ops"][x] = _replace_first_matrix(body["ops"][x], new)
    elif kind == "instrument" and "holevo_of" in body:
        alphas = body["holevo_of"]["alphas"]
        x = next(iter(alphas))
        alphas[x] = new(alphas[x])
    else:
        return None
    return {kind: body}


def _twice_identity(m):
    return [[2.0 if r == c else 0.0 for c in range(len(m))] for r in range(len(m))]


def _ragged(m):
    return [*m[:-1], m[-1][:-1]]


@pytest.mark.parametrize("path", [*SCENE_FILES, SCENE_DIR.parents[1] / "tests" / "scenes" / "every-op.json"],
                         ids=lambda p: p.stem)
def test_a_poisoned_scene_raises_the_fault_of_its_load_order_prefix(path):
    # Two objects in load order (instruments last), one invalid and
    # one malformed, in both orders: the scene raises what its objects up to
    # the first poisoned one raise alone, whatever follows.
    scene = json.loads(path.read_text())
    objects = scene["objects"]
    order = sorted(objects, key=lambda name: "instrument" in objects[name])
    poisonable = [name for name in order if _replace_first_matrix(objects[name], _ragged) is not None]
    assert len(poisonable) >= 3
    for first, second in itertools.combinations(poisonable, 2):
        for bad_first, bad_second in ((_twice_identity, _ragged), (_ragged, _twice_identity)):
            poisoned = {**objects, first: _replace_first_matrix(objects[first], bad_first),
                        second: _replace_first_matrix(objects[second], bad_second)}
            prefix = {name: poisoned[name] for name in order[: order.index(first) + 1]}
            with pytest.raises(SceneError) as alone:
                load_scene({"tolerance": scene.get("tolerance"), "objects": prefix, "checks": []})
            with pytest.raises(SceneError) as exc:
                load_scene({**scene, "objects": poisoned})
            assert (type(exc.value), str(exc.value)) == (type(alone.value), str(alone.value))


def test_cli_run_passes_and_writes_json(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    rc = main(["run", str(SCENE_FILES[0]), "--json", str(out_path)])
    stdout = capsys.readouterr().out
    assert rc == 0
    assert "checks passed" in stdout
    payload = json.loads(out_path.read_text())
    assert payload["passed"] is True
    assert payload["failed"] == 0
    assert len(payload["checks"]) == payload["total"]


def test_cli_run_failing_check_exits_1(tmp_path, capsys):
    scene = _basic_scene()
    scene["checks"].append({"op": "prob", "args": ["rho", "p0"], "expect": 0.25})
    rc = main(["run", _write(tmp_path, scene)])
    stdout = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in stdout
    assert "1 failed" in stdout


def test_cli_run_invalid_scene_exits_2(tmp_path, capsys):
    scene = _basic_scene()
    scene["objects"]["rho"] = {"state": [[1, 0], [0, 1]]}  # trace 2
    rc = main(["run", _write(tmp_path, scene)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


_REPEATED_LABELS = {
    "observable": {"observable": {"outcomes": ["0", "0"], "effects": {"0": [[1, 0], [0, 1]]}}},
    "instrument": {"instrument": {"outcomes": ["0", "0"], "ops": {"0": {"kraus": [[[1, 0], [0, 1]]]}}}},
}


@pytest.mark.parametrize("kind", sorted(_REPEATED_LABELS))
def test_cli_repeated_outcome_label_exits_2(kind, tmp_path, capsys):
    scene = _basic_scene()
    scene["objects"]["dup"] = _REPEATED_LABELS[kind]
    path = _write(tmp_path, scene)
    with pytest.raises(SceneValidationError, match="must be unique"):
        load_scene(path)
    for command in ("validate", "run"):
        assert main([command, path]) == 2
        err = capsys.readouterr().err
        assert "object 'dup': outcome labels must be unique" in err
        assert "Traceback" not in err


_ID = [[1, 0], [0, 1]]
_BAD_LABEL_LISTS = {
    "observable-outcomes": (
        {"observable": {"outcomes": "0", "effects": {"0": _ID}}},
        "outcomes must be a nonempty list of labels",
    ),
    "instrument-outcomes": (
        {"instrument": {"outcomes": [], "ops": {}}},
        "outcomes must be a nonempty list of labels",
    ),
    "values": (
        {"observable": {"outcomes": ["0"], "effects": {"0": _ID}, "values": {"1": 0}}},
        "values must be keyed exactly by the outcome labels",
    ),
    "effects": (
        {"observable": {"outcomes": ["0"], "effects": {"0": _ID, "1": _ID}}},
        "effects must be keyed exactly by the outcome labels",
    ),
    "ops": (
        {"instrument": {"outcomes": ["0", "1"], "ops": {"0": {"kraus": [_ID]}}}},
        "ops must be keyed exactly by the outcome labels",
    ),
}


@pytest.mark.parametrize("case", sorted(_BAD_LABEL_LISTS))
def test_cli_bad_outcome_lists_exit_2(case, tmp_path, capsys):
    literal, message = _BAD_LABEL_LISTS[case]
    scene = _basic_scene()
    scene["objects"]["bad"] = literal
    path = _write(tmp_path, scene)
    with pytest.raises(SceneParseError, match=message):
        load_scene(path)
    for command in ("validate", "run"):
        assert main([command, path]) == 2
        assert f"object 'bad': {message}" in capsys.readouterr().err


_HUGE = 10**400  # 401 digits: a JSON integer no float can hold
_OVERSIZED = {
    "matrix-entry": (
        {"state": [[_HUGE, 0], [0, 0.5]]},
        "object 'bad' row 0 col 0: matrix entries must be finite",
    ),
    "outcome-value": (
        {"observable": {"outcomes": ["0"], "effects": {"0": _ID}, "values": {"0": _HUGE}}},
        "object 'bad': value for outcome '0' must be a finite number",
    ),
}


@pytest.mark.parametrize("case", sorted(_OVERSIZED))
def test_cli_oversized_integer_exits_2(case, tmp_path, capsys):
    literal, message = _OVERSIZED[case]
    scene = _basic_scene()
    scene["objects"]["bad"] = literal
    path = _write(tmp_path, scene)
    with pytest.raises(SceneParseError, match=message):
        load_scene(path)
    for command in ("validate", "run"):
        assert main([command, path]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err


def test_oversized_integer_in_check_numbers_is_rejected():
    for key in ("expect_min", "tol"):
        check = {"op": "prob", "args": ["rho", "p0"], key: _HUGE}
        with pytest.raises(SceneParseError, match=f"{key} must be"):
            load_scene(_basic_scene(checks=[check]))
    with pytest.raises(SceneParseError, match="eq_tol must be a positive number"):
        load_scene(_basic_scene(tolerance={"eq_tol": _HUGE}))
    with pytest.raises(SceneValidationError, match="expected a number or"):
        load_scene(_basic_scene(checks=[{"op": "prob", "args": ["rho", "p0"], "expect": _HUGE}]))


_Z = {"outcomes": ["0", "1"], "effects": {"0": [[1, 0], [0, 0]], "1": [[0, 0], [0, 1]]}}
_MALFORMED_EXPECT = {
    "nan-on-real": (
        {"op": "prob", "args": ["rho", "p0"], "expect": math.nan},
        SceneValidationError, "check[0]: expected a number or [re, im] pair",
    ),
    "string-on-real": (
        {"op": "prob", "args": ["rho", "p0"], "expect": "half"},
        SceneValidationError, "check[0]: expected a number or [re, im] pair",
    ),
    "oversized-on-real": (
        {"op": "prob", "args": ["rho", "p0"], "expect": _HUGE},
        SceneValidationError, "check[0]: expected a number or [re, im] pair",
    ),
    "one-on-bool": (
        {"op": "is_sharp", "args": ["p0"], "expect": 1},
        SceneValidationError, "check[0]: expected true/false for a boolean result",
    ),
    "bad-kraus-on-compose": (
        {"op": "compose", "args": ["meas", "meas"], "expect": {"kraus": "oops"}},
        SceneParseError, "check[0] expect: kraus must be a nonempty list of matrices",
    ),
    "bad-kraus-in-instrument": (
        {"op": "compose_instruments", "args": ["lz", "lz"],
         "expect": {"outcomes": ["0,0"], "ops": {"0,0": {"kraus": []}}}},
        SceneParseError, "check[0] expect op '0,0': kraus must be a nonempty list of matrices",
    ),
    "operation-of-another-dimension": (
        {"op": "compose", "args": ["meas", "meas"], "expect": {"kraus": [[[1, 0, 0]] * 3]}},
        SceneValidationError, "check[0] expect: expected 2x2 Kraus operators",
    ),
    "3x3-on-qubit-complement": (
        {"op": "complement", "args": ["p0"], "expect": [[0, 0, 0], [0, 1, 0], [0, 0, 1]]},
        SceneValidationError, "check[0]: expected a 2x2 matrix",
    ),
    "3x3-effect-on-qubit-observable": (
        {"op": "measured_observable", "args": ["lz"],
         "expect": {"effects": {"0": [[1, 0, 0], [0, 0, 0], [0, 0, 0]]}}},
        SceneValidationError, "check[0]: expected a 2x2 matrix",
    ),
    "observable-without-effects": (
        {"op": "measured_observable", "args": ["lz"], "expect": {"outcomes": ["0", "1"]}},
        SceneValidationError,
        "check[0]: an observable result compares against {'effects': ...}",
    ),
    "instrument-without-ops": (
        {"op": "compose_instruments", "args": ["lz", "lz"], "expect": {"outcomes": ["0,0"]}},
        SceneValidationError, "check[0]: an instrument result compares against outcomes+ops",
    ),
    "expect-min-on-bool": (
        {"op": "is_sharp", "args": ["p0"], "expect_min": 0},
        SceneValidationError,
        "check[0]: expect_min needs a real result; op 'is_sharp' returns bool",
    ),
    "expect-min-on-trace-product": (
        {"op": "trace_product", "args": ["rho", "p0"], "expect_min": 0},
        SceneValidationError,
        "check[0]: expect_min needs a real result; op 'trace_product' returns complex",
    ),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_EXPECT))
def test_malformed_expectation_fails_validate(case, tmp_path, capsys):
    # Each op declares its result kind, so an expectation it could never meet
    # fails at load: validate rejects what run would.
    check, error, message = _MALFORMED_EXPECT[case]
    scene = _basic_scene(checks=[check])
    scene["objects"].update(
        meas={"luders": [[1, 0], [0, 0]]},
        zv={"observable": _Z},
        lz={"instrument": {"luders_of": "zv"}},
    )
    path = _write(tmp_path, scene)
    with pytest.raises(error, match=re.escape(message)):
        load_scene(path)
    for command in ("validate", "run"):
        assert main([command, path]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err


# --- one reader per literal kind ----------------------------------------------


def test_one_number_pins_every_field_of_a_record():
    objects = {"rho": {"state": [[0.5, 0], [0, 0.5]]}, "z": {"observable": _Z}}
    checks = [{"op": "distribution", "args": ["rho", "z"], "expect": want} for want in (0.5, 0.4)]
    exact, off = run_scene(load_scene({"objects": objects, "checks": checks})).checks
    assert exact.passed and exact.residual == 0.0
    assert not off.passed and off.residual == pytest.approx(0.1)


def test_a_repeated_event_label_fails_its_povm_check():
    # An event is a set of outcomes: povm(z, ["0", "0"]) is no effect 2 Z0.
    checks = [{"op": "povm", "args": ["z", ["0", "0"]], "expect": [[2, 0], [0, 0]]}]
    [check] = run_scene(load_scene({"objects": {"z": {"observable": _Z}}, "checks": checks})).checks
    assert not check.passed and check.residual == math.inf
    assert check.error.startswith("InvalidValueError: an event names each outcome once")


_P0, _P1, _ZERO = [[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 0], [0, 0]]
# The composite of the Lüders instrument of Z with itself: P_y P_x for "x,y".
# Its labels carry the separator that an object's labels may not, and it loads
# and passes (test_a_nan_distance_component_fails_the_check runs it unpatched).
_LZ_TWICE = {
    "outcomes": ["0,0", "0,1", "1,0", "1,1"],
    "ops": {"0,0": {"kraus": [_P0]}, "0,1": {"kraus": [_ZERO]},
            "1,0": {"kraus": [_ZERO]}, "1,1": {"kraus": [_P1]}},
}


def _instrument_scene(*checks, **objects):
    scene = _basic_scene(checks=list(checks))
    scene["objects"].update(zv={"observable": _Z}, lz={"instrument": {"luders_of": "zv"}})
    scene["objects"].update(objects)
    return scene


_BAD_EXPECTED_OUTCOMES = {
    "not-a-list": ("0,0", SceneParseError, "check[0]: outcomes must be a nonempty list of labels"),
    "empty": ([], SceneParseError, "check[0]: outcomes must be a nonempty list of labels"),
    "repeated": (
        ["0,0", "0,1", "1,0", "1,1", "0,0"],
        SceneValidationError, "check[0]: outcome labels must be unique",
    ),
    "not-the-ops-keys": (
        ["0,0", "0,1", "1,0"],
        SceneParseError, "check[0]: ops must be keyed exactly by the outcome labels",
    ),
}


@pytest.mark.parametrize("case", sorted(_BAD_EXPECTED_OUTCOMES))
def test_instrument_expectation_outcomes_are_checked_at_load(case, tmp_path, capsys):
    outcomes, error, message = _BAD_EXPECTED_OUTCOMES[case]
    expect = {**_LZ_TWICE, "outcomes": outcomes}
    path = _write(tmp_path, _instrument_scene(
        {"op": "compose_instruments", "args": ["lz", "lz"], "expect": expect}
    ))
    with pytest.raises(error, match=re.escape(message)):
        load_scene(path)
    assert main(["validate", path]) == 2
    assert message in capsys.readouterr().err


# An expectation that names no effect or field would pass against any result.
_EMPTY_EXPECT = {
    "observable-effects": (
        {"op": "measured_observable", "args": ["lz"], "expect": {"effects": {}}},
        "check[0]: an observable expectation names no effect",
    ),
    "record": (
        {"op": "distribution", "args": ["rho", "zv"], "expect": {}},
        "check[0]: a record expectation names no field",
    ),
    "bayes-triple": (
        {"op": "bayes1_check", "args": ["rho", "lz", "p0"], "expect": {}},
        "check[0]: a record expectation names no field",
    ),
}


@pytest.mark.parametrize("case", sorted(_EMPTY_EXPECT))
def test_an_empty_expectation_fails_validate(case, tmp_path, capsys):
    check, message = _EMPTY_EXPECT[case]
    path = _write(tmp_path, _instrument_scene(check))
    with pytest.raises(SceneValidationError, match=re.escape(message)):
        load_scene(path)
    assert main(["validate", path]) == 2
    assert message in capsys.readouterr().err


_BAD_OP_KEYS = {
    "instrument-object": (
        {"bad": {"instrument": {"outcomes": ["0"], "ops": {"0": {"unitary": _P0}}}}},
        [],
        "object 'bad' op '0': expected a kraus, luders or holevo literal",
    ),
    "instrument-expect": (
        {},
        [{"op": "compose_instruments", "args": ["lz", "lz"],
          "expect": {**_LZ_TWICE, "ops": {**_LZ_TWICE["ops"], "1,0": {"unitary": _P0}}}}],
        "check[0] expect op '1,0': expected a kraus, luders or holevo literal",
    ),
    "operation-expect": (
        {},
        [{"op": "bar_channel", "args": ["lz"], "expect": {"unitary": _P0}}],
        "check[0] expect: expected a kraus, luders or holevo literal",
    ),
}


@pytest.mark.parametrize("case", sorted(_BAD_OP_KEYS))
def test_a_bad_op_key_names_its_location(case, tmp_path, capsys):
    # Objects and expectations read operation literals through the same code.
    objects, checks, message = _BAD_OP_KEYS[case]
    path = _write(tmp_path, _instrument_scene(*checks, **objects))
    with pytest.raises(SceneValidationError, match=re.escape(message)):
        load_scene(path)
    for command in ("validate", "run"):
        assert main([command, path]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "literal", ({"luders_of": "rho"}, {"holevo_of": {"observable": "p0", "alphas": {}}})
)
def test_an_instrument_source_must_be_an_observable(literal, tmp_path, capsys):
    path = _write(tmp_path, _instrument_scene(bad={"instrument": literal}))
    with pytest.raises(SceneReferenceError, match="no observable named"):
        load_scene(path)
    assert main(["validate", path]) == 2
    assert "Traceback" not in capsys.readouterr().err


def _nan_after_first_call(real):
    calls = itertools.count()
    return lambda *args: math.nan if next(calls) else real(*args)


def _nan_in_last_field(real):
    def poisoned(value):
        fields = real(value)
        return {**fields, list(fields)[-1]: math.nan}

    return poisoned


# kind -> (module, function poisoned there, poison, check); an observable's
# distance is the observables module's, which scenes and suites share.
_NAN_COMPONENTS = {
    "observable": (
        observables_module, "frobenius", _nan_after_first_call,
        {"op": "measured_observable", "args": ["lz"], "expect": {"effects": _Z["effects"]}},
    ),
    "instrument": (
        scene_module, "choi_distance", _nan_after_first_call,
        {"op": "compose_instruments", "args": ["lz", "lz"], "expect": _LZ_TWICE},
    ),
    "record": (
        scene_module, "value_to_json", _nan_in_last_field,
        {"op": "distribution", "args": ["rho", "zv"], "expect": {"0": 0.5, "1": 0.5}},
    ),
}


@pytest.mark.parametrize("kind", sorted(_NAN_COMPONENTS))
def test_a_nan_distance_component_fails_the_check(kind, monkeypatch):
    # The NaN comes after a finite component, which a running max would keep.
    module, target, poison, check = _NAN_COMPONENTS[kind]
    scene = load_scene(_instrument_scene(check))
    assert run_scene(scene).passed
    monkeypatch.setattr(module, target, poison(getattr(module, target)))
    result = run_scene(scene).checks[0]
    assert not result.passed
    assert math.isnan(result.residual)


# Expectations that load (their labels are only checked against the result)
# but name a label the result lacks.
_RESULT_LACKS_LABEL = {
    "observable": (
        {"op": "measured_observable", "args": ["lz"], "expect": {"effects": {"7": _P0}}},
        "observable result has no outcome '7'",
    ),
    "instrument": (
        {"op": "compose_instruments", "args": ["lz", "lz"],
         "expect": {"outcomes": ["0", "1"], "ops": {"0": {"kraus": [_P0]}, "1": {"kraus": [_P1]}}}},
        "expected outcomes ['0', '1'] != result outcomes ['0,0', '0,1', '1,0', '1,1']",
    ),
    "record": (
        {"op": "distribution", "args": ["rho", "zv"], "expect": {"7": 0.5}},
        "result has no field '7'",
    ),
}


@pytest.mark.parametrize("kind", sorted(_RESULT_LACKS_LABEL))
def test_a_label_the_result_lacks_fails_that_check_alone(kind, tmp_path, capsys):
    check, message = _RESULT_LACKS_LABEL[kind]
    path = _write(tmp_path, _instrument_scene(
        {"op": "prob", "args": ["rho", "p0"], "expect": 0.5}, check
    ))
    assert main(["validate", path]) == 0
    report = run_scene(load_scene(path))
    passing, failing = report.checks
    assert passing.passed and not report.passed
    assert not failing.passed and failing.residual == math.inf
    assert failing.error == f"SceneValidationError: check[1]: {message}"
    assert failing.value is not None and failing.expected == check["expect"]
    json_path = tmp_path / "report.json"
    assert main(["run", path, "--json", str(json_path)]) == 1
    assert message in capsys.readouterr().out
    assert json.loads(json_path.read_text())["failed"] == 1


def test_cli_run_missing_file_exits_2(capsys):
    rc = main(["run", "/no/such/scene.json"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_run_tol_flag(tmp_path, capsys):
    scene = _basic_scene()
    scene["checks"] = [{"op": "prob", "args": ["rho", "p0"], "expect": 0.5 + 1e-10}]
    path = _write(tmp_path, scene)
    assert main(["run", path]) == 0
    assert main(["run", path, "--tol", "1e-12"]) == 1
    capsys.readouterr()


def test_cli_verify_single_suite(capsys):
    rc = main(["verify", "duality", "--dims", "2", "--trials", "10", "--seed", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[pass] duality" in out
    assert "1/1 suites passed (seed 3)" in out


def test_cli_verify_all_conflicts_with_names(capsys):
    rc = main(["verify", "duality", "--all"])
    assert rc == 2
    assert "not both" in capsys.readouterr().err


def test_cli_verify_unknown_suite(capsys):
    rc = main(["verify", "no-such-suite", "--trials", "1"])
    assert rc == 2
    assert "no-such-suite" in capsys.readouterr().err


def test_cli_verify_env_seed(monkeypatch, capsys):
    monkeypatch.setenv("QCOND_SEED", "11")
    rc = main(["verify", "duality", "--dims", "2", "--trials", "5"])
    assert rc == 0
    assert "(seed 11)" in capsys.readouterr().out


def test_cli_verify_seed_flag_beats_env(monkeypatch, capsys):
    monkeypatch.setenv("QCOND_SEED", "11")
    rc = main(["verify", "duality", "--dims", "2", "--trials", "5", "--seed", "3"])
    assert rc == 0
    assert "(seed 3)" in capsys.readouterr().out


def test_cli_verify_invalid_env_seed(monkeypatch, capsys):
    # Exit 1 means a suite failed; a malformed seed is bad input.
    monkeypatch.setenv("QCOND_SEED", "seven")
    assert main(["verify", "duality", "--dims", "2", "--trials", "1"]) == 2
    assert "error: QCOND_SEED must be an integer, got 'seven'" in capsys.readouterr().err


def test_cli_run_unwritable_json_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "out.json"
    assert main(["run", _write(tmp_path, _basic_scene()), "--json", str(out)]) == 2
    captured = capsys.readouterr()
    assert "checks passed" in captured.out
    assert f"error: cannot write {out}: " in captured.err
    assert "Traceback" not in captured.err and not out.exists()


def test_cli_verify_unwritable_json_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "out.json"
    assert main(["verify", "duality", "--dims", "2", "--trials", "1", "--json", str(out)]) == 2
    captured = capsys.readouterr()
    assert "1/1 suites passed" in captured.out
    assert f"error: cannot write {out}: " in captured.err
    assert "Traceback" not in captured.err and not out.exists()


def test_cli_verify_json_deterministic(tmp_path, capsys):
    args = ["verify", "--all", "--dims", "2", "--trials", "10", "--seed", "7"]
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    rc1 = main([*args, "--json", str(first)])
    rc2 = main([*args, "--json", str(second)])
    capsys.readouterr()
    assert rc1 == rc2 == 0
    assert first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text())
    assert payload["seed"] == 7
    assert len(payload["suites"]) == 11


def test_cli_verify_bad_dims(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "duality", "--dims", "1"])
    capsys.readouterr()


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_cli_verify_rejects_trials_below_one(trials, capsys):
    # Zero trials would report every suite, the witness searches too, as passed.
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--all", "--trials", trials])
    assert exc.value.code == 2
    assert "trials must be an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    (
        (["--dims", "a,b"], "argument --dims: dims must be comma-separated integers, got 'a,b'"),
        (["--trials", "x"], "argument --trials: trials must be an integer, got 'x'"),
    ),
    ids=("dims", "trials"),
)
def test_cli_verify_rejects_non_integer_arguments(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "duality", *argv])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


# Python's json reads NaN and Infinity (and json.dumps writes them); JSON has no
# such numbers, so a tolerance or bound must not accept them.
_CHECK = {"op": "prob", "args": ["rho", "p0"]}
_NON_FINITE = {
    "tolerance-eq-inf": (
        {"tolerance": {"eq_tol": math.inf}},
        "tolerance: eq_tol must be a positive number",
    ),
    "tolerance-eq-nan": (
        {"tolerance": {"eq_tol": math.nan}},
        "tolerance: eq_tol must be a positive number",
    ),
    "tolerance-psd-inf": (
        {"tolerance": {"psd_tol": math.inf}},
        "tolerance: psd_tol must be a positive number",
    ),
    "expect-min-nan": (
        {"checks": [{**_CHECK, "expect_min": math.nan}]},
        r"check\[0\]: expect_min must be a number",
    ),
    "expect-max-inf": (
        {"checks": [{**_CHECK, "expect_max": math.inf}]},
        r"check\[0\]: expect_max must be a number",
    ),
    "check-tol-nan": (
        {"checks": [{**_CHECK, "expect": 0.5, "tol": math.nan}]},
        r"check\[0\]: tol must be a positive number",
    ),
    "check-tol-inf": (
        {"checks": [{**_CHECK, "expect": 0.5, "tol": math.inf}]},
        r"check\[0\]: tol must be a positive number",
    ),
}


@pytest.mark.parametrize("case", sorted(_NON_FINITE))
def test_non_finite_scene_numbers_exit_2(case, tmp_path, capsys):
    overrides, message = _NON_FINITE[case]
    scene = _basic_scene(**overrides)
    if "tolerance" in overrides:
        # With an infinite eq_tol this trace-2 "state" would load.
        scene["objects"]["big"] = {"state": [[2, 0], [0, 0]]}
    path = _write(tmp_path, scene)
    with pytest.raises(SceneParseError, match=message):
        load_scene(path)
    for command in ("validate", "run"):
        assert main([command, path]) == 2
        err = capsys.readouterr().err
        assert "must be a" in err and "Traceback" not in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-9", "abc"])
def test_cli_run_rejects_bad_tol(tol, tmp_path, capsys):
    path = _write(tmp_path, _basic_scene())
    with pytest.raises(SystemExit) as exc:
        main(["run", path, f"--tol={tol}"])
    assert exc.value.code == 2
    assert "tol must be a" in capsys.readouterr().err
