"""tools/compare_reports.py on small hand-made reports.

Numbers may drift by 1e-13; a changed verdict, count or list length is a
difference, and so is a bare real where the other side has an [re, im] pair.
"""

import copy
import json
import pathlib
import subprocess
import sys

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "compare_reports.py"

SUITE = {
    "suite": "bayes2-luders-noncommuting",
    "seed": 7,
    "dims": [2],
    "trials": 2,
    "passes": 2,
    "failures": [],
    "max_residual": 0.0633,
    "witnesses": [{"dim": 2.0, "a": [[0.5, [0.25, 0.125]], [[0.25, -0.125], 0.5]], "residual": 0.0633}],
}
SCENE = {
    "scene": "basic",
    "path": "docs/scenes/basic.json",
    "passed": True,
    "total": 1,
    "failed": 0,
    "checks": [{"index": 0, "op": "prob", "passed": True, "residual": 0.0, "value": 0.5, "expected": 0.5}],
}


def _compare(tmp_path, left: dict, right: dict):
    for side, reports in (("a", left), ("b", right)):
        (tmp_path / side).mkdir()
        for name, report in reports.items():
            (tmp_path / side / name).write_text(json.dumps(report))
    return subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path / "a"), str(tmp_path / "b")],
        capture_output=True,
        text=True,
    )


def test_identical_reports_agree(tmp_path):
    reports = {"suite.json": SUITE, "scene.json": SCENE}
    done = _compare(tmp_path, reports, copy.deepcopy(reports))
    assert done.returncode == 0, done.stdout
    assert "no numeric drift" in done.stdout
    assert "compared 2 report pair(s), 2 byte-identical" in done.stdout


def test_round_off_agrees(tmp_path):
    suite = copy.deepcopy(SUITE)
    suite["witnesses"][0]["a"][0][1] = [0.25 + 2e-16, 0.125]
    suite["max_residual"] = 0.0633 + 1e-14
    scene = copy.deepcopy(SCENE)
    scene["path"] = None  # where the scene was read from is not compared
    done = _compare(tmp_path, {"suite.json": SUITE, "scene.json": SCENE}, {"suite.json": suite, "scene.json": scene})
    assert done.returncode == 0, done.stdout
    assert "largest numeric drift 1e-14 at suite.json.max_residual" in done.stdout
    assert "compared 2 report pair(s), 0 byte-identical" in done.stdout


def test_shape_flip_differs(tmp_path):
    suite = copy.deepcopy(SUITE)
    suite["witnesses"][0]["a"][0][0] = [0.5, 0.0]  # bare real -> pair
    scene = copy.deepcopy(SCENE)
    scene["checks"][0]["value"] = [0.5, 0.0]  # bare real -> pair
    done = _compare(tmp_path, {"suite.json": SUITE, "scene.json": SCENE}, {"suite.json": suite, "scene.json": scene})
    assert done.returncode == 1, done.stdout
    assert "suite.json.witnesses[0].a[0][0]: 0.5 != [0.5, 0.0]" in done.stdout
    assert "scene.json.checks[0].value: 0.5 != [0.5, 0.0]" in done.stdout
    assert "DIFFERENT: 2 difference(s)" in done.stdout


def test_byte_identical_pairs_are_counted(tmp_path):
    # Equal content written with other whitespace agrees but is not byte-identical.
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    for side, indent in (("a", None), ("b", 2)):
        (tmp_path / side / "scene.json").write_text(json.dumps(SCENE))
        (tmp_path / side / "suite.json").write_text(json.dumps(SUITE, indent=indent))
    done = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path / "a"), str(tmp_path / "b")],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stdout
    assert "compared 2 report pair(s), 1 byte-identical" in done.stdout


def test_verdict_flip_differs(tmp_path):
    scene = copy.deepcopy(SCENE)
    scene["passed"] = False
    scene["failed"] = 1
    scene["checks"][0]["passed"] = False
    suite = copy.deepcopy(SUITE)
    suite["witnesses"] = []
    suite["max_residual"] = 0.0633 + 1e-12  # beyond the 1e-13 drift bound
    done = _compare(tmp_path, {"suite.json": SUITE, "scene.json": SCENE}, {"suite.json": suite, "scene.json": scene})
    assert done.returncode == 1
    for where in (
        "scene.json.passed",
        "scene.json.failed",
        "scene.json.checks[0].passed",
        "suite.json.witnesses",
        "suite.json.max_residual",
    ):
        assert where in done.stdout
