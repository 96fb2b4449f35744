"""Pinned report bytes of every suite and every committed scene.

A refactor of the library or of the suites must leave each report as it
was: every suite at dims 2,3 and at d = 5 (25 trials, seed 7), and the
``qcond run`` report of each ``docs/scenes`` file and of
``tests/scenes/every-op.json``.  ``report_pins.json`` holds, per run, the
sha256 of the report's JSON (sorted keys) and its verdict and counts, with
the environment that wrote it.  Round-off depends on numpy, its BLAS and the SIMD extensions numpy
finds on the CPU, so digests are compared only in that environment; the
verdicts and counts are compared everywhere.

To rewrite the file (only when a report is meant to change)::

    PYTHONPATH=src python tests/test_report_pins.py
"""

import hashlib
import json
import os
import pathlib
import platform

import numpy as np
import pytest

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x: the environment never matches, so only counts are compared
    __cpu_features__ = {}

from qcond.scene import load_scene, run_scene
from qcond.suites import SUITE_NAMES, run_suite

ROOT = pathlib.Path(__file__).resolve().parent.parent
PINS = ROOT / "tests" / "report_pins.json"
SEED = 7
RUNS = [(name, dims, 25) for name in SUITE_NAMES for dims in ((2, 3), (5,))]
#: Each scene as ``qcond run`` names it from the checkout's root, so its report's path is the same everywhere.
SCENES = [
    str(path.relative_to(ROOT))
    for path in (*sorted((ROOT / "docs" / "scenes").glob("*.json")), ROOT / "tests" / "scenes" / "every-op.json")
]


def _environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "simd": " ".join(sorted(k for k, found in __cpu_features__.items() if found)),
    }


def _key(name, dims, trials) -> str:
    return f"{name} dims={','.join(map(str, dims))} trials={trials} seed={SEED}"


def _digest(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _pin(name, dims, trials) -> dict:
    report = run_suite(name, dims, trials, SEED)
    return {
        "sha256": _digest(report.to_json()),
        "ok": report.ok,
        "passes": report.passes,
        "failures": len(report.failures),
        "witnesses": len(report.witnesses),
        "missing": report.missing,
    }


def _scene_pin(scene: str) -> dict:
    """The pin of ``qcond run scene``'s report; scene is relative to the working directory."""
    report = run_scene(load_scene(scene)).to_json()
    return {"sha256": _digest(report), **{k: report[k] for k in ("passed", "total", "failed")}}


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


def _assert_pinned(pins, got: dict, pinned: dict) -> None:
    assert {k: v for k, v in got.items() if k != "sha256"} == {
        k: v for k, v in pinned.items() if k != "sha256"
    }
    if pins["environment"] == _environment():
        assert got["sha256"] == pinned["sha256"]


@pytest.mark.parametrize("run", RUNS, ids=lambda run: _key(*run))
def test_a_restacked_report_keeps_its_pinned_bytes(pins, run):
    _assert_pinned(pins, _pin(*run), pins["reports"][_key(*run)])


@pytest.mark.parametrize("scene", SCENES)
def test_a_scene_report_keeps_its_pinned_bytes(pins, scene, monkeypatch):
    monkeypatch.chdir(ROOT)
    _assert_pinned(pins, _scene_pin(scene), pins["scenes"][scene])


if __name__ == "__main__":
    reports = {_key(*run): _pin(*run) for run in RUNS}
    os.chdir(ROOT)
    scenes = {scene: _scene_pin(scene) for scene in SCENES}
    payload = {"environment": _environment(), "reports": reports, "scenes": scenes}
    PINS.write_text(json.dumps(payload, indent=2) + "\n")
