"""Pinned report bytes of the suites that run each kernel once per stack.

``holevo-laws`` and the two ``bayes2-luders`` suites draw and judge a dim's
trials as one stack, and must write the reports the trial-by-trial code
wrote.  ``report_pins.json`` holds, per run, the sha256 of the report's JSON
(sorted keys) and its verdict and counts, with the environment that wrote
it.  Round-off depends on numpy, its BLAS and the SIMD extensions numpy
finds on the CPU, so digests are compared only in that environment; the
verdicts and counts are compared everywhere.

To rewrite the file (only when a report is meant to change)::

    PYTHONPATH=src python tests/test_report_pins.py
"""

import hashlib
import json
import pathlib
import platform

import numpy as np
import pytest

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x: the environment never matches, so only counts are compared
    __cpu_features__ = {}

from qcond.suites import run_suite

PINS = pathlib.Path(__file__).resolve().parent / "report_pins.json"
SEED = 7
RUNS = [
    (name, dims, 25)
    for name in ("holevo-laws", "bayes2-luders-commuting", "bayes2-luders-noncommuting")
    for dims in ((2, 3), (5,))
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


def _pin(name, dims, trials) -> dict:
    report = run_suite(name, dims, trials, SEED)
    text = json.dumps(report.to_json(), sort_keys=True)
    return {
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "ok": report.ok,
        "passes": report.passes,
        "failures": len(report.failures),
        "witnesses": len(report.witnesses),
        "missing": report.missing,
    }


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


@pytest.mark.parametrize("run", RUNS, ids=lambda run: _key(*run))
def test_a_restacked_report_keeps_its_pinned_bytes(pins, run):
    pinned = pins["reports"][_key(*run)]
    got = _pin(*run)
    assert {k: v for k, v in got.items() if k != "sha256"} == {
        k: v for k, v in pinned.items() if k != "sha256"
    }
    if pins["environment"] == _environment():
        assert got["sha256"] == pinned["sha256"]


if __name__ == "__main__":
    payload = {"environment": _environment(), "reports": {_key(*run): _pin(*run) for run in RUNS}}
    PINS.write_text(json.dumps(payload, indent=2) + "\n")
