"""Kernel poisoning: a kernel that returns NaN never lets a check pass.

Each kernel is patched, one at a time and in every qcond module that holds
it, to return NaN in place of its result.  Every suite that calls it must
then fail or raise a typed QcondError, and so must the scene that runs every
scene operation.  The stacked suites' private paths (``_kraus_products``,
``_measured`` and the stacked form of ``_kraus_sum``) are poisoned too, and
so are the transforms ``rand`` applies to its draws, which only suites reach.
"""

import json
import pathlib
import sys

import numpy as np
import pytest

from qcond import SUITE_NAMES, QcondError, run_suite
from qcond.scene import load_scene, run_scene

EVERY_OP = pathlib.Path(__file__).resolve().parent / "scenes" / "every-op.json"

KERNELS = (
    ("linalg", "hermitian_eig"),
    ("linalg", "psd_sqrt"),
    ("linalg", "trace_product"),
    ("linalg", "frobenius"),
    ("operations", "_kraus_sum"),
    ("operations", "_kraus_products"),
    ("operations", "_measured"),
    ("entropy", "_term"),
    ("context_stats", "contextual_moments"),
)
# Reached by the suites' draws only: no scene draws a random object.
SUITE_KERNELS = KERNELS + (
    ("rand", "_unit_spectrum"),
    ("rand", "_normalized_gram"),
    ("rand", "_unitary"),
)


def _nan_like(result):
    if isinstance(result, tuple):  # a NamedTuple is rebuilt as its own type
        parts = [_nan_like(part) for part in result]
        return type(result)(*parts) if hasattr(result, "_fields") else tuple(parts)
    return result * np.nan  # a float, a complex or an array, each entry NaN


def _poison(monkeypatch, layer: str, name: str) -> list[int]:
    """Patch layer.name to return NaN wherever qcond holds it; the list counts its calls."""
    real = getattr(sys.modules[f"qcond.{layer}"], name)
    calls = [0]

    def poisoned(*args, **kwargs):
        calls[0] += 1
        return _nan_like(real(*args, **kwargs))

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("qcond") and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, poisoned)
    return calls


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("kernel", SUITE_KERNELS, ids=".".join)
def test_a_nan_kernel_fails_every_suite_that_reaches_it(monkeypatch, kernel):
    calls = _poison(monkeypatch, *kernel)
    reached = []
    for name in SUITE_NAMES:
        before = calls[0]
        try:
            report = run_suite(name, dims=(2, 3), trials=3, seed=7)
        except QcondError:
            reached.append(name)
            continue
        if calls[0] > before:
            reached.append(name)
            assert not report.ok, (kernel, name)
    assert reached


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("kernel", KERNELS, ids=".".join)
def test_a_nan_kernel_fails_the_every_op_scene(monkeypatch, kernel):
    calls = _poison(monkeypatch, *kernel)
    try:  # a kernel called while the scene's objects are built may fail its load
        passed = run_scene(load_scene(json.loads(EVERY_OP.read_text()))).passed
    except QcondError:
        passed = False
    assert calls[0] and not passed


def test_the_every_op_scene_passes_unpoisoned():
    assert run_scene(load_scene(json.loads(EVERY_OP.read_text()))).passed
