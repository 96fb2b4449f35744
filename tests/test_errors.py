"""Invalid input at the public boundary raises a QcondError.

Each site's error also derives from the builtin it raised before
(ValueError or TypeError), so callers that catch the builtin still work,
and the command line's ``except QcondError`` catches them all.
"""

import math

import numpy as np
import pytest

from qcond import (
    EXTENSION_LABEL,
    Instrument,
    InvalidTypeError,
    InvalidValueError,
    Observable,
    QcondError,
    RealValuedObservable,
    SubObservable,
    SuiteArgumentError,
    Tolerance,
    UnknownLabelError,
    as_matrix,
    atomic_context,
    compose_instruments,
    luders,
    minimal_extension,
    povm,
    run_suite,
    stochastic_operator,
)
from qcond.rand import Generator, random_projective_observable

_P0 = np.diag([1.0, 0.0])
_Z = Observable(("0", "1"), {"0": _P0, "1": np.eye(2) - _P0})

_SITES = {
    "subobservable-duplicate-labels": (ValueError, lambda: SubObservable(("a", "a"), {"a": _P0})),
    "instrument-duplicate-labels": (ValueError, lambda: Instrument(("a", "a"), {"a": luders(_P0)})),
    "real-value-not-finite": (
        ValueError,
        lambda: RealValuedObservable(_Z, {"0": math.nan, "1": 0.0}),
    ),
    "stochastic-operator-without-values": (TypeError, lambda: stochastic_operator(_Z)),
    "extension-label-reserved": (
        ValueError,
        lambda: minimal_extension(SubObservable((EXTENSION_LABEL,), {EXTENSION_LABEL: _P0})),
    ),
    "composite-label-ambiguous": (
        ValueError,
        lambda: compose_instruments(
            Instrument(("a", "a,b"), {"a": luders(_P0), "a,b": luders(np.eye(2) - _P0)}),
            Instrument(("b,c", "c"), {"b,c": luders(_P0), "c": luders(np.eye(2) - _P0)}),
        ),
    ),
    "atomic-context-empty": (ValueError, lambda: atomic_context([])),
    "projective-too-many-outcomes": (
        ValueError,
        lambda: random_projective_observable(Generator(0), 2, 3),
    ),
    "tolerance-negative": (ValueError, lambda: Tolerance(eq_tol=-1e-9)),
    "tolerance-eq-nan": (ValueError, lambda: Tolerance(eq_tol=math.nan)),
    "tolerance-eq-inf": (ValueError, lambda: Tolerance(eq_tol=math.inf)),
    "tolerance-psd-nan": (ValueError, lambda: Tolerance(psd_tol=math.nan)),
    "tolerance-psd-inf": (ValueError, lambda: Tolerance(psd_tol=math.inf)),
    "matrix-ragged": (ValueError, lambda: as_matrix([[1, 2], [3]])),
    "matrix-entry-not-a-number": (TypeError, lambda: Observable(("x",), {"x": object()})),
    "instrument-value-not-an-operation": (TypeError, lambda: Instrument(("x",), {"x": np.eye(2)})),
    "observable-without-outcomes": (ValueError, lambda: Observable((), {})),
    "instrument-without-outcomes": (ValueError, lambda: Instrument((), {})),
    "povm-repeated-label": (ValueError, lambda: povm(_Z, ["0", "0"])),
}


@pytest.mark.parametrize("site", sorted(_SITES))
def test_invalid_input_raises_a_typed_error(site):
    builtin, call = _SITES[site]
    typed = InvalidValueError if builtin is ValueError else InvalidTypeError
    with pytest.raises(typed) as exc:
        call()
    assert isinstance(exc.value, QcondError) and isinstance(exc.value, builtin)


def test_one_class_per_builtin():
    assert issubclass(InvalidValueError, ValueError) and issubclass(InvalidTypeError, TypeError)
    assert issubclass(SuiteArgumentError, InvalidValueError)
    with pytest.raises(SuiteArgumentError):
        run_suite("duality", dims=[1], trials=1)


@pytest.mark.parametrize("values", ({"0": 1.0}, {"0": 1.0, "1": -1.0, "2": 0.0}), ids=("missing", "extra"))
def test_real_values_are_keyed_exactly_by_the_outcome_labels(values):
    # A missing label used to raise a bare KeyError, and an extra one was dropped.
    with pytest.raises(UnknownLabelError, match="keyed exactly"):
        RealValuedObservable(_Z, values)
