"""Invalid input at the public boundary raises a QcondError.

Each site's error also derives from the builtin it raised before
(ValueError or TypeError), so callers that catch the builtin still work,
and the command line's ``except QcondError`` catches them all.  A site may
instead name the QcondError it must raise, where another public function
raises that error for the same input.
"""

import math

import numpy as np
import pytest

from qcond import (
    EXTENSION_LABEL,
    DimMismatchError,
    Instrument,
    InvalidTypeError,
    InvalidValueError,
    MissingAlphaError,
    NotHermitianError,
    NotPSDError,
    Observable,
    Operation,
    QcondError,
    RealValuedObservable,
    SubObservable,
    SuiteArgumentError,
    Tolerance,
    UnknownLabelError,
    as_matrix,
    atomic_context,
    bayes2_residual,
    compose_instruments,
    conditional_prob,
    effect_entropy,
    hermitian_eig,
    holevo,
    holevo_instrument,
    holevo_moments,
    is_atomic,
    is_hermitian,
    loewner_leq,
    luders,
    minimal_extension,
    povm,
    prob,
    psd_sqrt,
    run_suite,
    sharp_luders_moments,
    stochastic_operator,
    trace_product,
)
from qcond.rand import Generator, random_projective_observable

_P0 = np.diag([1.0, 0.0])
_Z = Observable(("0", "1"), {"0": _P0, "1": np.eye(2) - _P0})
_BZ = RealValuedObservable(_Z, {"0": 1.0, "1": -1.0})

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
    "instrument-ops-not-a-mapping": (TypeError, lambda: Instrument(["a"], [luders(_P0)])),
    "subobservable-effects-not-a-mapping": (TypeError, lambda: SubObservable(["a"], [_P0])),
    "real-values-on-a-dict": (TypeError, lambda: RealValuedObservable({"outcomes": ("0",)}, {"0": 1.0})),
    "real-value-not-a-number": (ValueError, lambda: RealValuedObservable(_Z, {"0": "x", "1": 0.0})),
    "holevo-moments-missing-alpha": (
        MissingAlphaError,
        lambda: holevo_moments(np.eye(2) / 2, _Z, {"0": np.eye(2) / 2}, _BZ, _BZ),
    ),
    "sharp-luders-moments-state-dim": (
        DimMismatchError,
        lambda: sharp_luders_moments(np.eye(3) / 3, _Z, _BZ, _BZ),
    ),
    "subobservable-effect-not-square": (DimMismatchError, lambda: SubObservable(("a",), {"a": np.ones((2, 3))})),
    "subobservable-effect-3d": (DimMismatchError, lambda: SubObservable(("a",), {"a": np.ones((1, 2, 2))})),
    "subobservable-mixed-dimensions": (
        DimMismatchError,
        lambda: SubObservable(("a", "b"), {"a": np.eye(2), "b": np.eye(3)}),
    ),
}

# Each function that reads a matrix argument, given a ragged or a non-numeric one.
_MATRIX_READERS = {
    "psd_sqrt": psd_sqrt,
    "luders": luders,
    "hermitian_eig": hermitian_eig,
    "trace_product": lambda m: trace_product(m, np.eye(2)),
    "prob": lambda m: prob(m, _P0),
    "conditional_prob": lambda m: conditional_prob(m, luders(_P0), _P0),
    "bayes2_residual": lambda m: bayes2_residual(m, luders(_P0), luders(_P0)),
    "effect_entropy": lambda m: effect_entropy(m, _P0),
    "Operation": lambda m: Operation([m]),
    "SubObservable": lambda m: SubObservable(("a",), {"a": m}),
    "is_hermitian": is_hermitian,
}
for _name, _read in _MATRIX_READERS.items():
    _SITES[f"{_name}-ragged"] = (ValueError, lambda read=_read: read([[1, 2], [3]]))
    _SITES[f"{_name}-not-a-number"] = (TypeError, lambda read=_read: read([[1, object()], [0, 1]]))


@pytest.mark.parametrize("site", sorted(_SITES))
def test_invalid_input_raises_a_typed_error(site):
    builtin, call = _SITES[site]
    typed = {ValueError: InvalidValueError, TypeError: InvalidTypeError}.get(builtin, builtin)
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


# A Holevo spectrum must clear psd_sqrt's floor: an effect or update state
# whose Hermitian part overflows (1e308 entries) has NaN eigenvalues, and a
# cutoff that dropped them would return the zero operation.
_HOLEVO_BAD = {
    "nan": (NotHermitianError, np.full((2, 2), math.nan)),
    "1e308": (NotPSDError, np.full((2, 2), 1e308)),
    "eigenvalue-minus-1e-6": (NotPSDError, np.diag([-1e-6, 1.0])),
}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("side", ("effect", "update-state"))
@pytest.mark.parametrize("case", sorted(_HOLEVO_BAD))
def test_holevo_rejects_a_spectrum_below_the_floor(case, side):
    error, bad = _HOLEVO_BAD[case]
    a, alpha = (bad, np.eye(2) / 2) if side == "effect" else (_P0, bad)
    with pytest.raises(error):
        holevo(a, alpha)
    obs = Observable(("0", "1"), {"0": _P0, "1": a})
    with pytest.raises(error):
        holevo_instrument(obs, {"0": np.eye(2) / 2, "1": alpha})


# A matrix whose Hermitian part overflows has NaN eigenvalues at every d.
# LAPACK returns NaN for it at d = 2 but raises its own LinAlgError beyond,
# so each site used to give a typed outcome at d = 2 alone.
_PAST_THE_LIMIT_RAISES = {
    "psd_sqrt": psd_sqrt,
    "luders": luders,
    "holevo-effect": lambda big: holevo(big, np.eye(len(big)) / len(big)),
    "holevo-update-state": lambda big: holevo(np.eye(len(big)) / 2, big),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("d", (2, 3, 5))
def test_a_spectrum_past_the_float64_limit_is_typed_at_every_d(d):
    big, eye = np.full((d, d), 1e308), np.eye(d)
    for site in _PAST_THE_LIMIT_RAISES.values():
        with pytest.raises(NotPSDError, match="eigenvalue nan"):
            site(big)
    w, v = hermitian_eig(big)
    assert w.shape == (d,) and v.shape == (d, d) and np.isnan(w).all() and np.isnan(v).all()
    assert not loewner_leq(big, eye) and not loewner_leq(eye, big) and not is_atomic(big)
    # In a stack, the sound matrix keeps the spectrum it has alone.
    sound = np.diag(np.arange(d, dtype=float))
    (w0, w1), (v0, v1) = hermitian_eig(np.stack([sound, big]))
    assert all(np.array_equal(x, y) for x, y in zip((w0, v0), hermitian_eig(sound)))
    assert np.isnan(w1).all() and np.isnan(v1).all()
