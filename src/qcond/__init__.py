"""Effect algebras, quantum operations, instruments, and conditioning.

The package models measurements as Kraus-family operations and instruments,
with the dual (Heisenberg) action tying together sequential products,
conditional probabilities, both Bayes rules, contextual second-order
statistics, and measurement entropies.  Every law the library exposes is
also registered as a seeded property suite (``qcond verify``), and scenario
files with frozen expected values run through ``qcond run``.
"""

from .context_stats import (
    Moments,
    UncertaintyReport,
    commutator_trace,
    conditioned_stochastic_operator,
    contextual_correlation,
    contextual_covariance,
    contextual_expectation,
    contextual_moments,
    contextual_variance,
    holevo_moments,
    sharp_luders_moments,
    uncertainty_report,
)
from .core import (
    Violation,
    complement,
    is_atomic,
    is_sharp,
    perp,
    prob,
    validate_effect,
    validate_state,
)
from .entropy import (
    conditional_effect_entropy,
    conditional_observable_entropy_double,
    conditional_observable_entropy_single,
    effect_entropy,
    observable_entropy,
    sequential_entropy,
    sequential_entropy_dominated,
)
from .errors import (
    DimMismatchError,
    InvalidTypeError,
    InvalidValueError,
    MissingAlphaError,
    NotCommutingFamilyError,
    NotHermitianError,
    NotJointlyCommutingError,
    NotPSDError,
    QcondError,
    RetryExhaustedError,
    SceneError,
    SceneParseError,
    SceneReferenceError,
    SceneValidationError,
    SuiteArgumentError,
    UnknownLabelError,
    UnknownSuiteError,
    ZeroProbabilityConditionError,
)
from .instruments import (
    COMPOSITE_LABEL_SEPARATOR,
    BayesTriple,
    Instrument,
    atomic_context,
    bar_channel,
    bayes1_check,
    bayes1_expectation_check,
    compose_instruments,
    condition_effect,
    condition_instrument,
    condition_observable,
    condition_state,
    condition_subobservable,
    holevo_instrument,
    luders_instrument,
    measured_observable,
    validate_instrument,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    commutator,
    dagger,
    frobenius,
    hermitian_eig,
    is_hermitian,
    loewner_leq,
    psd_sqrt,
    simultaneous_eigenbasis,
    trace_product,
)
from .observables import (
    EXTENSION_LABEL,
    Observable,
    RealValuedObservable,
    SubObservable,
    conditional_expectation,
    distribution,
    expectation,
    is_commuting,
    jointly_commuting,
    minimal_extension,
    povm,
    stochastic_operator,
    validate_observable,
    validate_subobservable,
)
from .operations import (
    Operation,
    apply,
    bayes2_residual,
    choi_distance,
    choi_matrix,
    compose,
    conditional_prob,
    dual_apply,
    holevo,
    is_channel,
    luders,
    maps_equal,
    measured_effect,
    sequential_product,
    updated_state,
    validate_operation,
)
from .rand import (
    Generator,
    random_atomic_effect,
    random_atomic_observable,
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
from .scene import Scene, SceneReport, load_scene, run_scene
from .suites import DEFAULT_SEED, SUITE_NAMES, SuiteReport, run_suite

__version__ = "0.1.0"
