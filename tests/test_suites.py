import dataclasses
import json
import types

import numpy as np
import pytest

from qcond import (
    SUITE_NAMES,
    Moments,
    Observable,
    Operation,
    QcondError,
    SuiteArgumentError,
    UnknownSuiteError,
    contextual_moments,
    run_suite,
)
from qcond import observables, suites
from qcond.cli import main
from qcond.rand import Generator
from qcond.serialize import value_to_json

ENTROPY_WITNESS_LAWS = [
    "sequential-entropy-exceeds-conditional",
    "single-bar-differs-from-double-bar",
    "single-bar-chain-fails-for-fresh-measurement",
]


def test_registry_contents():
    assert "duality" in SUITE_NAMES
    assert "entropy" in SUITE_NAMES
    assert len(SUITE_NAMES) == 11


def test_duality_suite_passes():
    report = run_suite("duality", dims=(2, 3), trials=50, seed=7)
    assert report.ok
    assert report.passes == report.trials == 100
    assert report.max_residual < 1e-9


def test_unknown_suite():
    with pytest.raises(UnknownSuiteError):
        run_suite("no-such-suite")


def test_zero_trials_is_an_empty_pass():
    for name in SUITE_NAMES:
        report = run_suite(name, dims=(2,), trials=0, seed=7)
        assert report.trials == 0
        assert report.ok


def test_dims_must_be_at_least_two():
    with pytest.raises(ValueError):
        run_suite("duality", dims=(1,), trials=1)


def test_negative_trials_raise_a_typed_error():
    with pytest.raises(SuiteArgumentError) as info:
        run_suite("duality", dims=(2,), trials=-3)
    assert isinstance(info.value, QcondError) and isinstance(info.value, ValueError)
    with pytest.raises(SuiteArgumentError):
        run_suite("duality", dims=(2, 1), trials=1)


@pytest.mark.parametrize("dims, trials, seed, argument", (
    ((2.7,), 2.9, 7, "dims"),
    ((2,), 2.9, 7, "trials"),
    (("x",), 2, 7, "dims"),
    ((2,), True, 7, "trials"),
    ((True, 2), 2, 7, "dims"),
    ((2,), "3", 7, "trials"),
    (3, 2, 7, "dims"),
    ((2,), 2, 7.9, "seed"),
    ((2,), 2, True, "seed"),
    ((2,), 2, "x", "seed"),
))
def test_sizes_that_are_not_integers_raise_a_typed_error_naming_them(dims, trials, seed, argument):
    with pytest.raises(SuiteArgumentError, match=f"^{argument}") as info:
        run_suite("duality", dims=dims, trials=trials, seed=seed)
    assert isinstance(info.value, QcondError)


def test_numpy_integer_sizes_run_as_ints():
    report = run_suite("duality", dims=(np.int64(2), np.uint8(3)), trials=np.int32(3), seed=np.int16(7))
    assert report.dims == [2, 3] and report.trials == 6 and report.seed == 7
    assert [type(x) for x in (*report.dims, report.seed)] == [int, int, int]
    as_ints = run_suite("duality", dims=(2, 3), trials=3, seed=7)
    assert json.dumps(report.to_json()) == json.dumps(as_ints.to_json())


def test_noncommuting_search_reports_witnesses():
    report = run_suite("bayes2-luders-noncommuting", dims=(2,), trials=50, seed=7)
    assert report.ok
    assert len(report.witnesses) >= 49  # the 2% unfound allowance
    for w in report.witnesses:
        assert w["residual"] > 1e-6


def test_entropy_suite_serializes_required_witnesses():
    report = run_suite("entropy", dims=(2, 3), trials=25, seed=7)
    assert report.ok
    laws = {w.get("law") for w in report.witnesses if isinstance(w, dict)}
    assert "sequential-entropy-exceeds-conditional" in laws
    assert "single-bar-differs-from-double-bar" in laws
    assert "single-bar-chain-fails-for-fresh-measurement" in laws
    json.dumps(report.to_json())  # every witness must be JSON-clean


def test_reports_are_deterministic():
    a = run_suite("uncertainty", dims=(2, 3), trials=10, seed=7)
    b = run_suite("uncertainty", dims=(2, 3), trials=10, seed=7)
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)
    c = run_suite("uncertainty", dims=(2, 3), trials=10, seed=8)
    assert json.dumps(b.to_json(), sort_keys=True) != json.dumps(c.to_json(), sort_keys=True)


def test_all_suites_pass_at_defaults():
    for name in SUITE_NAMES:
        report = run_suite(name, dims=(2, 3), trials=25, seed=7)
        assert report.ok, (name, report.to_json().get("notes"), len(report.failures))


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_trial_order_does_not_change_the_report(name):
    # Each trial draws only from its own derived generator (and sweeps draw
    # their states in chunks of any size), and no law value depends on which
    # other trials share its stack.  So evaluating the trials as one-trial
    # stacks in shuffled order and judging them in order must give the bytes
    # of run_suite, which hands each dim's trials over as one stack.
    dims, trials, seed = (2, 3), 6, 7
    trial, _period, laws = suites._SUITES[name]
    root = Generator(seed).derive(SUITE_NAMES.index(name))
    keys = [(dim, t) for dim in dims for t in range(trials)]
    shuffled = Generator(2024).shuffled(keys)
    assert shuffled != keys
    outputs = {}
    for dim, t in shuffled:
        [outputs[dim, t]] = trial([root.derive(dim, t)], dim, [t])
    run = suites._Run(suites.SuiteReport(name, seed, list(dims), 0, 0, [], 0.0), laws)
    for key in keys:
        run.judge(*outputs[key])
    shuffled_report = json.dumps(run.finish().to_json(), sort_keys=True)
    in_order = json.dumps(run_suite(name, dims, trials, seed).to_json(), sort_keys=True)
    assert shuffled_report == in_order


#: Suites whose laws search for counterexamples; each must report witnesses.
SEARCH_SUITES = ("bayes2-luders-noncommuting", "entropy")


@pytest.mark.slow
@pytest.mark.parametrize("dim, trials", ((8, 3), (16, 3), (32, 2)))
@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suites_pass_at_large_dims(name, dim, trials):
    report = run_suite(name, dims=(dim,), trials=trials, seed=7)
    assert report.ok, (name, dim, report.to_json().get("notes"), report.missing)
    if name in SEARCH_SUITES:
        assert report.witnesses


def test_report_json_shape():
    report = run_suite("duality", dims=(2,), trials=3, seed=7)
    payload = report.to_json()
    assert payload["suite"] == "duality"
    assert payload["seed"] == 7
    assert payload["dims"] == [2]
    assert payload["trials"] == 3
    assert payload["passes"] == 3
    assert payload["failures"] == []
    assert "missing" not in payload
    assert isinstance(payload["max_residual"], float)
    assert value_to_json(payload) == payload


def test_holevo_laws_one_trial_at_d16():
    # Composed Holevo operations stay at the Choi rank (at most d**2 = 256
    # operators instead of about d**4), which makes d = 16 affordable.
    assert run_suite("holevo-laws", dims=(16,), trials=1, seed=7).ok


def _report_counts_add_up(report):
    assert report.passes + len(report.failures) == report.trials
    assert all(f.residual != 1.0 for f in report.failures)


def test_entropy_searches_that_find_nothing_are_named_missing(monkeypatch):
    # Every Holevo candidate looks dominated, every entropy gap is 0 and every
    # conditioned observable entropy is 0, so none of the three once-per-run
    # searches can find its witness, while the other entropy laws still hold.
    monkeypatch.setattr(suites, "_dominated", lambda *a, **k: True)
    monkeypatch.setattr(suites, "_entropy_gap", lambda rho, *a, **k: np.zeros(len(rho)))
    for name in (
        "conditional_observable_entropy_single",
        "conditional_observable_entropy_double",
    ):
        monkeypatch.setattr(suites, name, lambda *a, **k: 0.0)
    report = run_suite("entropy", dims=(2,), trials=6, seed=7)
    assert not report.ok
    assert report.missing == ENTROPY_WITNESS_LAWS
    assert report.to_json()["missing"] == ENTROPY_WITNESS_LAWS
    assert report.witnesses == []
    assert report.failures == [] and report.passes == report.trials == 6
    _report_counts_add_up(report)


def test_noncommuting_search_beyond_allowance_is_missing(monkeypatch):
    monkeypatch.setattr(suites, "bayes2_residual", lambda rho, *a, **k: np.zeros(len(rho)))
    report = run_suite("bayes2-luders-noncommuting", dims=(2,), trials=5, seed=7)
    assert not report.ok
    assert report.missing == ["bayes2-violated"]
    assert report.passes == report.trials == 5 and report.max_residual == 0.0
    assert any("5/5" in note and "beyond" in note for note in report.notes)
    _report_counts_add_up(report)


def test_runner_judges_laws_by_their_declared_kind(monkeypatch):
    searched = []

    def search():
        searched.append(1)
        return {"gap": 0.5}

    def trial(g, dim, t):
        values = {"small": 1e-12, "large": 0.25 if t == 1 else 0.0, "cond": t != 2}
        values["skippable"] = None if t == 0 else 0.0
        values["found-once"] = search
        return values, {"dim": dim, "t": t}

    laws = {
        "small": 1.0,
        "large": 1.0,
        "cond": suites._HOLDS,
        "skippable": 0.1,
        "found-once": suites._ONCE,
    }
    monkeypatch.setitem(suites._SUITES, "duality", (suites._per_trial(trial), 1, laws))
    report = run_suite("duality", dims=(2,), trials=4, seed=7)
    assert [(f.trial, f.laws, f.residual) for f in report.failures] == [
        (1, ["large"], 0.25),
        (2, ["cond"], 1e-12),
    ]
    assert report.failures[0].to_json()["witness"] == {"dim": 2.0, "t": 1.0}
    assert report.max_residual == 0.25 and report.passes == 2
    assert report.notes == ["skippable: skipped in 1/4 trials"]
    assert report.witnesses == [{"law": "found-once", "gap": 0.5}]
    assert len(searched) == 1  # a found once-per-run law is not searched again
    _report_counts_add_up(report)


def _off_by_a_millionth(closed_form, field):
    def perturbed(*args):
        m = closed_form(*args)
        return m._replace(**{field: getattr(m, field) + 1e-6})

    return perturbed


@pytest.mark.parametrize("field", Moments._fields)
def test_closed_forms_law_compares_every_moment(monkeypatch, field):
    # Trials 0 and 1 pin the Lüders and the Holevo closed forms; trial 2 has
    # a random instrument and no closed form.
    for name in ("sharp_luders_moments", "holevo_moments"):
        monkeypatch.setattr(suites, name, _off_by_a_millionth(getattr(suites, name), field))
    report = run_suite("uncertainty", dims=(2,), trials=3, seed=7)
    assert not report.ok
    assert [(f.trial, f.laws) for f in report.failures] == [
        (0, ["closed-forms"]),
        (1, ["closed-forms"]),
    ]


def test_uncertainty_trial_computes_its_moments_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(1)
        return contextual_moments(*args)

    monkeypatch.setattr(suites, "contextual_moments", counted)
    report = run_suite("uncertainty", dims=(2, 3), trials=3, seed=7)
    assert report.ok and report.trials == len(calls) == 6


def test_undeclared_law_raises(monkeypatch):
    trial = lambda g, dim, t: ({"duality": 0.0, "no-such-law": 0.0}, {})  # noqa: E731
    monkeypatch.setitem(suites._SUITES, "duality", (suites._per_trial(trial), 1, {"duality": 1.0}))
    with pytest.raises(KeyError, match="no-such-law"):
        run_suite("duality", dims=(2,), trials=1)


# The three laws below were once judged inside their trials; each is now a
# residual bounded in the table.  Pushing its value just past the bound must
# fail every trial on that law alone, and just inside it must pass.


def _failed_laws(report):
    return [f.laws for f in report.failures]


@pytest.mark.parametrize("slack, ok", ((-2e-9, False), (-0.5e-9, True)))
def test_uncertainty_inequality_is_bounded_by_one_eq_tol(monkeypatch, slack, ok):
    real = suites.UncertaintyReport.from_moments

    def shifted(m):
        return dataclasses.replace(real(m), inequality_slack=slack)

    monkeypatch.setattr(suites.UncertaintyReport, "from_moments", shifted)
    report = run_suite("uncertainty", dims=(2,), trials=3, seed=7)
    assert report.ok is ok
    assert _failed_laws(report) == ([] if ok else [["uncertainty-inequality"]] * 3)


@pytest.mark.parametrize("norms, ok", (([0.0, 1.5e-8], False), ([0.0, 0.5e-8], True), ([0.0, np.nan], False)))
def test_conditioned_family_commutes_is_bounded_by_ten_eq_tol(monkeypatch, norms, ok):
    # The NaN comes second: a plain max would drop it and pass.
    monkeypatch.setattr(suites, "_commutator_norms", lambda fam: iter(norms))
    report = run_suite("atomic-context", dims=(2, 3), trials=2, seed=7)
    assert report.ok is ok
    assert _failed_laws(report) == ([] if ok else [["conditioned-family-commutes"]] * 4)


def _nan_commutator_norms(monkeypatch):
    # The family law's NaN comes after a finite norm; the other laws stay finite.
    monkeypatch.setattr(suites, "_commutator_norms", lambda fam: iter([0.0, np.nan]))


def test_a_nan_residual_sticks_in_the_failures_and_max_residual(monkeypatch):
    _nan_commutator_norms(monkeypatch)
    report = run_suite("atomic-context", dims=(2,), trials=2, seed=7)
    assert _failed_laws(report) == [["conditioned-family-commutes"]] * 2
    assert [np.isnan(f.residual) for f in report.failures] == [True, True]
    assert np.isnan(report.max_residual)


def test_cli_verify_json_writes_a_nan_residual_as_a_string(
    monkeypatch, tmp_path, capsys, strict_loads
):
    _nan_commutator_norms(monkeypatch)
    out = tmp_path / "verify.json"
    argv = ["verify", "atomic-context", "--dims", "2", "--trials", "2", "--seed", "7"]
    assert main([*argv, "--json", str(out)]) == 1
    assert "FAIL" in capsys.readouterr().out
    suite = strict_loads(out.read_text())["suites"][0]
    assert suite["max_residual"] == "NaN"
    assert [f["residual"] for f in suite["failures"]] == ["NaN", "NaN"]


def test_a_nan_eigenvalue_fails_transport_below_effect(monkeypatch):
    # Only the suites module's spectra are NaN; max(0.0, nan) gives 0.0.
    monkeypatch.setattr(suites, "_spectrum", lambda m: np.full(m.shape[:-1], np.nan))
    report = run_suite("sequential-product-bounds", dims=(2,), trials=2, seed=7)
    assert not report.ok
    assert _failed_laws(report) == [["transport-below-effect"]] * 2
    assert np.isnan(report.max_residual)


def test_effects_gap_keeps_a_nan_after_a_finite_gap():
    eye = np.eye(2, dtype=complex)
    b = Observable(["0", "1"], {"0": eye, "1": 0 * eye})
    a = types.SimpleNamespace(effects={"0": eye, "1": np.full((2, 2), np.nan)})
    assert np.isnan(observables._effects_distance(a, b.effects))


@pytest.mark.parametrize(
    "suite, target, poison, law, trials",
    (
        # trial 1 draws a Holevo instrument, whose moments have a closed form
        ("uncertainty", "holevo_moments", lambda m: m._replace(commutator_trace=np.nan),
         "closed-forms", [1]),
        # both routes of the chain; the law's value comes after the finite dominated-order one
        ("entropy", "conditional_observable_entropy_double", lambda h: np.nan, "double-bar-chain", [0, 1]),
        # each outcome's marginal of the composite; the list used to start at 0.0
        ("conditioning-laws", "Operation", lambda op: Operation(np.nan * op.kraus),
         "composite-marginals", [0, 1]),
    ),
)
def test_a_nan_after_a_finite_value_fails_its_law(monkeypatch, suite, target, poison, law, trials):
    real = getattr(suites, target)
    monkeypatch.setattr(suites, target, lambda *args: poison(real(*args)))
    report = run_suite(suite, dims=(2,), trials=2, seed=7)
    assert [(f.trial, f.laws) for f in report.failures] == [(t, [law]) for t in trials]
    assert np.isnan(report.max_residual)


@pytest.mark.parametrize("law, row", (("bayes1-probability", 0), ("bayes1-expectation", 1)))
def test_a_nan_bayes_route_fails_its_law(monkeypatch, law, row):
    # A trial's one call gives the triples of the effect and of Btilde, in that order.
    real = suites._bayes1_triples

    def poisoned(*args):
        triples = real(*args)
        triples[row] = dataclasses.replace(triples[row], rhs=np.nan)
        return triples

    monkeypatch.setattr(suites, "_bayes1_triples", poisoned)
    report = run_suite("bayes1", dims=(2,), trials=3, seed=7)
    assert _failed_laws(report) == [[law]] * 3
    assert np.isnan(report.max_residual)


def test_a_holds_condition_fails_on_nan(monkeypatch):
    # A holds law is a comparison, and every comparison with NaN is False.
    monkeypatch.setattr(suites, "effect_entropy", lambda rho, a: np.nan)
    report = run_suite("entropy", dims=(2,), trials=2, seed=7)
    assert _failed_laws(report) == [["effect-entropy-nonnegative"]] * 2


@pytest.mark.parametrize("level", (1.0, 0.0))
@pytest.mark.parametrize("size, ok", ((1.5e-10, False), (0.5e-10, True)))
def test_atomic_coefficient_is_bounded_by_a_tenth_of_eq_tol(monkeypatch, level, size, ok):
    # With every drawn effect level * I the atomic coefficient is level (1 or
    # 0) up to round-off; the shift moves it just outside [0, 1], which the
    # proportionality law (bound 10 eq_tol) absorbs.
    real = suites.trace_product
    shift = size if level else -size
    eye = lambda h: np.broadcast_to(np.eye(h.shape[-1], dtype=complex), h.shape)  # noqa: E731
    monkeypatch.setattr(suites, "_unit_spectrum", lambda h: level * eye(h))
    monkeypatch.setattr(suites, "trace_product", lambda x, y: real(x, y) + shift)
    report = run_suite("sequential-product-bounds", dims=(2, 3), trials=2, seed=7)
    assert report.ok is ok
    assert _failed_laws(report) == ([] if ok else [["atomic-coefficient-in-unit-interval"]] * 4)
