import json

import pytest

from qcond import SUITE_NAMES, UnknownSuiteError, run_suite
from qcond.serialize import value_to_json


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


def test_report_json_shape():
    report = run_suite("duality", dims=(2,), trials=3, seed=7)
    payload = report.to_json()
    assert payload["suite"] == "duality"
    assert payload["seed"] == 7
    assert payload["dims"] == [2]
    assert payload["trials"] == 3
    assert payload["passes"] == 3
    assert payload["failures"] == []
    assert isinstance(payload["max_residual"], float)
    assert value_to_json(payload) == payload


def test_holevo_laws_one_trial_at_d16():
    # Composed Holevo operations stay at the Choi rank (at most d**2 = 256
    # operators instead of about d**4), which makes d = 16 affordable.
    assert run_suite("holevo-laws", dims=(16,), trials=1, seed=7).ok
