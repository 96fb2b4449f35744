"""tools/bench_pairs.py: the verdict arithmetic on canned paired runs.

A gain needs 9 in 10 pairs won (ties count for neither side) and a median
gap wider than the parent's interquartile range; worse means beyond the
bound, as a fraction of the parent's median; a spread wider than the bound
is unresolved unless every run of the change beats every run of the parent.
``--setup-probes`` alternates the checkouts' probes and judges setup_s
alone; its probe runner is stubbed here.
"""

import importlib.util
import json
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
judge, quartiles = bench_pairs.judge, bench_pairs.quartiles

PARENT = [0.80, 0.78, 0.84, 0.81, 0.79, 0.83, 0.80, 0.82, 0.78, 0.81]


def test_quartiles_interpolate_between_order_statistics():
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    q1, median, q3 = quartiles(PARENT)
    assert median == pytest.approx(0.805)
    assert (q1, q3) == (pytest.approx(0.7925), pytest.approx(0.8175))


def test_a_clear_win_is_a_gain():
    v = judge(PARENT, [x - 0.09 for x in PARENT], "lower", 0.25)
    assert (v["wins"], v["pairs"], v["verdict"]) == (10, 10, "gain")
    assert v["gap"] == pytest.approx(0.09)
    assert v["iqr_a"] == pytest.approx(0.025)


def test_a_gap_inside_the_parents_spread_is_no_gain():
    # Every pair won, but the medians differ by less than the parent's IQR.
    v = judge(PARENT, [x - 0.02 for x in PARENT], "lower", 0.25)
    assert v["wins"] == 10 and v["gap"] < v["iqr_a"]
    assert v["verdict"] == "within bound"


@pytest.mark.parametrize("lost, tied, verdict", ((1, 0, "gain"), (2, 0, "within bound"), (0, 2, "within bound")))
def test_nine_in_ten_pairs_must_be_won_and_ties_win_nothing(lost, tied, verdict):
    change = [x - 0.2 for x in PARENT]
    for i in range(lost):
        change[i] = PARENT[i] + 0.01
    for i in range(lost, lost + tied):
        change[i] = PARENT[i]
    v = judge(PARENT, change, "lower", 0.25)
    assert v["wins"] == 10 - lost - tied
    assert v["verdict"] == verdict


def test_higher_is_better_flips_every_comparison():
    ratio = [0.5, 0.52, 0.49, 0.51, 0.5, 0.5, 0.53, 0.48, 0.5, 0.51]
    assert judge(ratio, [x + 0.1 for x in ratio], "higher", 0.25)["verdict"] == "gain"
    assert judge(ratio, [x - 0.2 for x in ratio], "higher", 0.25)["verdict"] == "worse"
    assert judge(ratio, [x - 0.1 for x in ratio], "higher", 0.25)["verdict"] == "within bound"


def test_worse_means_beyond_the_bound_as_a_fraction_of_the_parent():
    rss = [41.0, 41.2, 41.1, 41.3, 41.1, 41.0, 41.2, 41.1, 41.2, 41.1]
    assert judge(rss, [x + 0.9 for x in rss], "lower", 0.15)["verdict"] == "within bound"
    assert judge(rss, [x * 1.2 for x in rss], "lower", 0.15)["verdict"] == "worse"


def test_a_spread_wider_than_the_bound_is_unresolved():
    noisy = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    v = judge(noisy, list(noisy), "lower", 0.25)
    assert v["wins"] == 0 and v["verdict"] == "unresolved"
    # The change's own spread counts too.
    assert judge([1.0] * 10, [0.5, 1.5] * 5, "lower", 0.25)["verdict"] == "unresolved"
    # Unless every run of the change beats every run of the parent: here the
    # gap (0.6) is inside the parent's IQR (1.0), so it is no gain either.
    assert judge(noisy, [0.9] * 10, "lower", 0.25)["verdict"] == "within bound"


def _checkouts(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    metric = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
    (a / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [{"name": "wall_s"}, metric]}))
    return a, b


def test_setup_probes_alternate_and_judge_setup_s_alone(tmp_path, monkeypatch, capsys):
    a, b = _checkouts(tmp_path)
    seconds = {a: iter([0.30, 0.20, 0.21, 0.19, 0.22]), b: iter([0.30, 0.15, 0.16, 0.14, 0.17])}
    order = []

    def probe(checkout):
        order.append("A" if checkout == a else "B")
        return next(seconds[checkout])

    monkeypatch.setattr(bench_pairs, "probe_once", probe)
    assert bench_pairs.main([str(a), str(b), "--setup-probes", "4"]) == 0
    # One uncounted probe per checkout, then A first in odd pairs and B first in even ones.
    assert "".join(order) == "AB" + "AB" "BA" "AB" "BA"
    out = capsys.readouterr().out
    assert "probe 2 B: setup_s=0.16" in out and "probe 1 A: setup_s=0.2" in out
    (row,) = [line for line in out.splitlines() if line.startswith("setup_s ")]
    assert row.split()[-1] == "gain" and "4/4" in row


def test_a_failing_probe_fails_the_run(tmp_path, monkeypatch, capsys):
    a, b = _checkouts(tmp_path)

    def probe(checkout):
        raise RuntimeError("probe exited 1")

    monkeypatch.setattr(bench_pairs, "probe_once", probe)
    assert bench_pairs.main([str(a), str(b), "--setup-probes", "2"]) == 1
    assert "probe exited 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    (
        ["--setup-probes", "0"],
        ["--setup-probes", "2", "--workload", "scene-batch"],
        ["--workload", "scene-batch", "--pairs", "2", "--seconds", "1"],
    ),
    ids=("no-probes", "probes-and-a-workload", "no-seed"),
)
def test_setup_probes_and_workload_runs_take_their_own_arguments(argv, tmp_path):
    a, b = _checkouts(tmp_path)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([str(a), str(b), *argv])
    assert exc.value.code == 2
