"""tools/suite_times.py: a tiny real run, and the table it prints."""

import importlib.util
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "suite_times.py"
_spec = importlib.util.spec_from_file_location("suite_times", TOOL)
suite_times = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(suite_times)


def test_the_table_lists_suites_slowest_first_with_their_shares():
    rows = suite_times.table({"duality": 0.01, "entropy": 0.03})
    assert rows[1].split() == ["entropy", "30.0", "75.0%"]
    assert rows[2].split() == ["duality", "10.0", "25.0%"]
    assert rows[3].split() == ["sum", "40.0"]


def test_a_tiny_run_times_each_named_suite_in_its_own_process(capsys):
    assert suite_times.main(["--dims", "2", "--trials", "1", "--repeat", "1", "duality", "bayes1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("dims 2, 1 trials, best of 1")
    timed = {row.split()[0]: float(row.split()[1]) for row in out[2:4]}
    assert set(timed) == {"duality", "bayes1"} and all(ms > 0 for ms in timed.values())
    assert out[4].split()[0] == "sum"


@pytest.mark.parametrize("argv", (["no-such-suite"], ["--dims", "1"], ["--repeat", "0"], ["--dims", "x"]))
def test_bad_input_exits_2(argv):
    with pytest.raises(SystemExit) as info:
        suite_times.main(argv)
    assert info.value.code == 2
