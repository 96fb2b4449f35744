"""tools/report_set.py on a cut-down report set: it runs, and is deterministic.

The benchmark job lists are patched to their smoke-test sizes here and the
suites run with one trial, so the set takes a few seconds; comparing two such
sets with tools/compare_reports.py must find no difference.
"""

import functools
import importlib.util
import pathlib
import subprocess
import sys

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"


def _load_tool():
    spec = importlib.util.spec_from_file_location("report_set", TOOLS / "report_set.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_report_set_compares_equal_to_itself(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends its checkout
    tool = _load_tool()
    monkeypatch.setattr(tool, "VERIFY_TRIALS", 1)
    monkeypatch.setattr(tool.workloads, "build", functools.partial(tool.workloads.build, tiny=True))
    assert [tool.main([str(tmp_path / side)]) for side in ("a", "b")] == [0, 0]
    assert "wrote" in capsys.readouterr().out
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.json"))
    assert [str(p) for p in files[-2:]] == ["verify-2,3.json", "verify-4,6.json"]
    assert len([p for p in files if p.parts[0] == "scenes"]) == 10
    assert {p.parts[1] for p in files if p.parts[0] == "jobs"} == set(tool.WORKLOADS)
    sides = [str(tmp_path / "a"), str(tmp_path / "b")]
    compare = str(TOOLS / "compare_reports.py")
    proc = subprocess.run([sys.executable, compare, *sides], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout
    assert f"compared {len(files)} report pair(s)" in proc.stdout
