"""tools/report_set.py on a cut-down report set: it runs, is deterministic and
writes strict JSON.

The benchmark job lists are patched to their smoke-test sizes here and the
suites run with one trial, so the set takes a few seconds; comparing two such
sets with tools/compare_reports.py must find no difference.  The set holds
each demo's output as printed, and one changed line of it is a difference.
``--help`` prints the usage and writes nothing, and a qcond command that
fails with an error stops the tool, which names it.
"""

import functools
import importlib.util
import pathlib
import json
import os
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


def _load_tool():
    spec = importlib.util.spec_from_file_location("report_set", TOOLS / "report_set.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_report_set_compares_equal_to_itself(tmp_path, monkeypatch, capsys, strict_loads):
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
    for p in files:
        strict_loads((tmp_path / "a" / p).read_text())
    sides = [str(tmp_path / "a"), str(tmp_path / "b")]
    compare = str(TOOLS / "compare_reports.py")
    proc = subprocess.run([sys.executable, compare, *sides], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout
    assert f"compared {len(files)} report pair(s)" in proc.stdout

    # One report per demo script, holding the lines it prints when run on its own.
    demos = sorted(p.stem for p in (ROOT / "demos").glob("*.py"))
    assert [p.stem for p in files if p.parts[0] == "demos"] == demos
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    printed = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demos[0]}.py")], env=env, capture_output=True, text=True, check=True
    ).stdout
    report = tmp_path / "b" / "demos" / f"{demos[0]}.json"
    written = json.loads(report.read_text())
    assert written == {"demo": f"{demos[0]}.py", "stdout": printed.splitlines()}
    written["stdout"][0] += " "
    report.write_text(json.dumps(written))
    proc = subprocess.run([sys.executable, compare, *sides], capture_output=True, text=True)
    assert proc.returncode == 1 and f"demos/{demos[0]}.json.stdout[0]" in proc.stdout, proc.stdout


def test_help_writes_nothing_and_a_failed_command_is_named(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))
    tool = _load_tool()
    monkeypatch.setattr(tool, "VERIFY_TRIALS", 1)
    monkeypatch.chdir(tmp_path)
    for flag in ("-h", "--help"):
        assert tool.main([flag]) == 0
        assert capsys.readouterr().out.startswith("usage:")
    assert list(tmp_path.iterdir()) == []

    # A directory where the first verify report goes: qcond cannot write it and exits 2.
    (tmp_path / "out" / "verify-2,3.json").mkdir(parents=True)
    assert tool.main([str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert "wrote" not in captured.out
    assert "error: qcond verify --all --dims 2,3" in captured.err and "exited with status 2" in captured.err
