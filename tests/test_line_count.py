"""tools/line_count.py: what counts as a logic line, and the table it prints."""

import importlib.util
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "line_count.py"
_spec = importlib.util.spec_from_file_location("line_count", TOOL)
line_count = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_count)

# Each line is tagged with whether it is a logic line.
_FIXTURE = (
    ('"""A module docstring', False),
    ('over two lines."""', False),
    ("", False),
    ("import os  # a trailing comment", True),
    ("", False),
    ("# a comment line", False),
    ("class A:", True),
    ('    """A class docstring."""', False),
    ("", False),
    ("    x = [", True),
    ("        1,  # inside an expression", True),
    ("        # a comment inside an expression", False),
    ("    ]", True),
    ("", False),
    ("", False),
    ("def f():", True),
    ('    """A function', False),
    ('    docstring."""', False),
    ('    """A string that is not the first statement."""', True),
    ('    return """a multi-line', True),
    ('string"""', True),
)


def test_a_logic_line_holds_a_code_token_outside_docstrings():
    text = "\n".join(line for line, _ in _FIXTURE) + "\n"
    assert line_count.count(text) == (len(_FIXTURE), sum(logic for _, logic in _FIXTURE))


def test_the_table_lists_each_module_and_the_sums(tmp_path, capsys):
    (tmp_path / "b.py").write_text("x = 1\n\n# note\n")
    (tmp_path / "a.py").write_text('"""Doc."""\nimport os\nimport sys\n')
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "c.py").write_text("y = 2\n")
    assert line_count.main([str(tmp_path)]) == 0
    rows = [row.split() for row in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "lines", "logic"], ["a.py", "3", "2"], ["b.py", "3", "1"], ["total", "6", "3"]]


def test_a_missing_directory_exits_2(tmp_path):
    with pytest.raises(SystemExit) as info:
        line_count.main([str(tmp_path / "missing")])
    assert info.value.code == 2
