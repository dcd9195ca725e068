"""tools/code_lines.py, the counter behind the package's code-line target."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

FIXTURE = '''"""A module docstring
over two lines."""

import os  # a comment after code counts as code


def f(x):
    """A function docstring."""
    # a comment line

    return (x +
            1)


class C:
    """A class docstring,
    over two lines."""

    y = """a string that is no docstring:
    an assignment over two lines"""
'''


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_docstrings_comments_and_blank_lines(tmp_path,
                                                             capsys):
    path = tmp_path / "pkg" / "fixture.py"
    path.parent.mkdir()
    path.write_text(FIXTURE, encoding="utf-8")
    tool = _tool()
    # import, def, the return's two lines, class, the assignment's two
    assert tool.count(path) == (len(FIXTURE.splitlines()), 7)
    tool.main(["code_lines.py", str(tmp_path)])
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.split() == [str(len(FIXTURE.splitlines())), "7", "total"]
