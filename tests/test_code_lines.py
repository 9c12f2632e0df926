import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SNIPPET = '''"""Module docstring,
over two lines."""

# a comment-only line
import os  # a trailing comment


def f(x):
    """Function docstring."""
    # another comment

    text = """first line
second line

fourth line"""
    return os.sep, x, text


class C:
    \'\'\'Class docstring.\'\'\'
    y = 1
    """A string statement after the first is not a docstring."""
'''


def _load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skips_docstrings_comments_and_blanks_only():
    # import, def, the string's three non-blank lines, return, class, y = 1,
    # and the later string statement
    assert _load_tool().code_lines(SNIPPET) == 9


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n", encoding="utf-8")
    assert _load_tool().main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["9", str(tmp_path / "a.py")], ["1", str(tmp_path / "b.py")],
                    ["10", "total"]]
