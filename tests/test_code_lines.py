"""The code-line counter that CHANGES.md cites, on a source it can be checked by hand."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

_SOURCE = '''"""Module docstring,
on two lines."""

import math  # a trailing comment keeps its code line


# a comment line
class Box:
    """Class docstring."""

    def area(self, width,
             height):
        """Function docstring,

        with a blank line inside it.
        """
        text = """a multi-line string
that is not a docstring"""
        return math.prod(
            (width, height),
        )
'''


def test_counts_code_lines_and_skips_docstrings_comments_and_blanks():
    # import; class; def and its continuation; the string's two lines;
    # return and the call's two further lines
    assert code_lines.code_lines(_SOURCE) == 9


def test_prints_each_file_and_the_total(tmp_path, capsys):
    source = tmp_path / "box.py"
    source.write_text(_SOURCE)
    code_lines.main([str(source), str(source)])
    assert capsys.readouterr().out.split() == ["9", str(source), "9", str(source), "18", "total"]
