"""Count the code lines of Python source files.

A code line holds at least one token that is not a comment, a line break,
an indent or a dedent, and is not part of a module, class or function
docstring.  A token spanning several lines, such as a multi-line string,
counts on each of them.  Run as

    python tools/code_lines.py src/qfrelay/*.py

to print each file's count and the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source):
    """Number of code lines in the Python source text ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def main(paths):
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as source:
            count = code_lines(source.read())
        print(f"{count:6d}  {path}")
        total += count
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
