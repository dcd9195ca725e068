"""Count total and code lines of every Python file under a source tree.

A code line holds at least one token that is not a comment or part of a
docstring (the string that opens a module, class or function body); blank
lines hold none.  Standard library only.

Usage: python tools/code_lines.py [root]   (root defaults to src/)
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree):
    """The line numbers spanned by the module's docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path):
    """(total lines, code lines) of one Python file."""
    text = Path(path).read_text(encoding="utf-8")
    docs = _docstring_lines(ast.parse(text))
    code = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _SKIP:
                code.update(n for n in range(tok.start[0], tok.end[0] + 1)
                            if n not in docs)
    return len(text.splitlines()), len(code)


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else "src")
    total = code = 0
    for path in sorted(root.rglob("*.py")):
        t, c = count(path)
        total, code = total + t, code + c
        print(f"{t:6d} {c:6d}  {path}")
    print(f"{total:6d} {code:6d}  total")


if __name__ == "__main__":
    main(sys.argv)
