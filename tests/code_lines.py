"""Count the code lines of Python modules.

    python tests/code_lines.py src/wisealice/*.py

prints each module's code lines and their total; with no path it prints
a usage line to stderr and exits 2.  A code line holds at
least one token that is not a comment and not part of a docstring; blank
lines, comment-only lines and docstring lines do not count.  A docstring
is a string literal standing alone as the first statement of a module,
class or function.  A token spanning several lines (a multi-line string
that is not a docstring) counts every line it spans.  Not a test module:
pytest does not collect it.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

# token types that hold no code
_LAYOUT = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
           tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Number of lines of path that hold a code token."""
    source = path.read_text()
    docstrings = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    with path.open("rb") as fh:
        for token in tokenize.tokenize(fh.readline):
            if token.type not in _LAYOUT:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python tests/code_lines.py FILE...", file=sys.stderr)
        return 2
    total = 0
    for name in argv:
        count = code_lines(Path(name))
        total += count
        print(f"{count:6d}  {name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
