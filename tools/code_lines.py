"""Count the code lines of the graphdim package, per module and in total.

A code line is a non-blank line of src/graphdim/*.py that is neither a
comment nor part of a docstring (the string that opens a module, class or
function).  A line that holds code and a trailing comment counts.

    python tools/code_lines.py            # the package next to this script
    python tools/code_lines.py SRC_DIR    # any other copy of src/graphdim
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """Line numbers covered by the docstrings of a module's source."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in one Python file."""
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(path.read_text(encoding="utf-8")))


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "graphdim"
    counts = {path.name: code_lines(path) for path in sorted(src.glob("*.py"))}
    if not counts:
        print(f"no .py files in {src}", file=sys.stderr)
        return 2
    for name, count in counts.items():
        print(f"{name:16} {count:6,}")
    print(f"{'total':16} {sum(counts.values()):6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
