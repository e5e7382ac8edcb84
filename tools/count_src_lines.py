"""Print the code lines of each module under src/ and their total.

A code line is a line that holds a token other than a comment and lies
outside every docstring (of a module, class or function): blank lines,
comment lines and docstrings do not count.  This is the line measure
ROADMAP.md reports, so a change's line delta can be reproduced by running
this script before and after it.

Usage: python tools/count_src_lines.py [SRC_DIR]   (default: src, from the
repository root)
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    lines: set[int] = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(path.read_bytes())))


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src")
    modules = sorted(root.rglob("*.py"))
    if not modules:
        print(f"no Python modules under {root}", file=sys.stderr)
        return 2
    total = 0
    for path in modules:
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.relative_to(root).as_posix()}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
