"""Count the physical, code, docstring and comment lines of src/palab.

Usage: python tools/src_lines.py [DIR]   (DIR defaults to src/palab)

Prints one row per module and a total row. The rule, stdlib only:
- a docstring line is any line of a module's, class's or function's leading
  string statement;
- a code line holds a token other than a comment, NL, NEWLINE, INDENT,
  DEDENT or ENDMARKER, and is not a docstring line (a token spanning several
  lines, such as a multi-line string, marks each of them);
- a comment line holds a comment and no code token.
Blank lines count as physical lines only.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(path: Path) -> tuple[int, int, int, int]:
    """(physical, code, docstring, comment) line counts of one Python file."""
    text = path.read_text()
    docstring = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _OWNERS) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    code, comment = set(), set()
    with path.open() as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            if tok.type == tokenize.COMMENT:
                comment.add(tok.start[0])
            elif tok.type not in _NOT_CODE:
                code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring
    return len(text.splitlines()), len(code), len(docstring), len(comment - code - docstring)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "palab"
    rows = [(path.name, count(path)) for path in sorted(root.glob("*.py"))]
    rows.append(("total", tuple(sum(col) for col in zip(*(c for _, c in rows)))))
    print(f"{'module':<16}{'physical':>10}{'code':>8}{'docstring':>11}{'comment':>9}")
    for name, (physical, code, doc, comment) in rows:
        print(f"{name:<16}{physical:>10,}{code:>8,}{doc:>11,}{comment:>9,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
