"""Count the code lines of the library.

Run from anywhere:

    python3 tools/code_lines.py

Prints, for each module `src/e8jacobi/*.py`, its code lines, then their
total and the total `wc -l` of those files.  A code line is a line that
holds part of a token other than a comment, and is not part of the
docstring of a module, class or function (read with `ast`); blank lines
are not code lines.  The "less code" counts of CHANGES.md and ROADMAP.md
are stated in these numbers.
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "e8jacobi"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree) -> set:
    """The line numbers of the docstrings of `tree`'s module, classes and
    functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant) and \
                    isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def main() -> None:
    code = physical = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        n = code_lines(text)
        code += n
        physical += text.count("\n")
        print("%6d  %s" % (n, path.name))
    print("%6d  code lines in total" % code)
    print("%6d  lines in total (wc -l)" % physical)


if __name__ == "__main__":
    main()
