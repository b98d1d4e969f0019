"""Code lines of the ``dunklcms`` modules: lines that hold code, not
docstrings, comments or blank lines.

    python3 bench/code_lines.py [--src DIR]

Prints one line per module of ``DIR/dunklcms`` (default: the ``src``
directory of this checkout) and the total.  A line counts when a token other
than a comment or a line break starts or continues on it, so each line of a
multi-line expression or string counts.  The lines of a docstring (the
leading string of a module, class or function, found with ``ast``) do not.

Only the standard library is used.
"""

from __future__ import annotations

import argparse
import ast
import glob
import io
import os
import sys
import tokenize

DEFAULT_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of code lines of the Python source ``text``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(text)))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=DEFAULT_SRC, help="the directory that holds dunklcms")
    args = ap.parse_args(argv)
    total = 0
    for path in sorted(glob.glob(os.path.join(args.src, "dunklcms", "*.py"))):
        with open(path, encoding="utf-8") as f:
            n = code_lines(f.read())
        total += n
        print("%6d  %s" % (n, os.path.basename(path)))
    print("%6d  total" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
