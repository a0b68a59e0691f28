#!/usr/bin/env python3
"""Count the code lines of each module of the pisom package.

A code line holds at least one token that is not a comment, and is not
part of a docstring (the string that opens a module, class or function).
Blank lines and comment lines are left out too.  Docstrings are found with
``ast``, the remaining tokens with ``tokenize``; a string or bracketed
expression over several lines counts each line it covers that holds part
of a token.

    python3 scripts/code_lines.py [DIR]

prints one line per module, largest first, then the total; DIR defaults to
the package's ``src/pisom``.
"""

import ast
import io
import pathlib
import sys
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "pisom"
#: tokens that carry no code of their own
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers covered by the docstrings of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines of one module's source text."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def count_package(root: pathlib.Path) -> dict[str, int]:
    """Code lines per module of the package at root, by module name."""
    return {path.stem: code_lines(path.read_text()) for path in sorted(root.glob("*.py"))}


def main() -> int:
    root = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else PACKAGE
    counts = count_package(root)
    for name, n in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print("%-10s %5d" % (name, n))
    print("%-10s %5d" % ("total", sum(counts.values())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
