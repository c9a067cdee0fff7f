#!/usr/bin/env python3
"""Count the lines of the engine's source: all lines, and code lines.

A code line is a non-blank line that lies outside every module, class and
function docstring and is not comment-only. A directory counts its `*.py`
files (not its subdirectories), as `wc -l DIR/*.py` does.

Usage:  python scripts/loc.py [PATH ...]     (default: src/wfopt)
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def count(text: str) -> tuple[int, int]:
    """(lines, code lines) of one Python source text."""
    lines = text.splitlines()
    docstring_lines: set[int] = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstring_lines.update(range(first.lineno, first.end_lineno + 1))
    code = sum(
        1 for number, line in enumerate(lines, 1)
        if number not in docstring_lines and line.strip() and not line.strip().startswith("#")
    )
    return len(lines), code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*", type=Path, default=[ROOT / "src" / "wfopt"],
                        help="Python files, or directories whose *.py files are counted")
    args = parser.parse_args()
    files = [f for p in args.paths for f in (sorted(p.glob("*.py")) if p.is_dir() else [p])]
    totals = [count(f.read_text()) for f in files]
    print(f"lines {sum(t[0] for t in totals)}")
    print(f"code lines {sum(t[1] for t in totals)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
