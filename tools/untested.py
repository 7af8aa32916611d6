"""List the statements of `src/subtok` that no Tier-1 test executes.

    python tools/untested.py [PYTEST ARGS...]

    e.g. python tools/untested.py
         python tools/untested.py --hypothesis-profile fresh tests/test_cli.py

The suite runs in this process, from the repository root, through
`pytest.main` with the arguments given. A line tracer is set with
`sys.settrace` for this thread and with `threading.settrace` for every
thread started after it (the trainer's `threads` > 1). It follows only
frames whose code lives under `src/subtok`, so modules imported while the
tests are collected are traced too, and the rest of the suite pays only
the call hook. The run takes about 1.4 times as long as the suite.

Not traced: subprocesses (`python -m subtok` tests), and simulate's forked
pool workers. A forked worker inherits the tracer, but what it records
stays in the worker, so a statement that only a worker executes is listed
here although a test reaches it; the one-worker path of simulate runs in
this process and is seen.

A statement is an `ast` statement of a module other than a function or
class definition, an import, a `global` or `nonlocal`, a docstring or
other bare string, or an annotation without a value. It counts as
executed when a line event fires on one of its own lines: the lines of a
simple statement, the header lines of a compound one (up to its first
nested statement). Each statement that no test executes is printed as
`path:line: source` (its first line), then a count per file and in all.
The exit status is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "subtok"
NOT_COUNTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
               ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal)


def counted(node: ast.AST) -> bool:
    """Whether `node` is a statement that the listing counts."""
    if not isinstance(node, ast.stmt) or isinstance(node, NOT_COUNTED):
        return False
    if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
            and isinstance(node.value.value, str):
        return False
    return not (isinstance(node, ast.AnnAssign) and node.value is None)


def statements(path: Path) -> list[tuple[int, set[int]]]:
    """(first line, own lines) of each counted statement of the module at
    `path`, in line order."""
    out = []
    for node in ast.walk(ast.parse(path.read_text("utf-8"))):
        if not counted(node):
            continue
        nested = [child.lineno for child in ast.iter_child_nodes(node)
                  if isinstance(child, (ast.stmt, ast.excepthandler))]
        last = min(nested) - 1 if nested else node.end_lineno
        out.append((node.lineno,
                    set(range(node.lineno, max(last, node.lineno) + 1))))
    return sorted(out, key=lambda s: s[0])


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status and, per resolved file under SRC, the lines on
    which a line event fired."""
    hit: dict[str, set[int]] = {}
    owner: dict[str, set[int] | None] = {}  # co_filename -> its hit set

    def local(frame, event, arg):
        if event == "line":
            owner[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in owner:
            path = Path(os.path.realpath(name))
            owner[name] = (hit.setdefault(str(path), set())
                           if path.parent == SRC else None)
        return local if owner[name] is not None else None

    os.chdir(ROOT)
    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hit


def main(argv: list[str]) -> int:
    status, hit = run_traced(argv)
    total = 0
    counts = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text("utf-8").splitlines()
        lines = hit.get(str(path), set())
        rel = path.relative_to(ROOT)
        missed = [first for first, own in statements(path)
                  if not own & lines]
        for first in missed:
            print(f"{rel}:{first}: {source[first - 1].strip()}")
        counts.append((rel, len(missed)))
        total += len(missed)
    for rel, n in counts:
        print(f"{rel}: {n} untested statements")
    print(f"total: {total} untested statements")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
