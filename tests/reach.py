"""Reach map: the statements of src/fglcalc that no user path runs.

    python tests/reach.py [--cli-specs N] [--blocks M] [--seed S]

Under sys.settrace it runs what a user runs: the three demos, the CLI on
every golden input (tests/test_cli.py's GOLDEN_RUNS), the first N cli-batch
specs of perfbench in-process (each in its own input mode), and M blocks of
the series-cold and snc-check workloads, all at seed S.  It then prints,
function by function, the statements of src/fglcalc that never ran, each
by its line with "raise" after a raise statement, and one total line.

A statement inside a function counts as run when any line of it ran (the
header lines only, for a compound statement).  A docstring and a global or
nonlocal declaration make no code and are not counted; module and class
bodies run on import and are not counted either.

pytest does not collect this file: its name does not start with test_.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fglcalc"
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "tests")]

_SILENT = (ast.Global, ast.Nonlocal)


def statements(source: str) -> dict:
    """{qualified function name: [(the statement's lines, is it a raise, its first line)]}."""
    found: dict = {}

    def visit(node, scope: str | None, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                if scope is not None:
                    found[scope].append(_lines(child))
                if not isinstance(child, ast.ClassDef):
                    found[name] = []
                    visit(child, name, name + ".")
                else:
                    visit(child, None, name + ".")
                continue
            if isinstance(child, ast.stmt) and scope is not None and not isinstance(child, _SILENT):
                docstring = (isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant)
                             and isinstance(child.value.value, str))
                if not docstring:
                    found[scope].append(_lines(child))
            if not isinstance(child, ast.Lambda):
                visit(child, scope, prefix)

    visit(ast.parse(source), None, "")
    return found


def _lines(node: ast.stmt) -> tuple:
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:  # a compound statement: its header only
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        last = max(node.lineno, body[0].lineno - 1)
    else:
        first, last = node.lineno, node.end_lineno
    return frozenset(range(first, last + 1)), isinstance(node, ast.Raise), node.lineno


def trace_runs(run) -> dict:
    """{file name: the line numbers that ran} for the package's files while run() runs."""
    hits: dict = {}
    prefix = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            hits.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(None)
    return hits


def user_paths(cli_specs: int, blocks: int, seed: int):
    from fglcalc.cli import main
    from perfbench.workloads import WORKLOADS, SpecStream
    from test_cli import GOLDEN_RUNS

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        for demo in sorted((ROOT / "demos").glob("*.py")):
            runpy.run_path(str(demo), run_name="__main__")
        for _, argv in GOLDEN_RUNS:
            main(list(argv))
        stream = SpecStream(WORKLOADS["cli-batch"], seed)
        with tempfile.TemporaryDirectory() as scratch:
            for k in range(cli_specs):
                spec, stdin = stream[k], sys.stdin
                argv = list(spec["argv"])
                if spec["mode"] == "inline":
                    argv.append(json.dumps(spec["input"]))
                elif spec["mode"] == "stdin":
                    argv.append("-")
                    sys.stdin = io.StringIO(json.dumps(spec["input"]))
                elif spec["mode"] == "file":
                    path = Path(scratch) / "input.json"
                    path.write_text(json.dumps(spec["input"]), encoding="utf-8")
                    argv.append(str(path))
                try:
                    main(argv)
                finally:
                    sys.stdin = stdin
        for name in ("series-cold", "snc-check"):
            workload = WORKLOADS[name]
            stream = SpecStream(workload, seed)
            for k in range(blocks * workload.block_size):
                workload.run(stream[k])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tests/reach.py", description=__doc__.split("\n")[0])
    parser.add_argument("--cli-specs", type=int, default=264)
    parser.add_argument("--blocks", type=int, default=2)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    hits = trace_runs(lambda: user_paths(args.cli_specs, args.blocks, args.seed))
    total = unrun = raises = 0
    for path in sorted(PACKAGE.glob("*.py")):
        ran = hits.get(str(path), set())
        for function, stmts in statements(path.read_text()).items():
            missed = [(line, is_raise) for lines, is_raise, line in stmts if not lines & ran]
            total += len(stmts)
            unrun += len(missed)
            raises += sum(is_raise for _, is_raise in missed)
            if missed:
                where = ", ".join(f"{line}{' raise' if is_raise else ''}" for line, is_raise in missed)
                entered = "never entered" if len(missed) == len(stmts) else f"{len(missed)} of {len(stmts)}"
                print(f"{path.name}:{function}: {entered}: {where}")
    print(f"{unrun} of {total} statements never ran, {raises} of them raise statements")
    return 0


if __name__ == "__main__":
    sys.exit(main())
