"""Mutation score of one fglcalc module: how many planted faults the tests catch.

    python tests/mutate.py MODULE --sample N --seed S [--tests PATH ...]

A mutant is the module with one small fault planted.  The script copies the
repository to a temporary directory and plants every fault there, never in
the working tree.  It lists each site where one of four faults applies:

  compare  swap < and <=, > and >=, == and !=, or in and not in
  arith    swap + and -
  bool     swap and and or
  const    add 1 to an int constant

draws N of them with random.Random(S), writes each mutant back with
ast.unparse and runs `python -m pytest -x -q` on the tests (tests/ by
default, paths relative to the repository) with the copy's src/ first on
the path.  A mutant is killed when a test fails, or when the run exceeds
three times the clean run's time.  The module written back through
ast.unparse without a fault must pass first.

EQUIVALENT lists the mutants known to behave exactly as the module does, by
module, the source line they change (its text, which does not move when
other lines do), the column of the changed node in it and the fault, with
the reason.  They are reported
but left out of the score: killed / (sampled - equivalent).  Every other
survivor is a missing test.  tests/test_mutate.py checks that each entry
still names a site of its module, so an edit to a listed line shows.

pytest does not collect this file: its name does not start with test_.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_COMPARE = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
            ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In}
_ARITH = {ast.Add: ast.Sub, ast.Sub: ast.Add}
_BOOL = {ast.And: ast.Or, ast.Or: ast.And}

# (module, the stripped source line, the fault) -> why the mutant behaves as the module does
_UNIT_AXIOM = "assert all((k, 0) not in coefficients for k in range(2, top + 1))"
_NEED = "if need[i].get(e, -1) < room:"
_M_KEY = 'self.degree, self.sort_key, self.name = i, (2, i, 0), f"m({i})"'
EQUIVALENT = {
    # the log table's sanity check holds on every input, over a range one narrower or wider too
    ("ring", _UNIT_AXIOM, 53, "2 -> 3"): "the unit axiom checked from u^3 on",
    ("ring", _UNIT_AXIOM, 62, "1 -> 2"): "the unit axiom checked up to u^(top+1), past every coefficient",
    # m's sort key: its first entry only has to exceed A's 0 and b's 1, and its last
    # is the same for every m, whose keys differ in i
    ("ring", _M_KEY, 44, "2 -> 3"): "m still sorts after A and b",
    ("ring", _M_KEY, 50, "0 -> 1"): "m(i) and m(j) still compare by i",
    # substitute: a zero image's lowest degree only has to lie past the order; a column
    # that is not skipped leaves room >= 1, above either default
    ("series", "low = [s._rows()[0][0][0] & s._layout.mask if s._terms else self.order + 1 for s in images]",
     73, "1 -> 2"): "order + 2 skips the same columns as order + 1",
    ("series", _NEED, 19, "1 -> 2"): "room >= 1 beats a default of -2 as it beats -1",
    ("series", _NEED, 3, "< -> <="): "on a tie need[i][e] is set to the value it holds",
    ("series", "if need[0].get(e0, -1) < order - rest_low:", 20, "1 -> 2"):
        "order - rest_low >= 0 on a column that is not skipped, above -2 as above -1",
    ("series", "if need[0].get(e0, -1) < order - rest_low:", 3, "< -> <="):
        "on a tie need[0][e0] is set to the value it holds",
    # main passes build_parser a slice of sys.argv, of which it reads the first two entries only
    ("cli", "args = build_parser(sys.argv[1:3] if argv is None else argv).parse_args(argv)", 31, "3 -> 4"):
        "build_parser reads argv[:2] of the slice",
    # the inverse's table of chi's powers: t = d - j + 2 reads [u^(j-2)] chi^(j-1), an empty row
    ("series", "for t in range(1, d - j + 2):", 26, "2 -> 3"): "one more row of no terms, no products",
    # n_series' Lagrange weights: (-1) ** (k + j) is (-1) ** (k - j)
    ("series", "weights = [[(-1) ** (k - j) * comb(n, j) * comb(n - j - 1, k - j)", 21, "- -> +"):
        "k + j and k - j have the same parity",
    # restricted_component_indices runs require_valid first, so no face names index r + 1
    ("snc", "for j in range(1, config.r + 1)", 29, "1 -> 2"):
        "a valid configuration has no face {index, r + 1}",
    # linear_combination builds a series only to check the names; its order is not read
    ("series", "variables = TruncatedSeries(variables, 0, self.backend).variables", 39, "0 -> 1"):
        "the names are checked at any order",
}


def _sites(tree: ast.AST) -> list:
    """(node number in ast.walk order, operator position or None, kind) of each fault site."""
    sites = []
    for number, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            sites += [(number, i, "compare") for i, op in enumerate(node.ops) if type(op) in _COMPARE]
        elif isinstance(node, ast.BinOp) and type(node.op) in _ARITH:
            sites.append((number, None, "arith"))
        elif isinstance(node, ast.BoolOp):
            sites.append((number, None, "bool"))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            sites.append((number, None, "const"))
    return sites


_SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
            ast.In: "in", ast.NotIn: "not in",
            ast.Add: "+", ast.Sub: "-", ast.And: "and", ast.Or: "or"}
_SWAPS = {"compare": _COMPARE, "arith": _ARITH, "bool": _BOOL}


def _fault(node: ast.AST, position, kind: str) -> str:
    """The description of the fault planted at one site's node, such as '< -> <=' or '1 -> 2'."""
    if kind == "const":
        return f"{node.value} -> {node.value + 1}"
    old = type(node.ops[position] if kind == "compare" else node.op)
    return f"{_SYMBOLS[old]} -> {_SYMBOLS[_SWAPS[kind][old]]}"


def _site_names(module: str, source: str) -> dict:
    """{site: (its line number, its EQUIVALENT key)} for every fault site of a module's source.

    The key is (module, the stripped source line, the node's column counted
    from the line's first character, the fault).
    """
    lines = source.splitlines()
    tree = ast.parse(source)
    nodes = list(ast.walk(tree))
    names = {}
    for site in _sites(tree):
        number, position, kind = site
        node = nodes[number]
        line = lines[node.lineno - 1]
        text = line.strip()
        column = node.col_offset - (len(line) - len(line.lstrip()))
        names[site] = node.lineno, (module, text, column, _fault(node, position, kind))
    return names


def _plant(source: str, site: tuple) -> str:
    """The mutant's source: the module with one site's fault planted."""
    number, position, kind = site
    tree = ast.parse(source)
    node = next(n for i, n in enumerate(ast.walk(tree)) if i == number)
    if kind == "compare":
        node.ops[position] = _COMPARE[type(node.ops[position])]()
    elif kind == "const":
        node.value += 1
    else:
        node.op = _SWAPS[kind][type(node.op)]()
    return ast.unparse(tree)


def _limit_memory():
    # a mutant that builds without bound fails on memory instead of taking the machine's
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def _run_tests(copy: Path, tests: list, timeout: float | None) -> tuple:
    """(passed, seconds); a run past the timeout counts as failed."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                            start_new_session=True, preexec_fn=_limit_memory)
    try:
        passed = proc.wait(timeout=timeout) == 0
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        passed = False
    return passed, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="a module of src/fglcalc, such as ring or snc")
    parser.add_argument("--sample", type=int, required=True, help="how many mutants to draw")
    parser.add_argument("--seed", type=int, required=True, help="seed of the draw")
    parser.add_argument("--tests", nargs="+", default=["tests"], help="test paths to run (default tests)")
    args = parser.parse_args(argv)

    source = (ROOT / "src" / "fglcalc" / f"{args.module}.py").read_text()
    names = _site_names(args.module, source)
    sites = list(names)  # in _sites order
    chosen = random.Random(args.seed).sample(sites, min(args.sample, len(sites)))
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        # test_mutate.py reads the module's lines, which the copy rewrites through ast.unparse
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_*", "test_mutate.py"))
        target = copy / "src" / "fglcalc" / f"{args.module}.py"
        target.write_text(ast.unparse(ast.parse(source)))
        passed, clean_s = _run_tests(copy, args.tests, None)
        if not passed:
            print(f"the unmutated {args.module} fails the tests after ast.unparse", file=sys.stderr)
            return 1
        killed = equivalent = 0
        survivors = []
        for site in chosen:
            target.write_text(_plant(source, site))
            passed, _ = _run_tests(copy, args.tests, 3 * clean_s)
            line, key = names[site]
            _, text, column, fault = key
            report = f"{args.module}:{line}  {fault} at column {column} of: {text}"
            if not passed:
                killed += 1
            elif key in EQUIVALENT:
                equivalent += 1
                print(f"equivalent  {report}")
            else:
                survivors.append(f"survived    {report}")
        for survivor in survivors:
            print(survivor)
    scored = len(chosen) - equivalent
    print(f"{args.module}: {killed} of {scored} killed ({len(chosen)} sampled of {len(sites)} sites, "
          f"{equivalent} equivalent, seed {args.seed}); clean run {clean_s:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
