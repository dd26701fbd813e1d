"""Side by side: one commit's fglcalc against the working tree's, in one process.

    python tests/sidebyside.py REV --workload {series-cold,snc-check} --seed S [--blocks B] [--reps R]

It extracts REV's src/fglcalc with `git archive` into a temporary directory
and loads that copy and the working tree's src/fglcalc under distinct
package names.  It then runs perfbench's own Workload.run on the first B
blocks of the workload's specs at seed S, R times over, each job on both
copies back to back with sys.modules["fglcalc"] pointed at the copy that
runs, the copy that goes first rotating from job to job and from round to
round.  Both copies first run the workload's warm-up jobs.

It prints each copy's sum over the jobs of the job's fastest time, the
change of the working tree against REV in %, and each copy's products per
job (fglcalc.stats.meter, counted in the first round).  It exits 1 if any
job's output bytes (Workload.output_bytes, taken in the first round) differ
between the copies.  Nothing under perfbench/ is changed.

pytest does not collect this file: its name does not start with test_.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.dont_write_bytecode = True  # neither copy leaves a bytecode cache

from perfbench.workloads import WORKLOADS, SpecStream  # noqa: E402


def _load(name: str, path: Path):
    """The package at path, imported under name with all its modules."""
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py", submodule_search_locations=[str(path)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def _extract(rev: str, into: Path) -> Path:
    """REV's src/fglcalc, written under into."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src/fglcalc"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into / "src" / "fglcalc"


def compare(copies: dict, workload, seed: int, blocks: int, reps: int) -> tuple:
    """({copy: [each job's fastest seconds]}, {copy: products in round 0}, [jobs whose outputs differ])."""
    names = list(copies)
    stream = SpecStream(workload, seed)
    specs = [stream[k] for k in range(blocks * workload.block_size)]

    def run(name, spec):
        sys.modules["fglcalc"] = copies[name]
        start = time.perf_counter()
        result = workload.run(spec)
        return result, time.perf_counter() - start

    for spec in stream.warmup():
        for name in names:
            run(name, spec)
    best = {name: [float("inf")] * len(specs) for name in names}
    products = dict.fromkeys(names, 0)
    differ = []
    for rep in range(reps):
        for j, spec in enumerate(specs):
            outputs = {}
            for turn in range(len(names)):
                name = names[(j + rep + turn) % len(names)]
                meter = copies[name].stats.meter
                before = meter.products
                result, seconds = run(name, spec)
                best[name][j] = min(best[name][j], seconds)
                if rep == 0:
                    products[name] += meter.products - before
                    outputs[name] = workload.output_bytes(result)
            if rep == 0 and len(set(outputs.values())) > 1:
                differ.append(j)
    return best, products, differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the commit to compare the working tree with, such as HEAD")
    parser.add_argument("--workload", required=True, choices=("series-cold", "snc-check"))
    parser.add_argument("--seed", type=int, required=True, help="perfbench spec seed")
    parser.add_argument("--blocks", type=int, default=2, help="spec blocks to run (default 2)")
    parser.add_argument("--reps", type=int, default=5, help="rounds over the jobs (default 5)")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory() as tmp:
        # every module is imported on load, so the copy may go when the run ends
        copies = {args.rev: _load("fglcalc_rev", _extract(args.rev, Path(tmp))),
                  "tree": _load("fglcalc_tree", ROOT / "src" / "fglcalc")}
        best, products, differ = compare(copies, workload, args.seed, args.blocks, args.reps)
    jobs = len(best["tree"])
    totals = {name: 1000.0 * sum(times) for name, times in best.items()}
    print(f"{workload.name}, seed {args.seed}: {jobs} jobs, fastest of {args.reps} rounds each")
    for name, total in totals.items():
        print(f"  {name:>12}  {total:9.2f} ms summed  {products[name] / jobs:9.1f} products per job")
    change = 100.0 * (totals["tree"] / totals[args.rev] - 1.0)
    print(f"  change {change:+.2f} %")
    if differ:
        print(f"outputs differ in {len(differ)} of {jobs} jobs, first job {differ[0]}")
        return 1
    print(f"outputs identical in all {jobs} jobs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
