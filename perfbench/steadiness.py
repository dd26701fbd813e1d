"""Repeat the benchmark over seeds and record how far each end-to-end metric spreads.

    python3 perfbench/steadiness.py [--write]

Runs ``run.py --trace 0`` once per seed (seeds 1000 to 1009) for every
workload in BENCHMARK.json, one run at a time, and then does all of that a
second time.  For each set and every end-to-end metric it prints the
median, the quartiles from ``statistics.quantiles(values, n=4)`` and the
spread (Q3 - Q1) / median next to the metric's bound.  It then prints how
much worse the second set's median is than the first's, as a share of the
first.  ``single.setup_s``, the set-up of the measured interpreter alone,
is recorded beside ``setup_s`` (the median over it and 6 probe
interpreters) to show what the probes buy.  With ``--write`` the record
goes to STEADINESS.json beside this file.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1000, 1010))
SETS = 2
SINGLE_SETUP = "single.setup_s"


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=600,
    )
    lines = proc.stdout.decode().strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed jobs")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines[:-1]:
        if line.startswith(SINGLE_SETUP + " "):
            values[SINGLE_SETUP] = float(line.split()[1])
    return values


def summarize(values: list, bound) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "bound": bound,
        "values": values,
    }


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse the second median is than the first, as a share of it."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(prog="perfbench/steadiness.py")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    record = {
        "run_seconds": spec["run_seconds"],
        "seeds": SEEDS,
        "measured": time.strftime("%Y-%m-%d"),
        "sets": [],
        "second_median_worse_by": {},
    }
    for number in range(1, SETS + 1):
        summaries = {}
        for workload in names:
            runs = [one_run(workload, seed, spec["run_seconds"]) for seed in SEEDS]
            summary = {
                name: summarize([r[name] for r in runs], bound) for name, bound in bounds.items()
            }
            summary[SINGLE_SETUP] = summarize([r[SINGLE_SETUP] for r in runs], bounds["setup_s"])
            summaries[workload] = summary
            for name, s in summary.items():
                flag = "" if s["spread"] < s["bound"] / 3 else "  <-- at least a third of its bound"
                print(f"set {number} {workload:12s} {name:14s} median {s['median']:.4g} "
                      f"q1 {s['q1']:.4g} q3 {s['q3']:.4g} spread {s['spread']:.3f} "
                      f"bound {s['bound']}{flag}", flush=True)
                print("    " + " ".join(f"{v:.4g}" for v in s["values"]), flush=True)
        record["sets"].append(summaries)
    for workload in names:
        first, second = (s[workload] for s in record["sets"][:2])
        record["second_median_worse_by"][workload] = row = {
            name: worse_by(first[name]["median"], second[name]["median"], better[name])
            for name in bounds
        }
        for name, value in row.items():
            flag = "" if value <= bounds[name] else "  <-- past its bound"
            print(f"{workload:12s} {name:14s} second median worse by {value:+.3f} "
                  f"(bound {bounds[name]}){flag}", flush=True)
    if args.write:
        (HERE / "STEADINESS.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
