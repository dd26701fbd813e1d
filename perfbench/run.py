"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout; it benchmarks that checkout's
``src/fglcalc``.  With ``--trace 0`` it prints every end-to-end metric, with
``--trace 1`` every per-layer metric: one ``name value unit`` line each.
A per-layer metric of a layer the workload never enters reads 0 and its
line says so.  Informational lines follow: ``wall.*`` (raw, not
speed-normalized), ``single.setup_s`` (the measured interpreter's own
set-up, which the median over probes replaces) and ``failed_frac``.  Then,
as the last line, comes one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  It exits 2 without a result when the checkout holds no
fglcalc source, and 1 when a worker fails or passes its deadline.
"""

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import SRC, WORKLOADS, child_env  # noqa: E402

# set-up is also timed in this many fresh set-up-only interpreters, half
# before and half after the measured one, so they fall in different phases
SETUP_PROBES = 6
# a hang guard, not a cap: a fixed margin for start-up and set-ups, plus
# twice the timed loop, or a generous allowance per traced job
MARGIN_S = 60.0
TRACE_JOB_ALLOWANCE_S = 1.0
END_TO_END_UNITS = {
    "setup_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


class WorkerFailed(Exception):
    pass


def run_worker(args, deadline) -> dict:
    """Run one worker interpreter to completion; returns its result line."""
    # its own process group, so a deadline also stops any CLI job it runs
    with subprocess.Popen(
        [sys.executable, "-m", "perfbench.worker", *args],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, start_new_session=True,
    ) as proc:
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    lines = stdout.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker {args} exited with {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace, deadline) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    if trace:
        out = run_worker(common + ["--mode", "trace"], deadline)
        return {"metrics": out["metrics"], "attempted": out["attempted"], "failed": out["failed"]}
    setup = [common + ["--mode", "setup"]] * SETUP_PROBES
    probes = [run_worker(args, deadline) for args in setup[: SETUP_PROBES // 2]]
    out = run_worker(common + ["--mode", "run", "--seconds", str(seconds)], deadline)
    probes += [run_worker(args, deadline) for args in setup[SETUP_PROBES // 2:]]
    probes.append(out)
    single = out["setup_s"]
    out["setup_s"] = statistics.median(p["setup_s"] for p in probes)
    out["wall"]["setup_s"] = statistics.median(p["wall"]["setup_s"] for p in probes)
    metrics = {name: {"value": out[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    return {"metrics": metrics, "attempted": out["attempted"], "failed": out["failed"],
            "wall": out["wall"], "single_setup_s": single}


def deadline_s(workload, seconds, trace) -> float:
    if trace:
        return MARGIN_S + TRACE_JOB_ALLOWANCE_S * WORKLOADS[workload].trace_jobs
    return MARGIN_S + 2.0 * seconds


def layer_of(metric: str) -> str:
    return metric.split(".", 1)[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + deadline_s(args.workload, args.seconds, args.trace)

    if not (SRC / "fglcalc" / "__init__.py").is_file():
        print(f"perfbench: no fglcalc source under {SRC}", file=sys.stderr)
        return 2
    # byte-compile up front so no timed interpreter pays for compiling
    if not compileall.compile_dir(SRC, quiet=1) or not compileall.compile_dir(
        ROOT / "perfbench", quiet=1
    ):
        print("perfbench: the fglcalc source does not compile", file=sys.stderr)
        return 2

    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace, deadline)
    except subprocess.TimeoutExpired:
        print("perfbench: a worker ran past the deadline", file=sys.stderr)
        return 1
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    entered = WORKLOADS[args.workload].layers
    for name, metric in result["metrics"].items():
        note = "" if not args.trace or layer_of(name) in entered else "  (layer not entered)"
        print(f"{name} {metric['value']!r} {metric['unit']}{note}")
    for name, value in result.get("wall", {}).items():
        print(f"wall.{name} {value!r} {END_TO_END_UNITS[name]}")
    if "single_setup_s" in result:
        print(f"single.setup_s {result['single_setup_s']!r} s")
    print(f"failed_frac {result['failed'] / result['attempted']!r} 1")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
