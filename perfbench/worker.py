"""One workload process: set-up, then the timed loop or the traced pass.

run.py starts this module (``python -m perfbench.worker``) in a fresh
interpreter with PYTHONHASHSEED fixed and the checkout's ``src`` on
PYTHONPATH.  It prints one JSON line of results on stdout.

Modes:
  setup  set up only and report setup_s (run.py repeats this for a median)
  run    set up, then a closed loop of one job at a time for --seconds
  trace  set up and run a fixed list of jobs, each once untraced and once
         traced (alternating which goes first), for per-layer metrics
"""

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from perfbench import reference
from perfbench import workloads as wl
from perfbench.cli_child import parse_payload
from perfbench.tracer import Tracer, install

OUT_DIR = wl.ROOT / ".perfbench_out"
WORK_DIR = wl.ROOT / ".perfbench_work"


def import_library():
    """Import fglcalc, refusing any copy other than this checkout's."""
    import fglcalc

    found = Path(fglcalc.__file__).resolve().parent
    if found != (wl.SRC / "fglcalc").resolve():
        raise SystemExit(f"perfbench: imported fglcalc from {found}, not from this checkout")


def is_cli(workload) -> bool:
    return isinstance(workload, wl.CliBatch)


def timed_run(workload, spec, ctx):
    """Run one job untraced; returns (result, wall seconds)."""
    if is_cli(workload):
        result = workload.run(spec, ctx)
        return result, result[4]
    start = time.perf_counter()
    result = workload.run(spec, ctx)
    return result, time.perf_counter() - start


class TracedRunner:
    """Runs jobs with the wrappers in place and keeps what they record."""

    def __init__(self, workload, ctx):
        self.workload = workload
        self.ctx = ctx
        self.tracer = Tracer()
        self.cli = {"process_s": 0.0, "startup_s": 0.0, "import_s": 0.0, "stdout_bytes": 0}

    def run(self, spec, job):
        if is_cli(self.workload):
            result = self.workload.run(spec, self.ctx, traced=True)
            code, stdout, stderr, spawned, wall = result
            payload = parse_payload(stderr)
            self.tracer.merge(payload["stats"], payload["spans"], payload["missing"], job)
            self.cli["process_s"] += wall
            self.cli["startup_s"] += payload["started"] - spawned
            self.cli["import_s"] += payload["import_s"]
            self.cli["stdout_bytes"] += len(stdout)
            return result, wall
        installation = install(self.tracer)
        self.tracer.job = job
        try:
            start = time.perf_counter()
            with self.tracer.span("job"):
                result = self.workload.run(spec, self.ctx)
            wall = time.perf_counter() - start
        finally:
            installation.uninstall()
        return result, wall


def per_layer(runner, overhead_pct) -> dict:
    """Every per-layer metric, as {name: {"value": v, "unit": u}}."""
    t = runner.tracer
    cli = runner.cli
    snc_self = sum(t.self_ms(name) for name in t.stats if name.startswith("snc."))
    rows = [
        ("ring.mul.calls", t.calls("ring.mul"), "count"),
        ("ring.mul.self_ms", t.self_ms("ring.mul"), "ms"),
        ("ring.add.calls", t.calls("ring.add"), "count"),
        ("ring.add.self_ms", t.self_ms("ring.add"), "ms"),
        ("ring.coeff_products", t.own_products("ring.mul"), "count"),
        ("ring.lazard_coefficient.self_ms", t.self_ms("ring.lazard_coefficient"), "ms"),
        ("ring.json.self_ms", t.self_ms("ring.json"), "ms"),
        ("series.mul.calls", t.calls("series.mul"), "count"),
        ("series.mul.self_ms", t.self_ms("series.mul"), "ms"),
        ("series.mul.coeff_products", t.own_products("series.mul"), "count"),
        ("series.substitute.calls", t.calls("series.substitute"), "count"),
        ("series.substitute.self_ms", t.self_ms("series.substitute"), "ms"),
        ("series.scale.self_ms", t.self_ms("series.scale"), "ms"),
        ("series.add.self_ms", t.self_ms("series.add"), "ms"),
        ("series.law_series.ms", t.total_ms("series.law_series"), "ms"),
        ("series.inverse.ms", t.total_ms("series.inverse"), "ms"),
        ("series.n_series.ms", t.total_ms("series.n_series"), "ms"),
        ("series.linear_combination.ms", t.total_ms("series.linear_combination"), "ms"),
        ("series.decompose.ms", t.total_ms("series.decompose"), "ms"),
        ("series.json.self_ms", t.self_ms("series.json"), "ms"),
        ("chern.mul.calls", t.calls("chern.mul"), "count"),
        ("chern.mul.self_ms", t.self_ms("chern.mul"), "ms"),
        ("chern.mul.coeff_products", t.own_products("chern.mul"), "count"),
        ("chern.add.self_ms", t.self_ms("chern.add"), "ms"),
        ("chern.evaluate.calls", t.calls("chern.evaluate"), "count"),
        ("chern.evaluate.self_ms", t.self_ms("chern.evaluate"), "ms"),
        ("chern.json.self_ms", t.self_ms("chern.json"), "ms"),
        ("snc.check_properties.ms", t.total_ms("snc.check_properties"), "ms"),
        ("snc.product_class.ms", t.total_ms("snc.product_class"), "ms"),
        ("snc.product_class.self_ms", t.self_ms("snc.product_class"), "ms"),
        ("snc.product_class.coeff_products", t.subtree_products("snc.product_class"), "count"),
        ("snc.divisor_operator.ms", t.total_ms("snc.divisor_operator"), "ms"),
        ("snc.divisor_operator.coeff_products", t.subtree_products("snc.divisor_operator"), "count"),
        ("snc.divisor_class.ms", t.total_ms("snc.divisor_class"), "ms"),
        ("snc.normal_form.ms", t.total_ms("snc.normal_form"), "ms"),
        ("snc.restriction.ms", t.total_ms("snc.restriction"), "ms"),
        ("snc.self_ms", snc_self, "ms"),
        ("cycles.relation_generator.ms", t.total_ms("cycles.relation_generator"), "ms"),
        ("cycles.tower.ms", t.total_ms("cycles.tower"), "ms"),
        ("cycles.sum_add.calls", t.calls("cycles.sum_add"), "count"),
        ("cycles.sum_add.self_ms", t.self_ms("cycles.sum_add"), "ms"),
        ("cycles.json.self_ms", t.self_ms("cycles.json"), "ms"),
        ("cli.process_ms", cli["process_s"] * 1000.0, "ms"),
        ("cli.startup_ms", cli["startup_s"] * 1000.0, "ms"),
        ("cli.import_ms", cli["import_s"] * 1000.0, "ms"),
        ("cli.main_ms", t.total_ms("cli.main"), "ms"),
        ("cli.self_ms", t.self_ms("cli.main"), "ms"),
        ("cli.stdout_bytes", cli["stdout_bytes"], "bytes"),
        ("trace.overhead_pct", overhead_pct, "%"),
    ]
    return {name: {"value": value, "unit": unit} for name, value, unit in rows}


def set_up(workload, seed, ctx, runner=None):
    """Everything before the first timed job; returns (specs, verifier)."""
    if not is_cli(workload):
        import_library()
    specs = wl.SpecStream(workload, seed)
    specs[0]
    verifier = wl.Verifier(workload, seed)
    for spec in specs.warmup():
        if runner is None:
            workload.run(spec, ctx)
        else:
            runner.run(spec, "setup")
    return specs, verifier


def reference_ms(workload, ctx) -> float:
    if is_cli(workload):
        return reference.spawn_ms(ctx.env, ctx.root)
    return reference.kernel_ms()


def nominal_ms(workload) -> float:
    return reference.SPAWN_NOMINAL_MS if is_cli(workload) else reference.KERNEL_NOMINAL_MS


def timed_setup(workload, seed, ctx):
    """set_up, timed; returns (specs, verifier, normalized s, wall s)."""
    count = 2 if is_cli(workload) else 5
    refs = [reference_ms(workload, ctx) for _ in range(count)]
    start = time.perf_counter()
    specs, verifier = set_up(workload, seed, ctx)
    wall = time.perf_counter() - start
    refs += [reference_ms(workload, ctx) for _ in range(count)]
    return specs, verifier, wall * nominal_ms(workload) / statistics.median(refs), wall


def job_figures(ms: list) -> dict:
    return {
        "job_p50_ms": statistics.median(ms),
        "job_p90_ms": statistics.quantiles(ms, n=10)[-1],
        "jobs_per_s": 1000.0 * len(ms) / sum(ms),
    }


def run_loop(workload, seed, seconds, ctx) -> dict:
    specs, verifier, setup_s, setup_wall = timed_setup(workload, seed, ctx)
    walls, refs = [], []
    failed = attempted = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        spec = specs[attempted]
        refs.append(reference_ms(workload, ctx))
        try:
            result, wall = timed_run(workload, spec, ctx)
        except Exception:  # a job that raises is a failed job
            traceback.print_exc()
            walls.append(None)
            failed += 1
        else:
            walls.append(wall * 1000.0)
            if not verifier.check(attempted, spec, result):
                failed += 1
        attempted += 1
    who = resource.RUSAGE_CHILDREN if is_cli(workload) else resource.RUSAGE_SELF
    out = job_figures(reference.normalize(walls, refs, nominal_ms(workload)))
    out.update({
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "wall": dict(job_figures([w for w in walls if w is not None]), setup_s=setup_wall),
    })
    return out


def trace_pass(workload, seed, ctx) -> dict:
    runner = TracedRunner(workload, ctx)
    specs, verifier = set_up(workload, seed, ctx, runner)
    untraced_s = traced_s = 0.0
    failed = 0
    for k in range(workload.trace_jobs):
        spec = specs[k]
        ok = True
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            try:
                if traced:
                    result, wall = runner.run(spec, k)
                    traced_s += wall
                else:
                    result, wall = timed_run(workload, spec, ctx)
                    untraced_s += wall
            except Exception:  # a job that raises is a failed job
                traceback.print_exc()
                ok = False
            else:
                ok = verifier.check(k, spec, result) and ok
        failed += not ok
    write_spans(runner.tracer, workload, seed)
    if runner.tracer.missing:
        print("perfbench: not found, reported as 0: " + ", ".join(runner.tracer.missing),
              file=sys.stderr)
    return {
        "metrics": per_layer(runner, 100.0 * (1.0 - untraced_s / traced_s)),
        "attempted": workload.trace_jobs,
        "failed": failed,
    }


def write_spans(tracer, workload, seed):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    keys = ("id", "parent", "name", "start", "end", "job")
    with open(path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        ctx = wl.CliContext(workdir)
        if args.mode == "setup":
            setup_s, setup_wall = timed_setup(workload, args.seed, ctx)[2:]
            out = {"setup_s": setup_s, "wall": {"setup_s": setup_wall}}
        elif args.mode == "run":
            out = run_loop(workload, args.seed, args.seconds, ctx)
        else:
            out = trace_pass(workload, args.seed, ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
