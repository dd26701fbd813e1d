"""Tests of the benchmark itself: inputs, checks and tracing.

    python3 -m pytest perfbench/tests -q
"""

import inspect
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from perfbench import workloads as wl
from perfbench.cli_child import parse_payload
from perfbench.tracer import CALLS, OWN_PRODUCTS, SUBTREE_PRODUCTS, TARGETS, Tracer, install
from perfbench.worker import TracedRunner

import fglcalc
import fglcalc.cli

NAMES = sorted(wl.WORKLOADS)


@pytest.fixture
def ctx():
    workdir = Path(tempfile.mkdtemp(dir=wl.ROOT))
    try:
        yield wl.CliContext(workdir)
    finally:
        shutil.rmtree(workdir)


def _inputs(name, seed, count):
    specs = wl.SpecStream(wl.WORKLOADS[name], seed)
    return wl.canonical([specs[k] for k in range(count)] + specs.warmup())


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_byte_identical_inputs(name):
    count = 2 * wl.WORKLOADS[name].block_size + 3
    assert _inputs(name, 7, count) == _inputs(name, 7, count)
    assert _inputs(name, 7, count) != _inputs(name, 8, count)


@pytest.mark.parametrize("name", NAMES)
def test_a_spec_does_not_depend_on_what_was_drawn_before(name):
    workload = wl.WORKLOADS[name]
    late = workload.block_size + 5
    walked = wl.SpecStream(workload, 3)
    for k in range(late):
        walked[k]
    assert wl.canonical(walked[late]) == wl.canonical(wl.SpecStream(workload, 3)[late])


def test_blocks_cover_the_cost_grid_once():
    series = wl.WORKLOADS["series-cold"]
    specs = wl.SpecStream(series, 11)
    block = [specs[k] for k in range(series.block_size)]
    assert sorted((s["backend"], s["n"]) for s in block) == sorted(
        (b, n) for b in ("free", "log") for n in series.ns
    )
    cli = wl.WORKLOADS["cli-batch"]
    specs = wl.SpecStream(cli, 11)
    seen = {(tuple(specs[k]["argv"][:2]), specs[k]["argv"][5]) for k in range(cli.block_size)}
    assert len(seen) == len(wl.CLI_COMMANDS) * len(wl.CLI_BACKENDS)


def _corrupt(data: bytes, at: int) -> bytes:
    return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]


@pytest.mark.parametrize("name", NAMES)
def test_a_corrupted_byte_fails_the_pinned_check(name, ctx):
    workload = wl.WORKLOADS[name]
    verifier = wl.Verifier(workload, wl.SHIPPED_SEED)
    spec = wl.SpecStream(workload, wl.SHIPPED_SEED)[0]
    result = workload.run(spec, ctx)
    assert verifier.check(0, spec, result)
    data = workload.output_bytes(result)
    assert verifier.check_bytes(0, data)
    for at in (0, len(data) // 2, len(data) - 1):
        assert not verifier.check_bytes(0, _corrupt(data, at))


def test_a_corrupted_cli_byte_fails_the_identity_check(ctx):
    workload = wl.WORKLOADS["cli-batch"]
    verifier = wl.Verifier(workload, seed=5)
    assert not verifier.pinned
    specs = wl.SpecStream(workload, 5)
    for k in (0, 4, 9):  # fgl inverse, snc divclass, cycles blowup-tower
        code, stdout, stderr, spawned, wall = workload.run(specs[k], ctx)
        assert verifier.check(k, specs[k], (code, stdout))
        assert not verifier.check(k, specs[k], (code, b" " + stdout[1:]))
        assert not verifier.check(k, specs[k], (code + 1, stdout))


def test_library_identities_reject_a_wrong_result(ctx):
    series = wl.WORKLOADS["series-cold"]
    spec = dict(wl.SpecStream(series, 5)[0])
    law, inverse, n_series, combination = series.run(spec, ctx)
    assert series.identities_hold(spec, (law, inverse, n_series, combination))
    assert not series.identities_hold(spec, (law, n_series, n_series, combination))
    assert not series.identities_hold(spec, (law, inverse, inverse, combination))
    snc = wl.WORKLOADS["snc-check"]
    passed = {"symmetry": True, "restriction": True, "operator": True}
    assert snc.identities_hold({}, (dict(passed, restriction=None), passed))
    assert not snc.identities_hold({}, (passed, dict(passed, operator=False)))


def _snapshot():
    """Every attribute of every fglcalc module and class, by identity."""
    out = {}
    for key, module in list(sys.modules.items()):
        if key == "fglcalc" or key.startswith("fglcalc."):
            out[key] = dict(vars(module))
            for cls_name, cls in inspect.getmembers(module, inspect.isclass):
                out[f"{key}.{cls_name}"] = dict(vars(cls))
    return out


def _restored(before, after):
    return before.keys() == after.keys() and all(
        before[k].keys() == after[k].keys()
        and all(before[k][a] is after[k][a] for a in before[k])
        for k in before
    )


@pytest.mark.parametrize("name", ["series-cold", "snc-check"])
def test_traced_jobs_leave_no_wrappers_and_same_results(name, ctx):
    workload = wl.WORKLOADS[name]
    specs = wl.SpecStream(workload, 2)
    plain = [workload.output_bytes(workload.run(specs[k], ctx)) for k in range(2)]
    before = _snapshot()
    runner = TracedRunner(workload, ctx)
    traced = [workload.output_bytes(runner.run(specs[k], k)[0]) for k in range(2)]
    assert _restored(before, _snapshot())
    assert traced == plain
    assert runner.tracer.calls("series.mul") > 0
    assert not runner.tracer.missing


def test_install_reaches_every_import_site_and_uninstall_restores():
    before = _snapshot()
    original = fglcalc.snc.evaluate_at_chern
    installation = install(Tracer())
    try:
        assert fglcalc.chern.evaluate_at_chern is fglcalc.snc.evaluate_at_chern
        assert fglcalc.evaluate_at_chern is fglcalc.snc.evaluate_at_chern
        assert fglcalc.snc.evaluate_at_chern is not original
        assert fglcalc.cli.check_properties is fglcalc.snc.check_properties
        poly = fglcalc.ring.GradedPolynomial
        assert poly.__rmul__ is poly.__mul__
        assert isinstance(vars(fglcalc.FormalGroupLaw)["series"], property)
    finally:
        installation.uninstall()
    assert _restored(before, _snapshot())


def test_a_missing_target_is_reported_not_raised():
    tracer = Tracer()
    targets = TARGETS[:1] + (
        ("ring.gone", "fglcalc.ring", "NoSuchClass.method", False, None),
        ("snc.gone", "fglcalc.snc", "no_such_function", False, None),
    )
    installation = install(tracer, targets)
    installation.uninstall()
    assert tracer.missing == ["fglcalc.ring.NoSuchClass.method", "fglcalc.snc.no_such_function"]


def _counts(tracer):
    return {name: (s[CALLS], s[OWN_PRODUCTS], s[SUBTREE_PRODUCTS]) for name, s in tracer.stats.items()}


@pytest.mark.parametrize("name", NAMES)
def test_counts_repeat_exactly(name, ctx):
    workload = wl.WORKLOADS[name]
    specs = wl.SpecStream(workload, 4)
    jobs = (0, 9) if name == "cli-batch" else (0, 1)  # cli: fgl inverse, blowup-tower
    for k in jobs:  # as set-up does: fill the process-wide caches first
        workload.run(specs[k], ctx)
    counts = []
    for _ in range(2):
        runner = TracedRunner(workload, ctx)
        for k in jobs:
            runner.run(specs[k], k)
        counts.append((_counts(runner.tracer), runner.cli["stdout_bytes"]))
    assert counts[0] == counts[1]
    assert sum(c for c, _, _ in counts[0][0].values()) > 0
    entered = {name.split(".")[0] for name, (calls, _, _) in counts[0][0].items() if calls}
    assert entered - {"job"} <= set(workload.layers)


def test_snc_products_are_attributed_to_their_entry_points(ctx):
    workload = wl.WORKLOADS["snc-check"]
    runner = TracedRunner(workload, ctx)
    runner.run(wl.SpecStream(workload, 4)[0], 0)
    t = runner.tracer
    assert 0 < t.subtree_products("snc.product_class") <= t.own_products("series.mul") + t.own_products("ring.mul")
    assert 0 < t.subtree_products("snc.divisor_operator") <= t.own_products("chern.mul") + t.own_products("ring.mul") + t.own_products("series.mul")
    assert t.total_ms("snc.check_properties") >= t.total_ms("snc.product_class") > t.self_ms("snc.product_class")


def test_traced_cli_child_matches_the_plain_cli(ctx):
    workload = wl.WORKLOADS["cli-batch"]
    spec = wl.SpecStream(workload, 6)[7]  # snc check-properties
    plain = workload.run(spec, ctx)
    traced = workload.run(spec, ctx, traced=True)
    assert traced[:2] == plain[:2]
    payload = parse_payload(traced[2])
    assert payload["stats"]["cli.main"][CALLS] == 1
    assert payload["stats"]["snc.check_properties"][CALLS] == 1
    assert payload["import_s"] > 0 and payload["started"] > traced[3]
    with pytest.raises(ValueError):
        parse_payload(plain[2])


def test_run_refuses_a_checkout_without_fglcalc(tmp_path):
    shutil.copytree(wl.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "series-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == b""
