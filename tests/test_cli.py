"""End-to-end command line behavior: golden bytes, exit codes, input modes."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fglcalc.ring
from fglcalc.cli import MAX_COMPONENTS, MAX_ORDER, MAX_WORK, build_parser, main
from fglcalc.stats import meter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DATA = os.path.join(HERE, "data")
GOLDEN = os.path.join(HERE, "golden")


def _data(name):
    return os.path.join(DATA, name)


def _golden(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return fh.read()


def run_cli(argv, stdin_text=None):
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    try:
        if stdin_text is not None:
            sys.stdin = io.StringIO(stdin_text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    finally:
        sys.stdin = old_stdin
    return rc, out.getvalue(), err.getvalue()


GOLDEN_RUNS = [
    ("inverse_free_o4.json",
     ["fgl", "inverse", "--order", "4", "--backend", "free"]),
    ("inverse_log_o5.json",
     ["fgl", "inverse", "--order", "5", "--backend", "log"]),
    ("nseries2_log_o4.json",
     ["fgl", "nseries", "--order", "4", "--backend", "log", _data("nseries_two.json")]),
    ("multilinear_free_o3.json",
     ["fgl", "multilinear", "--order", "3", "--backend", "free", _data("multilinear.json")]),
    ("decompose_free_o3.json",
     ["fgl", "decompose", "--order", "3", "--backend", "free", _data("decompose_mults.json")]),
    ("divclass_free_o3.json",
     ["snc", "divclass", "--order", "3", "--backend", "free", _data("snc_pair.json")]),
    ("prodclass_free_o3.json",
     ["snc", "prodclass", "--order", "3", "--backend", "free", _data("snc_pair.json")]),
    ("normalform_free_o3.json",
     ["snc", "normalform", "--order", "3", "--backend", "free", _data("snc_classes.json")]),
    ("check_log_o4.json",
     ["snc", "check-properties", "--order", "4", "--backend", "log", _data("snc_check.json")]),
    ("dpr.json",
     ["cycles", "dpr", _data("dpr.json")]),
    ("tower.json",
     ["cycles", "blowup-tower", _data("tower.json")]),
    ("relgen_fgl_free.json",
     ["cycles", "relgen", "--backend", "free", _data("relgen_fgl.json")]),
]


# every subcommand, and whether it reads a JSON input
SUBCOMMANDS = [
    ("fgl", "inverse", False),
    ("fgl", "nseries", True),
    ("fgl", "multilinear", True),
    ("fgl", "decompose", True),
    ("snc", "divclass", True),
    ("snc", "prodclass", True),
    ("snc", "normalform", True),
    ("snc", "check-properties", True),
    ("cycles", "dpr", True),
    ("cycles", "blowup-tower", True),
    ("cycles", "relgen", True),
]


@pytest.mark.parametrize("group,command,reads_input", SUBCOMMANDS,
                         ids=[f"{g} {c}" for g, c, _ in SUBCOMMANDS])
def test_every_subcommand_takes_the_common_options_and_its_input(group, command, reads_input):
    parser = build_parser()
    common = [group, command, "--order", "5", "--backend", "log", "--pretty", "--output", "o.json"]
    with_input, without = common + ["{}"], common
    args = parser.parse_args(with_input if reads_input else without)
    assert (args.group, args.command) == (group, command)
    assert (args.order, args.backend, args.pretty, args.output) == (5, "log", True, "o.json")
    assert ("input" in args) == reads_input
    if reads_input:
        assert args.input == "{}"
    # a missing input, or one the command does not read, is a usage error
    with pytest.raises(SystemExit) as excinfo, contextlib.redirect_stderr(io.StringIO()):
        parser.parse_args(without if reads_input else with_input)
    assert excinfo.value.code == 2
    defaults = parser.parse_args([group, command] + (["-"] if reads_input else []))
    assert (defaults.order, defaults.backend, defaults.pretty, defaults.output) == (
        None, "free", False, None)


@pytest.mark.parametrize("golden_name,argv", GOLDEN_RUNS, ids=[g for g, _ in GOLDEN_RUNS])
def test_golden_output_byte_identical(golden_name, argv):
    rc1, out1, err1 = run_cli(argv)
    rc2, out2, _ = run_cli(argv)
    assert rc1 == rc2 == 0
    assert err1 == ""
    assert out1 == out2 == _golden(golden_name)
    assert out1.endswith("\n")
    json.loads(out1)  # well formed


@pytest.mark.parametrize(
    "argv",
    [
        ["fgl", "inverse", "--order", "4", "--backend", "free"],
        ["snc", "divclass", "--order", "3", "--backend", "free", _data("snc_pair.json")],
        ["cycles", "dpr", _data("dpr.json")],
    ],
    ids=["inverse", "divclass", "dpr"],
)
def test_pretty_formats_the_same_object(argv):
    rc, compact, _ = run_cli(argv)
    rcp, pretty, _ = run_cli(argv + ["--pretty"])
    assert rc == rcp == 0
    assert pretty != compact
    assert pretty.endswith("\n")
    assert json.loads(pretty) == json.loads(compact)


def test_inline_json_input():
    rc, out, _ = run_cli(
        ["fgl", "nseries", "--order", "4", "--backend", "log", '{"n": 2}']
    )
    assert rc == 0
    assert out == _golden("nseries2_log_o4.json")


def test_stdin_input():
    rc, out, _ = run_cli(
        ["fgl", "nseries", "--order", "4", "--backend", "log", "-"],
        stdin_text='{"n": 2}',
    )
    assert rc == 0
    assert out == _golden("nseries2_log_o4.json")


def test_decompose_accepts_a_series_document():
    # the multilinear output fed back in splits exactly as the multiplicities do
    series_text = _golden("multilinear_free_o3.json")
    rc1, from_series, _ = run_cli(
        ["fgl", "decompose", "--order", "3", "--backend", "free", "-"],
        stdin_text=series_text,
    )
    rc2, from_mults, _ = run_cli(
        ["fgl", "decompose", "--order", "3", "--backend", "free",
         '{"multiplicities": [1, -1, 2]}']
    )
    assert rc1 == rc2 == 0
    assert from_series == from_mults


def test_output_flag_writes_file_and_keeps_stdout_quiet(tmp_path):
    path = tmp_path / "inverse.json"
    rc, out, err = run_cli(
        ["fgl", "inverse", "--order", "4", "--backend", "free", "--output", str(path)]
    )
    assert rc == 0
    assert out == "" and err == ""
    assert path.read_text(encoding="utf-8") == _golden("inverse_free_o4.json")


def test_missing_input_file_exits_1():
    rc, out, err = run_cli(["fgl", "nseries", _data("no_such_file.json")])
    assert rc == 1
    assert out == ""
    assert "cannot read" in err


def test_malformed_json_exits_1():
    rc, out, err = run_cli(["fgl", "nseries", _data("broken.json")])
    assert rc == 1
    assert out == ""
    assert "malformed JSON" in err


def test_invalid_configuration_exits_2_with_report():
    rc, out, err = run_cli(
        ["snc", "divclass", "--order", "3", _data("snc_invalid.json")]
    )
    assert rc == 2
    assert err == ""
    report = json.loads(out)
    assert report["error"] == "validation"
    rules = {v["rule"] for v in report["violations"]}
    assert "duplicate-component-name" in rules
    assert "missing-singleton" in rules


def test_validation_error_exits_2():
    rc, out, _ = run_cli(["fgl", "nseries", '{"n": "two"}'])
    assert rc == 2
    report = json.loads(out)
    assert report["error"] == "validation"
    assert "violations" not in report


def test_inline_json_array_exits_2():
    rc, out, err = run_cli(["fgl", "nseries", "[1,2]"])
    assert rc == 2
    assert err == ""
    assert json.loads(out)["detail"] == "top-level input must be a JSON object"


def test_float_coefficient_exits_2():
    data = json.load(open(_data("snc_classes.json")))
    data["classes"][0]["class"]["terms"][0]["coeff"][0]["coeff"] = 0.1
    rc, out, _ = run_cli(["snc", "normalform", "--order", "3", json.dumps(data)])
    assert rc == 2
    assert json.loads(out)["error"] == "validation"


@pytest.mark.parametrize("argv,payload", [
    (["fgl", "nseries"], {"n": 1025}),
    (["fgl", "nseries"], {"n": -100000}),
    (["fgl", "multilinear"], {"multiplicities": [1, 1025]}),
    (["fgl", "decompose"], {"multiplicities": [-1025]}),
    (["snc", "divclass"], {"D": [1, 2000]}),
    (["snc", "prodclass"], {"D": [1, 1], "E": [-1025, 0]}),
    (["snc", "check-properties"], {"D": [100000, 1], "E": [0, 1]}),
], ids=["n", "negative-n", "multilinear", "decompose", "D", "E", "check"])
def test_multiplicity_over_the_limit_exits_2(argv, payload):
    # rejected while reading the input, before any law is built
    base = json.load(open(_data("snc_pair.json"))) if argv[0] == "snc" else {}
    rc, out, _ = run_cli(argv + ["--order", "3", json.dumps({**base, **payload})])
    assert rc == 2
    assert "multiplicity limit 1024" in json.loads(out)["detail"]


def test_multiplicity_at_the_limit_is_accepted():
    # order 1 keeps [-1024]u to its linear term
    rc, out, _ = run_cli(["fgl", "nseries", "--order", "1", '{"n": -1024}'])
    assert rc == 0
    assert json.loads(out)["terms"][0]["coeff"] == "-1024"


@pytest.mark.parametrize("n", [1024, -1024])
def test_largest_multiplicity_at_the_largest_order_is_quick(n):
    # within every cap; a fold of |n| - 1 free-law substitutions at order 16
    # takes about a minute, so the loose budget still catches a return to it
    start = time.perf_counter()
    rc, out, _ = run_cli(["fgl", "nseries", "--order", str(MAX_ORDER), "--backend", "free",
                          json.dumps({"n": n})])
    assert time.perf_counter() - start < 15.0
    assert rc == 0
    assert json.loads(out)["terms"][0]["coeff"] == str(n)


def test_wrong_multiplicity_arity_exits_2():
    rc, out, _ = run_cli(
        ["snc", "divclass", "--order", "3",
         json.dumps({**json.load(open(_data("snc_pair.json"))), "D": [1]})]
    )
    assert rc == 2
    assert json.loads(out)["error"] == "validation"


def test_bad_backend_is_an_argparse_error():
    with pytest.raises(SystemExit):
        run_cli(["fgl", "inverse", "--backend", "nonsense"])


def test_env_variable_sets_the_default_order():
    env = dict(os.environ, FGL_ORDER="4")
    proc = subprocess.run(
        [sys.executable, "-m", "fglcalc", "fgl", "inverse", "--backend", "free"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == _golden("inverse_free_o4.json")


def test_cold_start_leaves_dataclasses_and_inspect_unimported():
    # -X importtime logs every module the process imports, one per line,
    # ending "| <module name>"
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "fglcalc", "fgl", "inverse", "--order", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["order"] == 3
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "fglcalc.cli" in imported
    assert not {"dataclasses", "inspect"} & imported


def test_explicit_order_beats_the_env(monkeypatch):
    monkeypatch.setenv("FGL_ORDER", "3")
    rc, out, _ = run_cli(["fgl", "inverse", "--order", "4", "--backend", "free"])
    assert rc == 0
    assert out == _golden("inverse_free_o4.json")


def test_garbage_env_order_is_a_validation_error(monkeypatch):
    monkeypatch.setenv("FGL_ORDER", "many")
    rc, out, _ = run_cli(["fgl", "inverse", "--backend", "free"])
    assert rc == 2
    assert json.loads(out)["error"] == "validation"


def test_face_that_is_not_a_list_exits_2():
    config = {"ambient_dim": 2, "components": [{"name": "D1"}], "faces": [5], "D": [1]}
    rc, out, _ = run_cli(["snc", "divclass", "--order", "3", json.dumps(config)])
    assert rc == 2
    assert "face 5 is not a list" in json.loads(out)["detail"]


def test_class_entry_face_that_is_not_a_list_exits_2():
    data = {
        "ambient_dim": 2,
        "components": [{"name": "D1"}],
        "faces": [[1]],
        "classes": [{"face": 5, "class": {"dim_bound": 1, "terms": []}}],
    }
    rc, out, _ = run_cli(["snc", "normalform", "--order", "3", json.dumps(data)])
    assert rc == 2
    assert "face 5 is not a list" in json.loads(out)["detail"]


def test_class_without_chern_symbols_exits_2():
    # zero components leave no symbols c1..cr for a class to live in
    one = [{"coeff": "1", "monomial": {}}]
    data = {
        "ambient_dim": 2,
        "components": [],
        "faces": [],
        "classes": [{"face": [], "class": {"dim_bound": 2,
                                           "terms": [{"c_exponents": [], "coeff": one}]}}],
    }
    rc, out, _ = run_cli(["snc", "normalform", "--order", "3", json.dumps(data)])
    assert rc == 2
    assert json.loads(out)["error"] == "validation"


def test_order_over_the_limit_exits_2():
    rc, out, _ = run_cli(["fgl", "inverse", "--order", str(MAX_ORDER + 1), "--backend", "free"])
    assert rc == 2
    assert f"--order {MAX_ORDER + 1} exceeds the order limit {MAX_ORDER}" in json.loads(out)["detail"]
    rc, _, _ = run_cli(["fgl", "inverse", "--order", str(MAX_ORDER), "--backend", "additive"])
    assert rc == 0


def test_env_order_over_the_limit_exits_2(monkeypatch):
    monkeypatch.setenv("FGL_ORDER", "100000")
    rc, out, _ = run_cli(["fgl", "inverse", "--backend", "free"])
    assert rc == 2
    assert f"FGL_ORDER 100000 exceeds the order limit {MAX_ORDER}" in json.loads(out)["detail"]


def _fgl_witness(dim, bundles=()):
    return {"kind": "fgl", "witness": {
        "source": {"name": "Y", "dim": dim}, "target": {"name": "X", "dim": dim},
        "bundles": list(bundles), "left": "L", "right": "M", "tensor": "LM",
    }}


def test_relgen_fgl_room_over_the_limit_exits_2_at_once():
    start = time.perf_counter()
    rc, out, _ = run_cli(["cycles", "relgen", "--backend", "free", json.dumps(_fgl_witness(1000000))])
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert f"above the order limit {MAX_ORDER}" in json.loads(out)["detail"]


def test_relgen_fgl_room_at_the_limit_is_accepted():
    # bundles already on the source use up dimensions, so they widen the limit
    rc, out, _ = run_cli(["cycles", "relgen", "--backend", "free",
                          json.dumps(_fgl_witness(MAX_ORDER + 2, ["A", "B"]))])
    assert rc == 0
    assert json.loads(out)["terms"]


@pytest.mark.parametrize("kind", [True, 1.5, ["dim"], {"dim": 1}, None],
                         ids=["bool", "float", "list", "object", "null"])
def test_relgen_kind_that_is_not_a_name_exits_2(kind):
    rc, out, _ = run_cli(["cycles", "relgen", json.dumps({"kind": kind, "witness": {}})])
    assert rc == 2
    assert json.loads(out)["detail"] == "'kind' must be one of dim, sect, fgl"


def _components(r):
    return {
        "ambient_dim": 2,
        "components": [{"name": f"D{i}"} for i in range(1, r + 1)],
        "faces": [[i] for i in range(1, r + 1)],
        "D": [1] * r,
        "E": [0] * (r - 1) + [1],
        "classes": [],
    }


@pytest.mark.parametrize("command", ["divclass", "prodclass", "normalform", "check-properties"])
def test_component_count_over_the_limit_exits_2(command):
    rc, out, _ = run_cli(["snc", command, "--order", "3", json.dumps(_components(MAX_COMPONENTS + 1))])
    assert rc == 2
    assert f"exceed the component limit {MAX_COMPONENTS}" in json.loads(out)["detail"]
    rc, _, _ = run_cli(["snc", command, "--order", "3", json.dumps(_components(MAX_COMPONENTS))])
    assert rc == 0


# -- the work budget -------------------------------------------------------------

def test_the_work_budget_stops_every_cap_at_its_limit():
    # 6 components, all 63 faces, ambient dimension and order 12: within
    # each cap, and minutes of work without the joint budget
    faces = [[i for i in range(1, 7) if mask >> (i - 1) & 1] for mask in range(1, 64)]
    doc = {"ambient_dim": 12, "components": [{"name": f"D{i}"} for i in range(1, 7)],
           "faces": faces, "D": [1, 2, -1, 1, 2, 1], "E": [2, 1, 1, -1, 1, 2]}
    start = time.perf_counter()
    rc, out, _ = run_cli(["snc", "check-properties", "--order", "12", "--backend", "free",
                          json.dumps(doc)])
    assert rc == 2
    assert f"work budget of {MAX_WORK} " in json.loads(out)["detail"]
    assert time.perf_counter() - start < 30


def _work(argv, stdin_text=None):
    # (exit code, products) of one command, the log tables built afresh as
    # in a new process
    fglcalc.ring._log_coefficient_table.cache_clear()
    before = meter.products
    rc, _, _ = run_cli(argv, stdin_text)
    return rc, meter.products - before


@pytest.mark.parametrize("golden_name,argv", GOLDEN_RUNS, ids=[g for g, _ in GOLDEN_RUNS])
def test_goldens_stay_under_the_work_budget(golden_name, argv):
    rc, products = _work(argv)
    assert rc == 0
    assert products < MAX_WORK


def test_cli_batch_inputs_stay_under_the_work_budget():
    # the benchmark's cli-batch jobs whose output bytes it pins, at its seed
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    from perfbench.workloads import SHIPPED_SEED, WORKLOADS, SpecStream, load_pins

    stream = SpecStream(WORKLOADS["cli-batch"], SHIPPED_SEED)
    for k in range(len(load_pins()["cli-batch"])):
        spec = stream[k]
        argv, stdin_text = list(spec["argv"]), None
        if spec["mode"] != "none":
            argv.append("-")
            stdin_text = json.dumps(spec["input"])
        rc, products = _work(argv, stdin_text)
        assert rc == spec["expect_exit"], (k, argv)
        assert products < MAX_WORK, (k, argv)


# -- fuzz: mutated inputs end in exit 0, 1 or 2 --------------------------------

def _input_runs():
    runs = [(argv[:-1], argv[-1]) for _, argv in GOLDEN_RUNS if argv[-1].startswith(DATA)]
    runs.append((["snc", "divclass", "--order", "3"], _data("snc_invalid.json")))
    runs.append((["cycles", "relgen", "--backend", "log", "--order", "4"], _data("relgen_fgl.json")))
    docs = []
    for argv, path in runs:
        with open(path, encoding="utf-8") as fh:
            docs.append((argv, json.load(fh)))
    # a series document for decompose
    docs.append((["fgl", "decompose", "--order", "3", "--backend", "free"],
                 json.loads(_golden("multilinear_free_o3.json"))))
    return docs


_FUZZ_RUNS = _input_runs()
_HUGE = [10**30, -10**30, 2**63, 2**31, -(2**31) - 1, 10**6]
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from(_HUGE),
    st.floats(allow_nan=False, width=32), st.text(max_size=4), st.just([]), st.just({}),
)


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, prefix + (i,))


def _mutate(doc, data):
    path = data.draw(st.sampled_from(list(_paths(doc))))
    op = data.draw(st.sampled_from(["drop", "swap", "huge", "nest"]))
    if not path:
        return {"x": doc} if op == "nest" else doc
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if op == "drop":
        del parent[key]
    elif op == "swap":
        parent[key] = data.draw(_LEAVES)
    elif op == "huge":
        parent[key] = data.draw(st.sampled_from(_HUGE))
    else:
        parent[key] = data.draw(st.sampled_from([[parent[key]], {"x": parent[key]}]))
    return doc


@settings(max_examples=300)
@given(st.sampled_from(range(len(_FUZZ_RUNS))), st.integers(1, 3), st.data())
def test_mutated_inputs_exit_0_1_or_2(which, rounds, data):
    argv, doc = _FUZZ_RUNS[which]
    doc = json.loads(json.dumps(doc))  # a private copy to mutate
    for _ in range(rounds):
        doc = _mutate(doc, data)
    rc, _, _ = run_cli(argv + ["-"], stdin_text=json.dumps(doc))
    assert rc in (0, 1, 2)
