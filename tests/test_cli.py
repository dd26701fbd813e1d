"""End-to-end command line behavior: golden bytes, exit codes, input modes."""

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fglcalc.ring
from fglcalc.cli import (BACKENDS, MAX_COMPONENTS, MAX_MULTIPLICITY, MAX_ORDER, MAX_WORK,
                         build_parser, main)
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


def test_normalform_adds_the_classes_of_a_face_and_drops_a_cancelled_face():
    def cls(*terms):
        return {"dim_bound": 1, "terms": [
            {"c_exponents": exps, "coeff": [{"coeff": coeff, "monomial": {}}]}
            for exps, coeff in terms]}
    data = {"ambient_dim": 2, "components": [{"name": "D1"}, {"name": "D2"}],
            "faces": [[1], [2], [1, 2]], "classes": [
                {"face": [1], "class": cls(([1, 0], "2"), ([1, 0], "-1"))},
                {"face": [1], "class": cls(([0, 0], "3"))},
                {"face": [2], "class": cls(([0, 0], "1"))},
                {"face": [2], "class": cls(([0, 0], "-1"))}]}
    rc, out, err = run_cli(["snc", "normalform", "--order", "3", json.dumps(data)])
    assert (rc, err) == (0, "")
    assert out == (
        '{"entries":[{"face":[1],"class":{"dim_bound":1,"terms":['
        '{"c_exponents":[0,0],"coeff":[{"coeff":"3","monomial":{}}]},'
        '{"c_exponents":[1,0],"coeff":[{"coeff":"1","monomial":{}}]}]}}]}\n'
    )


_ONE_COMPONENT = '{"ambient_dim": 2, "components": [{"name": "D1"}], "faces": [[1]]}'


@pytest.mark.parametrize("argv,detail", [
    (["fgl", "multilinear", '{"multiplicities": []}'], "'multiplicities' must be nonempty"),
    (["fgl", "decompose", '{"multiplicities": []}'], "'multiplicities' must be nonempty"),
    (["cycles", "blowup-tower", '{"target": {"name": "X", "dim": 3}, "steps": []}'],
     "'steps' must be a nonempty list"),
    (["cycles", "relgen", '{"kind": "dim"}'], "relgen needs a 'witness'"),
    (["fgl", "multilinear", '{"n": 2}'], "input lacks 'multiplicities'"),
    (["snc", "divclass", _ONE_COMPONENT], "input lacks 'D'"),
    (["snc", "normalform", _ONE_COMPONENT], "normalform needs 'classes'"),
    (["cycles", "blowup-tower", '{"steps": []}'], "blowup-tower needs 'target' and 'steps'"),
    (["cycles", "blowup-tower", '{"target": 5}'], "blowup-tower needs 'target' and 'steps'"),
], ids=["multilinear", "decompose", "blowup-tower", "relgen", "no multiplicities", "no D",
        "no classes", "no target", "no steps"])
def test_empty_or_missing_parts_exit_2(argv, detail):
    rc, out, err = run_cli(argv)
    assert (rc, err) == (2, "")
    assert json.loads(out)["detail"] == detail


def test_unwritable_output_exits_1(tmp_path):
    rc, out, err = run_cli(["fgl", "inverse", "--order", "3", "--output", str(tmp_path)])
    assert (rc, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("fglcalc: cannot write output:")


def test_float_coefficient_exits_2():
    data = json.load(open(_data("snc_classes.json")))
    data["classes"][0]["class"]["terms"][0]["coeff"][0]["coeff"] = 0.1
    rc, out, _ = run_cli(["snc", "normalform", "--order", "3", json.dumps(data)])
    assert rc == 2
    assert json.loads(out)["error"] == "validation"


_LONG = "1" * 5000  # past int()'s 4,300-digit limit on a digit string


def _series_doc(coeff="1", monomial=None):
    return json.dumps({"variables": ["u"], "order": 3, "terms": [
        {"exponents": [1], "coeff": coeff, "monomial": monomial or {}}]})


@pytest.mark.parametrize("argv,stdin_text,code", [
    (["fgl", "nseries", "--order", "3", "-"], '{"n": %s}' % _LONG, 1),
    (["cycles", "dpr", "-"],
     open(_data("dpr.json")).read().replace('"dim": 3', '"dim": ' + _LONG), 1),
    (["fgl", "decompose", "--order", "3", "-"], _series_doc(_LONG), 2),
    (["fgl", "decompose", "--order", "3", "-"], _series_doc("1/" + _LONG), 2),
    (["fgl", "decompose", "--order", "3", "-"], _series_doc(monomial={f"A({_LONG},1)": 1}), 2),
], ids=["integer", "label dim", "coefficient", "denominator", "generator index"])
def test_over_long_digit_strings_exit_1_or_2(argv, stdin_text, code):
    rc, out, err = run_cli(argv, stdin_text=stdin_text)
    assert rc == code
    if code == 1:
        assert out == ""
        assert err.count("\n") == 1 and "cannot read input" in err
    else:
        assert err == ""
        assert json.loads(out)["detail"].startswith(("bad coefficient", "unrecognized generator"))


def _deep(depth):
    # by concatenation: json.dumps recurses too
    return '{"n": 2, "x": ' + "[" * depth + "]" * depth + "}"


def _write(directory, content):
    path = directory / "input.json"
    path.write_bytes(content)
    return str(path)


# a file is decoded strictly, while stdin and an argv decode with
# surrogateescape: there bytes that are not UTF-8 arrive as lone surrogates,
# which every mode refuses alike
@pytest.mark.parametrize("given, content", [
    ("file", b'{"n": 2, "x": "\xff"}'),
    ("stdin", b'{"n": 2, "x": "\xff"}'),
    ("inline", b'{"n": 2, "x": "\xff"}'),
    ("file", _deep(2000).encode()),
    ("stdin", _deep(2000).encode()),
    ("inline", _deep(2000).encode()),
], ids=["not utf-8", "not utf-8 stdin", "not utf-8 inline", "deep file", "deep stdin",
        "deep inline"])
def test_unreadable_input_exits_1(tmp_path, given, content):
    argv, stdin_text = ["fgl", "nseries", "--order", "3"], None
    if given == "file":
        argv.append(_write(tmp_path, content))
    elif given == "stdin":
        argv.append("-")
        stdin_text = content.decode("utf-8", "surrogateescape")
    else:
        argv.append(content.decode("utf-8", "surrogateescape"))
    rc, out, err = run_cli(argv, stdin_text=stdin_text)
    assert (rc, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("fglcalc: cannot read input:")
    assert ("cannot read input: not UTF-8" in err) == (b"\xff" in content)


def test_a_strict_stdin_that_is_not_utf8_exits_1(monkeypatch):
    # as under PYTHONIOENCODING=utf-8:strict, where the read itself fails
    raw = io.BytesIO(b'{"n": 2, "x": "\xff"}')
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(raw, encoding="utf-8", errors="strict"))
    rc, out, err = run_cli(["fgl", "nseries", "--order", "3", "-"])
    assert (rc, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("fglcalc: cannot read input: not UTF-8")


def test_a_json_generator_name_in_other_digits_exits_2():
    # "A(\u0661,\u0662)" is A(1,2) in Arabic-Indic digits; names are read in ASCII digits
    rc, out, err = run_cli(["fgl", "decompose", "--order", "3", "-"],
                           stdin_text=_series_doc(monomial={"A(\u0661,\u0662)": 1}))
    assert (rc, err) == (2, "")
    assert json.loads(out)["detail"].startswith("unrecognized generator name")


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


@pytest.mark.parametrize("subcommand", ["multilinear", "decompose"])
def test_more_multiplicities_than_the_variable_limit_exit_2(subcommand):
    rc, out, _ = run_cli(["fgl", subcommand, "--order", "2",
                          json.dumps({"multiplicities": [1] * 256})])
    assert rc == 2
    assert json.loads(out)["detail"] == "256 variables exceed the limit 255"


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


def test_the_default_order_is_8(monkeypatch):
    monkeypatch.delenv("FGL_ORDER", raising=False)
    rc, out, _ = run_cli(["fgl", "inverse", "--backend", "free"])
    assert rc == 0
    assert json.loads(out)["order"] == 8


@pytest.mark.parametrize("order, log_order", [(1, 1), (2, 1), (3, 2), (8, 7), (16, 15)])
def test_a_log_law_gets_the_smallest_log_backend_that_holds_it(order, log_order):
    # a law of order k has its coefficients in m(1) .. m(k - 1), and a log backend
    # has an order of at least 1
    assert BACKENDS["log"](order) == fglcalc.ring.log_backend(log_order)


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


def _readme_limits():
    # the README paragraph that begins "Limits:", its line breaks as spaces
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        paragraphs = fh.read().split("\n\n")
    (limits,) = [p for p in paragraphs if p.startswith("Limits:")]
    return " ".join(limits.split())


@pytest.mark.parametrize("name, value", [
    ("cli.MAX_MULTIPLICITY", MAX_MULTIPLICITY),
    ("cli.MAX_ORDER", MAX_ORDER),
    ("cli.MAX_COMPONENTS", MAX_COMPONENTS),
    ("cli.MAX_WORK", MAX_WORK),
    ("ring.MAX_EXPONENT", fglcalc.ring.MAX_EXPONENT),
    ("ring.FIELD_BITS", fglcalc.ring.FIELD_BITS),
])
def test_the_readme_quotes_every_limit_beside_its_name(name, value):
    # "at most 16 (`fglcalc.cli.MAX_ORDER`)": the value, at most a word or
    # two, then the name, so no limit changes without its sentence
    quoted = (rf"(?<![\d,.])(?:{value}|{value:,})\b[^()`]{{0,15}}"
              rf"\(`fglcalc\.{re.escape(name)}`\)")
    assert re.search(quoted, _readme_limits()), f"README Limits does not quote {name} = {value:,}"


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


_DEEP = "\x00deep"  # a string no input holds, replaced by the deep nesting
_NOT_UTF8 = [b"\xff", b"\x80", b"\xc3(", b"\xe2\x82", b"\xed\xa0\x80"]


def _deepen(doc, data):
    """The text of doc with one value, or the whole, nested past the recursion limit."""
    depth = 2 * sys.getrecursionlimit()
    path = data.draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return "[" * depth + json.dumps(doc) + "]" * depth
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = _DEEP
    return json.dumps(doc).replace(json.dumps(_DEEP), "[" * depth + "]" * depth)


@settings(max_examples=100)
@given(st.sampled_from(range(len(_FUZZ_RUNS))), st.integers(0, 2),
       st.sampled_from(["deep", "bytes"]), st.data())
def test_unreadable_mutations_exit_1(tmp_path_factory, which, rounds, op, data):
    argv, doc = _FUZZ_RUNS[which]
    doc = json.loads(json.dumps(doc))
    for _ in range(rounds):
        doc = _mutate(doc, data)
    if op == "deep":
        raw = _deepen(doc, data).encode()
    else:  # bytes that are not UTF-8, anywhere in the file
        raw = json.dumps(doc).encode()
        at = data.draw(st.integers(0, len(raw)))
        raw = raw[:at] + data.draw(st.sampled_from(_NOT_UTF8)) + raw[at:]
    rc, out, err = run_cli(argv + [_write(tmp_path_factory.getbasetemp(), raw)])
    assert (rc, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("fglcalc: cannot read input:")


# -- the parser main builds reads every argv as the full parser does -----------

def _parse_once(call, argv, monkeypatch):
    """Exit code, stdout, stderr and the top-level namespace of one call."""
    seen = []
    parse_args = argparse.ArgumentParser.parse_args

    def spy(self, args=None, namespace=None):
        result = parse_args(self, args, namespace)
        seen.append(result)
        return result

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = call(argv)
        except SystemExit as exc:
            rc = exc.code
    monkeypatch.undo()
    return rc, out.getvalue(), err.getvalue(), seen[0] if seen else None


def _argv_table():
    table = [[], ["-h"], ["snc", "bogus"], ["bogus"], ["bogus", "x"], ["fgl", "divclass"],
             ["--order", "3", "fgl", "inverse"], ["fgl", "--order", "3", "inverse"]]
    for group in ("fgl", "snc", "cycles"):
        table += [[group], [group, "-h"]]
    for group, command, reads_input in SUBCOMMANDS:
        given = [group, command] + (["{}"] if reads_input else [])
        table += [
            [group, command, "--help"],
            [group, command],  # a missing input, or none for inverse
            given + ["extra"],
            given + ["--order", "abc"],
            given + ["--backend", "bad"],
            given + ["--ord", "3"],
            given + ["--order=3"],
            given + ["-x"],
        ]
    return table


@pytest.mark.parametrize("argv", _argv_table(), ids=" ".join)
def test_main_parses_every_argv_as_the_full_parser(argv, monkeypatch):
    rc, out, err, namespace = _parse_once(lambda a: build_parser().parse_args(a), argv,
                                          monkeypatch)
    main_rc, main_out, main_err, main_namespace = _parse_once(main, argv, monkeypatch)
    if namespace is not None:  # a valid argv: main went on to run the command
        assert main_namespace == namespace
    else:
        assert (main_rc, main_out, main_err) == (rc, out, err)


# -- the pretty layout, the chosen-command parser and main(None) ---------------

def test_pretty_output_is_pinned_byte_for_byte():
    rc, out, err = run_cli(["fgl", "inverse", "--order", "2", "--backend", "mult", "--pretty"])
    assert (rc, err) == (0, "")
    assert out == (
        '{\n'
        '  "variables": [\n'
        '    "u"\n'
        '  ],\n'
        '  "order": 2,\n'
        '  "terms": [\n'
        '    {\n'
        '      "exponents": [\n'
        '        1\n'
        '      ],\n'
        '      "coeff": "-1",\n'
        '      "monomial": {}\n'
        '    },\n'
        '    {\n'
        '      "exponents": [\n'
        '        2\n'
        '      ],\n'
        '      "coeff": "1",\n'
        '      "monomial": {\n'
        '        "b": 1\n'
        '      }\n'
        '    }\n'
        '  ]\n'
        '}\n'
    )


def _count_parsers(call, monkeypatch):
    """How many ArgumentParser objects call() builds."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    call()
    monkeypatch.undo()
    return len(built)


def test_a_chosen_command_builds_three_parsers(monkeypatch):
    # the top parser, its group and its command; any other argv builds the
    # full tree of one parser per group and per command
    full = 1 + len({group for group, _, _ in SUBCOMMANDS}) + len(SUBCOMMANDS)
    assert _count_parsers(lambda: build_parser(), monkeypatch) == full
    assert _count_parsers(lambda: build_parser(["fgl", "inverse"]), monkeypatch) == 3
    assert _count_parsers(lambda: build_parser(["fgl", "inverse", "--order", "3"]), monkeypatch) == 3
    assert _count_parsers(lambda: build_parser(["snc", "check-properties", "{}"]), monkeypatch) == 3
    assert _count_parsers(lambda: build_parser(["fgl", "bogus"]), monkeypatch) == full
    assert _count_parsers(lambda: build_parser(["inverse", "fgl"]), monkeypatch) == full


def test_main_without_argv_reads_the_command_line(monkeypatch):
    argv = ["fgl", "inverse", "--order", "3", "--backend", "log"]
    expected = run_cli(argv)
    monkeypatch.setattr(sys, "argv", ["fglcalc"] + argv)
    assert run_cli(None) == expected
    assert _count_parsers(lambda: run_cli(None), monkeypatch) == 3
