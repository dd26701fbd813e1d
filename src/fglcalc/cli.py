"""Command line interface.

Subcommand groups mirror the library layers:

  fgl     inverse, nseries, multilinear, decompose
  snc     divclass, prodclass, normalform, check-properties
  cycles  dpr, blowup-tower, relgen

Inputs are JSON, given as a file path, inline JSON (anything starting with
"{" or "["), or "-" for stdin; the top level must be an object.  Output is
canonical JSON on stdout (or --output), one trailing newline,
byte-identical across runs for identical inputs.  Exit codes: 0 success,
1 unreadable or malformed JSON input, 2 validation failure with a
machine-readable report on stdout.  The truncation order defaults to the
FGL_ORDER environment variable, then 8, and may not exceed MAX_ORDER.
Every multiplicity (n, and the entries of multiplicities, D and E) must
satisfy |n| <= MAX_MULTIPLICITY, an s.n.c. configuration may have at most
MAX_COMPONENTS components, and an fgl relation generator may leave at most
MAX_ORDER dimensions for the law's terms.  Those caps bound one size each;
their joint cost is bounded by MAX_WORK, the most coefficient-monomial
products one command may make (fglcalc.stats), past which it stops with
exit 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cycles import (
    BlowupStep,
    DimWitness,
    DoublePointDatum,
    SectWitness,
    SpaceLabel,
    TensorWitness,
    blowup_tower_relations,
    double_point_relation,
    relation_generator,
    sum_relations,
)
from .errors import ConfigurationError, OrderError, ValidationError, is_integer
from .ring import ADDITIVE, FREE, MULTIPLICATIVE, CoefficientBackend, log_backend
from .series import FormalGroupLaw, TruncatedSeries, support_decompose
from .snc import (
    FaceClassVector,
    SncConfiguration,
    check_properties,
    divisor_class,
    normal_form,
    product_class,
)
from .stats import meter

BACKEND_CHOICES = ("free", "log", "additive", "mult")
MAX_MULTIPLICITY = 1024  # largest |n| accepted for n, multiplicities, D and E
MAX_ORDER = 16  # largest truncation order accepted from --order or FGL_ORDER
MAX_COMPONENTS = 6  # most components accepted in an snc configuration
# most coefficient-monomial products per command: about 5 s of s.n.c. work,
# which the caps above admit many times over when they are all at their limit
MAX_WORK = 4_000_000


def _order(args) -> int:
    # the free law's cost grows steeply with the order, so it is capped
    # at the boundary
    if args.order is not None:
        order, source = args.order, "--order"
    else:
        raw = os.environ.get("FGL_ORDER")
        if raw is None:
            return 8
        try:
            order, source = int(raw), "FGL_ORDER"
        except ValueError:
            raise OrderError(f"FGL_ORDER must be an integer, got {raw!r}") from None
    if order > MAX_ORDER:
        raise OrderError(f"{source} {order} exceeds the order limit {MAX_ORDER}")
    return order


def _make_backend(name: str, order: int) -> CoefficientBackend:
    if name == "free":
        return FREE
    if name == "additive":
        return ADDITIVE
    if name == "mult":
        return MULTIPLICATIVE
    if name == "log":
        return log_backend(max(order - 1, 1))
    raise ValidationError(f"unknown backend {name!r}")


def _make_law(args) -> FormalGroupLaw:
    order = _order(args)
    return FormalGroupLaw(_make_backend(args.backend, order), order)


def _read_input(args) -> dict:
    raw = args.input
    if raw == "-":
        text = sys.stdin.read()
    elif raw.lstrip()[:1] in ("{", "["):
        text = raw
    else:
        with open(raw, "r", encoding="utf-8") as fh:
            text = fh.read()
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValidationError("top-level input must be a JSON object")
    return data


def _check_multiplicity(key, n):
    # [n]u costs at most order - 1 law substitutions plus one interpolation
    # whose weights are binomials in |n|; the cap bounds their size
    if abs(n) > MAX_MULTIPLICITY:
        raise ValidationError(
            f"{key!r}: |{n}| exceeds the multiplicity limit {MAX_MULTIPLICITY}"
        )


def _int_vector(data, key, expected=None):
    if key not in data:
        raise ValidationError(f"input lacks {key!r}")
    value = data[key]
    if not isinstance(value, list) or not all(map(is_integer, value)):
        raise ValidationError(f"{key!r} must be a list of integers")
    if expected is not None and len(value) != expected:
        raise ValidationError(f"{key!r} must have {expected} entries, got {len(value)}")
    for n in value:
        _check_multiplicity(key, n)
    return tuple(value)


# ---------------------------------------------------------------------------
# handlers: each takes the parsed arguments and the input object, which is
# None for the one command without an input

def _cmd_fgl_inverse(args, data):
    return _make_law(args).inverse().to_json()


def _cmd_fgl_nseries(args, data):
    n = data.get("n")
    if not is_integer(n):
        raise ValidationError("'n' must be an integer")
    _check_multiplicity("n", n)
    return _make_law(args).n_series(n).to_json()


def _cmd_fgl_multilinear(args, data):
    ns = _int_vector(data, "multiplicities")
    if not ns:
        raise ValidationError("'multiplicities' must be nonempty")
    return _make_law(args).linear_combination(ns).to_json()


def _cmd_fgl_decompose(args, data):
    if "variables" in data:
        law = _make_law(args)
        series = TruncatedSeries.from_json(data, law.backend)
        parts = support_decompose(series)
    elif "multiplicities" in data:
        ns = _int_vector(data, "multiplicities")
        if not ns:
            raise ValidationError("'multiplicities' must be nonempty")
        parts = support_decompose(_make_law(args).linear_combination(ns))
    else:
        raise ValidationError("decompose needs a series or 'multiplicities'")
    return {"parts": [{"support": sorted(J), "series": part.to_json()} for J, part in parts.items()]}


def _snc_setup(args, data):
    config = SncConfiguration.from_json(data)
    # check_properties grows exponentially with the component count
    if config.r > MAX_COMPONENTS:
        raise ValidationError(
            f"{config.r} components exceed the component limit {MAX_COMPONENTS}"
        )
    return config, _make_law(args)


def _cmd_snc_divclass(args, data):
    config, law = _snc_setup(args, data)
    ns = _int_vector(data, "D", config.r)
    return divisor_class(config, ns, law).to_json()


def _cmd_snc_prodclass(args, data):
    config, law = _snc_setup(args, data)
    ns = _int_vector(data, "D", config.r)
    ps = _int_vector(data, "E", config.r)
    return product_class(config, ns, ps, law).to_json()


def _cmd_snc_normalform(args, data):
    config, law = _snc_setup(args, data)
    if "classes" not in data:
        raise ValidationError("normalform needs 'classes'")
    vector = FaceClassVector.from_json(config, {"entries": data["classes"]}, law.backend)
    return normal_form(vector).to_json()


def _cmd_snc_check(args, data):
    config, law = _snc_setup(args, data)
    ns = _int_vector(data, "D", config.r)
    ps = _int_vector(data, "E", config.r)
    result = check_properties(config, ns, ps, law)
    word = {True: "pass", False: "fail", None: "skipped"}
    return {key: word[result[key]] for key in ("symmetry", "restriction", "operator")}


def _cmd_cycles_dpr(args, data):
    return double_point_relation(DoublePointDatum.from_json(data)).to_json()


def _cmd_cycles_tower(args, data):
    if "target" not in data or "steps" not in data:
        raise ValidationError("blowup-tower needs 'target' and 'steps'")
    if not isinstance(data["steps"], list) or not data["steps"]:
        raise ValidationError("'steps' must be a nonempty list")
    target = SpaceLabel.from_json(data["target"])
    steps = [BlowupStep.from_json(s) for s in data["steps"]]
    relations = blowup_tower_relations(steps, target)
    return {
        "relations": [rel.to_json() for rel in relations],
        "telescope": sum_relations(relations).to_json(),
    }


WITNESSES = {"dim": DimWitness, "sect": SectWitness, "fgl": TensorWitness}


def _cmd_cycles_relgen(args, data):
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in WITNESSES:  # a list kind is unhashable
        raise ValidationError("'kind' must be one of dim, sect, fgl")
    if "witness" not in data:
        raise ValidationError("relgen needs a 'witness'")
    witness = WITNESSES[kind].from_json(data["witness"])
    backend = None
    if kind == "fgl":
        # the law's terms fill room = source dim - bundle count, with
        # quadratically many terms of length room; cap it like an order
        room = witness.source.dim - len(witness.bundles)
        if room > MAX_ORDER:
            raise ValidationError(f"fgl witness leaves {room} dimensions for the law, "
                                  f"above the order limit {MAX_ORDER}")
        backend = _make_backend(args.backend, _order(args))
    return relation_generator(kind, witness, backend).to_json()


# ---------------------------------------------------------------------------
# wiring

# group -> (help, [(command, handler, whether it reads an input, help)])
COMMANDS = {
    "fgl": ("formal group law series", [
        ("inverse", _cmd_fgl_inverse, False, "the formal inverse series"),
        ("nseries", _cmd_fgl_nseries, True, "the n-fold formal sum [n]u; input {\"n\": int}"),
        ("multilinear", _cmd_fgl_multilinear, True,
         "the combination of [n_i]u_i; input {\"multiplicities\": [..]}"),
        ("decompose", _cmd_fgl_decompose, True,
         "split by variable support; input a series or {\"multiplicities\": [..]}"),
    ]),
    "snc": ("divisor classes on s.n.c. data", [
        ("divclass", _cmd_snc_divclass, True, "face classes of the divisor D"),
        ("prodclass", _cmd_snc_prodclass, True, "face classes of the product of D and E"),
        ("normalform", _cmd_snc_normalform, True, "absorb stray chern symbols into deeper faces"),
        ("check-properties", _cmd_snc_check, True,
         "evaluate the structural identities for D and E"),
    ]),
    "cycles": ("decorated cycle groups", [
        ("dpr", _cmd_cycles_dpr, True, "double point relation from labels"),
        ("blowup-tower", _cmd_cycles_tower, True,
         "relations of a blowup tower plus their telescope"),
        ("relgen", _cmd_cycles_relgen, True, "one quotient relation generator (dim, sect, or fgl)"),
    ]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fglcalc", description=(
        "Exact formal group law calculus over graded coefficient rings."))
    groups = parser.add_subparsers(dest="group", required=True)
    for group, (group_help, commands) in COMMANDS.items():
        sub = groups.add_parser(group, help=group_help)
        sub = sub.add_subparsers(dest="command", required=True)
        for name, handler, reads_input, command_help in commands:
            p = sub.add_parser(name, help=command_help)
            p.add_argument("--order", type=int, default=None, help=(
                f"truncation order, at most {MAX_ORDER} (default: FGL_ORDER env var, then 8)"))
            p.add_argument("--backend", choices=BACKEND_CHOICES, default="free",
                           help="coefficient backend (default free)")
            p.add_argument("--pretty", action="store_true", help="indent the JSON output")
            p.add_argument("--output", default=None, help="write to this path instead of stdout")
            if reads_input:
                p.add_argument("input", help="JSON input: a file path, inline JSON, or - for stdin")
            p.set_defaults(handler=handler)
    return parser


def _render(payload, pretty: bool) -> str:
    if pretty:
        return json.dumps(payload, indent=2) + "\n"
    return json.dumps(payload, separators=(",", ":")) + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        data = _read_input(args) if "input" in args else None
        with meter.budget(MAX_WORK):
            payload = args.handler(args, data)
    except ValidationError as exc:
        report = {"error": "validation", "detail": str(exc)}
        if isinstance(exc, ConfigurationError):
            report["violations"] = exc.violations
        sys.stdout.write(_render(report, args.pretty))
        return 2
    except json.JSONDecodeError as exc:
        sys.stderr.write(f"fglcalc: malformed JSON input: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"fglcalc: cannot read input: {exc}\n")
        return 1
    text = _render(payload, args.pretty)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stderr.write(f"fglcalc: cannot write output: {exc}\n")
            return 1
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
