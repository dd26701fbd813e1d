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
from .errors import ConfigurationError, OrderError, ValidationError, is_integer, json_object
from .ring import ADDITIVE, FREE, MULTIPLICATIVE, log_backend
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

# each --backend name's backend for a law of the given order; --help lists them in this order
BACKENDS = {
    "free": lambda order: FREE,
    "log": lambda order: log_backend(max(order - 1, 1)),
    "additive": lambda order: ADDITIVE,
    "mult": lambda order: MULTIPLICATIVE,
}
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


def _make_law(args) -> FormalGroupLaw:
    order = _order(args)
    return FormalGroupLaw(BACKENDS[args.backend](order), order)


class _UnreadableInput(Exception):
    """Input that Python cannot turn into text or values: bytes that are not
    UTF-8, or well-formed JSON past int's digit limit or the recursion limit."""


def _read_input(args) -> dict:
    raw = args.input
    try:
        if raw == "-":
            text = sys.stdin.read()
        elif raw.lstrip()[:1] in ("{", "["):
            text = raw
        else:
            with open(raw, "r", encoding="utf-8") as fh:
                text = fh.read()
        # stdin and argv decode with surrogateescape: a byte that is not
        # UTF-8 is left there as a lone surrogate, which does not encode
        text.encode("utf-8")
    except UnicodeError as exc:
        raise _UnreadableInput(f"not UTF-8: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:  # only an integer literal past int's digit limit
        limit = sys.get_int_max_str_digits()
        raise _UnreadableInput(f"an integer has more than {limit} digits") from None
    except RecursionError:
        raise _UnreadableInput("JSON nested deeper than the recursion limit") from None
    return json_object(data, (), "top-level input must be a JSON object")


def _check_multiplicity(key, n):
    # [n]u costs at most order - 1 law substitutions plus one interpolation
    # whose weights are binomials in |n|; the cap bounds their size
    if abs(n) > MAX_MULTIPLICITY:
        raise ValidationError(
            f"{key!r}: |{n}| exceeds the multiplicity limit {MAX_MULTIPLICITY}"
        )


def _int_vector(data, key, expected=None):
    value = json_object(data, (key,), f"input lacks {key!r}")[key]
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


def _combination(args, data) -> TruncatedSeries:
    ns = _int_vector(data, "multiplicities")
    if not ns:
        raise ValidationError("'multiplicities' must be nonempty")
    return _make_law(args).linear_combination(ns)


def _cmd_fgl_multilinear(args, data):
    return _combination(args, data).to_json()


def _cmd_fgl_decompose(args, data):
    if "variables" in data:
        law = _make_law(args)
        series = TruncatedSeries.from_json(data, law.backend)
        parts = support_decompose(series)
    elif "multiplicities" in data:
        parts = support_decompose(_combination(args, data))
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
    json_object(data, ("classes",), "normalform needs 'classes'")
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
    json_object(data, ("target", "steps"), "blowup-tower needs 'target' and 'steps'")
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
    json_object(data, ("witness",), "relgen needs a 'witness'")
    witness = WITNESSES[kind].from_json(data["witness"])
    backend = None
    if kind == "fgl":
        # the law's terms fill room = source dim - bundle count, with
        # quadratically many terms of length room; cap it like an order
        room = witness.source.dim - len(witness.bundles)
        if room > MAX_ORDER:
            raise ValidationError(f"fgl witness leaves {room} dimensions for the law, "
                                  f"above the order limit {MAX_ORDER}")
        backend = BACKENDS[args.backend](_order(args))
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


# (group, command) of every command, the two names a call starts with
_NAMES = {(group, c[0]) for group, (_, commands) in COMMANDS.items() for c in commands}


def _braced(names) -> str:
    return "{" + ",".join(names) + "}"


def build_parser(argv=()) -> argparse.ArgumentParser:
    """Every command's parser, or only the top, group and command parsers when
    argv starts with a group and one of its commands; their metavars keep the
    full tree's usage line, so help and usage errors read the same either way."""
    chosen = tuple(argv[:2])
    if chosen not in _NAMES:
        chosen = None
    parser = argparse.ArgumentParser(prog="fglcalc", description=(
        "Exact formal group law calculus over graded coefficient rings."))
    groups = parser.add_subparsers(dest="group", required=True,
                                   metavar=chosen and _braced(COMMANDS))
    for group, (group_help, commands) in COMMANDS.items():
        if chosen and group != chosen[0]:
            continue
        sub = groups.add_parser(group, help=group_help)
        sub = sub.add_subparsers(dest="command", required=True,
                                 metavar=chosen and _braced(c[0] for c in commands))
        for name, handler, reads_input, command_help in commands:
            if chosen and name != chosen[1]:
                continue
            p = sub.add_parser(name, help=command_help)
            p.add_argument("--order", type=int, default=None, help=(
                f"truncation order, at most {MAX_ORDER} (default: FGL_ORDER env var, then 8)"))
            p.add_argument("--backend", choices=BACKENDS, default="free",
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
    args = build_parser(sys.argv[1:3] if argv is None else argv).parse_args(argv)
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
    except (OSError, _UnreadableInput) as exc:
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
