"""The three workloads: seeded inputs, one job per input, and output checks.

Inputs are plain JSON-style data made with ``random.Random`` only, so the
same seed always gives byte-identical inputs and generating them costs no
library time.  Inputs come in shuffled blocks that cover a fixed grid of
cost-relevant parameters once each, so every run sees the same mix of job
costs whatever its seed: cost varies along a smooth ramp, never in two
clusters whose boundary a percentile could sit on.

A job's output is checked outside its timed span.  For ``SHIPPED_SEED`` the
canonical bytes of the first jobs' outputs are pinned by SHA-256 in
``pins.json``; for every other seed (and for shipped-seed jobs beyond the
pinned prefix) identities that hold for every input are checked instead.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PINS_FILE = Path(__file__).with_name("pins.json")
SHIPPED_SEED = 1


def canonical(obj) -> bytes:
    """Compact, key-sorted JSON bytes: the form output hashes are taken of."""
    return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class SpecStream:
    """Job inputs of one workload and seed, generated lazily block by block.

    Block b comes from its own ``random.Random`` seeded with the workload
    name, the seed and b, so spec k never depends on how many specs were
    drawn before it.
    """

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self._block_index = None
        self._block = None

    def __getitem__(self, k: int) -> dict:
        size = self.workload.block_size
        b, pos = divmod(k, size)
        if b != self._block_index:
            rng = random.Random(f"{self.workload.name}:{self.seed}:{b}")
            self._block = self.workload.block(rng)
            self._block_index = b
        return self._block[pos]

    def warmup(self) -> list:
        rng = random.Random(f"{self.workload.name}:{self.seed}:warmup")
        return self.workload.warmup(self.workload.block(rng))


def _fglcalc():
    import fglcalc

    return fglcalc


# ---------------------------------------------------------------------------
# series-cold: ring and series arithmetic only


class SeriesCold:
    """Fresh order-8 law per job: inverse, [n]u, and a 3-variable combination."""

    name = "series-cold"
    order = 8
    ns = tuple(n for n in range(-8, 17) if n)
    block_size = 2 * len(ns)
    trace_jobs = 96
    layers = ("ring", "series", "trace")  # per-layer metrics of other layers read 0

    def block(self, rng) -> list:
        grid = [(b, n) for b in ("free", "log") for n in self.ns]
        rng.shuffle(grid)
        return [
            {"backend": b, "n": n, "mults": [rng.choice((-2, -1, 1, 2, 3)) for _ in range(3)]}
            for b, n in grid
        ]

    def warmup(self, block) -> list:
        # two jobs per backend, of fixed sizes so set-up costs the same for
        # every seed, fill the log table and the monomial cache
        return [s for s in block if s["n"] in (4, 12)]

    def law(self, spec):
        fglcalc = _fglcalc()
        if spec["backend"] == "free":
            backend = fglcalc.FREE
        else:
            backend = fglcalc.log_backend(self.order - 1)
        return fglcalc.FormalGroupLaw(backend, self.order)

    def run(self, spec, ctx=None):
        law = self.law(spec)
        inverse = law.inverse()
        n_series = law.n_series(spec["n"])
        combination = law.linear_combination(spec["mults"])
        return law, inverse, n_series, combination

    def output_bytes(self, result) -> bytes:
        _, inverse, n_series, combination = result
        return canonical({
            "inverse": inverse.to_json(),
            "n_series": n_series.to_json(),
            "linear_combination": combination.to_json(),
        })

    def identities_hold(self, spec, result) -> bool:
        law, inverse, n_series, combination = result
        TruncatedSeries = _fglcalc().TruncatedSeries
        u = TruncatedSeries.variable("u", ("u",), law.order, law.backend)
        if not law.sum(u, inverse).is_zero():  # F(u, chi(u)) = 0
            return False
        # [a+b]u = F([a]u, [b]u) with b = sign(n): the only split that holds
        # on the free backend too, whose law is symmetric but not associative
        b = 1 if spec["n"] > 0 else -1
        if law.sum(law.n_series(spec["n"] - b), law.n_series(b)) != n_series:
            return False
        # setting u2 = u3 = 0 in F^{(n1, n2, n3)} leaves [n1]u1
        first = [(e[:1], p) for e, p in combination.items() if not any(e[1:])]
        return first == law.n_series(spec["mults"][0]).items()


# ---------------------------------------------------------------------------
# snc-check: snc over chern over series multiply


@functools.lru_cache(maxsize=None)
def _face_sets() -> dict:
    """Downward-closed face sets on 4 components that contain the path 1-2-3-4, by size.

    Sizes run from 7 (the path) to 15 (the full simplex).
    """
    singles = {frozenset({i}) for i in range(1, 5)}
    path = [(1, 2), (2, 3), (3, 4)]
    by_size: dict = {}
    for k in range(4):
        for extra in itertools.combinations([(1, 3), (1, 4), (2, 4)], k):
            pairs = {frozenset(p) for p in path + list(extra)}
            triangles = [frozenset(t) for t in itertools.combinations(range(1, 5), 3)
                         if all(frozenset(p) in pairs for p in itertools.combinations(t, 2))]
            for m in range(len(triangles) + 1):
                for chosen in itertools.combinations(triangles, m):
                    faces = singles | pairs | set(chosen)
                    by_size.setdefault(len(faces), []).append(faces)
                    if m == 4:
                        by_size.setdefault(len(faces) + 1, []).append(faces | {frozenset(range(1, 5))})
    return {size: sorted(sets, key=lambda f: sorted(map(sorted, f))) for size, sets in by_size.items()}


class SncCheck:
    """Fresh order-4 law per job; check_properties twice on a 4-component config."""

    name = "snc-check"
    dim = 4
    # the full simplex twice, so p90 falls inside one face count's spread
    # rather than on the step between the two largest
    face_counts = tuple(range(7, 16)) + (15,)
    block_size = 2 * len(face_counts)
    trace_jobs = 120
    layers = ("ring", "series", "chern", "snc", "trace")

    def _faces(self, rng, count: int) -> list:
        # a face set of the given size; the labels are permuted so the path
        # can be any Hamiltonian path
        faces = rng.choice(_face_sets()[count])
        perm = list(range(1, 5))
        rng.shuffle(perm)
        moved = [sorted(perm[i - 1] for i in face) for face in faces]
        return sorted(moved, key=lambda f: (len(f), f))

    def block(self, rng) -> list:
        grid = [(b, c) for b in ("free", "log") for c in self.face_counts]
        rng.shuffle(grid)
        out = []
        for b, count in grid:
            faces = self._faces(rng, count)
            units = (-2, -1, 1, 2)
            d = [rng.choice(units) for _ in range(self.dim)]
            e = [rng.choice(units) for _ in range(self.dim)]
            i = rng.randrange(self.dim)
            reduced = [0] * self.dim
            reduced[i] = 1
            other = [rng.choice(units) for _ in range(self.dim)]
            other[i] = 0
            out.append({"backend": b, "faces": faces, "D": d, "E": e,
                        "D_reduced": reduced, "E_other": other})
        return out

    def warmup(self, block) -> list:
        return [s for s in block if len(s["faces"]) in (9, 13)]

    def run(self, spec, ctx=None):
        fglcalc = _fglcalc()
        config = fglcalc.SncConfiguration.from_json({
            "ambient_dim": self.dim,
            "components": [{"name": f"D{i}"} for i in range(1, self.dim + 1)],
            "faces": spec["faces"],
        })
        if spec["backend"] == "free":
            backend = fglcalc.FREE
        else:
            backend = fglcalc.log_backend(self.dim - 1)
        law = fglcalc.FormalGroupLaw(backend, self.dim)
        full = fglcalc.check_properties(config, spec["D"], spec["E"], law)
        reduced = fglcalc.check_properties(config, spec["D_reduced"], spec["E_other"], law)
        return full, reduced

    def output_bytes(self, result) -> bytes:
        return canonical(list(result))

    def identities_hold(self, spec, result) -> bool:
        full, reduced = result
        ok = all(r["symmetry"] is True and r["operator"] is True for r in result)
        return ok and full["restriction"] in (True, None) and reduced["restriction"] is True


# ---------------------------------------------------------------------------
# cli-batch: one `python -m fglcalc` process per job


CLI_COMMANDS = (
    ("fgl", "inverse"), ("fgl", "nseries"), ("fgl", "multilinear"), ("fgl", "decompose"),
    ("snc", "divclass"), ("snc", "prodclass"), ("snc", "normalform"),
    ("snc", "check-properties"),
    ("cycles", "dpr"), ("cycles", "blowup-tower"), ("cycles", "relgen"),
)
CLI_BACKENDS = ("free", "log", "additive", "mult")
CLI_MODES = ("file", "inline", "stdin")
INVALID_RULES = ("duplicate-component-name", "missing-singleton", "index-out-of-range")


def _coeff_json(rng, backend: str, order: int) -> list:
    """A small exact polynomial in the backend's own generators, as JSON terms."""
    terms = [{"coeff": str(rng.choice((1, -1, 2, -3))), "monomial": {}}]
    if backend == "free":
        i = rng.randint(1, max(1, order // 2))
        name = f"A({i},{rng.randint(i, max(i, order - i))})"
    elif backend == "log":
        name = f"m({rng.randint(1, max(1, order - 1))})"
    elif backend == "mult":
        name = "b"
    else:
        return terms
    terms.append({"coeff": rng.choice(("1", "-2", "1/2", "-3/4")),
                  "monomial": {name: rng.randint(1, 2)}})
    return terms


def _exponents(nvars: int, top: int):
    """All exponent vectors in nvars variables with 1 <= total degree <= top."""
    for exps in itertools.product(range(top + 1), repeat=nvars):
        if 1 <= sum(exps) <= top:
            yield list(exps)


def _snc_faces(rng, dim: int, r: int) -> list:
    faces = [[i] for i in range(1, r + 1)]
    pairs = []
    if dim >= 2:
        pairs = [list(p) for p in itertools.combinations(range(1, r + 1), 2) if rng.random() < 0.6]
    faces += pairs
    if dim >= 3:
        present = {tuple(p) for p in pairs}
        for t in itertools.combinations(range(1, r + 1), 3):
            if all(p in present for p in itertools.combinations(t, 2)) and rng.random() < 0.5:
                faces.append(list(t))
    return faces


def _nonzero_vector(rng, r: int) -> list:
    while True:
        v = [rng.choice((-2, -1, 0, 1, 2)) for _ in range(r)]
        if any(v):
            return v


def _label(name: str, dim: int) -> dict:
    return {"name": name, "dim": dim}


class CliBatch:
    """Round robin over 11 subcommands x 4 backends x 3 input modes."""

    name = "cli-batch"
    block_size = 132  # lcm(11 commands, 4 backends, 3 modes)
    trace_jobs = 132
    layers = ("ring", "series", "chern", "snc", "cycles", "cli", "trace")

    def block(self, rng) -> list:
        # each command runs block_size / 11 times per block, once at each of
        # that many evenly spaced size levels in shuffled order, so every
        # block holds the same input sizes, its largest ones included
        per = self.block_size // len(CLI_COMMANDS)
        levels = {c: rng.sample(range(per), per) for c in CLI_COMMANDS}
        out = []
        for j in range(self.block_size):
            group, command = CLI_COMMANDS[j % len(CLI_COMMANDS)]
            backend = CLI_BACKENDS[j % len(CLI_BACKENDS)]
            mode = CLI_MODES[(j // len(CLI_COMMANDS)) % len(CLI_MODES)]
            invalid = group == "snc" and (j // len(CLI_COMMANDS)) % 4 == 3
            level = levels[group, command][j // len(CLI_COMMANDS)] / (per - 1)
            make = getattr(self, "_" + command.replace("-", "_"))
            order, data = make(rng, backend, level)
            spec = {
                "argv": [group, command, "--order", str(order), "--backend", backend],
                "mode": mode if data is not None else "none",
                "input": data,
                "expect_exit": 0,
                "expect_rule": None,
            }
            if invalid:
                spec["expect_rule"] = self._break_config(rng, data)
                spec["expect_exit"] = 2
            if spec["mode"] == "inline" and command in ("normalform", "decompose", "blowup-tower"):
                spec["mode"] = "file"  # large inputs never go on the command line
            out.append(spec)
        return out

    def warmup(self, block) -> list:
        return block[:len(CLI_BACKENDS)]

    # -- input makers: (order, input object or None) for a size level in [0, 1]

    def _inverse(self, rng, backend, level):
        return 3 + round(3 * level), None

    def _nseries(self, rng, backend, level):
        return 3 + round(3 * level), {"n": rng.choice([n for n in range(-6, 11) if n])}

    def _multilinear(self, rng, backend, level):
        r = rng.randint(2, 3)
        return 3 + round(2 * level), {"multiplicities": [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(r)]}

    def _decompose(self, rng, backend, level):
        if level < 0.5:
            return 3 + round(4 * level), {"multiplicities": [rng.choice((-2, -1, 1, 2)) for _ in range(rng.randint(2, 3))]}
        order = 4 + round(4 * (level - 0.5))
        terms = []
        for exps in _exponents(3, order):
            if rng.random() < 0.8:
                for entry in _coeff_json(rng, backend, order):
                    terms.append({"exponents": exps, **entry})
        return order, {"variables": ["u1", "u2", "u3"], "order": order, "terms": terms}

    def _snc_input(self, rng, with_e: bool, level):
        dim = 2 + round(2 * level)
        r = rng.randint(2, 4)
        data = {
            "ambient_dim": dim,
            "components": [{"name": f"D{i}"} for i in range(1, r + 1)],
            "faces": _snc_faces(rng, dim, r),
            "D": _nonzero_vector(rng, r),
        }
        if with_e:
            data["E"] = _nonzero_vector(rng, r)
        return dim, data

    def _divclass(self, rng, backend, level):
        return self._snc_input(rng, False, level)

    def _prodclass(self, rng, backend, level):
        return self._snc_input(rng, True, level)

    def _check_properties(self, rng, backend, level):
        order, data = self._snc_input(rng, True, level)
        if rng.random() < 0.5:  # D one reduced component, E off it: the restriction path
            i = rng.randrange(len(data["D"]))
            data["D"] = [int(k == i) for k in range(len(data["D"]))]
            data["E"][i] = 0
            if not any(data["E"]):
                data["E"][i - 1] = 1
        return order, data

    def _normalform(self, rng, backend, level):
        # dimension 5 with every pair a face leaves about 500 term slots,
        # so the size level alone sets the term count
        dim, r = 5, 4
        order = rng.randint(3, 6)
        faces = [[i] for i in range(1, r + 1)] + [list(p) for p in itertools.combinations(range(1, r + 1), 2)]
        faces += [list(t) for t in itertools.combinations(range(1, r + 1), 3) if rng.random() < 0.5]
        slots = [(face, exps) for face in faces for exps in _exponents(r, dim - len(face))]
        chosen = rng.sample(slots, min(len(slots), 150 + round(300 * level)))
        by_face: dict = {}
        for face, exps in chosen:
            by_face.setdefault(tuple(face), []).append(
                {"c_exponents": exps, "coeff": _coeff_json(rng, backend, order)}
            )
        classes = [
            {"face": list(face), "class": {"dim_bound": dim - len(face), "terms": terms}}
            for face, terms in sorted(by_face.items(), key=lambda kv: (len(kv[0]), kv[0]))
        ]
        return order, {
            "ambient_dim": dim,
            "components": [{"name": f"D{i}"} for i in range(1, r + 1)],
            "faces": faces,
            "classes": classes,
        }

    def _break_config(self, rng, data) -> str:
        """Make an snc input's configuration invalid; return the rule it breaks."""
        rule = rng.choice(INVALID_RULES)
        r = len(data["components"])
        if rule == "duplicate-component-name":
            data["components"][1]["name"] = data["components"][0]["name"]
        elif rule == "missing-singleton":
            used = {i for c in data.get("classes", []) for i in c["face"]}
            k = rng.choice([i for i in range(1, r + 1) if i not in used] or [r])
            data["faces"] = [f for f in data["faces"] if f != [k]]
            if "classes" in data:
                data["classes"] = [c for c in data["classes"] if k not in c["face"]]
        else:
            data["faces"].append([r + 1])
        return rule

    def _dpr(self, rng, backend, level):
        d = 1 + round(5 * level)
        return 3, {
            "smooth_fiber": _label("Yinf", d),
            "component_a": _label("A", d),
            "component_b": _label("B", d),
            "intersection": _label("D", d - 1),
            "projective_bundle": _label("PD", d),
            "target": _label("X", d + 1),
        }

    def _blowup_tower(self, rng, backend, level):
        d = rng.randint(2, 6)
        steps = [
            {
                "base": _label(f"Y{k}", d),
                "blowup": _label(f"Y{k + 1}", d),
                "exceptional": _label(f"E{k}", d),
                "projective_bundle": _label(f"P{k}", d),
            }
            for k in range(100 + round(300 * level))
        ]
        return 3, {"target": _label("X", d + 1), "steps": steps}

    def _relgen(self, rng, backend, level):
        order = rng.randint(3, 6)
        kind = rng.choice(("dim", "sect", "fgl"))
        if kind == "dim":
            base = rng.randint(0, 3)
            witness = {
                "source": _label("Y", base + rng.randint(0, 3)),
                "target": _label("X", base + 4),
                "base": _label("B", base),
                "pulled_back": [f"L{k}" for k in range(base + rng.randint(1, 2))],
                "extra": [f"M{k}" for k in range(rng.randint(0, 2))],
            }
        elif kind == "sect":
            d = rng.randint(1, 6)
            witness = {
                "source": _label("Y", d),
                "target": _label("X", d + 1),
                "zero_locus": _label("Z", d - 1),
                "bundles": [f"L{k}" for k in range(rng.randint(1, 3))],
            }
        else:
            # the expansion needs a(i, j) for i + j up to the free bundle
            # slots, which the log backend only has up to the order
            prefix = rng.randint(0, 2)
            witness = {
                "source": _label("Y", rng.randint(max(2, prefix), order + prefix)),
                "target": _label("X", 6),
                "bundles": [f"N{k}" for k in range(prefix)],
                "left": "L",
                "right": "M",
                "tensor": "LM",
            }
        return order, {"kind": kind, "witness": witness}

    # -- running and checking ---------------------------------------------

    def run(self, spec, ctx, traced=False):
        """Run one CLI process; returns (exit code, stdout, stderr, spawn time, wall s).

        traced runs the benchmark's tracing bootstrap in place of ``python -m fglcalc``.

        Input files are written before, and removed after, the timed span.
        """
        argv = list(spec["argv"])
        stdin = None
        path = None
        if spec["mode"] != "none":
            text = json.dumps(spec["input"])
            if spec["mode"] == "inline":
                argv.append(text)
            elif spec["mode"] == "stdin":
                argv.append("-")
                stdin = text.encode()
            else:
                path = ctx.workdir / "input.json"
                path.write_text(text, encoding="utf-8")
                argv.append(str(path))
        module = "perfbench.cli_child" if traced else "fglcalc"
        try:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", module, *argv],
                input=stdin, capture_output=True, cwd=ctx.root, env=ctx.env, timeout=120,
            )
            wall = time.perf_counter() - start
        finally:
            if path is not None:
                path.unlink()
        return proc.returncode, proc.stdout, proc.stderr, start, wall

    def output_bytes(self, result) -> bytes:
        code, stdout = result[0], result[1]
        return str(code).encode() + b"\n" + stdout

    def identities_hold(self, spec, result) -> bool:
        code, stdout = result[0], result[1]
        if code != spec["expect_exit"]:
            return False
        payload = json.loads(stdout)
        if canonical_cli(payload) != stdout:
            return False
        if spec["expect_rule"] is not None:
            rules = {v["rule"] for v in payload.get("violations", [])}
            return payload.get("error") == "validation" and spec["expect_rule"] in rules
        if spec["argv"][1] == "check-properties":
            return (payload["symmetry"] == payload["operator"] == "pass"
                    and payload["restriction"] in ("pass", "skipped"))
        return True


def canonical_cli(payload) -> bytes:
    """The CLI's compact rendering: separators without spaces, insertion order."""
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode()


class CliContext:
    """What a CLI job needs: checkout root, child environment and a scratch dir."""

    def __init__(self, workdir: Path):
        self.root = ROOT
        self.workdir = workdir
        self.env = child_env()


def child_env() -> dict:
    """Environment for every child interpreter: this checkout's src, fixed hash seed."""
    env = dict(os.environ)
    env.pop("FGL_ORDER", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


WORKLOADS = {w.name: w for w in (SeriesCold(), SncCheck(), CliBatch())}


# ---------------------------------------------------------------------------
# checking


def load_pins() -> dict:
    with open(PINS_FILE, encoding="utf-8") as fh:
        return json.load(fh)


class Verifier:
    """Decides whether one job's output is correct."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        pins = load_pins()
        self.pinned = pins.get(workload.name, []) if seed == pins.get("seed") else []

    def check(self, index: int, spec: dict, result) -> bool:
        try:
            if index < len(self.pinned):
                ok = self.check_bytes(index, self.workload.output_bytes(result))
            else:
                ok = bool(self.workload.identities_hold(spec, result))
        except Exception as exc:  # a malformed output is a failed job, not a crash
            print(f"perfbench: check of job {index} raised {exc!r}", file=sys.stderr)
            return False
        if not ok:
            print(f"perfbench: job {index} gave a wrong output; input {json.dumps(spec)[:300]}",
                  file=sys.stderr)
        return ok

    def check_bytes(self, index: int, data: bytes) -> bool:
        return digest(data) == self.pinned[index]
