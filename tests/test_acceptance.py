"""Acceptance gate: eight timed, exact end-to-end checks.

Every check is deterministic and compares exact rational or symbolic
values; there are no numerical tolerances anywhere.  Each criterion prints
one pass/fail line with its runtime and asserts a wall-clock budget.
"""

import contextlib
import itertools
import json
import random
import time
from fractions import Fraction

from fglcalc import (
    ADDITIVE,
    FREE,
    INHOMOGENEOUS,
    MULTIPLICATIVE,
    ChernPolynomial,
    CycleSum,
    DecoratedCycle,
    DimWitness,
    FaceClassVector,
    FormalGroupLaw,
    GradedPolynomial,
    LabelMorphism,
    SectWitness,
    SncComponent,
    SncConfiguration,
    SpaceLabel,
    TensorWitness,
    TruncatedSeries,
    a_gen,
    b_gen,
    blowup_tower_relations,
    check_properties,
    class_dimension,
    divisor_class,
    double_point_relation,
    exterior_product,
    log_backend,
    product_class,
    pushforward,
    relation_generator,
    support_decompose,
    telescope_sum,
)
from fglcalc.cycles import BlowupStep, DoublePointDatum

from oracles import recompose
from test_cli import GOLDEN_RUNS, _golden, run_cli


@contextlib.contextmanager
def criterion(number, label, budget):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[acceptance] criterion {number} ({label}): FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(
        f"[acceptance] criterion {number} ({label}): PASS "
        f"({elapsed:.2f}s, budget {budget}s)"
    )
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s, budget {budget}s"


def _poly(gen):
    return GradedPolynomial.generator(gen, FREE)


# -- 1: group law axioms ----------------------------------------------------

def test_criterion_1_group_law_axioms():
    with criterion(1, "group law axioms", 10):
        lb = log_backend(7)
        law = FormalGroupLaw(lb, 8)
        names = ("u", "v", "w")
        u = TruncatedSeries.variable("u", names, 8, lb)
        v = TruncatedSeries.variable("v", names, 8, lb)
        w = TruncatedSeries.variable("w", names, 8, lb)
        zero = TruncatedSeries.zero(names, 8, lb)
        assert law.sum(u, zero) == u
        assert law.sum(zero, u) == u
        assert law.sum(u, v) == law.sum(v, u)
        assert law.sum(law.sum(u, v), w) == law.sum(u, law.sum(v, w))

        free = FormalGroupLaw(FREE, 8)
        fu = TruncatedSeries.variable("u", ("u", "v"), 8, FREE)
        fv = TruncatedSeries.variable("v", ("u", "v"), 8, FREE)
        fzero = TruncatedSeries.zero(("u", "v"), 8, FREE)
        assert free.sum(fu, fzero) == fu
        assert free.sum(fzero, fu) == fu
        assert free.sum(fu, fv) == free.sum(fv, fu)


# -- 2: formal inverse ------------------------------------------------------

def test_criterion_2_formal_inverse():
    with criterion(2, "formal inverse", 5):
        for backend in (FREE, log_backend(7), ADDITIVE, MULTIPLICATIVE):
            law = FormalGroupLaw(backend, 8)
            u = TruncatedSeries.variable("u", ("u",), 8, backend)
            assert law.sum(u, law.inverse()).is_zero()

        chi = FormalGroupLaw(MULTIPLICATIVE, 8).inverse()
        b = GradedPolynomial.generator(b_gen(), MULTIPLICATIVE)
        expected = GradedPolynomial.constant(-1, MULTIPLICATIVE)
        for k in range(1, 9):
            assert chi.coefficient((k,)) == expected
            expected = -expected * b


# -- 3: support decomposition round-trip ------------------------------------

def _random_series(rng, variables, order):
    gens = [a_gen(1, 1), a_gen(1, 2), a_gen(2, 2)]
    terms = {}
    for _ in range(rng.randrange(1, 9)):
        exps = tuple(rng.randrange(order + 1) for _ in variables)
        if sum(exps) > order:
            continue
        coeff = GradedPolynomial.constant(Fraction(rng.randrange(-3, 4)), FREE)
        if rng.random() < 0.5:
            coeff = coeff + GradedPolynomial.generator(rng.choice(gens), FREE)
        terms[exps] = terms.get(exps, GradedPolynomial.zero(FREE)) + coeff
    return TruncatedSeries(
        tuple(variables), order, FREE,
        {e: c for e, c in terms.items() if not c.is_zero()},
    )


def _supported_inside(parts):
    for support, part in parts.items():
        for exps, _ in part.items():
            assert all(e == 0 or (i + 1) in support for i, e in enumerate(exps))


def test_criterion_3_support_decomposition():
    with criterion(3, "support decomposition", 30):
        rng = random.Random(20260823)
        for _ in range(100):
            r = rng.randrange(1, 5)
            order = rng.randrange(1, 7)
            variables = tuple(f"u{i}" for i in range(1, r + 1))
            s = _random_series(rng, variables, order)
            parts = support_decompose(s)
            _supported_inside(parts)
            assert recompose(parts, variables, order, FREE) == s

        law = FormalGroupLaw(FREE, 4)
        count = 0
        for ns in itertools.product(range(-2, 3), repeat=4):
            if not any(ns):
                continue
            combo = law.linear_combination(ns)
            parts = support_decompose(combo)
            _supported_inside(parts)
            assert recompose(parts, combo.variables, 4, FREE) == combo
            count += 1
        assert count == 5 ** 4 - 1


# -- 4: n-series ------------------------------------------------------------

def test_criterion_4_n_series():
    with criterion(4, "n-series", 10):
        law = FormalGroupLaw(log_backend(7), 8)
        for n in range(-5, 6):
            for m in range(-5, 6):
                lhs = law.sum(law.n_series(n), law.n_series(m))
                assert lhs == law.n_series(n + m)

        # doubling map expanded by hand: F(u,u) with each a(i,j) read off
        free = FormalGroupLaw(FREE, 4)
        two = free.n_series(2)
        assert two.coefficient((1,)) == 2
        assert two.coefficient((2,)) == _poly(a_gen(1, 1))
        assert two.coefficient((3,)) == 2 * _poly(a_gen(1, 2))
        assert two.coefficient((4,)) == 2 * _poly(a_gen(1, 3)) + _poly(a_gen(2, 2))


# -- 5: divisor class fixtures ----------------------------------------------

def _components(r):
    return tuple(SncComponent(f"D{i}") for i in range(1, r + 1))


def _random_config(rng, max_r=3, max_ambient=4):
    r = rng.randrange(1, max_r + 1)
    faces = {frozenset({i}) for i in range(1, r + 1)}
    for pair in itertools.combinations(range(1, r + 1), 2):
        if rng.random() < 0.7:
            faces.add(frozenset(pair))
    for triple in itertools.combinations(range(1, r + 1), 3):
        if all(frozenset(p) in faces for p in itertools.combinations(triple, 2)):
            if rng.random() < 0.6:
                faces.add(frozenset(triple))
    largest = max(len(f) for f in faces)
    ambient = rng.randrange(largest, max_ambient + 1)
    return SncConfiguration(ambient, _components(r), faces)


def test_criterion_5_divisor_class_fixtures():
    with criterion(5, "divisor class fixtures", 20):
        law = FormalGroupLaw(FREE, 2)
        a11 = _poly(a_gen(1, 1))

        single = SncConfiguration(2, _components(1), [[1]])
        vec = divisor_class(single, (1,), law)
        assert vec.entry([1]) == ChernPolynomial.one(1, 1, FREE)
        assert vec.faces() == [frozenset({1})]

        pair = SncConfiguration(2, _components(2), [[1], [2], [1, 2]])
        vec = divisor_class(pair, (1, 1), law)
        assert vec.entry([1]) == ChernPolynomial.one(2, 1, FREE)
        assert vec.entry([2]) == ChernPolynomial.one(2, 1, FREE)
        assert vec.entry([1, 2]) == ChernPolynomial.constant(a11, 2, 0, FREE)

        vec = divisor_class(single, (2,), law)
        assert vec.entry([1]) == ChernPolynomial(1, 1, FREE, {(0,): 2, (1,): a11})

        rng = random.Random(5)
        laws = {}
        for _ in range(50):
            config = _random_config(rng)
            mults = tuple(
                rng.choice([-2, -1, 1, 2]) for _ in range(config.r)
            )
            key = config.ambient_dim
            if key not in laws:
                laws[key] = FormalGroupLaw(FREE, max(key, 1))
            vec = divisor_class(config, mults, laws[key])
            if not vec.is_zero():
                assert class_dimension(vec) == config.ambient_dim - 1


# -- 6: product, restriction, operator --------------------------------------

def _face_families(r):
    singles = [frozenset({i}) for i in range(1, r + 1)]
    pairs = list(itertools.combinations(range(1, r + 1), 2))
    out = []
    for chosen in itertools.chain.from_iterable(
        itertools.combinations(pairs, k) for k in range(len(pairs) + 1)
    ):
        faces = frozenset(singles) | {frozenset(p) for p in chosen}
        out.append(faces)
        if r == 3 and len(chosen) == 3:
            out.append(faces | {frozenset({1, 2, 3})})
    return out


def _small_configs():
    for r in (1, 2, 3):
        for family in _face_families(r):
            largest = max(len(f) for f in family)
            for ambient in range(largest, 4):
                yield SncConfiguration(ambient, _components(r), family)


def test_criterion_6_structural_properties():
    with criterion(6, "product/restriction/operator", 60):
        laws = (
            FormalGroupLaw(log_backend(2), 3),
            FormalGroupLaw(ADDITIVE, 3),
            FormalGroupLaw(MULTIPLICATIVE, 3),
        )
        configs = list(_small_configs())
        assert len(configs) == 26

        for config in configs:
            r = config.r
            for law in laws:
                for ns in itertools.product((1, 2), repeat=r):
                    for ps in itertools.product((1, 2), repeat=r):
                        result = check_properties(config, ns, ps, law)
                        assert result["symmetry"] is True
                        assert result["operator"] is True
                        prod = product_class(config, ns, ps, law)
                        if not prod.is_zero():
                            assert class_dimension(prod) == config.ambient_dim - 2

        for config in configs:
            r = config.r
            if r < 2:
                continue
            for law in laws:
                for i in range(1, r + 1):
                    ns = tuple(1 if j == i else 0 for j in range(1, r + 1))
                    for rest in itertools.product((1, 2), repeat=r - 1):
                        ps = list(rest)
                        ps.insert(i - 1, 0)
                        result = check_properties(config, ns, tuple(ps), law)
                        assert result["restriction"] is True


# -- 7: cycle algebra -------------------------------------------------------

def test_criterion_7_cycle_algebra():
    with criterion(7, "cycle algebra", 5):
        X = SpaceLabel("X", 3)
        rng = random.Random(11)

        for _ in range(20):
            k = rng.randrange(1, 6)
            stages = [SpaceLabel(f"Y{i}", 3) for i in range(k + 1)]
            steps = [
                BlowupStep(stages[i], stages[i + 1],
                           SpaceLabel(f"E{i}", 3), SpaceLabel(f"P{i}", 3))
                for i in range(k)
            ]
            total = telescope_sum(steps, X)
            assert total == sum(blowup_tower_relations(steps, X), CycleSum.zero())
            assert total.coefficient(DecoratedCycle(stages[0], X)) == 1
            assert total.coefficient(DecoratedCycle(stages[k], X)) == -1
            for i in range(1, k):
                assert total.coefficient(DecoratedCycle(stages[i], X)) == 0

        dpr = double_point_relation(DoublePointDatum(
            SpaceLabel("Yinf", 2), SpaceLabel("A", 2), SpaceLabel("B", 2),
            SpaceLabel("D", 1), SpaceLabel("PD", 2), X,
        ))
        assert dpr.total_degree() == 2

        generators = [
            relation_generator("dim", DimWitness(
                SpaceLabel("Y", 3), X, SpaceLabel("C", 1), ("P1", "P2"), ("M",))),
            relation_generator("sect", SectWitness(
                SpaceLabel("Y", 3), X, SpaceLabel("Z", 2), ("L1", "L2"))),
            relation_generator("fgl", TensorWitness(
                SpaceLabel("Y", 4), X, (), "L", "M", "LM"), FREE),
            relation_generator("fgl", TensorWitness(
                SpaceLabel("Y", 4), X, ("N",), "L", "M", "LM"), log_backend(4)),
        ]
        for gen in generators:
            assert gen.total_degree() != INHOMOGENEOUS

        Z, W = SpaceLabel("Z", 4), SpaceLabel("W", 5)
        g, h = LabelMorphism(X, Z), LabelMorphism(Z, W)
        assert pushforward(pushforward(dpr, g), h) == pushforward(dpr, g.then(h))

        def cyc(name, dim, bundles=()):
            return DecoratedCycle(SpaceLabel(name, dim), X, bundles)

        a = CycleSum(None, {cyc("A", 1): 2, cyc("B", 2): 1})
        b = CycleSum(None, {cyc("C", 1): 3})
        c = CycleSum(None, {cyc("D", 2): -1})
        assert exterior_product(a, b + c) == (
            exterior_product(a, b) + exterior_product(a, c)
        )
        assert exterior_product(
            CycleSum.single(cyc("A", 1)), CycleSum.single(cyc("C", 2))
        ).total_degree() == 3

        assert cyc("Y", 3, ("L", "M")).degree == 1
        assert cyc("Y", 2, ("L", "M", "N")).degree == -1


# -- 8: CLI determinism -----------------------------------------------------

def test_criterion_8_cli_determinism():
    with criterion(8, "CLI determinism", 30):
        for golden_name, argv in GOLDEN_RUNS:
            frozen = _golden(golden_name)
            rc1, out1, _ = run_cli(argv)
            rc2, out2, _ = run_cli(argv)
            assert rc1 == rc2 == 0
            assert out1 == out2 == frozen

            # canonical-form stability: parse and re-serialize byte-identically
            payload = json.loads(frozen)
            assert json.dumps(payload, separators=(",", ":")) + "\n" == frozen

        # library-level round-trips reproduce the same canonical bytes
        series = TruncatedSeries.from_json(
            json.loads(_golden("inverse_free_o4.json")), FREE
        )
        assert (
            json.dumps(series.to_json(), separators=(",", ":")) + "\n"
            == _golden("inverse_free_o4.json")
        )

        pair = SncConfiguration(2, _components(2), [[1], [2], [1, 2]])
        vec = FaceClassVector.from_json(
            pair, json.loads(_golden("divclass_free_o3.json")), FREE
        )
        assert (
            json.dumps(vec.to_json(), separators=(",", ":")) + "\n"
            == _golden("divclass_free_o3.json")
        )

        rel = CycleSum.from_json(json.loads(_golden("dpr.json")))
        assert json.dumps(rel.to_json(), separators=(",", ":")) + "\n" == _golden("dpr.json")

        gen = CycleSum.from_json(json.loads(_golden("relgen_fgl_free.json")), FREE)
        assert (
            json.dumps(gen.to_json(), separators=(",", ":")) + "\n"
            == _golden("relgen_fgl_free.json")
        )
