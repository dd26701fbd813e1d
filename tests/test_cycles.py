"""Decorated cycles, degeneration relations, quotient generators."""

import random

import pytest

from fglcalc import (
    ADDITIVE,
    FREE,
    BackendMismatchError,
    BlowupStep,
    CycleError,
    CycleSum,
    DecoratedCycle,
    DimensionMismatchError,
    DimWitness,
    DoublePointDatum,
    GradedPolynomial,
    LabelMorphism,
    OrderError,
    SectWitness,
    SpaceLabel,
    TensorWitness,
    ValidationError,
    WitnessError,
    a_gen,
    blowup_relation,
    blowup_tower_relations,
    double_point_relation,
    exterior_product,
    lazard_coefficient,
    log_backend,
    pushforward,
    relation_generator,
    telescope_sum,
)

X = SpaceLabel("X", 3)


def _cyc(name, dim, bundles=(), target=X):
    return DecoratedCycle(SpaceLabel(name, dim), target, bundles)


# -- labels and cycles ------------------------------------------------------

def test_label_defaults_and_json():
    lab = SpaceLabel("Y", 2)
    assert lab.smooth and lab.quasiprojective and not lab.complete and lab.nu is None
    data = lab.to_json()
    assert data == {
        "name": "Y", "dim": 2, "smooth": True, "quasiprojective": True, "complete": False,
    }
    assert SpaceLabel.from_json(data) == lab
    with_nu = SpaceLabel("Z", 1, nu=4)
    assert SpaceLabel.from_json(with_nu.to_json()) == with_nu
    assert "nu" in with_nu.to_json()


def test_label_validation():
    with pytest.raises(ValidationError):
        SpaceLabel("", 2)
    with pytest.raises(ValidationError):
        SpaceLabel("Y", -1)
    with pytest.raises(ValidationError):
        SpaceLabel.from_json({"name": "Y", "dim": 2, "smooth": "yes"})


def test_cycle_requires_smooth_quasiprojective_source():
    with pytest.raises(CycleError):
        DecoratedCycle(SpaceLabel("Y", 2, smooth=False), X)
    with pytest.raises(CycleError):
        DecoratedCycle(SpaceLabel("Y", 2, quasiprojective=False), X)
    DecoratedCycle(SpaceLabel("Y", 2), SpaceLabel("sing", 2, smooth=False))  # targets may be singular


def test_bundle_multiset_is_order_free():
    a = _cyc("Y", 3, ("L", "M"))
    b = _cyc("Y", 3, ("M", "L"))
    assert a == b
    assert a.bundles == ("L", "M")
    repeated = _cyc("Y", 3, ("L", "L", "M"))
    assert repeated.degree == 0
    assert repeated != a


def test_cycle_degree():
    assert _cyc("Y", 3).degree == 3
    assert _cyc("Y", 3, ("L", "M", "N", "O")).degree == -1


# -- sums -------------------------------------------------------------------

def test_sum_arithmetic_integer_coefficients():
    a = CycleSum.single(_cyc("A", 2))
    b = CycleSum.single(_cyc("B", 2))
    total = a + b + a
    assert total.coefficient(_cyc("A", 2)) == 2
    assert (total - total).is_zero()
    assert (-total).coefficient(_cyc("B", 2)) == -1
    assert (3 * total).coefficient(_cyc("A", 2)) == 6


def test_sum_polynomial_coefficients():
    a11 = GradedPolynomial.generator(a_gen(1, 1), FREE)
    s = CycleSum(FREE, {_cyc("Y", 2): a11})
    t = s + CycleSum(FREE, {_cyc("Y", 2): 1})
    assert t.coefficient(_cyc("Y", 2)) == a11 + 1
    with pytest.raises(BackendMismatchError):
        s + CycleSum.single(_cyc("Y", 2))


def test_sum_total_degree():
    s = CycleSum(None, {_cyc("A", 2): 1, _cyc("B", 2): -1})
    assert s.total_degree() == 2
    mixed = s + CycleSum.single(_cyc("C", 3))
    assert mixed.total_degree() == "inhomogeneous"
    assert CycleSum.zero().total_degree() == "any"
    a11 = GradedPolynomial.generator(a_gen(1, 1), FREE)
    graded = CycleSum(FREE, {_cyc("A", 2): a11, _cyc("C", 3): 1})
    assert graded.total_degree() == 3


def test_sum_json_round_trip():
    rel = CycleSum(None, {_cyc("A", 2): 2, _cyc("B", 2, ("L",)): -3})
    assert CycleSum.from_json(rel.to_json()) == rel
    a11 = GradedPolynomial.generator(a_gen(1, 1), FREE)
    poly_sum = CycleSum(FREE, {_cyc("Y", 2, ("L", "M")): -a11})
    assert CycleSum.from_json(poly_sum.to_json(), FREE) == poly_sum
    with pytest.raises(ValidationError):
        CycleSum.from_json(poly_sum.to_json())  # needs the backend


def test_sum_json_adds_repeated_cycles_and_drops_cancelled_ones():
    a, b = _cyc("A", 1), _cyc("B", 1)
    data = {"terms": [{"coeff": k, "cycle": c.to_json()}
                      for c, k in ((a, 2), (b, 1), (a, -2), (b, 3))]}
    assert CycleSum.from_json(data) == CycleSum(None, {b: 4})
    assert CycleSum.from_json(data, FREE) == CycleSum(FREE, {b: 4})


# -- double point and blowup relations --------------------------------------

def _dpr_labels(d=2):
    return DoublePointDatum(
        SpaceLabel("Yinf", d),
        SpaceLabel("A", d),
        SpaceLabel("B", d),
        SpaceLabel("D", d - 1),
        SpaceLabel("PD", d),
        X,
    )


def test_double_point_relation_shape():
    rel = double_point_relation(_dpr_labels())
    assert rel.coefficient(_cyc("Yinf", 2)) == 1
    assert rel.coefficient(_cyc("A", 2)) == -1
    assert rel.coefficient(_cyc("B", 2)) == -1
    assert rel.coefficient(_cyc("PD", 2)) == 1
    assert rel.total_degree() == 2


def test_double_point_dimension_checks():
    with pytest.raises(DimensionMismatchError):
        DoublePointDatum(
            SpaceLabel("Yinf", 2), SpaceLabel("A", 3), SpaceLabel("B", 2),
            SpaceLabel("D", 1), SpaceLabel("PD", 2), X,
        )
    with pytest.raises(DimensionMismatchError):
        DoublePointDatum(
            SpaceLabel("Yinf", 2), SpaceLabel("A", 2), SpaceLabel("B", 2),
            SpaceLabel("D", 0), SpaceLabel("PD", 2), X,
        )
    with pytest.raises(CycleError):
        DoublePointDatum(
            SpaceLabel("Yinf", 2, smooth=False), SpaceLabel("A", 2), SpaceLabel("B", 2),
            SpaceLabel("D", 1), SpaceLabel("PD", 2), X,
        )


def test_blowup_relation_matches_double_point_pattern():
    step = BlowupStep(
        SpaceLabel("Y0", 3), SpaceLabel("Y1", 3),
        SpaceLabel("E0", 3), SpaceLabel("P0", 3),
    )
    rel = blowup_relation(step, X)
    assert rel.coefficient(_cyc("Y0", 3)) == 1
    assert rel.coefficient(_cyc("Y1", 3)) == -1
    assert rel.coefficient(_cyc("E0", 3)) == -1
    assert rel.coefficient(_cyc("P0", 3)) == 1


def _tower(k, d=3):
    stages = [SpaceLabel(f"Y{i}", d) for i in range(k + 1)]
    return [
        BlowupStep(stages[i], stages[i + 1], SpaceLabel(f"E{i}", d), SpaceLabel(f"P{i}", d))
        for i in range(k)
    ]


def test_tower_telescope_cancels_interior_stages():
    rng = random.Random(7)
    for _ in range(10):
        k = rng.randrange(1, 6)
        steps = _tower(k)
        total = telescope_sum(steps, X)
        assert total.coefficient(_cyc("Y0", 3)) == 1
        assert total.coefficient(_cyc(f"Y{k}", 3)) == -1
        for i in range(1, k):
            assert total.coefficient(_cyc(f"Y{i}", 3)) == 0
        assert total == sum(
            blowup_tower_relations(steps, X), CycleSum.zero()
        )
        assert total.total_degree() == 3


def test_tower_must_chain():
    steps = _tower(2)
    broken = [steps[0], BlowupStep(SpaceLabel("Z", 3), SpaceLabel("W", 3),
                                   SpaceLabel("E9", 3), SpaceLabel("P9", 3))]
    with pytest.raises(CycleError):
        blowup_tower_relations(broken, X)


# -- quotient relation generators -------------------------------------------

def test_dim_relation_generator():
    w = DimWitness(SpaceLabel("Y", 3), X, SpaceLabel("C", 1), ("P1", "P2"), ("M",))
    gen = relation_generator("dim", w)
    assert gen == CycleSum.single(_cyc("Y", 3, ("M", "P1", "P2")))
    # r = dim base + 1 is the sharp edge; fewer bundles is no relation
    with pytest.raises(WitnessError):
        relation_generator("dim", DimWitness(SpaceLabel("Y", 3), X, SpaceLabel("C", 1), ("P1",)))
    with pytest.raises(DimensionMismatchError):
        relation_generator("dim", DimWitness(SpaceLabel("Y", 1), X, SpaceLabel("C", 2), ("a", "b", "c")))


def test_sect_relation_generator():
    w = SectWitness(SpaceLabel("Y", 3), X, SpaceLabel("Z", 2), ("L1", "L2"))
    gen = relation_generator("sect", w)
    assert gen.coefficient(_cyc("Y", 3, ("L1", "L2"))) == 1
    assert gen.coefficient(_cyc("Z", 2, ("L1",))) == -1
    assert gen.total_degree() == 1
    renamed = SectWitness(SpaceLabel("Y", 3), X, SpaceLabel("Z", 2), ("L1", "L2"), ("L1|Z",))
    assert relation_generator("sect", renamed).coefficient(_cyc("Z", 2, ("L1|Z",))) == -1
    with pytest.raises(DimensionMismatchError):
        relation_generator("sect", SectWitness(SpaceLabel("Y", 3), X, SpaceLabel("Z", 1), ("L",)))
    with pytest.raises(WitnessError):
        relation_generator("sect", SectWitness(SpaceLabel("Y", 3), X, SpaceLabel("Z", 2), ()))


def test_fgl_relation_generator_free():
    w = TensorWitness(SpaceLabel("Y", 2), X, (), "L", "M", "LM")
    gen = relation_generator("fgl", w, FREE)
    one = GradedPolynomial.one(FREE)
    a11 = GradedPolynomial.generator(a_gen(1, 1), FREE)
    assert gen.coefficient(_cyc("Y", 2, ("LM",))) == one
    assert gen.coefficient(_cyc("Y", 2, ("L",))) == -one
    assert gen.coefficient(_cyc("Y", 2, ("M",))) == -one
    assert gen.coefficient(_cyc("Y", 2, ("L", "M"))) == -a11
    # dim 2 leaves no room for three bundles
    assert gen.coefficient(_cyc("Y", 2, ("L", "L", "M"))) == GradedPolynomial.zero(FREE)
    assert gen.total_degree() == 1


def test_fgl_relation_adds_the_terms_of_equal_bundle_names():
    # with L = M = L tensor M the expansion's terms meet on the same cycles:
    # 1 - 1 - 1 on [Y; L], and a(1,2) + a(2,1) on [Y; L, L, L]
    Y = SpaceLabel("Y", 3)
    rel = relation_generator("fgl", TensorWitness(Y, X, (), "L", "L", "L"), FREE)
    assert str(rel) == "-[Y -> X; L] - A(1,1)*[Y -> X; L, L] - 2*A(1,2)*[Y -> X; L, L, L]"


def test_fgl_relation_truncates_at_the_dimension():
    w = TensorWitness(SpaceLabel("Y", 4), X, ("N",), "L", "M", "LM")
    gen = relation_generator("fgl", w, FREE)
    for cycle, _ in gen.items():
        assert len(cycle.bundles) <= 4
    a12 = GradedPolynomial.generator(a_gen(1, 2), FREE)
    assert gen.coefficient(_cyc("Y", 4, ("L", "M", "M", "N"))) == -a12
    assert gen.total_degree() == 2


def test_fgl_relation_on_log_backend():
    lb = log_backend(4)
    w = TensorWitness(SpaceLabel("Y", 3), X, (), "L", "M", "LM")
    gen = relation_generator("fgl", w, lb)
    assert gen.coefficient(_cyc("Y", 3, ("L", "M"))) == -lazard_coefficient(1, 1, lb)
    assert gen.coefficient(_cyc("Y", 3, ("L", "L", "M"))) == -lazard_coefficient(2, 1, lb)
    assert gen.total_degree() == 2


def test_fgl_relation_on_shallow_log_backend_raises():
    lb = log_backend(1)
    w = TensorWitness(SpaceLabel("Y", 4), X, (), "L", "M", "LM")
    with pytest.raises(OrderError):
        relation_generator("fgl", w, lb)


def test_fgl_relation_additive_collapses():
    w = TensorWitness(SpaceLabel("Y", 3), X, (), "L", "M", "LM")
    gen = relation_generator("fgl", w, ADDITIVE)
    assert len(gen.items()) == 3  # only the tensor, L, and M terms survive


def test_relation_generators_take_lists_like_tuples():
    Y, C, Z = SpaceLabel("Y", 3), SpaceLabel("C", 1), SpaceLabel("Z", 2)
    cases = [
        ("dim", DimWitness(Y, X, C, ["P1", "P2"], ["M"]),
         DimWitness(Y, X, C, ("P1", "P2"), ("M",)), None),
        ("sect", SectWitness(Y, X, Z, ["L1", "L2"], ["K"]),
         SectWitness(Y, X, Z, ("L1", "L2"), ("K",)), None),
        ("fgl", TensorWitness(Y, X, ["K"], "L", "M", "LM"),
         TensorWitness(Y, X, ("K",), "L", "M", "LM"), FREE),
    ]
    for kind, from_lists, from_tuples, backend in cases:
        assert from_lists == from_tuples
        gen = relation_generator(kind, from_lists, backend)
        assert gen == relation_generator(kind, from_tuples, backend)
        assert not gen.is_zero()


def test_relation_generator_validation():
    with pytest.raises(WitnessError):
        relation_generator("weird", None)
    w = TensorWitness(SpaceLabel("Y", 3), X, (), "L", "M", "LM")
    with pytest.raises(WitnessError):
        relation_generator("fgl", w)  # backend missing
    with pytest.raises(WitnessError):
        relation_generator("dim", w)  # wrong witness type


# -- pushforward and products -----------------------------------------------

def test_pushforward_changes_target_only():
    rel = double_point_relation(_dpr_labels())
    Z = SpaceLabel("Z", 4)
    moved = pushforward(rel, LabelMorphism(X, Z))
    assert moved.coefficient(DecoratedCycle(SpaceLabel("Yinf", 2), Z)) == 1
    assert moved.total_degree() == rel.total_degree()


def test_pushforward_requires_proper_and_matching_target():
    rel = double_point_relation(_dpr_labels())
    Z = SpaceLabel("Z", 4)
    with pytest.raises(CycleError):
        pushforward(rel, LabelMorphism(X, Z, proper=False))
    with pytest.raises(CycleError):
        pushforward(rel, LabelMorphism(Z, X))


@pytest.mark.parametrize("total, morphism", [
    (None, None),
    (CycleSum(None, {}), None),
    (None, LabelMorphism(X, SpaceLabel("Z", 4))),
], ids=["neither", "no morphism", "no sum"])
def test_pushforward_of_other_arguments_raises_a_cycle_error(total, morphism):
    with pytest.raises(CycleError, match="pushforward takes"):
        pushforward(total, morphism)


_STEP0 = BlowupStep(SpaceLabel("Y0", 3), SpaceLabel("Y1", 3), SpaceLabel("E0", 3),
                    SpaceLabel("P0", 3))


@pytest.mark.parametrize("call, message", [
    (lambda: double_point_relation(None), "double_point_relation takes"),
    (lambda: double_point_relation(_STEP0), "double_point_relation takes"),
    (lambda: blowup_relation(None, X), "blowup_relation takes"),
    (lambda: blowup_relation(_STEP0, "X"), "blowup_relation takes"),
    (lambda: blowup_tower_relations([None, None], X), "blowup_relation takes"),
    (lambda: blowup_tower_relations([_STEP0, _STEP0], None), "blowup_relation takes"),
    (lambda: telescope_sum([_STEP0, 5], X), "blowup_relation takes"),
    (lambda: exterior_product(None, None), "exterior_product takes"),
    (lambda: exterior_product(CycleSum(None, {}), 1), "exterior_product takes"),
    (lambda: DoublePointDatum(None, X, X, X, X, X), "smooth_fiber must be a SpaceLabel"),
    (lambda: BlowupStep(X, X, X, "P"), "projective_bundle must be a SpaceLabel"),
], ids=["dpr none", "dpr step", "blowup none", "blowup target", "tower", "tower target",
        "telescope", "exterior none", "exterior int", "datum label", "step label"])
def test_relation_builders_of_other_arguments_raise_a_cycle_error(call, message):
    with pytest.raises(CycleError, match=message):
        call()


def test_pushforward_functoriality():
    rel = double_point_relation(_dpr_labels())
    Z, W = SpaceLabel("Z", 4), SpaceLabel("W", 5)
    g = LabelMorphism(X, Z)
    h = LabelMorphism(Z, W)
    assert pushforward(pushforward(rel, g), h) == pushforward(rel, g.then(h))
    with pytest.raises(CycleError):
        h.then(g)


def test_exterior_product_bilinear():
    a = CycleSum(None, {_cyc("A", 1): 2, _cyc("B", 2): 1})
    b = CycleSum(None, {_cyc("C", 1): 3})
    c = CycleSum(None, {_cyc("D", 2): -1})
    lhs = exterior_product(a, b + c)
    rhs = exterior_product(a, b) + exterior_product(a, c)
    assert lhs == rhs
    prod = exterior_product(a, b)
    key = DecoratedCycle(SpaceLabel("A x C", 2), SpaceLabel("X x X", 6))
    assert prod.coefficient(key) == 6


def test_exterior_product_degree_adds():
    a = CycleSum.single(_cyc("A", 1))
    b = CycleSum.single(_cyc("C", 2))
    assert exterior_product(a, b).total_degree() == 3


def test_exterior_product_rejects_decorations():
    a = CycleSum.single(_cyc("A", 1, ("L",)))
    b = CycleSum.single(_cyc("C", 2))
    with pytest.raises(CycleError):
        exterior_product(a, b)


# -- record JSON ------------------------------------------------------------

_Y, _X, _D = {"name": "Y", "dim": 2}, {"name": "X", "dim": 3}, {"name": "D", "dim": 1}
_DPR = {"smooth_fiber": _Y, "component_a": _Y, "component_b": _Y, "intersection": _D,
        "projective_bundle": _Y, "target": _X}
_STEP = {"base": _Y, "blowup": _Y, "exceptional": _Y, "projective_bundle": _Y}
_DIM = {"source": _Y, "target": _X, "base": _D, "pulled_back": ["P1", "P2"], "extra": ["M"]}
_SECT = {"source": _Y, "target": _X, "zero_locus": _D, "bundles": ["L"], "restricted": []}
_FGL = {"source": _Y, "target": _X, "bundles": ["K"], "left": "L", "right": "M", "tensor": "LM"}


def _without(data, *keys):
    return {k: v for k, v in data.items() if k not in keys}


def _with(data, **changes):
    return {**data, **changes}


def _sum_of(cycle):
    return {"terms": [{"coeff": 1, "cycle": cycle}]}


# decoder, input, and its exit-2 text; the last three rows carry two faults
# each and fix which one is reported: a missing key before a non-list, a
# non-list before a bad label, and the first missing key in field order
RECORD_JSON_ERRORS = [
    (SpaceLabel.from_json, 5, "label JSON needs 'name' and 'dim'"),
    (SpaceLabel.from_json, {"name": "Y"}, "label JSON needs 'name' and 'dim'"),
    (SpaceLabel.from_json, {"name": "", "dim": 2}, "label name must be a nonempty string"),
    (DecoratedCycle.from_json, [], "cycle JSON needs 'source' and 'target'"),
    (DecoratedCycle.from_json, {"source": _Y}, "cycle JSON needs 'source' and 'target'"),
    (DecoratedCycle.from_json, {"source": _Y, "target": _X, "bundles": "L"},
     "'bundles' must be a list"),
    (DecoratedCycle.from_json, {"source": _Y, "target": {"dim": 3}},
     "label JSON needs 'name' and 'dim'"),
    (CycleSum.from_json, _sum_of({"source": {"name": "Y"}, "target": _X}),
     "label JSON needs 'name' and 'dim'"),
    (CycleSum.from_json, _sum_of({"source": _Y, "target": _X, "bundles": None}),
     "'bundles' must be a list"),
    (DoublePointDatum.from_json, "dpr", "double point JSON must be an object"),
    (DoublePointDatum.from_json, _without(_DPR, "target"), "double point JSON lacks ['target']"),
    (DoublePointDatum.from_json, _without(_DPR, "target", "component_b"),
     "double point JSON lacks ['component_b', 'target']"),
    (DoublePointDatum.from_json, _with(_DPR, intersection=[]),
     "label JSON needs 'name' and 'dim'"),
    (BlowupStep.from_json, None, "blowup step JSON must be an object"),
    (BlowupStep.from_json, _without(_STEP, "exceptional"),
     "blowup step JSON lacks ['exceptional']"),
    (DimWitness.from_json, 3, "witness JSON must be an object"),
    (DimWitness.from_json, _without(_DIM, "base"), "dim witness lacks 'base'"),
    (DimWitness.from_json, _with(_DIM, pulled_back="P1"), "'pulled_back' must be a list of names"),
    (DimWitness.from_json, _with(_DIM, extra=None), "'extra' must be a list of names"),
    (DimWitness.from_json, _with(_DIM, base={"name": "C"}), "label JSON needs 'name' and 'dim'"),
    (SectWitness.from_json, [_SECT], "witness JSON must be an object"),
    (SectWitness.from_json, _without(_SECT, "zero_locus"), "sect witness lacks 'zero_locus'"),
    (SectWitness.from_json, _with(_SECT, bundles="L"), "'bundles' must be a list of names"),
    (SectWitness.from_json, _with(_SECT, restricted=5), "'restricted' must be a list of names"),
    (TensorWitness.from_json, "fgl", "witness JSON must be an object"),
    (TensorWitness.from_json, _without(_FGL, "right"), "fgl witness lacks 'right'"),
    (TensorWitness.from_json, _with(_FGL, bundles={}), "'bundles' must be a list of names"),
    (TensorWitness.from_json, _with(_FGL, source=7), "label JSON needs 'name' and 'dim'"),
    (DimWitness.from_json, _with(_without(_DIM, "target"), extra="M"), "dim witness lacks 'target'"),
    (SectWitness.from_json, _with(_SECT, source={}, restricted="K"),
     "'restricted' must be a list of names"),
    (TensorWitness.from_json, _without(_FGL, "tensor", "source"), "fgl witness lacks 'source'"),
]


@pytest.mark.parametrize("decode, data, message", RECORD_JSON_ERRORS,
                         ids=[f"{i}-{row[2]}" for i, row in enumerate(RECORD_JSON_ERRORS)])
def test_record_json_errors_keep_their_text(decode, data, message):
    with pytest.raises(ValidationError) as excinfo:
        decode(data)
    assert type(excinfo.value) is ValidationError
    assert str(excinfo.value) == message


def test_record_json_fills_the_defaults_and_takes_a_null_restriction():
    Y, C, Z = SpaceLabel("Y", 2), SpaceLabel("D", 1), SpaceLabel("X", 3)
    assert DecoratedCycle.from_json({"source": _Y, "target": _X}) == DecoratedCycle(Y, Z)
    assert DimWitness.from_json(_without(_DIM, "extra")) == DimWitness(Y, Z, C, ("P1", "P2"))
    sect = SectWitness.from_json(_with(_SECT, restricted=None))
    assert sect == SectWitness(Y, Z, C, ("L",))
    assert SectWitness.from_json(_without(_SECT, "restricted")) == sect
    assert TensorWitness.from_json(_without(_FGL, "bundles")) == TensorWitness(
        Y, Z, (), "L", "M", "LM")
