"""Configurations, divisor classes, the operator, and the normal form."""

import functools
import itertools
import json
import pathlib
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fglcalc import (
    ADDITIVE,
    ANY_DEGREE,
    FREE,
    BackendMismatchError,
    MULTIPLICATIVE,
    ChernPolynomial,
    ConfigurationError,
    FaceClassVector,
    FormalGroupLaw,
    GradedPolynomial,
    OrderError,
    SncComponent,
    SncConfiguration,
    TruncatedSeries,
    ValidationError,
    a_gen,
    apply_divisor_operator,
    check_properties,
    class_dimension,
    divisor_class,
    lift_restricted_class,
    log_backend,
    normal_form,
    product_class,
    restrict_to_component,
    restricted_component_indices,
    validate_config,
)

from fglcalc import snc
from fglcalc.stats import meter

import oracles


def _components(r):
    return tuple(SncComponent(f"D{i}") for i in range(1, r + 1))


def test_more_than_255_components_are_refused_before_a_layout_is_built():
    config = SncConfiguration(1, _components(256), [[i] for i in range(1, 257)])
    law = FormalGroupLaw(FREE, 2)
    for run in (lambda: divisor_class(config, [1] * 256, law),
                lambda: check_properties(config, [1] * 256, [1] * 256, law)):
        with pytest.raises(ValidationError, match="^256 variables exceed the limit 255$"):
            run()


def _config(ambient, r, faces):
    return SncConfiguration(ambient, _components(r), faces)


def _full_config(ambient, r):
    faces = [
        list(c)
        for size in range(1, r + 1)
        for c in itertools.combinations(range(1, r + 1), size)
    ]
    return _config(ambient, r, faces)


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
    return _config(ambient, r, faces)


def _random_mults(rng, r, lo=-2, hi=2):
    while True:
        ms = tuple(rng.randrange(lo, hi + 1) for _ in range(r))
        if any(ms):
            return ms


# -- validation -------------------------------------------------------------

def test_the_monomial_shift_is_the_series_one():
    # the oracles' shift by prod u_i, which recompose and the operator by
    # pairs read
    names, support = ("u1", "u2", "u3"), frozenset({2, 3})
    terms = {(1, 0, 2): 5, (2, 0, 0): 1}
    shifted = {(1, 1, 3): 5, (2, 1, 1): 1}
    # orders up to 31 keep the exponent fields; 31 to 33 widens them and 33
    # to 31 narrows them
    for source, order in ((3, 5), (5, 5), (5, 4), (31, 33), (33, 31)):
        result = oracles.times_symbols_by_repack(
            TruncatedSeries(names, source, FREE, terms), support, order)
        assert result == TruncatedSeries(names, order, FREE, shifted)


def test_valid_config_has_no_violations():
    cfg = _full_config(3, 3)
    assert validate_config(cfg) == []


def test_missing_singleton_detected():
    cfg = _config(2, 2, [[1], [1, 2]])
    assert {"rule": "missing-singleton", "face": [2]} in validate_config(cfg)


def test_downward_closure_detected():
    cfg = _config(3, 3, [[1], [2], [3], [1, 2, 3]])
    rules = validate_config(cfg)
    assert {"rule": "not-downward-closed", "face": [1, 2]} in rules
    assert {"rule": "not-downward-closed", "face": [2, 3]} in rules


def test_negative_face_dimension_detected():
    cfg = _config(1, 2, [[1], [2], [1, 2]])
    assert {"rule": "negative-face-dimension", "face": [1, 2]} in validate_config(cfg)


def test_index_out_of_range_detected():
    cfg = _config(2, 1, [[1], [5]])
    assert {"rule": "index-out-of-range", "face": [5]} in validate_config(cfg)


def test_empty_face_detected():
    cfg = _config(2, 1, [[1], []])
    assert {"rule": "empty-face", "face": []} in validate_config(cfg)


def test_duplicate_names_detected():
    cfg = SncConfiguration(2, (SncComponent("D"), SncComponent("D")), [[1], [2]])
    assert {"rule": "duplicate-component-name", "face": []} in validate_config(cfg)


def test_empty_configuration_is_valid():
    assert validate_config(SncConfiguration(0)) == []


def test_operations_refuse_invalid_configs():
    cfg = _config(2, 2, [[1], [1, 2]])
    law = FormalGroupLaw(FREE, order=2)
    with pytest.raises(ConfigurationError) as err:
        divisor_class(cfg, (1, 1), law)
    assert err.value.violations


def test_each_configuration_is_validated_once(monkeypatch):
    counts = Counter()

    def counting(config):
        counts[config] += 1
        return validate_config(config)

    monkeypatch.setattr(snc, "validate_config", counting)
    snc.require_valid.cache_clear()
    law = FormalGroupLaw(FREE, order=3)
    full = _full_config(3, 3)
    assert check_properties(full, (1, 2, 0), (0, 1, 1), law)["restriction"] is None
    assert counts == {full: 1}
    check_properties(full, (1, 2, 0), (0, 1, 1), law)
    assert counts == {full: 1}
    # the restriction row validates the configuration on D_1 as well
    reduced = _config(3, 3, [[1], [2], [3], [1, 2], [1, 3]])
    assert check_properties(reduced, (1, 0, 0), (0, 1, 2), law)["restriction"] is True
    sub = restrict_to_component(reduced, 1, (0, 1, 2))[0]
    assert counts == {full: 1, reduced: 1, sub: 1}


def test_invalid_configurations_raise_on_every_call(monkeypatch):
    # each entry point after an equal-looking valid configuration has
    # passed and been cached: the same violations, validated every time
    law = FormalGroupLaw(FREE, order=3)
    valid = _full_config(3, 3)
    invalid = [
        SncConfiguration(2, valid.components, valid.faces),  # dimension of {1, 2, 3} is -1
        SncConfiguration(3, _components(2) + (SncComponent("D1"),), valid.faces),
    ]
    sub, sub_ps = restrict_to_component(valid, 1, (0, 1, 1))
    lifted = divisor_class(sub, sub_ps, law)
    calls = {
        "divisor_class": lambda c: divisor_class(c, (1, 1, 1), law),
        "product_class": lambda c: product_class(c, (1, 0, 0), (0, 1, 1), law),
        "apply_divisor_operator": lambda c: apply_divisor_operator(
            FaceClassVector(c, {}), (1, 1, 1), law),
        "normal_form": lambda c: normal_form(FaceClassVector(c, {})),
        "restrict_to_component": lambda c: restrict_to_component(c, 1, (0, 1, 1)),
        "lift_restricted_class": lambda c: lift_restricted_class(lifted, c, 1),
        "check_properties": lambda c: check_properties(c, (1, 0, 0), (0, 1, 1), law),
    }
    counts = Counter()

    def counting(config):
        counts[config] += 1
        return validate_config(config)

    monkeypatch.setattr(snc, "validate_config", counting)
    for bad in invalid:
        expected = validate_config(bad)
        assert expected and bad.faces == valid.faces
        for name, call in calls.items():
            call(valid)
            for _ in range(2):
                before = counts[bad]
                with pytest.raises(ConfigurationError) as err:
                    call(bad)
                assert err.value.violations == expected, name
                assert str(err.value) == str(ConfigurationError(expected)), name
                assert counts[bad] == before + 1, name


def test_config_json_round_trip():
    cfg = _random_config(random.Random(71))
    assert SncConfiguration.from_json(cfg.to_json()) == cfg


# -- divisor classes --------------------------------------------------------

def test_two_reduced_components_frozen():
    law = FormalGroupLaw(FREE, order=2)
    cfg = _full_config(2, 2)
    vec = divisor_class(cfg, (1, 1), law)
    one = ChernPolynomial.one(2, 1, FREE)
    assert vec.entry([1]) == one
    assert vec.entry([2]) == one
    a11 = GradedPolynomial.generator(a_gen(1, 1), FREE)
    assert vec.entry([1, 2]) == ChernPolynomial.constant(a11, 2, 0, FREE)


def test_single_component_multiplicity_two_frozen():
    law = FormalGroupLaw(FREE, order=2)
    cfg = _config(2, 1, [[1]])
    vec = divisor_class(cfg, (2,), law)
    a11 = GradedPolynomial.generator(a_gen(1, 1), FREE)
    expected = ChernPolynomial(1, 1, FREE, {(0,): 2, (1,): a11})
    assert vec.entry([1]) == expected
    assert vec.faces() == [frozenset({1})]


def test_absent_faces_contribute_nothing():
    law = FormalGroupLaw(FREE, order=2)
    cfg = _config(2, 2, [[1], [2]])  # components never meet
    vec = divisor_class(cfg, (1, 1), law)
    assert vec.entry([1, 2]) is None
    assert len(vec.faces()) == 2


def test_divisor_class_dimension_is_ambient_minus_one():
    rng = random.Random(83)
    law_cache = {}
    for _ in range(40):
        cfg = _random_config(rng)
        law = law_cache.setdefault(cfg.ambient_dim, FormalGroupLaw(FREE, order=max(cfg.ambient_dim, 1)))
        vec = divisor_class(cfg, _random_mults(rng, cfg.r), law)
        assert class_dimension(vec) == cfg.ambient_dim - 1


def test_divisor_class_requires_enough_order():
    cfg = _full_config(3, 2)
    law = FormalGroupLaw(FREE, order=2)
    with pytest.raises(OrderError):
        divisor_class(cfg, (1, 1), law)


def test_divisor_class_rejects_zero_divisor():
    cfg = _full_config(2, 2)
    law = FormalGroupLaw(FREE, order=2)
    with pytest.raises(ValidationError):
        divisor_class(cfg, (0, 0), law)
    with pytest.raises(ValidationError):
        divisor_class(cfg, (1,), law)


def test_negative_multiplicities_work():
    law = FormalGroupLaw(FREE, order=2)
    cfg = _config(2, 1, [[1]])
    vec = divisor_class(cfg, (-1,), law)
    chi = FormalGroupLaw(FREE, order=2).inverse()
    # the face part of chi: -1 + a11 u1 evaluated at bound 1
    a11 = GradedPolynomial.generator(a_gen(1, 1), FREE)
    assert vec.entry([1]) == ChernPolynomial(1, 1, FREE, {(0,): -1, (1,): a11})
    assert chi.coefficient((2,)) == a11


# -- product classes and the identities -------------------------------------

def test_product_symmetry_randomized():
    rng = random.Random(97)
    laws = {}
    for _ in range(25):
        cfg = _random_config(rng)
        order = max(cfg.ambient_dim, 1)
        law = laws.setdefault(order, FormalGroupLaw(FREE, order=order))
        ns = _random_mults(rng, cfg.r)
        ps = _random_mults(rng, cfg.r)
        assert product_class(cfg, ns, ps, law) == product_class(cfg, ps, ns, law)


def test_product_class_dimension_is_ambient_minus_two():
    law = FormalGroupLaw(FREE, order=3)
    cfg = _full_config(3, 2)
    vec = product_class(cfg, (1, 0), (0, 2), law)
    assert class_dimension(vec) == 1


def test_product_of_disjoint_supports_on_missing_face_is_empty():
    law = FormalGroupLaw(FREE, order=2)
    cfg = _config(2, 2, [[1], [2]])
    vec = product_class(cfg, (1, 0), (0, 1), law)
    assert vec.is_zero()


def test_self_intersection_single_component():
    law = FormalGroupLaw(FREE, order=2)
    cfg = _config(2, 1, [[1]])
    vec = product_class(cfg, (1,), (1,), law)
    # F_{1} = 1 for both, shared support contributes one symbol
    assert vec.entry([1]) == ChernPolynomial(1, 1, FREE, {(1,): 1})


def test_restriction_property_exact():
    # a reduced transverse component: the product against E restricts
    rng = random.Random(101)
    law = FormalGroupLaw(FREE, order=4)
    for _ in range(20):
        cfg = _random_config(rng, max_r=3, max_ambient=4)
        if cfg.r < 2:
            continue
        i = rng.randrange(1, cfg.r + 1)
        ns = tuple(1 if k == i else 0 for k in range(1, cfg.r + 1))
        ps = list(_random_mults(rng, cfg.r))
        ps[i - 1] = 0
        if not any(ps):
            continue
        ps = tuple(ps)
        law_here = FormalGroupLaw(FREE, order=max(cfg.ambient_dim, 1))
        product = product_class(cfg, ns, ps, law_here)
        sub_cfg, sub_ps = restrict_to_component(cfg, i, ps)
        if sub_cfg.r and any(sub_ps):
            expected = lift_restricted_class(
                divisor_class(sub_cfg, sub_ps, law_here), cfg, i
            )
        else:
            expected = FaceClassVector(cfg, {})
        assert product == expected


def test_operator_property_on_every_backend():
    # the operator identity holds on free too, not only on the associative
    # backends; keep all four covered here
    cfg = _full_config(3, 3)
    for backend in (FREE, ADDITIVE, MULTIPLICATIVE, log_backend(2)):
        law = FormalGroupLaw(backend, order=3)
        ns, ps = (1, 2, 0), (0, 1, 1)
        lhs = normal_form(product_class(cfg, ns, ps, law))
        rhs = normal_form(apply_divisor_operator(divisor_class(cfg, ps, law), ns, law))
        assert lhs == rhs


def test_check_properties_reports():
    cfg = _full_config(3, 3)
    law = FormalGroupLaw(FREE, order=3)
    res = check_properties(cfg, (1, 0, 0), (0, 1, 2), law)
    assert res == {"symmetry": True, "restriction": True, "operator": True}
    res = check_properties(cfg, (2, 0, 0), (0, 1, 2), law)
    assert res["restriction"] is None  # first divisor not reduced


def _one_more_term(vector):
    """vector with 1 added at the face {1}: a class that differs from it."""
    config, face = vector.config, frozenset({1})
    bump = ChernPolynomial(config.r, config.face_dim(face), FREE, {(0,) * config.r: 1})
    entries = dict(vector._entries)
    entries[face] = entries[face] + bump if face in entries else bump
    return FaceClassVector(config, entries)


def test_class_vectors_with_different_entries_are_unequal():
    cfg = _full_config(3, 3)
    law = FormalGroupLaw(FREE, order=3)
    vector = divisor_class(cfg, (1, 2, 0), law)
    assert vector == divisor_class(cfg, (1, 2, 0), law)
    assert vector != _one_more_term(vector)
    assert vector != divisor_class(cfg, (2, 1, 0), law)
    assert vector != FaceClassVector(cfg, {})


@pytest.mark.parametrize("name,failing", [
    ("product_class", "symmetry"),
    ("apply_divisor_operator", "operator"),
    ("lift_restricted_class", "restriction"),
])
def test_each_identity_fails_when_one_side_is_off_by_one_term(name, failing, monkeypatch):
    # each side of an identity gains one term at one face; only the identity
    # that side feeds reads False (product_class is off for the second
    # argument order only, which the symmetry check alone reads)
    cfg = _full_config(3, 3)
    law = FormalGroupLaw(FREE, order=3)
    ns, ps = (1, 0, 0), (0, 1, 2)
    original = getattr(snc, name)

    def off_by_one_term(*args):
        result = original(*args)
        if name == "product_class" and tuple(args[1]) == ns:
            return result
        return _one_more_term(result)

    monkeypatch.setattr(snc, name, off_by_one_term)
    expected = {"symmetry": True, "restriction": True, "operator": True, failing: False}
    assert check_properties(cfg, ns, ps, law) == expected


def test_a_configuration_without_the_first_singleton_is_refused():
    cfg = _config(2, 2, [[2], [1, 2]])
    assert {"rule": "missing-singleton", "face": [1]} in validate_config(cfg)
    with pytest.raises(ConfigurationError):
        divisor_class(cfg, (1, 1), FormalGroupLaw(FREE, 2))


def _random_downward_closed(rng, ambient, r):
    """Random face family on r components with every face of size <= ambient."""
    faces = {frozenset({i}) for i in range(1, r + 1)}
    for size in range(2, min(r, ambient) + 1):
        for c in itertools.combinations(range(1, r + 1), size):
            face = frozenset(c)
            if all(face - {i} in faces for i in face) and rng.random() < 0.6:
                faces.add(face)
    return _config(ambient, r, faces)


def _overlapping_mults(rng, r):
    """Two multiplicity vectors sharing at least one index of support."""
    while True:
        ns = _random_mults(rng, r, -3, 3)
        ps = _random_mults(rng, r, -3, 3)
        if any(n and p for n, p in zip(ns, ps)):
            return ns, ps


def _path_config(ambient, r):
    """The path 1 - 2 - ... - r: no face has more than two components."""
    faces = [[i] for i in range(1, r + 1)] + [[i, i + 1] for i in range(1, r)]
    return _config(ambient, r, faces)


def test_product_class_matches_full_order_oracle(monkeypatch):
    """The face-reduced classes against the unreduced, pair-by-pair oracles.

    r = 1..5 with ambient_dim r-2..r+2 (at least 1) and law order
    ambient_dim..ambient_dim+3 (so the fold runs at a lower order than the
    law), on all four backends, on random downward-closed complexes and on
    paths.  check_properties is compared against itself run on the
    oracles, with the restriction row exercised by a reduced component.
    """
    rng = random.Random(2024)
    backends = (
        lambda order: FREE, lambda order: log_backend(max(order - 1, 1)),
        lambda order: ADDITIVE, lambda order: MULTIPLICATIVE,
    )
    for r in range(1, 6):
        for ambient in range(max(1, r - 2), r + 3):
            for b, backend in enumerate(backends):
                order = ambient + (r + ambient + b) % 4
                law = FormalGroupLaw(backend(order), order=order)
                if (r + ambient + b) % 3 == 0 and ambient >= min(r, 2):
                    cfg = _path_config(ambient, r)
                else:
                    cfg = _random_downward_closed(rng, ambient, r)
                ns, ps = _overlapping_mults(rng, r)
                case = (r, ambient, order, b, ns, ps, cfg.sorted_faces())

                product = product_class(cfg, ns, ps, law)
                expected = oracles.product_class_by_pairs(cfg, ns, ps, law)
                assert product.to_json() == expected.to_json(), case
                if order <= 6:  # the full-order oracle grows fast with the order
                    full = oracles.product_class_full_order(cfg, ns, ps, law)
                    assert product.to_json() == full.to_json(), case
                vector = divisor_class(cfg, ps, law)
                assert vector.to_json() == (
                    oracles.divisor_class_full_combination(cfg, ps, law).to_json()
                ), case
                assert apply_divisor_operator(vector, ns, law).to_json() == (
                    oracles.apply_divisor_operator_full_bound(vector, ns, law).to_json()
                ), case

                pairs = [(ns, ps)]
                i = rng.randrange(r)
                other = tuple(0 if k == i else p for k, p in enumerate(ps))
                if any(other):
                    pairs.append((tuple(int(k == i) for k in range(r)), other))
                for first, second in pairs:
                    found = check_properties(cfg, first, second, law)
                    with monkeypatch.context() as m:
                        m.setattr(snc, "product_class", oracles.product_class_by_pairs)
                        m.setattr(snc, "divisor_class", oracles.divisor_class_full_combination)
                        m.setattr(
                            snc, "apply_divisor_operator",
                            oracles.apply_divisor_operator_full_bound,
                        )
                        assert found == check_properties(cfg, first, second, law), case


def test_product_class_matches_oracle_five_components_free():
    cfg = _full_config(5, 5)
    law = FormalGroupLaw(FREE, order=5)
    ns, ps = (1, 2, -1, 0, 1), (2, -1, 1, 1, 0)
    expected = oracles.product_class_full_order(cfg, ns, ps, law)
    assert not expected.is_zero()
    assert product_class(cfg, ns, ps, law) == expected


# -- the packed class vectors against their oracles --------------------------

@functools.lru_cache(maxsize=None)
def _snc_law(kind, order):
    backend = {"free": FREE, "log": log_backend(order), "additive": ADDITIVE, "mult": MULTIPLICATIVE}[kind]
    return FormalGroupLaw(backend, order)


def _drawn_config(data, r, ambient):
    """A random downward-closed complex on r components with every face of size <= ambient."""
    faces = {frozenset({i}) for i in range(1, r + 1)}
    for size in range(2, min(r, ambient) + 1):
        for c in itertools.combinations(range(1, r + 1), size):
            face = frozenset(c)
            if all(face - {i} in faces for i in face) and data.draw(st.booleans()):
                faces.add(face)
    return _config(ambient, r, faces)


def _drawn_mults(data, r):
    return tuple(data.draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r).filter(any)))


def _drawn_vector(data, cfg, backend):
    """Entries with stray symbols; some terms meet their moved copy, negated, and cancel."""
    coeffs = [GradedPolynomial.constant(c, backend) for c in (1, -1, 3)]
    faces = sorted(cfg.faces, key=sorted)
    entries = {}
    for face in data.draw(st.lists(st.sampled_from(faces), max_size=4, unique=True)):
        entries[face] = {
            tuple(data.draw(st.integers(0, 2)) for _ in range(cfg.r)): data.draw(st.sampled_from(coeffs))
            for _ in range(data.draw(st.integers(1, 4)))
        }
    for face, terms in list(entries.items()):
        for exps, coeff in list(terms.items()):
            stray = {j for j, e in enumerate(exps, 1) if e and j not in face}
            if stray and face | stray in cfg.faces and data.draw(st.booleans()):
                moved = tuple(e - (j in stray) for j, e in enumerate(exps, 1))
                entries.setdefault(face | stray, {})[moved] = -coeff
    return FaceClassVector(cfg, {
        face: ChernPolynomial(cfg.r, cfg.face_dim(face), backend, terms)
        for face, terms in entries.items()
    })


def _same(vector, expected):
    assert vector == expected
    assert vector.to_json() == expected.to_json()


@given(st.data())
def test_packed_class_vectors_match_the_pair_and_step_oracles(data):
    """divisor_class, product_class, the operator and the normal form against
    face_classes_by_parts, apply_divisor_operator_by_pairs, normal_form_by_steps
    and normal_form_packed: random downward-closed complexes with r <= 4 on
    FREE and log, and two components on ADDITIVE and MULTIPLICATIVE at
    ambient_dim 32 and 33, where the combination's key fields are 6 bits
    wide and (at 32) every face's, or (at 33) the edge's only, are 5.  On
    ADDITIVE each F_J is a constant, whose key is 0 in every layout."""
    kind = data.draw(st.sampled_from(["free", "log", "additive", "mult"]))
    if kind in ("additive", "mult"):
        r, ambient = 2, data.draw(st.sampled_from([32, 33]))
        cfg = _full_config(ambient, r)
    else:
        r, ambient = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        cfg = _drawn_config(data, r, ambient)
    law = _snc_law(kind, ambient)
    ns, ps = _drawn_mults(data, r), _drawn_mults(data, r)
    combination = snc._face_combination(cfg, ps, law)
    _same(divisor_class(cfg, ps, law), oracles.face_classes_by_parts(cfg, combination))
    product = snc._face_combination(cfg, ns, law) * combination
    _same(product_class(cfg, ns, ps, law), oracles.face_classes_by_parts(cfg, product))
    for vector in (divisor_class(cfg, ps, law), _drawn_vector(data, cfg, law.backend)):
        image = apply_divisor_operator(vector, ns, law)
        _same(image, oracles.apply_divisor_operator_by_pairs(vector, ns, law))
        for v in (vector, image):
            _same(normal_form(v), oracles.normal_form_by_steps(v))
            _same(normal_form(v), oracles.normal_form_packed(v))


@given(st.data())
def test_built_class_vectors_are_clean(data):
    """Every vector the library builds is its own normal form, so check_properties
    compares product and operator as they are: random downward-closed complexes
    with r <= 4 on FREE and log, at law order ambient_dim and above it (the
    lower-order fold), with zero multiplicities among the entries."""
    kind = data.draw(st.sampled_from(["free", "log"]))
    r, ambient = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    cfg = _drawn_config(data, r, ambient)
    law = _snc_law(kind, ambient + data.draw(st.integers(0, 2)))
    ns, ps = _drawn_mults(data, r), _drawn_mults(data, r)
    product = product_class(cfg, ns, ps, law)
    image = apply_divisor_operator(divisor_class(cfg, ps, law), ns, law)
    for vector in (divisor_class(cfg, ps, law), product, image):
        assert normal_form(vector) == vector
    found = check_properties(cfg, ns, ps, law)["operator"]
    assert found == (normal_form(product) == normal_form(image))


@functools.lru_cache(maxsize=None)
def _free_and_law(kind, order):
    backend = {"log": log_backend(max(order - 1, 1)), "additive": ADDITIVE, "mult": MULTIPLICATIVE}[kind]
    return FormalGroupLaw(FREE, order), FormalGroupLaw(backend, order)


@given(st.data())
def test_free_results_specialize_to_every_backend(data):
    """One FREE computation checks every backend: reading each A(i,j) as
    lazard_coefficient(i, j, B) is a ring map that carries the FREE law to
    the law over B, and so every FREE result to the result over B.  F, chi,
    [n]u, a combination, the divisor and product classes, the operator and
    the normal form, at orders <= 6 with n in -8..16, up to 3 multiplicities
    and random downward-closed complexes with r <= 4 (the normal form of a
    vector with stray symbols).  oracles.specialize runs no series kernel."""
    kind, order = data.draw(st.sampled_from(["log", "additive", "mult"])), data.draw(st.integers(1, 6))
    free, law = _free_and_law(kind, order)
    n = data.draw(st.integers(-8, 16))
    ms = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3)))
    pairs = [(free.series, law.series), (free.inverse(), law.inverse()),
             (free.n_series(n), law.n_series(n)),
             (free.linear_combination(ms), law.linear_combination(ms))]
    r, ambient = data.draw(st.integers(1, 4)), data.draw(st.integers(1, order))
    cfg = _drawn_config(data, r, ambient)
    ns, ps = _drawn_mults(data, r), _drawn_mults(data, r)
    stray = _drawn_vector(data, cfg, FREE)
    image = apply_divisor_operator(stray, ns, free)
    image_over_b = apply_divisor_operator(oracles.specialize(stray, law.backend), ns, law)
    pairs += [(divisor_class(cfg, ps, free), divisor_class(cfg, ps, law)),
              (product_class(cfg, ns, ps, free), product_class(cfg, ns, ps, law)),
              (image, image_over_b), (normal_form(image), normal_form(image_over_b))]
    for found, expected in pairs:
        assert oracles.specialize(found, law.backend) == expected


def test_the_operator_refuses_a_vector_over_another_backend():
    cfg = _full_config(3, 2)
    vector = divisor_class(cfg, (1, 1), FormalGroupLaw(ADDITIVE, 3))
    with pytest.raises(BackendMismatchError):
        apply_divisor_operator(vector, (1, 0), FormalGroupLaw(FREE, 3))


def test_a_class_vector_refuses_two_backends():
    full = _full_config(3, 2)

    def vector(*entries):  # (face, symbol index or 0 for 1, backend)
        return FaceClassVector(full, {
            frozenset(face): ChernPolynomial.symbol(i, 2, full.face_dim(face), b) if i
            else ChernPolynomial.one(2, full.face_dim(face), b)
            for face, i, b in entries
        })

    single = vector(([1], 0, FREE), ([2], 1, FREE))
    assert normal_form(single) == vector(([1], 0, FREE), ([1, 2], 0, FREE))
    # on faces that stay apart, and where normal_form would bring them together
    for entries in (
        (([1], 0, FREE), ([2], 0, ADDITIVE)),
        (([1], 2, FREE), ([2], 1, ADDITIVE)),
        (([1], 2, FREE), ([1, 2], 0, ADDITIVE)),
    ):
        with pytest.raises(BackendMismatchError):
            vector(*entries)


def test_check_properties_product_count_is_pinned():
    # the law as the CLI builds it for the golden check-properties run, its F
    # (and the shared log table) built first; the zero multiplicities of D and
    # E are formal sums with zero, F(x, 0) = x, which make no products (7
    # products before the early return)
    path = pathlib.Path(__file__).parent / "data" / "snc_check.json"
    data = json.loads(path.read_text())
    cfg = SncConfiguration.from_json(data)
    law = FormalGroupLaw(log_backend(3), 4)
    law.series
    before = meter.products
    check_properties(cfg, tuple(data["D"]), tuple(data["E"]), law)
    assert meter.products - before == 3


def test_restriction_path_product_count_is_pinned():
    # the restriction reads the divisor class at order 3 from the order-4
    # law; that law's F and [n]u are cut from the parent's, which has built
    # them for the product, so it folds nothing again (256 products when it
    # was built from scratch)
    cfg = _full_config(4, 4)
    law = FormalGroupLaw(FREE, 4)
    law.series
    before = meter.products
    result = check_properties(cfg, (0, 1, 0, 0), (2, 0, -1, 1), law)
    assert result == {"symmetry": True, "restriction": True, "operator": True}
    assert meter.products - before == 246


@pytest.mark.parametrize("work,products", [
    (lambda cfg, D, E, law: divisor_class(cfg, D, law), 71_536),
    (lambda cfg, D, E, law: check_properties(cfg, D, E, law), 169_502),
], ids=["divisor_class", "check_properties"])
def test_path_complex_product_counts_are_pinned(work, products):
    # the fold drops non-face supports after every step; folding all six
    # variables and filtering once makes 202,294 and 426,423 products here
    path = _config(8, 6, [[i] for i in range(1, 7)] + [[i, i + 1] for i in range(1, 6)])
    law = FormalGroupLaw(FREE, 8)
    law.series
    before = meter.products
    work(path, (1, 2, -1, 1, 2, 1), (2, 1, 1, -1, 1, 2), law)
    assert meter.products - before == products


# -- operator and vector mechanics ------------------------------------------

def test_operator_agrees_with_product_directly():
    rng = random.Random(113)
    for _ in range(15):
        cfg = _random_config(rng)
        law = FormalGroupLaw(FREE, order=max(cfg.ambient_dim, 1))
        ns = _random_mults(rng, cfg.r)
        ps = _random_mults(rng, cfg.r)
        direct = product_class(cfg, ns, ps, law)
        routed = apply_divisor_operator(divisor_class(cfg, ps, law), ns, law)
        assert direct == routed


def test_vector_constructor_validation():
    cfg = _full_config(2, 2)
    good = ChernPolynomial.one(2, 1, FREE)
    FaceClassVector(cfg, {frozenset({1}): good})
    with pytest.raises(ValidationError):
        FaceClassVector(cfg, {frozenset({1, 2}): good})  # wrong bound
    with pytest.raises(ValidationError):
        FaceClassVector(_config(2, 2, [[1], [2]]), {frozenset({1, 2}): good})
    with pytest.raises(ValidationError):
        FaceClassVector(cfg, {frozenset({1}): ChernPolynomial.one(3, 1, FREE)})


@pytest.mark.parametrize("call", [
    lambda cfg: divisor_class(cfg, [1, 1], "free"),
    lambda cfg: product_class(cfg, [1, 1], [1, 0], "free"),
    lambda cfg: apply_divisor_operator(FaceClassVector(cfg), [1, 1], None),
    lambda cfg: check_properties(cfg, [1, 1], [1, 0], FREE),
], ids=["divisor_class", "product_class", "apply_divisor_operator", "check_properties"])
def test_a_law_argument_that_is_not_a_law_raises_a_validation_error(call):
    with pytest.raises(ValidationError, match="FormalGroupLaw"):
        call(_full_config(2, 2))


_CP = ChernPolynomial.one(2, 1, FREE)
_VECTOR = "expected a FaceClassVector"
_CONFIG = "expected an SncConfiguration"


@pytest.mark.parametrize("call, message", [
    (lambda cfg, law: FaceClassVector(cfg, {5: _CP}), "face 5 is not a list of component indices"),
    (lambda cfg, law: FaceClassVector(cfg, [(frozenset({1}), _CP)]),
     "class vector entries must be a dict from faces to classes"),
    (lambda cfg, law: FaceClassVector(None, {}), _CONFIG),
    (lambda cfg, law: FaceClassVector([1], {}), _CONFIG),
    (lambda cfg, law: normal_form(None), _VECTOR),
    (lambda cfg, law: apply_divisor_operator(None, [1, 1], law), _VECTOR),
    (lambda cfg, law: lift_restricted_class(None, cfg, 1), _VECTOR),
    (lambda cfg, law: lift_restricted_class(FaceClassVector(cfg), [], 1), _CONFIG),
    (lambda cfg, law: class_dimension({}), _VECTOR),
    (lambda cfg, law: divisor_class(None, [1, 1], law), _CONFIG),
    (lambda cfg, law: divisor_class([cfg], [1, 1], law), _CONFIG),
    (lambda cfg, law: product_class({}, [1, 1], [1, 0], law), _CONFIG),
    (lambda cfg, law: check_properties([], [1, 1], [1, 0], law), _CONFIG),
    (lambda cfg, law: validate_config(None), _CONFIG),
    (lambda cfg, law: restricted_component_indices(None, 1), _CONFIG),
    (lambda cfg, law: restrict_to_component([], 1, [1, 1]), _CONFIG),
    (lambda cfg, law: restrict_to_component(cfg, "1", [1, 1]), "component index '1' outside 1..2"),
    (lambda cfg, law: restricted_component_indices(cfg, True), "component index True outside 1..2"),
    (lambda cfg, law: restricted_component_indices(cfg, 3), "component index 3 outside 1..2"),
    (lambda cfg, law: FaceClassVector(cfg).entry(5), "face 5 is not a list of component indices"),
    (lambda cfg, law: FaceClassVector.from_json(None, {"entries": [{"face": [1], "class": []}]},
                                                FREE), _CONFIG),
    (lambda cfg, law: divisor_class(cfg, 5, law), "multiplicities must be integers, got 5"),
    (lambda cfg, law: product_class(cfg, (1, 1), 7, law),
     "second multiplicities must be integers, got 7"),
    (lambda cfg, law: apply_divisor_operator(FaceClassVector(cfg), 5, law),
     "multiplicities must be integers, got 5"),
    (lambda cfg, law: check_properties(cfg, None, (1, 1), law),
     "first multiplicities must be integers, got None"),
    (lambda cfg, law: restrict_to_component(cfg, 1, 5), "multiplicities must be integers, got 5"),
    (lambda cfg, law: restrict_to_component(cfg, 1, (1.5, "x")), "multiplicities must be integers"),
    (lambda cfg, law: restrict_to_component(cfg, 1, (True, 2.0)), "multiplicities must be integers"),
    (lambda cfg, law: restrict_to_component(cfg, 1, (1,)), "expected 2 multiplicities, got 1"),
    (lambda cfg, law: SncConfiguration(2, None), "components must be SncComponent instances"),
    (lambda cfg, law: SncConfiguration(2, cfg.components, None),
     "faces must be a list of index lists, got None"),
], ids=["face 5", "entry pairs", "no config", "list config", "normal_form", "operator", "lift",
        "lift config", "class_dimension", "divisor_class", "unhashable config", "product_class",
        "check_properties", "validate_config", "indices", "restrict", "string index",
        "bool index", "index out of range", "entry face", "json config", "divisor_class int",
        "product_class int", "operator int", "check_properties None", "restrict int",
        "restrict floats", "restrict bool", "restrict length", "components None", "faces None"])
def test_snc_entry_points_refuse_other_arguments(call, message):
    # each raises a ValidationError with its message, never a bare TypeError
    # or AttributeError, and a list reaches no cache as a key
    with pytest.raises(ValidationError) as excinfo:
        call(_full_config(2, 2), FormalGroupLaw(FREE, 2))
    assert str(excinfo.value).startswith(message)


def test_vector_json_round_trip():
    law = FormalGroupLaw(FREE, order=3)
    cfg = _full_config(3, 2)
    vec = product_class(cfg, (1, 2), (2, 1), law)
    assert FaceClassVector.from_json(cfg, vec.to_json(), FREE) == vec


# -- normal form ------------------------------------------------------------

def test_normal_form_absorbs_stray_symbol():
    cfg = _full_config(3, 2)
    c2 = ChernPolynomial.symbol(2, 2, 2, FREE)
    vec = FaceClassVector(cfg, {frozenset({1}): c2})
    out = normal_form(vec)
    assert out.entry([1]) is None
    assert out.entry([1, 2]) == ChernPolynomial.one(2, 1, FREE)


def test_normal_form_kills_terms_landing_outside_faces():
    cfg = _config(2, 2, [[1], [2]])
    c2 = ChernPolynomial.symbol(2, 2, 1, FREE)
    vec = FaceClassVector(cfg, {frozenset({1}): c2})
    assert normal_form(vec).is_zero()


def test_normal_form_is_idempotent():
    rng = random.Random(127)
    for _ in range(15):
        cfg = _random_config(rng)
        law = FormalGroupLaw(FREE, order=max(cfg.ambient_dim, 1))
        vec = apply_divisor_operator(
            divisor_class(cfg, _random_mults(rng, cfg.r), law),
            _random_mults(rng, cfg.r),
            law,
        )
        once = normal_form(vec)
        assert normal_form(once) == once


@given(st.integers(0, 2**32 - 1), st.data())
def test_normal_form_is_confluent(seed, data):
    # any absorption order gives the package's result
    rng = random.Random(seed)
    cfg = _random_config(rng, max_r=4)
    coeffs = [GradedPolynomial.constant(c, FREE) for c in (1, -1, 2)]
    coeffs.append(GradedPolynomial.generator(a_gen(1, 1), FREE))
    entries = {}
    for face in data.draw(st.lists(st.sampled_from(sorted(cfg.faces, key=sorted)), max_size=4)):
        bound = cfg.face_dim(face)
        terms = {}
        for _ in range(data.draw(st.integers(1, 4))):
            exps = tuple(data.draw(st.integers(0, 2)) for _ in range(cfg.r))
            terms[exps] = data.draw(st.sampled_from(coeffs))
        entries[face] = ChernPolynomial(cfg.r, bound, FREE, terms)
    vec = FaceClassVector(cfg, entries)
    order = data.draw(st.permutations(range(1, cfg.r + 1)))
    rank = {j: i for i, j in enumerate(order)}
    assert normal_form(vec) == oracles.normal_form_in_order(vec, rank)


def test_normal_form_leaves_clean_vectors_alone():
    law = FormalGroupLaw(FREE, order=2)
    cfg = _full_config(2, 2)
    vec = divisor_class(cfg, (1, 1), law)
    assert normal_form(vec) == vec


def test_normal_form_respects_depth_truncation():
    # c1*c2 at face {1}: absorbing c2 moves it to {1,2}, keeping c1 there
    cfg3 = _full_config(3, 3)
    cp = ChernPolynomial(3, 2, FREE, {(1, 1, 0): 1})
    out = normal_form(FaceClassVector(cfg3, {frozenset({1}): cp}))
    assert out.entry([1]) is None
    assert out.entry([1, 2]) == ChernPolynomial(3, 1, FREE, {(1, 0, 0): 1})
    # on a surface the target bound is 0, so the surviving c1 dies instead
    cfg2 = _full_config(2, 2)
    cp2 = ChernPolynomial(2, 1, FREE, {(0, 1): 1}) * ChernPolynomial.symbol(1, 2, 1, FREE)
    assert cp2.is_zero()  # cannot even be written at the source bound
    deep = FaceClassVector(cfg2, {frozenset({1}): ChernPolynomial(2, 1, FREE, {(0, 1): 1})})
    moved = normal_form(deep)
    assert moved.entry([1, 2]) == ChernPolynomial.one(2, 0, FREE)


def test_class_dimension_markers():
    cfg = _full_config(2, 2)
    assert class_dimension(FaceClassVector(cfg, {})) == ANY_DEGREE
    mixed = ChernPolynomial(2, 1, FREE, {(0, 0): 1, (1, 0): 1})
    vec = FaceClassVector(cfg, {frozenset({1}): mixed})
    assert class_dimension(vec) == "inhomogeneous"


# -- restriction ------------------------------------------------------------

def test_restrict_drops_non_meeting_components():
    cfg = _config(3, 3, [[1], [2], [3], [1, 2], [2, 3]])
    sub, ms = restrict_to_component(cfg, 1, (5, 7, 9))
    assert [c.name for c in sub.components] == ["D2"]
    assert ms == (7,)
    assert sub.ambient_dim == 2
    assert validate_config(sub) == []
    assert restrict_to_component(cfg, 1, (0, 0, 0)) == (sub, (0,))  # no divisor is needed


def test_restrict_reindexes_faces():
    cfg = _full_config(3, 3)
    sub, ms = restrict_to_component(cfg, 2, (1, 2, 3))
    assert [c.name for c in sub.components] == ["D1", "D3"]
    assert ms == (1, 3)
    assert sub.faces == frozenset({frozenset({1}), frozenset({2}), frozenset({1, 2})})


def test_restricted_indices_helper():
    cfg = _config(3, 3, [[1], [2], [3], [1, 3]])
    assert restricted_component_indices(cfg, 1) == [3]
    assert restricted_component_indices(cfg, 2) == []


def test_restricted_indices_refuse_an_invalid_configuration():
    # the face {1, 3} names a third component of two; read unchecked, it
    # would make 3 a component that meets D_1
    cfg = _config(2, 2, [[1], [2], [3], [1, 3]])
    assert {"rule": "index-out-of-range", "face": [1, 3]} in validate_config(cfg)
    with pytest.raises(ConfigurationError):
        restricted_component_indices(cfg, 1)


def test_restriction_always_valid():
    rng = random.Random(131)
    for _ in range(30):
        cfg = _random_config(rng)
        i = rng.randrange(1, cfg.r + 1)
        sub, _ = restrict_to_component(cfg, i, tuple(range(cfg.r)))
        assert validate_config(sub) == []


def test_lift_round_trips_faces():
    cfg = _full_config(3, 3)
    law = FormalGroupLaw(FREE, order=3)
    sub, sub_ms = restrict_to_component(cfg, 3, (1, 1, 0))
    vec = divisor_class(sub, sub_ms, law)
    lifted = lift_restricted_class(vec, cfg, 3)
    assert set(lifted.faces()) == {frozenset({1, 3}), frozenset({2, 3}), frozenset({1, 2, 3})}


@pytest.mark.parametrize("ambient", [4, 300])
def test_lift_refuses_a_vector_of_another_ambient_dimension(ambient):
    # its entries are cut at their own face dimensions, which would then
    # differ from the faces' upstairs; at 300 they would pass the 8-bit
    # degree field
    vec = divisor_class(_full_config(2, 2), (1, 1), FormalGroupLaw(FREE, order=2))
    with pytest.raises(ValidationError, match="does not live on the restriction"):
        lift_restricted_class(vec, _full_config(ambient, 3), 3)
