"""Coefficient ring: generators, graded polynomials, law coefficients."""

import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fglcalc import (
    ADDITIVE,
    ANY_DEGREE,
    FREE,
    INHOMOGENEOUS,
    MULTIPLICATIVE,
    BackendMismatchError,
    CoefficientBackend,
    FormalGroupLaw,
    Generator,
    GradedPolynomial,
    OrderError,
    ValidationError,
    a_gen,
    b_gen,
    generator_from_name,
    lazard_coefficient,
    log_backend,
    m_gen,
)
import fglcalc.ring
from fglcalc.ring import MAX_EXPONENT
from fglcalc.stats import meter

import oracles


# -- generators -------------------------------------------------------------

def test_a_gen_normalizes_index_order():
    assert a_gen(2, 1) is a_gen(1, 2)
    assert a_gen(1, 2).name == "A(1,2)"


def test_generator_degrees():
    assert a_gen(1, 1).degree == 1
    assert a_gen(2, 3).degree == 4
    assert m_gen(4).degree == 4
    assert b_gen().degree == 1


def test_generator_sort_order():
    gens = [m_gen(1), b_gen(), a_gen(1, 3), a_gen(2, 2), a_gen(1, 1), m_gen(2)]
    names = [g.name for g in sorted(gens, key=lambda g: g.sort_key)]
    # A family by (i+j, i), then b, then m by i
    assert names == ["A(1,1)", "A(1,3)", "A(2,2)", "b", "m(1)", "m(2)"]


def test_generator_from_name_round_trip():
    for g in (a_gen(3, 7), m_gen(5), b_gen()):
        assert generator_from_name(g.name) is g
    with pytest.raises(ValidationError):
        generator_from_name("q(1)")
    with pytest.raises(ValidationError):
        a_gen(0, 1)
    with pytest.raises(ValidationError):
        m_gen(0)


# -- polynomial arithmetic --------------------------------------------------

def _random_poly(rng, backend, gens, max_terms=4):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        mono = {}
        for _ in range(rng.randrange(3)):
            g = rng.choice(gens)
            mono[g] = mono.get(g, 0) + rng.randrange(1, 3)
        key = tuple(sorted(mono.items(), key=lambda kv: kv[0].sort_key))
        terms[key] = terms.get(key, 0) + Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
    return GradedPolynomial(backend, terms)


def test_ring_axioms_randomized():
    rng = random.Random(11)
    gens = [a_gen(1, 1), a_gen(1, 2), a_gen(2, 2), m_gen(1)]
    for _ in range(60):
        p = _random_poly(rng, FREE, gens)
        q = _random_poly(rng, FREE, gens)
        r = _random_poly(rng, FREE, gens)
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p - p == GradedPolynomial.zero(FREE)
        assert p * GradedPolynomial.one(FREE) == p


def test_scalar_operations():
    p = GradedPolynomial.generator(a_gen(1, 1), FREE)
    assert 2 * p == p + p
    assert p * Fraction(1, 2) + p * Fraction(1, 2) == p
    assert p + 1 == 1 + p
    assert (p + 1) - 1 == p
    assert 0 * p == GradedPolynomial.zero(FREE)


def test_floats_rejected():
    with pytest.raises(ValidationError):
        GradedPolynomial.constant(0.5, FREE)
    p = GradedPolynomial.one(FREE)
    assert p.__mul__(0.5) is NotImplemented


def test_backend_mixing_rejected():
    p = GradedPolynomial.one(FREE)
    q = GradedPolynomial.one(ADDITIVE)
    with pytest.raises(BackendMismatchError):
        p + q
    with pytest.raises(BackendMismatchError):
        p * q


def test_graded_degree_markers():
    zero = GradedPolynomial.zero(FREE)
    assert zero.graded_degree() == ANY_DEGREE == "any"
    a11 = GradedPolynomial.generator(a_gen(1, 1), FREE)
    a12 = GradedPolynomial.generator(a_gen(1, 2), FREE)
    assert a11.graded_degree() == 1
    assert (a11 * a11).graded_degree() == 2
    assert (a11 * a11 + a12).graded_degree() == 2
    assert (a11 + a12).graded_degree() == INHOMOGENEOUS == "inhomogeneous"
    assert GradedPolynomial.one(FREE).graded_degree() == 0


def test_cancellation_drops_terms():
    a11 = GradedPolynomial.generator(a_gen(1, 1), FREE)
    assert (a11 - a11).is_zero()
    assert (a11 - a11) == 0
    assert a11.term_count() == 1


# -- serialization ----------------------------------------------------------

def test_text_form_frozen_examples():
    lb = log_backend(3)
    m1 = GradedPolynomial.generator(m_gen(1), lb)
    m2 = GradedPolynomial.generator(m_gen(2), lb)
    assert (4 * m1 * m1 - 3 * m2).to_text() == "4*m(1)^2 - 3*m(2)"
    assert (-2 * m1).to_text() == "-2*m(1)"
    assert GradedPolynomial.zero(lb).to_text() == "0"
    assert GradedPolynomial.constant(Fraction(-2, 3), lb).to_text() == "-2/3"
    a11 = GradedPolynomial.generator(a_gen(1, 1), FREE)
    assert (a11 + 1).to_text() == "1 + A(1,1)"
    assert (-a11).to_text() == "-A(1,1)"


def test_text_round_trip_randomized():
    rng = random.Random(23)
    gens = [a_gen(1, 1), a_gen(1, 2), m_gen(1)]
    # mixed generator families are unusual but the format must survive them
    for _ in range(80):
        p = _random_poly(rng, FREE, gens)
        assert GradedPolynomial.from_text(p.to_text(), FREE) == p


def test_text_parser_accepts_explicit_units():
    p = GradedPolynomial.from_text("1*A(1,1) + 2*A(1,2)^2", FREE)
    a11 = GradedPolynomial.generator(a_gen(1, 1), FREE)
    a12 = GradedPolynomial.generator(a_gen(1, 2), FREE)
    assert p == a11 + 2 * a12 * a12
    with pytest.raises(ValidationError):
        GradedPolynomial.from_text("A(1,1)**2", FREE)
    with pytest.raises(ValidationError):
        GradedPolynomial.from_text("3 +", FREE)


def test_json_round_trip_and_canonical_order():
    rng = random.Random(37)
    gens = [a_gen(1, 1), a_gen(1, 2), a_gen(2, 2), m_gen(1), m_gen(2)]
    for _ in range(60):
        p = _random_poly(rng, FREE, gens)
        data = p.to_json()
        assert GradedPolynomial.from_json(data, FREE) == p
        degrees = [
            sum(generator_from_name(n).degree * e for n, e in entry["monomial"].items())
            for entry in data
        ]
        assert degrees == sorted(degrees)


def test_json_rejects_garbage():
    with pytest.raises(ValidationError):
        GradedPolynomial.from_json({"coeff": "1"}, FREE)
    with pytest.raises(ValidationError):
        GradedPolynomial.from_json([{"coeff": "x", "monomial": {}}], FREE)
    with pytest.raises(ValidationError):
        GradedPolynomial.from_json([{"coeff": "1", "monomial": {"A(1,1)": 0}}], FREE)


@pytest.mark.parametrize(
    "coeff", [0.1, "1e400", "0.5", True, " 1", "+1", "1/0", None],
    ids=["float", "exponent-string", "decimal-string", "bool", "padded", "plus", "zero-denominator", "null"],
)
def test_json_rejects_inexact_coefficient(coeff):
    with pytest.raises(ValidationError):
        GradedPolynomial.from_json([{"coeff": coeff, "monomial": {}}], FREE)


def test_json_accepts_integers_and_rational_strings():
    data = [
        {"coeff": 3, "monomial": {}},
        {"coeff": "-3/4", "monomial": {"A(1,1)": 1}},
        {"coeff": "4/2", "monomial": {"A(1,2)": 1}},
    ]
    assert GradedPolynomial.from_json(data, FREE) == (
        3
        - Fraction(3, 4) * GradedPolynomial.generator(a_gen(1, 1), FREE)
        + 2 * GradedPolynomial.generator(a_gen(1, 2), FREE)
    )


def test_json_rejects_bool_monomial_exponent():
    with pytest.raises(ValidationError):
        GradedPolynomial.from_json([{"coeff": "1", "monomial": {"A(1,1)": True}}], FREE)


# -- law coefficients -------------------------------------------------------

def test_symmetry_on_all_backends():
    backends = [FREE, ADDITIVE, MULTIPLICATIVE, log_backend(6)]
    for backend in backends:
        for i in range(1, 4):
            for j in range(1, 4):
                assert lazard_coefficient(i, j, backend) == lazard_coefficient(j, i, backend)


def test_free_backend_coefficients():
    assert lazard_coefficient(1, 2, FREE) == GradedPolynomial.generator(a_gen(1, 2), FREE)
    assert lazard_coefficient(2, 1, FREE) == GradedPolynomial.generator(a_gen(1, 2), FREE)


def test_additive_and_multiplicative_coefficients():
    for i in range(1, 4):
        for j in range(1, 4):
            assert lazard_coefficient(i, j, ADDITIVE).is_zero()
            expected_zero = not (i == j == 1)
            assert lazard_coefficient(i, j, MULTIPLICATIVE).is_zero() == expected_zero
    assert lazard_coefficient(1, 1, MULTIPLICATIVE) == GradedPolynomial.generator(
        b_gen(), MULTIPLICATIVE
    )


def test_log_values_match_independent_oracle():
    # the oracle solves l(F) = l(u) + l(v) degree by degree; the package
    # reverts the logarithm.  Agreement across i + j <= 10 pins the table.
    lb = log_backend(9)
    expected = oracles.log_law_coefficients(10)
    for (i, j), dense in sorted(expected.items()):
        assert oracles.graded_to_dense(lazard_coefficient(i, j, lb)) == dense
    assert lazard_coefficient(1, 1, lb).to_text() == "-2*m(1)"
    assert lazard_coefficient(1, 2, lb).to_text() == "4*m(1)^2 - 3*m(2)"


@pytest.mark.parametrize("order", range(1, 16))
def test_log_table_matches_the_coefficient_list_oracle(order):
    # every log order the CLI reaches (--order 2..16); the oracle is the
    # table built from coefficient lists and a bivariate power loop
    lb = log_backend(order)
    expected = oracles.log_coefficient_table_by_lists(order)
    assert len(expected) == order * (order + 1) // 2
    for (i, j), poly in expected.items():
        assert lazard_coefficient(i, j, lb).to_json() == poly.to_json()


def test_log_coefficients_are_homogeneous():
    lb = log_backend(7)
    for i in range(1, 5):
        for j in range(i, 5):
            p = lazard_coefficient(i, j, lb)
            if not p.is_zero():
                assert p.graded_degree() == i + j - 1


def test_log_backend_depth_is_enforced():
    lb = log_backend(3)
    lazard_coefficient(2, 2, lb)  # degree 3: fine
    with pytest.raises(OrderError):
        lazard_coefficient(2, 3, lb)  # degree 4: out of range


def test_bad_indices_rejected():
    with pytest.raises(ValidationError):
        lazard_coefficient(0, 1, FREE)
    with pytest.raises(ValidationError):
        lazard_coefficient(1, -1, FREE)


@pytest.mark.parametrize("bad", [1.5, True, "1", None])
def test_indices_must_be_exact_integers(bad):
    with pytest.raises(ValidationError):
        lazard_coefficient(bad, 1, FREE)
    with pytest.raises(ValidationError):
        lazard_coefficient(1, bad, log_backend(3))
    with pytest.raises(ValidationError):
        a_gen(1, bad)
    with pytest.raises(ValidationError):
        m_gen(bad)
    with pytest.raises(ValidationError):
        log_backend(bad)


def test_bool_index_does_not_hit_the_cached_integer_generator():
    m_gen(1)
    with pytest.raises(ValidationError):
        m_gen(True)
    with pytest.raises(ValidationError):
        m_gen(2.0)
    assert m_gen(1).name == "m(1)"


def test_backend_constructor_validation():
    with pytest.raises(ValidationError):
        CoefficientBackend("weird")
    with pytest.raises(ValidationError):
        CoefficientBackend("free", 3)
    with pytest.raises(OrderError):
        log_backend(0)


# -- packed monomials against the tuple-merge oracle ------------------------

_generators = st.one_of(
    st.tuples(st.integers(1, 4), st.integers(0, 3)).map(lambda ij: a_gen(ij[0], ij[0] + ij[1])),
    st.just(b_gen()),
    st.integers(1, 6).map(m_gen),
)
_coefficients = st.fractions(max_denominator=5).filter(lambda c: abs(c) <= 20)
_tuple_monomials = st.dictionaries(_generators, st.integers(1, 4), max_size=3).map(
    lambda exps: tuple(sorted(exps.items(), key=lambda ge: ge[0].sort_key))
)
_tuple_polynomials = st.dictionaries(_tuple_monomials, _coefficients, max_size=6)


def _poly(terms):
    return GradedPolynomial(FREE, terms)


def _tuple_terms(terms):
    return {m: c for m, c in terms.items() if c}


@settings(deadline=None)
@given(_tuple_polynomials, _tuple_polynomials)
def test_packed_product_and_sum_match_tuple_oracle(p, q):
    p_terms, q_terms = _tuple_terms(p), _tuple_terms(q)
    assert oracles.tuple_terms(_poly(p) * _poly(q)) == oracles.tuple_poly_mul(p_terms, q_terms)
    assert oracles.tuple_terms(_poly(p) + _poly(q)) == oracles.tuple_poly_add(p_terms, q_terms)


_fresh_indices = itertools.count(1000)


@settings(deadline=None)
@given(_tuple_polynomials, _tuple_polynomials, st.integers(1, 4))
def test_generator_interned_after_polynomials_exist(p, q, e):
    before, other = _poly(p), _poly(q)
    fresh = m_gen(next(_fresh_indices))  # takes a field no existing key uses
    late = GradedPolynomial(FREE, {((fresh, e),): 3}) + other
    expected = oracles.tuple_poly_mul(_tuple_terms(p), oracles.tuple_terms(late))
    assert oracles.tuple_terms(before * late) == expected
    assert oracles.tuple_terms(late * late * before) == oracles.tuple_poly_mul(
        oracles.tuple_poly_mul(oracles.tuple_terms(late), oracles.tuple_terms(late)),
        _tuple_terms(p),
    )
    # the overflow guard covers the new field too
    with pytest.raises(ValidationError, match="exceeds the limit"):
        GradedPolynomial(FREE, {((fresh, MAX_EXPONENT),): 1}) * late


@settings(deadline=None)
@given(st.integers(1, 4), st.integers(0, 3), st.integers(1, 6))
def test_directly_built_generator_keys_like_the_interned_one(i, d, k):
    direct_a, direct_m = Generator("A", i, i + d), Generator("m", k)
    assert direct_a == a_gen(i, i + d) and hash(direct_a) == hash(a_gen(i, i + d))
    assert direct_a.index == a_gen(i, i + d).index
    assert Generator("b") == b_gen()
    assert GradedPolynomial.generator(direct_a, FREE) == GradedPolynomial.generator(a_gen(i, i + d), FREE)
    mixed = GradedPolynomial(FREE, {((direct_a, 1), (m_gen(k), 2)): 1})
    assert mixed == GradedPolynomial(FREE, {((a_gen(i, i + d), 1), (direct_m, 2)): 1})
    assert mixed == (
        GradedPolynomial.generator(a_gen(i, i + d), FREE)
        * GradedPolynomial.generator(direct_m, FREE)
        * GradedPolynomial.generator(m_gen(k), FREE)
    )


@settings(deadline=None)
@given(
    st.integers(1, MAX_EXPONENT),
    st.integers(1, MAX_EXPONENT),
    st.sampled_from([a_gen(1, 1), a_gen(2, 3), b_gen(), m_gen(2)]),
)
@example(MAX_EXPONENT, 1, a_gen(1, 1))
@example(MAX_EXPONENT - 1, 1, m_gen(2))
def test_overflow_guard_raises_instead_of_wrapping(e1, e2, g):
    # a neighbouring field on each side, so a wrap would show there
    left = GradedPolynomial(FREE, {((a_gen(1, 2), 1), (g, e1), (m_gen(3), 1)): 1})
    right = GradedPolynomial(FREE, {((g, e2),): 1, ((m_gen(1), 1),): 1})
    if e1 + e2 > MAX_EXPONENT:
        with pytest.raises(ValidationError, match="exceeds the limit"):
            left * right
    else:
        terms = oracles.tuple_terms(left * right)
        assert terms == oracles.tuple_poly_mul(oracles.tuple_terms(left), oracles.tuple_terms(right))
        assert max(dict(m).get(g, 0) for m in terms) == e1 + e2


def test_exponent_over_the_limit_is_rejected_at_every_boundary():
    big = MAX_EXPONENT + 1
    with pytest.raises(ValidationError):
        GradedPolynomial(FREE, {((a_gen(1, 1), big),): 1})
    with pytest.raises(ValidationError):
        GradedPolynomial(FREE, {((a_gen(1, 1), MAX_EXPONENT), (a_gen(1, 1), 1)): 1})
    with pytest.raises(ValidationError):
        GradedPolynomial.from_text(f"A(1,1)^{big}", FREE)
    with pytest.raises(ValidationError):
        GradedPolynomial.from_text(f"A(1,1)^{MAX_EXPONENT}*A(1,1)", FREE)
    with pytest.raises(ValidationError):
        GradedPolynomial.from_json([{"coeff": "1", "monomial": {"A(1,1)": big}}], FREE)
    top = GradedPolynomial.from_json([{"coeff": "1", "monomial": {"A(1,1)": MAX_EXPONENT}}], FREE)
    assert top.to_json() == [{"coeff": "1", "monomial": {"A(1,1)": MAX_EXPONENT}}]


# -- the shared product kernel ------------------------------------------------

_KERNEL_BACKENDS = [FREE, log_backend(6), ADDITIVE, MULTIPLICATIVE]


@settings(deadline=None)
@given(st.sampled_from(_KERNEL_BACKENDS), _tuple_polynomials, _tuple_polynomials)
@example(FREE, {((a_gen(1, 1), MAX_EXPONENT),): 1}, {((a_gen(1, 1), 1), (m_gen(2), 1)): 2})
def test_polynomial_product_matches_the_pair_loop_on_every_backend(backend, p, q):
    p_terms, q_terms = _tuple_terms(p), _tuple_terms(q)
    left, right = GradedPolynomial(backend, p), GradedPolynomial(backend, q)
    over = any(e > MAX_EXPONENT for m1 in p_terms for m2 in q_terms
               for _, e in oracles.tuple_mono_mul(m1, m2))
    before = meter.products
    if over:
        with pytest.raises(ValidationError, match="exceeds the limit"):
            left * right
        return
    product = left * right
    assert product.backend == backend
    assert oracles.tuple_terms(product) == oracles.tuple_poly_mul(p_terms, q_terms)
    assert meter.products - before == len(p_terms) * len(q_terms)


def _products(run) -> int:
    before = meter.products
    run()
    return meter.products - before


def test_the_kernel_makes_the_products_the_pair_loops_made(monkeypatch):
    free, log = FormalGroupLaw(FREE, 8), FormalGroupLaw(log_backend(7), 8)
    free.series, log.series
    # the inverse runs the kernel directly, so ring.mul counts stay as they were
    mul_calls = []
    original = GradedPolynomial.__mul__
    monkeypatch.setattr(GradedPolynomial, "__mul__",
                        lambda self, other: mul_calls.append(1) or original(self, other))
    assert _products(free.inverse) == 311
    assert _products(log.inverse) == 735
    assert mul_calls == []
    monkeypatch.undo()
    assert _products(lambda: fglcalc.ring._log_coefficient_table.__wrapped__(15)) == 190_009
    p = (GradedPolynomial.generator(a_gen(1, 1), FREE)
         + GradedPolynomial.generator(a_gen(1, 2), FREE) + 3)
    assert _products(lambda: (p * p) * p) == 27


def test_the_work_budget_stops_a_deep_log_table_and_caches_nothing():
    table = fglcalc.ring._log_coefficient_table
    cached = table.cache_info().currsize
    start = time.perf_counter()
    with pytest.raises(ValidationError, match="work budget of 1000000 "):
        with meter.budget(1_000_000):
            FormalGroupLaw(log_backend(31), 32).series
    assert time.perf_counter() - start < 5
    assert table.cache_info().currsize == cached
