"""Coefficient ring: generators, graded polynomials, law coefficients."""

import itertools
import os
import random
import subprocess
import sys
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
from fglcalc.ring import MAX_EXPONENT, _nonzero
from fglcalc.series import _layout
from fglcalc.stats import meter

import oracles


# -- generators -------------------------------------------------------------

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
_LAW_KEYS = """
import sys
from fglcalc import FREE, FormalGroupLaw, log_backend
laws = {"free": FormalGroupLaw(FREE, 6), "log": FormalGroupLaw(log_backend(5), 6)}
for name in sys.argv[1:]:  # the order in which the laws are first built
    laws[name].series
print({name: sorted(law.series._terms) for name, law in laws.items()})
"""


def test_a_law_packs_the_same_keys_whichever_backend_a_process_builds_first():
    # each backend kind numbers its own generators' fields, so the FREE and
    # log keys do not depend on which law came first
    env = dict(os.environ, PYTHONPATH=_SRC)
    runs = [subprocess.run([sys.executable, "-c", _LAW_KEYS, *first], capture_output=True,
                           text=True, env=env, timeout=120, check=True).stdout
            for first in (("free", "log"), ("log", "free"))]
    assert runs[0] == runs[1] and runs[0].startswith("{'free': [")


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
    # a name is read whole and in ASCII digits, as Generator writes it
    for name in ("q(1)", "b\n", "A(1,1)\n", "A(\u0661,\u0662)", "m(\u0663)"):
        with pytest.raises(ValidationError, match="unrecognized generator name"):
            generator_from_name(name)
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
    assert repr(a11 - 2) == "GradedPolynomial(-2 + A(1,1))"


@pytest.mark.parametrize("exponent", [-1, Fraction(1, 2), 1.0, True], ids=repr)
def test_the_constructor_refuses_an_exponent_that_is_negative_or_not_an_integer(exponent):
    with pytest.raises(ValidationError, match="bad exponent"):
        GradedPolynomial(FREE, {((a_gen(1, 1), exponent),): 1})


def test_the_constructor_reads_a_zero_exponent_as_no_factor():
    assert GradedPolynomial(FREE, {((a_gen(1, 1), 0),): 3}) == 3


def test_text_form_tells_polynomials_apart_randomized():
    rng = random.Random(23)
    gens = [a_gen(1, 1), a_gen(1, 2), m_gen(1)]
    # mixed generator families are unusual but the format must survive them
    polys = [_random_poly(rng, FREE, gens) for _ in range(80)]
    # each also built from its terms in reverse order: the text must not depend on it
    polys += [GradedPolynomial(FREE, dict(reversed(p.sorted_terms()))) for p in polys]
    texts = [p.to_text() for p in polys]
    for (p, s), (q, t) in itertools.combinations(zip(polys, texts), 2):
        assert (s == t) == (p == q)


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


_RATIONAL_TEXTS = st.one_of(
    st.sampled_from(["007", "-0", "0/7", "1/0", "-0/0", "-12/08", "000/001"]),
    st.from_regex(r"-?[0-9]{1,30}(/[0-9]{1,30})?", fullmatch=True),
)


def _read_coefficient(read, text):
    try:
        return fglcalc.ring._coerce_scalar(read(text))
    except ValidationError as exc:
        return str(exc)


@given(_RATIONAL_TEXTS)
def test_json_coefficient_text_matches_the_fraction_oracle(text):
    # the same value, or the same error text for a zero denominator
    assert _read_coefficient(fglcalc.ring._json_coefficient, text) == _read_coefficient(
        oracles.json_coefficient_by_fraction, text)


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


@pytest.mark.parametrize("call, text", [
    (lambda: GradedPolynomial(FREE, [1, 2]), "polynomial terms must be a dict"),
    (lambda: GradedPolynomial(FREE, {"x": 1}), r"a monomial is a tuple of \(Generator, exponent\) pairs, got 'x'"),
    (lambda: GradedPolynomial(FREE, {5: 1}), "pairs, got 5"),
    (lambda: GradedPolynomial(FREE, {(("x", 1),): 1}), r"pairs, got \(\('x', 1\),\)"),
    (lambda: GradedPolynomial(FREE, {((a_gen(1, 1),),): 1}), r"pairs, got \(\(A\(1,1\),\),\)"),
    (lambda: GradedPolynomial.generator("x", FREE), "not a generator: 'x'"),
    (lambda: GradedPolynomial.generator(None, FREE), "not a generator: None"),
    (lambda: GradedPolynomial.generator(a_gen(1, 1), "free"), "must be a CoefficientBackend"),
    (lambda: m_gen([1]), r"m\(i\) requires an integer index, got \[1\]"),
    (lambda: generator_from_name(None), "unrecognized generator name None"),
    (lambda: generator_from_name(b"b"), "unrecognized generator name b'b'"),
    # the constructor refuses what a_gen, m_gen and b_gen refuse, with their texts
    (lambda: Generator("A", 1.5, 1), r"A\(i,j\) requires integer indices, got 1.5, 1"),
    (lambda: Generator("A", 1), r"A\(i,j\) requires integer indices, got 1$"),
    (lambda: Generator("A", 2, 0), r"A\(i,j\) requires i, j >= 1"),
    (lambda: Generator("m", 0), r"m\(i\) requires i >= 1"),
    (lambda: Generator("m", True), r"m\(i\) requires an integer index, got True"),
    (lambda: Generator("m", 3, 5), r"m\(i\) requires an integer index, got 3, 5"),
    (lambda: Generator("b", 5), "b takes no index, got 5"),
    (lambda: Generator("c", 1), "unknown generator kind 'c'"),
], ids=["terms list", "monomial str", "monomial int", "pair name", "pair length",
        "generator str", "generator None", "generator backend", "m_gen list",
        "name None", "name bytes", "Generator A float", "Generator A one index",
        "Generator A zero", "Generator m zero", "Generator m bool", "Generator m two indices",
        "Generator b index", "Generator kind"])
def test_ring_entry_points_refuse_other_arguments(call, text):
    with pytest.raises(ValidationError, match=text):
        call()


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
    # A's indices are put in order, as a_gen puts them: A(2,1) is A(1,2)
    assert Generator("A", i + d, i) == direct_a and Generator("A", 2, 1) == a_gen(1, 2)
    assert Generator("A", i + d, i).name == direct_a.name
    for backend in (FREE, log_backend(3)):
        for direct, interned in ((direct_a, a_gen(i, i + d)), (direct_m, m_gen(k))):
            key = GradedPolynomial.generator(direct, backend)._terms
            assert key == GradedPolynomial.generator(interned, backend)._terms
    assert Generator("b") == b_gen() and b_gen() is b_gen()
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
    assert _products(lambda: fglcalc.ring._log_coefficient_table.__wrapped__(15)) == 189_777
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


@st.composite
def _row_operands(draw):
    """(terms, mask, shift, order): a series term dict in the layout of r = 1..4
    variables with its degrees repeated and interleaved, or r = 0, a bare
    polynomial's dict under mask 0."""
    r = draw(st.integers(0, 4))
    order = draw(st.integers(0, 6)) if r else 0
    layout = _layout(max(r, 1))
    mask, shift = (layout.mask, layout.shift) if r else (0, 0)
    terms = {}
    for degree in draw(st.lists(st.integers(0, order), max_size=24)):
        exps = [0] * max(r, 1)
        for i in draw(st.lists(st.integers(0, max(r, 1) - 1), min_size=degree, max_size=degree)):
            exps[i] += 1
        part = layout.encode(exps) if r else 0
        terms[part + (draw(st.integers(0, 60)) << shift)] = draw(st.integers(-3, 3).filter(bool))
    return terms, mask, shift, order


@given(_row_operands())
def test_bucketed_rows_match_the_sort_and_bisection(operand):
    terms, mask, shift, order = operand
    rows = fglcalc.ring._sorted_rows(terms, mask, shift, order)
    assert rows == oracles.sorted_rows_by_sort(terms, mask, shift, order)


def test_a_polynomial_compares_unequal_to_what_is_not_a_ring_value():
    # a bool, a float, a string or None is not read as a scalar: no error, just unequal
    one = GradedPolynomial.one(FREE)
    for other in (True, False, 1.0, "1", None):
        assert (one == other) is False and (one != other) is True
    assert one == 1 and one == Fraction(1) and GradedPolynomial.zero(FREE) == 0


def test_a_polynomial_declines_to_add_what_is_not_a_ring_value():
    # the operator protocol: the polynomial returns NotImplemented, so Python raises
    # TypeError, not the ValidationError of a coefficient that is not exact
    one = GradedPolynomial.one(FREE)
    for other in (True, 1.5, "1", None):
        for add in (lambda: one + other, lambda: other + one, lambda: one - other, lambda: other - one):
            with pytest.raises(TypeError):
                add()
    assert one + 1 == 2 and 1 - one == 0 and one + Fraction(1, 2) == Fraction(3, 2)


def test_a_log_coefficient_past_the_order_names_its_degree():
    with pytest.raises(OrderError, match=r"^a\(2,3\) has degree 4, beyond log backend order 3$"):
        lazard_coefficient(2, 3, log_backend(3))


@pytest.mark.parametrize("zero", [0, Fraction(0)], ids=["int", "Fraction"])
def test_zero_sums_are_deleted_in_place_and_other_dicts_are_left_alone(zero):
    # the kernel's accumulators hold ints or Fractions; a zero sum of either kind
    # is deleted, in place, and a dict without one comes back as it went in
    acc = {3: 2, 5: zero, 7: Fraction(-3, 4), 9: zero}
    assert _nonzero(acc) is acc
    assert list(acc.items()) == [(3, 2), (7, Fraction(-3, 4))]
    scans = []

    class Watched(dict):
        def items(self):
            scans.append(self)
            return super().items()

    clean = Watched({3: 2, 7: Fraction(-3, 4), 11: -5})
    assert _nonzero(clean) is clean
    assert scans == []  # no zero sum, so no list of keys is made
    assert list(clean.items()) == [(3, 2), (7, Fraction(-3, 4)), (11, -5)]
