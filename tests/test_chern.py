"""Nilpotent chern symbols and the series bridges."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import fglcalc
from fglcalc import (
    ADDITIVE,
    FREE,
    MULTIPLICATIVE,
    BackendMismatchError,
    ChernPolynomial,
    ConstantTermError,
    FormalGroupLaw,
    GradedPolynomial,
    OrderError,
    TruncatedSeries,
    ValidationError,
    a_gen,
    evaluate_at_chern,
    log_backend,
)

import oracles
from test_series import _ORDER_DRAWS, _image_lows, _series, _sparse_sizes

_BACKENDS = (FREE, ADDITIVE, MULTIPLICATIVE, log_backend(4))


def _sym(i, nvars=2, bound=3, backend=FREE):
    return ChernPolynomial.symbol(i, nvars, bound, backend)


def _substitute(series, values):
    # the series at chern values: cut to their bound, then compose
    cut = series.truncate(values[0].dim_bound)
    return cut.substitute(dict(zip(series.variables, values)))


def _random_chern(rng, nvars, bound, backend=FREE):
    terms = {}
    for _ in range(rng.randrange(1, 6)):
        exps = tuple(rng.randrange(bound + 1) for _ in range(nvars))
        if sum(exps) > bound:
            continue
        coeff = Fraction(rng.randrange(-3, 4))
        poly = GradedPolynomial.constant(coeff, backend)
        prev = terms.get(exps)
        terms[exps] = poly if prev is None else prev + poly
    return ChernPolynomial(nvars, bound, backend, terms)


# -- truncation semantics ---------------------------------------------------

def test_symbols_are_nilpotent_at_the_bound():
    c1 = _sym(1, bound=2)
    assert not (c1 * c1).is_zero()
    assert (c1 * c1 * c1).is_zero()


def test_symbol_at_bound_zero_is_zero():
    assert _sym(1, bound=0).is_zero()


def test_constructor_drops_over_bound_terms():
    cp = ChernPolynomial(2, 1, FREE, {(1, 1): 1, (1, 0): 2})
    assert cp.coefficient((1, 0)) == 2
    assert cp.coefficient((1, 1)).is_zero()


def test_constructor_validation():
    with pytest.raises(ValidationError):
        ChernPolynomial(2, 2, FREE, {(1,): 1})
    with pytest.raises(ValidationError):
        ChernPolynomial(2, -1, FREE)
    with pytest.raises(BackendMismatchError):
        ChernPolynomial(1, 2, FREE, {(1,): GradedPolynomial.one(ADDITIVE)})


def test_counts_bounds_and_symbol_indices_are_exact_integers():
    for bad in (True, 1.5):
        with pytest.raises(ValidationError):
            ChernPolynomial(bad, 2, FREE)
        with pytest.raises(ValidationError):
            ChernPolynomial(2, bad, FREE)
        with pytest.raises(ValidationError):
            ChernPolynomial.symbol(bad, 2, 2, FREE)


@pytest.mark.parametrize("build", [
    lambda: ChernPolynomial(2, "x", FREE),
    lambda: ChernPolynomial.constant(1, 2, "x", FREE),
    lambda: ChernPolynomial.symbol(1, 2, "x", FREE),
], ids=["constructor", "constant", "symbol"])
def test_a_non_integer_bound_raises_a_validation_error(build):
    with pytest.raises(ValidationError):
        build()


_ONE_JSON = [{"coeff": "1", "monomial": {}}]


@pytest.mark.parametrize("build", [
    lambda n: ChernPolynomial(n, 2, FREE),
    lambda n: ChernPolynomial.zero(n, 2, FREE),
    lambda n: ChernPolynomial.constant(1, n, 2, FREE),
    lambda n: ChernPolynomial.one(n, 2, FREE),
    lambda n: ChernPolynomial.symbol(1, n, 2, FREE),
    lambda n: ChernPolynomial.from_json({"dim_bound": 2, "terms": []}, FREE, nvars=n),
    lambda n: ChernPolynomial.from_json(
        {"dim_bound": 2, "terms": [{"c_exponents": [0] * n, "coeff": _ONE_JSON}]}, FREE),
], ids=["constructor", "zero", "constant", "one", "symbol", "from_json", "inferred"])
def test_more_than_255_symbols_are_refused(build):
    # checked before the count sizes a name tuple or an exponent vector
    assert build(255).nvars == 255
    with pytest.raises(ValidationError, match="^256 symbols exceed the limit 255$"):
        build(256)


@pytest.mark.parametrize("nvars", ["x", 1.5])
def test_constant_checks_the_symbol_count_first(nvars):
    # the count is checked before it sizes the constant's exponent vector
    for build in (ChernPolynomial.constant, lambda *args: ChernPolynomial.one(*args[1:])):
        with pytest.raises(ValidationError, match="symbol count must be an integer"):
            build(1, nvars, 2, FREE)


def test_arithmetic_laws_randomized():
    rng = random.Random(3)
    for _ in range(40):
        a = _random_chern(rng, 2, 3)
        b = _random_chern(rng, 2, 3)
        c = _random_chern(rng, 2, 3)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero()


def test_mixed_shapes_rejected():
    with pytest.raises(ValidationError):
        _sym(1, nvars=2, bound=3) + _sym(1, nvars=3, bound=3)
    with pytest.raises(ValidationError):
        _sym(1, bound=3) + _sym(1, bound=2)
    with pytest.raises(BackendMismatchError):
        _sym(1, backend=FREE) + _sym(1, backend=ADDITIVE)


# -- evaluation of series ---------------------------------------------------

def test_evaluate_law_at_bound_two_frozen():
    law = FormalGroupLaw(FREE, order=2)
    cp = evaluate_at_chern(law.series, 2)
    a11 = GradedPolynomial.generator(a_gen(1, 1), FREE)
    assert cp.coefficient((1, 0)) == 1
    assert cp.coefficient((0, 1)) == 1
    assert cp.coefficient((1, 1)) == a11
    assert cp.coefficient((2, 0)).is_zero()


def test_evaluate_requires_enough_order():
    law = FormalGroupLaw(FREE, order=2)
    with pytest.raises(OrderError):
        evaluate_at_chern(law.series, 3)
    evaluate_at_chern(law.series, 2)


@pytest.mark.parametrize("series", [None, GradedPolynomial.one(FREE), {"u": 1}],
                         ids=["None", "polynomial", "dict"])
def test_evaluate_refuses_what_is_not_a_series(series):
    # a ValidationError, never an AttributeError from the missing truncate
    with pytest.raises(ValidationError, match="evaluate_at_chern takes a TruncatedSeries, got "):
        evaluate_at_chern(series, 2)


def test_evaluate_is_ring_map():
    rng = random.Random(17)
    variables = ("u1", "u2")
    for _ in range(25):
        def rand_series():
            terms = {}
            for _ in range(rng.randrange(1, 6)):
                exps = (rng.randrange(4), rng.randrange(4))
                if sum(exps) <= 3:
                    terms[exps] = rng.randrange(-3, 4)
            return TruncatedSeries(variables, 3, FREE, terms)

        s, t = rand_series(), rand_series()
        for bound in (0, 1, 2, 3):
            assert evaluate_at_chern(s + t, bound) == evaluate_at_chern(s, bound) + evaluate_at_chern(t, bound)
            assert evaluate_at_chern(s * t, bound) == evaluate_at_chern(s, bound) * evaluate_at_chern(t, bound)


def test_chern_substitute_matches_direct_evaluation():
    # substituting the plain symbols must agree with re-reading variables
    for backend in (FREE, ADDITIVE, MULTIPLICATIVE, log_backend(4)):
        law = FormalGroupLaw(backend, order=4)
        for bound in (0, 1, 2, 3, 4):
            c1 = ChernPolynomial.symbol(1, 2, bound, backend)
            c2 = ChernPolynomial.symbol(2, 2, bound, backend)
            direct = evaluate_at_chern(law.series, bound)
            assert _substitute(law.series, [c1, c2]) == direct


def test_chern_substitute_composite_values():
    # F(c1*c2, c2^2) by hand at bound 3 on the free backend
    law = FormalGroupLaw(FREE, order=3)
    v1 = _sym(1, bound=3) * _sym(2, bound=3)
    v2 = _sym(2, bound=3) * _sym(2, bound=3)
    result = _substitute(law.series, [v1, v2])
    expected = v1 + v2 + (v1 * v2).scale(GradedPolynomial.generator(a_gen(1, 1), FREE))
    assert result == expected


def test_chern_substitute_rejects_constant_term():
    law = FormalGroupLaw(FREE, order=3)
    good = _sym(1, bound=3)
    bad = ChernPolynomial.one(2, 3, FREE)
    with pytest.raises(ConstantTermError):
        _substitute(law.series, [good, bad])


def test_chern_substitute_rejects_backend_mismatch():
    law = FormalGroupLaw(FREE, order=3)
    with pytest.raises(BackendMismatchError):
        _substitute(law.series, [_sym(1, backend=ADDITIVE), _sym(2, backend=ADDITIVE)])


def test_chern_substitute_needs_value_per_variable():
    law = FormalGroupLaw(FREE, order=3)
    with pytest.raises(ValidationError):
        _substitute(law.series, [_sym(1)])


# -- the tensor identity ----------------------------------------------------

def fgl_tensor_identity_check(dim_bound, backend, law=None) -> bool:
    """Check that reading the law's variables as c-symbols is consistent.

    Computes F(c_1, c_2) at the bound two ways: by direct re-indexing of the
    law's series (evaluate_at_chern) and by substituting the symbols c_1 and
    c_2 into the series (substitute).  Both are models of the first
    Chern class of a tensor product, so they must agree for every bound.
    """
    if law is None:
        law = FormalGroupLaw(backend, order=max(dim_bound, 1))
    elif law.backend != backend:
        raise BackendMismatchError("law backend differs from requested backend")
    series = law.series
    direct = evaluate_at_chern(series, dim_bound)
    c1 = ChernPolynomial.symbol(1, 2, dim_bound, backend)
    c2 = ChernPolynomial.symbol(2, 2, dim_bound, backend)
    substituted = _substitute(series, [c1, c2])
    return direct == substituted


def test_tensor_identity_all_backends_and_bounds():
    for backend in (FREE, ADDITIVE, MULTIPLICATIVE):
        for bound in range(0, 5):
            assert fgl_tensor_identity_check(bound, backend)
    lb = log_backend(5)
    for bound in range(0, 6):
        assert fgl_tensor_identity_check(bound, lb, law=FormalGroupLaw(lb, max(bound, 1)))


def test_tensor_identity_rejects_wrong_law():
    with pytest.raises(BackendMismatchError):
        fgl_tensor_identity_check(2, FREE, law=FormalGroupLaw(ADDITIVE, 2))


# -- serialization ----------------------------------------------------------

def test_json_round_trip_randomized():
    rng = random.Random(29)
    for _ in range(30):
        cp = _random_chern(rng, 3, 3)
        assert ChernPolynomial.from_json(cp.to_json(), FREE, nvars=3) == cp


def test_json_shape_frozen():
    law = FormalGroupLaw(FREE, order=2)
    data = evaluate_at_chern(law.series, 2).to_json()
    assert data["dim_bound"] == 2
    assert data["terms"][0] == {
        "c_exponents": [1, 0],
        "coeff": [{"coeff": "1", "monomial": {}}],
    }


def test_json_infers_and_checks_nvars():
    cp = _sym(1, nvars=2, bound=2)
    parsed = ChernPolynomial.from_json(cp.to_json(), FREE)
    assert parsed == cp
    with pytest.raises(ValidationError):
        ChernPolynomial.from_json({"dim_bound": 2, "terms": []}, FREE)
    assert ChernPolynomial.from_json({"dim_bound": 2, "terms": []}, FREE, nvars=2).is_zero()


def test_json_rejects_garbage():
    with pytest.raises(ValidationError):
        ChernPolynomial.from_json({"terms": []}, FREE, nvars=1)
    with pytest.raises(ValidationError):
        ChernPolynomial.from_json(
            {"dim_bound": 1, "terms": [{"c_exponents": [-1], "coeff": []}]}, FREE
        )


def test_json_rejects_bool_c_exponents():
    with pytest.raises(ValidationError):
        ChernPolynomial.from_json(
            {"dim_bound": 1, "terms": [{"c_exponents": [True, 0], "coeff": []}]}, FREE
        )


def test_json_rejects_bool_dim_bound():
    with pytest.raises(ValidationError):
        ChernPolynomial.from_json({"dim_bound": True, "terms": []}, FREE, nvars=1)


# -- chern polynomials are series -------------------------------------------

def test_tracer_names_and_the_series_view():
    # perfbench's tracer wraps these names; each must be ChernPolynomial's own
    # entry, or the chern spans silently measure nothing
    for name in ("__mul__", "__add__", "to_json", "from_json"):
        assert name in vars(ChernPolynomial)
    assert fglcalc.chern.evaluate_at_chern is fglcalc.snc.evaluate_at_chern
    cp = ChernPolynomial(3, 2, FREE, {(1, 0, 1): 1})
    assert (cp.nvars, cp.dim_bound) == (3, 2)
    assert isinstance(cp, TruncatedSeries)
    assert cp.variables == ("c1", "c2", "c3")
    assert type(cp * cp) is type(cp + cp) is type(-cp) is type(cp.truncate(1)) is ChernPolynomial
    assert str(cp) == "c1*c3" and repr(cp) == "ChernPolynomial(c1*c3)"


def test_no_symbols_rejected():
    with pytest.raises(ValidationError):
        ChernPolynomial(0, 2, FREE)
    with pytest.raises(ValidationError):
        ChernPolynomial.from_json({"dim_bound": 2, "terms": []}, FREE, nvars=0)


def test_series_variable_constructor_points_to_symbol():
    with pytest.raises(ValidationError, match=r"ChernPolynomial\.symbol"):
        ChernPolynomial.variable("c1", ("c1", "c2"), 2, FREE)


@st.composite
def _chern(draw, nvars, bound, backend, low=0):
    # test_series' sparse random series, in the symbols c1..c<nvars>
    symbols = tuple(f"c{i}" for i in range(1, nvars + 1))
    most = _sparse_sizes(bound)[0] // 2
    series = draw(_series(symbols, bound, backend, low=low, max_terms=most))
    return ChernPolynomial(nvars, bound, backend, dict(series.items()))


@st.composite
def _chern_cases(draw):
    """Two chern polynomials, and a series with one chern value per variable.

    The bound is small, or on either side of a step of the packed field width.
    """
    backend = draw(st.sampled_from(_BACKENDS))
    nvars = draw(st.integers(1, 4))
    bound = draw(_ORDER_DRAWS)
    left = draw(_chern(nvars, bound, backend))
    right = draw(_chern(nvars, bound, backend))
    source = ("u", "v", "w")[: draw(st.integers(1, 3))]
    series = draw(_series(source, bound + draw(st.integers(0, 2)), backend,
                          max_terms=_sparse_sizes(bound)[0]))
    lowest = _sparse_sizes(bound)[1]
    values = [draw(_chern(nvars, bound, backend, low=draw(_image_lows(bound, lowest))))
              for _ in source]
    return left, right, series, values


@given(_chern_cases())
def test_product_matches_pair_loop_oracle(case):
    left, right, _, _ = case
    fast = left * right
    for oracle in (oracles.chern_mul_by_pairs, oracles.series_mul_two_level):
        slow = oracle(left, right)
        assert type(slow) is ChernPolynomial
        assert fast == slow
        assert fast.to_json() == slow.to_json()


@given(_chern_cases())
def test_substitute_matches_term_by_term_oracle(case):
    _, _, series, values = case
    fast = _substitute(series, values)
    assert type(fast) is ChernPolynomial
    cut = series.truncate(values[0].dim_bound)
    for slow in (oracles.chern_substitute_by_terms(series, values),
                 oracles.substitute_two_level(cut, dict(zip(series.variables, values)))):
        assert fast == slow
        assert fast.to_json() == slow.to_json()
