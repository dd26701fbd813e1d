"""Truncated series and the formal group law operations."""

import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

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
    b_gen,
    evaluate_at_chern,
    lazard_coefficient,
    log_backend,
    support_decompose,
)

from fglcalc.cli import MAX_ORDER
from fglcalc.ring import MAX_EXPONENT, _multiply, _nonzero
from fglcalc import series as series_module
from fglcalc.series import _layout, _power
from fglcalc.stats import meter

import oracles
from oracles import recompose


def _a(i, j):
    return GradedPolynomial.generator(a_gen(i, j), FREE)


def _random_series(rng, variables, order, backend=FREE, zero_constant=False):
    gens = [a_gen(1, 1), a_gen(1, 2)]
    terms = {}
    for _ in range(rng.randrange(1, 7)):
        exps = tuple(rng.randrange(order + 1) for _ in variables)
        if sum(exps) > order:
            continue
        if zero_constant and not any(exps):
            continue
        mono = {}
        if rng.random() < 0.5:
            g = rng.choice(gens)
            mono[g] = rng.randrange(1, 3)
        key = tuple(sorted(mono.items(), key=lambda kv: kv[0].sort_key))
        coeff = Fraction(rng.randrange(-3, 4))
        poly = GradedPolynomial(backend, {key: coeff})
        prev = terms.get(exps)
        terms[exps] = poly if prev is None else prev + poly
    return TruncatedSeries(variables, order, backend, terms)


# -- construction and arithmetic -------------------------------------------

def test_constructor_truncates_silently():
    s = TruncatedSeries(("u",), 2, FREE, {(1,): 1, (3,): 5})
    assert s.coefficient((1,)) == 1
    assert s.coefficient((3,)).is_zero()


@pytest.mark.parametrize("exps", [(True,), (1.0,), (-1,), ("1",), (None,)])
def test_coefficient_refuses_what_the_constructor_refuses(exps):
    u = TruncatedSeries.variable("u", ("u",), 4, FREE)
    with pytest.raises(ValidationError, match=r"^bad exponent vector \("):
        u.coefficient(exps)
    with pytest.raises(ValidationError, match=r"^bad exponent vector \("):
        TruncatedSeries(("u",), 4, FREE, {exps: 1})
    assert u.coefficient((5,)).is_zero() and u.coefficient((1,)) == 1  # past the order: zero


def test_a_truncation_error_renders_the_order_as_given():
    u = TruncatedSeries.variable("u", ("u",), 4, FREE)
    for order, text in (("2", "'2'"), (2.0, "2.0"), (5, "5"), (-1, "-1")):
        with pytest.raises(OrderError, match=f"^cannot truncate order 4 to {text}$"):
            evaluate_at_chern(u, order)


def test_zero_renders_as_zero():
    assert str(TruncatedSeries.zero(("u",), 2, FREE)) == "0"


def test_constructor_validation():
    with pytest.raises(ValidationError):
        TruncatedSeries((), 3, FREE)
    with pytest.raises(ValidationError):
        TruncatedSeries(("u", "u"), 3, FREE)
    with pytest.raises(OrderError):
        TruncatedSeries(("u",), -1, FREE)
    with pytest.raises(ValidationError):
        TruncatedSeries(("u",), 3, FREE, {(1, 0): 1})
    with pytest.raises(BackendMismatchError):
        TruncatedSeries(("u",), 3, FREE, {(1,): GradedPolynomial.one(ADDITIVE)})


def test_more_than_255_variables_are_refused_before_a_layout_is_built():
    # a layout of r variables holds about 4r^2 bits, built before any product
    names = tuple(f"v{i}" for i in range(256))
    assert TruncatedSeries(names[:255], 2, FREE).variables == names[:255]
    law = FormalGroupLaw(FREE, 2)
    for build in (lambda: TruncatedSeries(names, 2, FREE),
                  lambda: law.linear_combination([1] * 256),
                  lambda: law.linear_combination([1] * 256, names)):
        with pytest.raises(ValidationError, match="^256 variables exceed the limit 255$"):
            build()
    assert 256 not in series_module._LAYOUTS


def test_arithmetic_laws_randomized():
    rng = random.Random(5)
    variables = ("u", "v")
    for _ in range(40):
        a = _random_series(rng, variables, 4)
        b = _random_series(rng, variables, 4)
        c = _random_series(rng, variables, 4)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero()


def test_mul_respects_truncation():
    u = TruncatedSeries.variable("u", ("u",), 3, FREE)
    assert (u * u * u * u).is_zero()
    assert (u * u * u).coefficient((3,)) == 1


@pytest.mark.parametrize("variables", [(1, None), ("u", ""), ("u", 3), ("u", ("v",))])
def test_variable_names_must_be_nonempty_strings(variables):
    with pytest.raises(ValidationError, match="nonempty strings"):
        TruncatedSeries(variables, 2, FREE, {(1, 0): 1})


def test_every_command_line_order_shares_one_key_layout():
    # 8-bit fields at every order up to 255, the command line's included:
    # one layout per variable count, so a cut keeps the packed keys
    assert MAX_ORDER < 255
    for r in range(1, 7):
        layout = _layout(r)
        assert layout is _layout(r)
        assert (layout.mask, layout.shift) == (255, 8 * (r + 1))
        names = tuple(f"u{i}" for i in range(r))
        for order in (0, 1, MAX_ORDER, 31, 32, 33, 255):
            series = TruncatedSeries.one(names, order, FREE)
            assert series._layout is layout
            assert series.truncate(order // 2)._layout is layout


def test_the_layout_keeps_each_parts_support_and_divided_out_key():
    # _support_parts reads both from the layout's table: part - key is the
    # part with one power of each variable in its support divided out
    for r in range(1, 7):
        layout = _layout(r)
        for exps in itertools.product(range(5), repeat=r):
            if sum(exps) > 4:
                continue
            part = layout.encode(exps)
            support, key = layout.support_key(part)
            assert support == layout.support(part) == {i for i, e in enumerate(exps, 1) if e}
            assert part - key == layout.encode([e - (i in support) for i, e in enumerate(exps, 1)])
            assert layout.support_key(part) is layout.support_key(part)


_PAST_THE_FIELD = (
    lambda order: TruncatedSeries(("u",), order, FREE),
    lambda order: TruncatedSeries.from_json({"variables": ["u"], "order": order, "terms": []}, FREE),
    lambda order: ChernPolynomial(2, order, FREE),
    lambda order: FormalGroupLaw(ADDITIVE, order),
)


@pytest.mark.parametrize("build", _PAST_THE_FIELD, ids=["series", "from_json", "chern", "law"])
def test_an_order_past_the_degree_field_is_refused(build):
    assert build(255).order == 255
    with pytest.raises(OrderError, match="order 256 exceeds the limit 255"):
        build(256)


def test_the_degree_field_reaches_255_at_order_255():
    # no field carries: u^127 * u^128 is kept with every field at 255 and
    # u^128 * u^128, of degree 256, is dropped, in one variable and in two
    for names in (("u",), ("u", "v")):
        def term(*exps):
            return TruncatedSeries(names, 255, FREE, {exps + (0,) * (len(names) - len(exps)): 1})
        u127, u128 = term(127), term(128)
        product = (u127 + u128) * u128
        assert product == term(255) == oracles.series_mul_two_level(u127 + u128, u128)
        assert product.coefficient((255,) + (0,) * (len(names) - 1)) == 1
        assert (u128 * u128).is_zero()
        if len(names) == 2:
            mixed = term(127) * term(0, 128)
            assert dict(mixed.items()) == {(127, 128): 1}
            assert (term(128) * term(0, 128)).is_zero()
    # u^85 and u^2 * v at x -> x^3 and v -> x^249: x^255 from each, past it dropped
    x = TruncatedSeries(("x",), 255, FREE, {(1,): 1})
    f = TruncatedSeries(("u", "v"), 255, FREE, {(85, 0): 1, (2, 1): 2, (86, 0): 5})
    env = {"u": x * x * x, "v": TruncatedSeries(("x",), 255, FREE, {(249,): 1})}
    assert f.substitute(env) == TruncatedSeries(("x",), 255, FREE, {(255,): 3})
    assert f.substitute(env) == oracles.substitute_by_terms(f, env)


def test_an_additive_law_answers_at_order_255():
    law = FormalGroupLaw(ADDITIVE, 255)
    u = TruncatedSeries.variable("u", ("u",), 255, ADDITIVE)
    assert law.series == TruncatedSeries(("u", "v"), 255, ADDITIVE, {(1, 0): 1, (0, 1): 1})
    assert law.inverse() == u.scale(-1)
    assert law.n_series(300) == u.scale(300) and law.n_series(-3) == u.scale(-3)
    top = TruncatedSeries(("u",), 255, ADDITIVE, {(255,): 1})
    assert law.sum(top, u) == top + u
    assert str(law.linear_combination((2, -1))) == "2*u1 - u2"


def test_truncate_cuts_terms_and_order():
    rng = random.Random(61)
    for _ in range(20):
        s = _random_series(rng, ("u", "v"), 5)
        for order in range(6):
            cut = s.truncate(order)
            assert cut.order == order
            assert cut == TruncatedSeries(("u", "v"), order, FREE, dict(s.items()))


def test_truncate_commutes_with_multiplication():
    rng = random.Random(67)
    for _ in range(20):
        s = _random_series(rng, ("u", "v"), 5)
        t = _random_series(rng, ("u", "v"), 5)
        for order in range(6):
            assert (s * t).truncate(order) == s.truncate(order) * t.truncate(order)


def test_truncate_cannot_raise_the_order():
    s = TruncatedSeries.variable("u", ("u",), 3, FREE)
    with pytest.raises(OrderError):
        s.truncate(4)
    with pytest.raises(OrderError):
        s.truncate(-1)


def test_binary_ops_require_matching_shape():
    a = TruncatedSeries.variable("u", ("u",), 3, FREE)
    b = TruncatedSeries.variable("u", ("u",), 4, FREE)
    with pytest.raises(OrderError):
        a + b
    c = TruncatedSeries.variable("v", ("v",), 3, FREE)
    with pytest.raises(ValidationError):
        a + c
    d = TruncatedSeries.variable("u", ("u",), 3, ADDITIVE)
    with pytest.raises(BackendMismatchError):
        a + d


# -- substitution -----------------------------------------------------------

def test_substitute_is_a_homomorphism():
    rng = random.Random(7)
    for _ in range(25):
        f = _random_series(rng, ("u", "v"), 4)
        g = _random_series(rng, ("u", "v"), 4)
        s = _random_series(rng, ("x", "y"), 4, zero_constant=True)
        t = _random_series(rng, ("x", "y"), 4, zero_constant=True)
        env = {"u": s, "v": t}
        assert (f + g).substitute(env) == f.substitute(env) + g.substitute(env)
        assert (f * g).substitute(env) == f.substitute(env) * g.substitute(env)


def test_substitute_identity():
    rng = random.Random(9)
    f = _random_series(rng, ("u", "v"), 5)
    u = TruncatedSeries.variable("u", ("u", "v"), 5, FREE)
    v = TruncatedSeries.variable("v", ("u", "v"), 5, FREE)
    assert f.substitute({"u": u, "v": v}) == f


def test_substitute_rejects_constant_terms():
    f = TruncatedSeries.variable("u", ("u",), 3, FREE)
    bad = TruncatedSeries.one(("x",), 3, FREE)
    with pytest.raises(ConstantTermError):
        f.substitute({"u": bad})


def test_substitute_rejects_mismatched_orders():
    f = TruncatedSeries.variable("u", ("u",), 3, FREE)
    s = TruncatedSeries.variable("x", ("x",), 4, FREE)
    with pytest.raises(OrderError):
        f.substitute({"u": s})


def test_substitute_requires_all_variables():
    f = TruncatedSeries.variable("u", ("u", "v"), 3, FREE)
    s = TruncatedSeries.variable("x", ("x",), 3, FREE)
    with pytest.raises(ValidationError):
        f.substitute({"u": s})


_U = TruncatedSeries.variable("u", ("u",), 4, FREE)


@pytest.mark.parametrize("build", [
    lambda: _U.substitute(None),
    lambda: _U.coefficient(None),
    lambda: TruncatedSeries(("u",), 4, FREE, [((1,), 1)]),
    lambda: TruncatedSeries(("u",), 4, FREE, {1: 1}),
    lambda: support_decompose(5),
], ids=["substitute(None)", "coefficient(None)", "list terms", "int exponent key",
        "support_decompose(5)"])
def test_malformed_series_arguments_raise_validation_errors(build):
    with pytest.raises(ValidationError):
        build()


@pytest.mark.parametrize("build", [
    lambda: TruncatedSeries(5, 2, FREE),
    lambda: TruncatedSeries.variable("u", 5, 2, FREE),
    lambda: TruncatedSeries.one(None, 2, FREE),
    lambda: FormalGroupLaw(FREE, 3).linear_combination([1], 5),
], ids=["constructor", "variable", "one", "linear_combination"])
def test_variables_that_are_not_a_sequence_raise_validation_errors(build):
    with pytest.raises(ValidationError, match="variables must be nonempty strings"):
        build()


# -- the law and its axioms -------------------------------------------------

def test_law_series_shape():
    law = FormalGroupLaw(FREE, order=4)
    f = law.series
    assert f.variables == ("u", "v")
    assert f.coefficient((1, 0)) == 1
    assert f.coefficient((0, 1)) == 1
    assert f.coefficient((2, 0)).is_zero()
    assert f.coefficient((1, 1)) == _a(1, 1)
    assert f.coefficient((1, 2)) == _a(1, 2)
    assert f.coefficient((2, 1)) == _a(1, 2)


def test_unit_axiom_free():
    law = FormalGroupLaw(FREE, order=6)
    u = TruncatedSeries.variable("u", ("u",), 6, FREE)
    zero = TruncatedSeries.zero(("u",), 6, FREE)
    assert law.sum(u, zero) == u
    assert law.sum(zero, u) == u


def test_commutativity_free():
    law = FormalGroupLaw(FREE, order=6)
    f = law.series
    u = TruncatedSeries.variable("u", ("u", "v"), 6, FREE)
    v = TruncatedSeries.variable("v", ("u", "v"), 6, FREE)
    assert f.substitute({"u": v, "v": u}) == f


def test_associativity_log_order_five():
    lb = log_backend(4)
    law = FormalGroupLaw(lb, order=5)
    names = ("u", "v", "w")
    u = TruncatedSeries.variable("u", names, 5, lb)
    v = TruncatedSeries.variable("v", names, 5, lb)
    w = TruncatedSeries.variable("w", names, 5, lb)
    assert law.sum(law.sum(u, v), w) == law.sum(u, law.sum(v, w))


def test_law_order_bounds():
    with pytest.raises(OrderError):
        FormalGroupLaw(FREE, order=0)
    with pytest.raises(OrderError):
        FormalGroupLaw(log_backend(3), order=5)
    FormalGroupLaw(log_backend(3), order=4)  # boundary case is allowed


def test_homogeneity_of_law_terms():
    # weight: ring degree of the coefficient minus total u-degree is -1
    for backend in (FREE, MULTIPLICATIVE, log_backend(5)):
        law = FormalGroupLaw(backend, order=5)
        for exps, poly in law.series.items():
            assert poly.graded_degree() == sum(exps) - 1


# -- formal inverse ---------------------------------------------------------

def test_inverse_free_order_three_frozen():
    law = FormalGroupLaw(FREE, order=3)
    chi = law.inverse()
    assert chi.coefficient((1,)) == -1
    assert chi.coefficient((2,)) == _a(1, 1)
    assert chi.coefficient((3,)) == -(_a(1, 1) * _a(1, 1))


def test_inverse_by_substitution_on_all_backends():
    for backend in (FREE, ADDITIVE, MULTIPLICATIVE, log_backend(7)):
        law = FormalGroupLaw(backend, order=8)
        u = TruncatedSeries.variable("u", ("u",), 8, backend)
        assert law.sum(u, law.inverse()).is_zero()
        assert law.sum(law.inverse(), u).is_zero()


def test_inverse_multiplicative_closed_form():
    law = FormalGroupLaw(MULTIPLICATIVE, order=8)
    chi = law.inverse()
    b = GradedPolynomial.generator(b_gen(), MULTIPLICATIVE)
    expected = GradedPolynomial.one(MULTIPLICATIVE)
    for k in range(1, 9):
        sign = -1 if k % 2 else 1
        assert chi.coefficient((k,)) == sign * expected
        expected = expected * b


def test_inverse_additive_is_negation():
    law = FormalGroupLaw(ADDITIVE, order=8)
    u = TruncatedSeries.variable("u", ("u",), 8, ADDITIVE)
    assert law.inverse() == -u


def test_inverse_log_matches_independent_oracle():
    law = FormalGroupLaw(log_backend(5), order=6)
    chi = law.inverse()
    expected = oracles.log_inverse_coefficients(6)
    for k in range(1, 7):
        assert oracles.graded_to_dense(chi.coefficient((k,))) == expected.get(k, {})


@pytest.mark.parametrize("kind", ["free", "log", "additive", "mult"])
def test_inverse_matches_substitution_oracle(kind):
    for order in range(1, 11):
        backend = {
            "free": FREE,
            "log": log_backend(max(order - 1, 1)),
            "additive": ADDITIVE,
            "mult": MULTIPLICATIVE,
        }[kind]
        law = FormalGroupLaw(backend, order)
        expected = oracles.inverse_by_substitution(law)
        assert law.inverse() == expected
        assert law.inverse().to_json() == expected.to_json()
        # [-3]u folds chi, so it inherits any error in chi
        assert law.n_series(-3) == law.sum(law.sum(expected, expected), expected)


@pytest.mark.parametrize("kind", ["free", "log", "additive", "mult"])
def test_inverse_is_the_fold_interpolated_at_minus_one(kind):
    # the interpolation reads the fold only; it shares no code with the solver
    for order in range(1, 9):
        backend = {"free": FREE, "log": log_backend(max(order - 1, 1)),
                   "additive": ADDITIVE, "mult": MULTIPLICATIVE}[kind]
        law = FormalGroupLaw(backend, order)
        assert law.inverse() == oracles.inverse_by_interpolation(law)


def test_inverse_homogeneity():
    law = FormalGroupLaw(FREE, order=6)
    for (k,), poly in law.inverse().items():
        assert poly.graded_degree() == k - 1


def test_function_forms():
    law = FormalGroupLaw(FREE, order=4)
    u = TruncatedSeries.variable("u", ("u",), 4, FREE)
    assert law.inverse() is law.inverse()
    assert law.inverse() is law.n_series(-1)
    assert law.sum(u, law.inverse()).is_zero()


# -- n-series ---------------------------------------------------------------

def test_n_series_base_cases():
    law = FormalGroupLaw(FREE, order=5)
    u = TruncatedSeries.variable("u", ("u",), 5, FREE)
    assert law.n_series(0).is_zero()
    assert law.n_series(1) == u
    assert law.n_series(-1) == law.inverse()


def test_two_series_frozen_order_four():
    law = FormalGroupLaw(FREE, order=4)
    two = law.n_series(2)
    assert two.coefficient((1,)) == 2
    assert two.coefficient((2,)) == _a(1, 1)
    assert two.coefficient((3,)) == 2 * _a(1, 2)
    assert two.coefficient((4,)) == 2 * _a(1, 3) + _a(2, 2)


def test_n_series_additivity_log():
    lb = log_backend(5)
    law = FormalGroupLaw(lb, order=6)
    for n in (-3, -1, 0, 2):
        for m in (-2, 1, 3):
            lhs = law.n_series(n + m)
            rhs = law.sum(law.n_series(n), law.n_series(m))
            assert lhs == rhs, (n, m)


def test_n_series_is_the_left_fold_not_a_regrouping_on_free():
    # the free law is not associative: [4]u = F(F(F(u, u), u), u), and the
    # regrouped F([2]u, [2]u) already differs at order 4
    law = FormalGroupLaw(FREE, order=4)
    u = TruncatedSeries.variable("u", ("u",), 4, FREE)
    assert law.n_series(4) == law.sum(law.sum(law.sum(u, u), u), u)
    assert law.sum(law.n_series(2), law.n_series(2)) != law.n_series(4)


def test_n_series_additive_backend():
    law = FormalGroupLaw(ADDITIVE, order=6)
    u = TruncatedSeries.variable("u", ("u",), 6, ADDITIVE)
    for n in (-2, 0, 1, 5):
        assert law.n_series(n) == u.scale(n)


def test_n_series_homogeneity():
    law = FormalGroupLaw(FREE, order=5)
    for n in (-2, 2, 3):
        for (k,), poly in law.n_series(n).items():
            assert poly.graded_degree() == k - 1


# -- multi-variable combinations -------------------------------------------

def test_linear_combination_single_is_n_series():
    law = FormalGroupLaw(FREE, order=5)
    lc = law.linear_combination((3,), variables=("u",))
    assert lc == law.n_series(3)


def test_linear_combination_ones_is_the_law():
    law = FormalGroupLaw(FREE, order=4)
    assert law.linear_combination((1, 1), variables=("u", "v")) == law.series


def test_linear_combination_unit_entries_drop_out():
    law = FormalGroupLaw(FREE, order=4)
    lc = law.linear_combination((2, 0, -1))
    # variable u2 never appears
    assert all(exps[1] == 0 for exps, _ in lc.items())


def test_linear_combination_fold_order():
    # left-to-right folding: F(F([n1]u1, [n2]u2), [n3]u3)
    law = FormalGroupLaw(FREE, order=3)
    names = ("u1", "u2", "u3")

    def embed(series, index):
        terms = {}
        for (e,), poly in series.items():
            exps = [0, 0, 0]
            exps[index] = e
            terms[tuple(exps)] = poly
        return TruncatedSeries(names, 3, FREE, terms)

    manual = law.sum(
        law.sum(embed(law.n_series(2), 0), embed(law.n_series(1), 1)),
        embed(law.n_series(-1), 2),
    )
    assert law.linear_combination((2, 1, -1)) == manual


def test_linear_combination_homogeneity():
    law = FormalGroupLaw(FREE, order=4)
    for ns in ((1, 1), (2, -1), (1, 2, 1)):
        for exps, poly in law.linear_combination(ns).items():
            assert poly.graded_degree() == sum(exps) - 1


@pytest.mark.parametrize("n", [2.5, "3", None, True, 2.0])
def test_n_series_rejects_a_non_integer_multiple(n):
    law = FormalGroupLaw(FREE, order=3)
    law.n_series(1)  # cached entries that True and 2.0 hash like
    law.n_series(2)
    with pytest.raises(ValidationError):
        law.n_series(n)


def test_orders_must_be_exact_integers():
    for bad in (True, 2.5, "3"):
        with pytest.raises(OrderError):
            FormalGroupLaw(FREE, bad)
        with pytest.raises(OrderError):
            TruncatedSeries(("u",), bad, FREE)
    with pytest.raises(ValidationError):
        TruncatedSeries(("u",), 3, FREE, {(1.5,): 1})
    with pytest.raises(ValidationError):
        TruncatedSeries(("u",), 3, FREE, {(True,): 1})


def test_recompose_drops_what_the_shift_lifts_past_the_order():
    u_cubed = TruncatedSeries(("u", "v"), 3, FREE, {(3, 0): 1, (1, 0): 2})
    assert recompose({frozenset({1, 2}): u_cubed}, ("u", "v"), 3, FREE) == TruncatedSeries(
        ("u", "v"), 3, FREE, {(2, 1): 2}
    )


def test_linear_combination_validation():
    law = FormalGroupLaw(FREE, order=3)
    with pytest.raises(ValidationError):
        law.linear_combination(())
    with pytest.raises(ValidationError):
        law.linear_combination((1, "x"))
    with pytest.raises(ValidationError, match=r"^multiplicities must be integers, got 5$"):
        law.linear_combination(5)
    with pytest.raises(ValidationError):
        law.linear_combination((1, 2), variables=("u",))


@pytest.mark.parametrize("variables", [("u", "u"), ("u", ""), ("u", 3)],
                         ids=["repeated", "empty", "not-a-string"])
def test_linear_combination_rejects_bad_variable_names(variables):
    with pytest.raises(ValidationError):
        FormalGroupLaw(FREE, 3).linear_combination([1, 2], variables)


@pytest.mark.parametrize("build", [
    lambda: FormalGroupLaw("free", 3),
    lambda: lazard_coefficient(1, 1, "free"),
    lambda: TruncatedSeries(("u",), 2, "free", {(1,): 1}),
    lambda: GradedPolynomial("free", {}),
    lambda: GradedPolynomial.from_json([], "free"),
], ids=["FormalGroupLaw", "lazard_coefficient", "TruncatedSeries", "GradedPolynomial",
        "GradedPolynomial.from_json"])
def test_backends_must_be_coefficient_backends(build):
    with pytest.raises(ValidationError, match="must be a CoefficientBackend"):
        build()


def test_a_series_cold_job_multiplies_through_the_series_product(monkeypatch):
    # perfbench traces TruncatedSeries.__mul__ as series.mul; a job like
    # series-cold's must reach it, or that layer silently reads zero
    calls = []
    product = TruncatedSeries.__mul__

    def counted(self, other):
        calls.append(other)
        return product(self, other)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counted)
    law = FormalGroupLaw(FREE, 8)
    law.inverse()
    law.n_series(5)
    law.linear_combination([2, -1, 3])
    assert len(calls) > 0


def test_the_work_meter_counts_products_and_enforces_a_budget():
    before = meter.products
    expected = FormalGroupLaw(FREE, 6).linear_combination([2, -1, 3])
    used = meter.products - before
    assert used > 0
    # a fresh law makes the same products: exactly that many fit
    with meter.budget(used):
        assert FormalGroupLaw(FREE, 6).linear_combination([2, -1, 3]) == expected
    with pytest.raises(ValidationError, match=f"work budget of {used - 1} "):
        with meter.budget(used - 1):
            FormalGroupLaw(FREE, 6).linear_combination([2, -1, 3])
    # leaving the block lifts the budget
    assert meter.allowance() > used


def test_n_series_far_past_the_order_matches_the_fold_on_free():
    # |n| far above the order takes the interpolation; each side builds its
    # own law, so no cache is shared
    for n in (200, -200):
        fast = FormalGroupLaw(FREE, order=8).n_series(n)
        slow = oracles.n_series_by_fold(FormalGroupLaw(FREE, order=8), n)
        assert fast == slow
        assert fast.to_json() == slow.to_json()


def test_small_multiples_come_from_the_shared_prefix():
    law = FormalGroupLaw(FREE, order=8)
    law.n_series(8)
    calls = []
    plain_sum = law.sum

    def counted_sum(s, t):
        calls.append(len(s.variables))
        return plain_sum(s, t)

    law.sum = counted_sum
    assert law.n_series(3) == oracles.n_series_by_fold(FormalGroupLaw(FREE, 8), 3)
    law.n_series(12)
    assert calls == []
    law.linear_combination((2, 3))
    assert calls == [2]  # the one two-variable sum of the combination


def _counted(run) -> int:
    before = meter.products
    run()
    return meter.products - before


@pytest.mark.parametrize("backend, positive, negative, combination, fresh_negative", [
    (FREE, 2294, 555, 5258, 2849), (log_backend(7), 5491, 352, 8035, 5843),
], ids=["free", "log"])
def test_a_bare_first_image_moves_terms_without_products(
    backend, positive, negative, combination, fresh_negative
):
    # every step F([k]u, u) of the fold has the bare u first, so each
    # column is moved onto u, where multiplying it by the powers of u would
    # make 2546 (free) and 7227 (log) products.  [-8]u is [8]u composed with
    # chi, so with [8]u built it pays for that one composition only, and on
    # a fresh law for the fold as well.  The combination's sums have no
    # bare first image
    law = FormalGroupLaw(backend, 8)
    law.series, law.inverse()
    assert _counted(lambda: law.n_series(8)) == positive
    assert _counted(lambda: law.n_series(-8)) == negative
    assert _counted(lambda: law.linear_combination([2, -1, 3])) == combination
    fresh = FormalGroupLaw(backend, 8)
    fresh.inverse()
    assert _counted(lambda: fresh.n_series(-8)) == fresh_negative


# jobs in the style of perfbench's series-cold, written out here: a fresh
# order-8 law, its inverse, [n]u and one three-variable combination, for
# each backend and each n in -8..16 but 0, the multiplicities in turn
_JOB_MULTIPLICITIES = [(2, -1, 3), (-2, 1, 1), (3, 3, -1), (1, -2, 2), (-1, 2, -2), (1, 1, 1), (-2, -2, 3)]


def test_series_cold_style_jobs_make_a_pinned_number_of_products():
    # a change that makes more products here fails without a benchmark run;
    # the log table is cached per process, so it is built before the count
    FormalGroupLaw(log_backend(7), 8).series

    def jobs():
        for backend in (FREE, log_backend(7)):
            for i, n in enumerate(n for n in range(-8, 17) if n):
                law = FormalGroupLaw(backend, 8)
                law.inverse(), law.n_series(n)
                law.linear_combination(_JOB_MULTIPLICITIES[i % len(_JOB_MULTIPLICITIES)])

    assert _counted(jobs) == 432_523


def test_two_laws_share_no_series_and_no_substitution_plan():
    first, second = FormalGroupLaw(FREE, 8), FormalGroupLaw(FREE, 8)
    first.n_series(3)
    assert first.series is not second.series
    assert first.series._plans and second.series._plans is None
    second.n_series(3)
    plans = first.series._plans
    assert plans.keys() == second.series._plans.keys()
    assert all(second.series._plans[key] is not plans[key] for key in plans)
    assert first.n_series(3) == second.n_series(3)


@pytest.mark.parametrize("backend", [FREE, log_backend(7), MULTIPLICATIVE, ADDITIVE],
                         ids=["free", "log", "mult", "additive"])
@pytest.mark.parametrize("order", range(1, 9))
def test_a_packed_law_series_equals_the_constructor_built_one(backend, order):
    law = FormalGroupLaw(backend, order)
    built = oracles.law_series_by_constructor(law)
    assert law.series == built
    assert list(law.series._terms) == list(built._terms)
    assert law.series._layout is built._layout


# what a parent law has built before its lower-order law is made
_BUILT_FIRST = [
    lambda law: None,
    lambda law: law.series,
    lambda law: (law.inverse(), law.n_series(2), law.n_series(-3)),
    lambda law: [law.n_series(n) for n in range(-4, 13)],
]


@pytest.mark.parametrize("backend", [FREE, log_backend(7), MULTIPLICATIVE, ADDITIVE],
                         ids=["free", "log", "mult", "additive"])
def test_a_lower_order_law_equals_a_fresh_law_of_that_order(backend):
    # the lower law's series are cut from its parent's; whatever the parent
    # built before, they equal a fresh law's, and what the parent had built
    # costs the lower law no product
    for top in range(2, 9):
        for order in range(1, top):
            built_first = _BUILT_FIRST[(top + order) % len(_BUILT_FIRST)]
            parent = FormalGroupLaw(backend, top)
            built_first(parent)
            known = set(parent._n_series)
            low = parent._at_order(order)
            assert low is parent._at_order(order) and low.order == order
            assert _counted(lambda: [low.n_series(n) for n in known]) == 0
            fresh = FormalGroupLaw(backend, order)
            assert low.series == fresh.series
            assert low.inverse() == fresh.inverse()
            for n in range(-4, 13):
                assert low.n_series(n) == fresh.n_series(n), (top, order, n)
            # one table holds chi and every [n]u, [0]u .. [order]u among them
            assert set(range(order + 1)) <= set(low._n_series)
            assert low._n_series == fresh._n_series
            assert all(s.order == order for s in low._n_series.values())
    law = FormalGroupLaw(backend, 4)
    assert law._at_order(4) is law


@pytest.mark.parametrize("built_first", _BUILT_FIRST, ids=["none", "F", "chi", "fold"])
def test_a_lower_order_law_cuts_each_kept_series_once(built_first, monkeypatch):
    parent = FormalGroupLaw(FREE, 6)
    built_first(parent)
    expected = len(parent._n_series) + (parent._series is not None)
    cuts = []
    plain_truncate = TruncatedSeries.truncate

    def counted_truncate(series, order):
        cuts.append(order)
        return plain_truncate(series, order)

    monkeypatch.setattr(TruncatedSeries, "truncate", counted_truncate)
    parent._at_order(3)
    assert cuts == [3] * expected


def test_caches_return_identical_objects():
    law = FormalGroupLaw(FREE, order=4)
    assert law.n_series(2) is law.n_series(2)
    assert law.linear_combination((1, 2)) == law.linear_combination((1, 2))
    assert law.inverse() is law.inverse()


# -- support decomposition --------------------------------------------------

def _independent_recompose(parts, variables, order, backend):
    # re-expansion written from scratch: shift each part by one power of
    # every variable in its support and add everything up
    total = {}
    for support, part in parts.items():
        for exps, poly in part.items():
            bumped = tuple(
                e + (1 if (i + 1) in support else 0) for i, e in enumerate(exps)
            )
            if sum(bumped) > order:
                continue
            prev = total.get(bumped)
            total[bumped] = poly if prev is None else prev + poly
    return TruncatedSeries(variables, order, backend, total)


def test_decompose_round_trip_randomized():
    rng = random.Random(41)
    for _ in range(50):
        r = rng.randrange(1, 5)
        order = rng.randrange(1, 7)
        variables = tuple(f"u{i}" for i in range(1, r + 1))
        s = _random_series(rng, variables, order)
        parts = support_decompose(s)
        for support, part in parts.items():
            for exps, _ in part.items():
                assert all(e == 0 or (i + 1) in support for i, e in enumerate(exps))
        assert _independent_recompose(parts, variables, order, FREE) == s
        assert recompose(parts, variables, order, FREE) == s


def test_decompose_constant_goes_to_empty_support():
    s = TruncatedSeries(("u",), 2, FREE, {(0,): 7, (1,): 1})
    parts = support_decompose(s)
    assert set(parts) == {frozenset(), frozenset({1})}
    assert parts[frozenset()].coefficient((0,)) == 7


def test_decompose_of_combination_has_no_empty_support():
    law = FormalGroupLaw(FREE, order=4)
    parts = support_decompose(law.linear_combination((1, 2)))
    assert frozenset() not in parts
    assert frozenset({1}) in parts and frozenset({2}) in parts


# -- serialization ----------------------------------------------------------

def test_series_json_round_trip():
    rng = random.Random(53)
    for _ in range(30):
        s = _random_series(rng, ("u", "v"), 5)
        assert TruncatedSeries.from_json(s.to_json(), FREE) == s


def test_series_json_shape():
    law = FormalGroupLaw(MULTIPLICATIVE, order=2)
    data = law.series.to_json()
    assert data["variables"] == ["u", "v"]
    assert data["order"] == 2
    assert data["terms"][0] == {"exponents": [1, 0], "coeff": "1", "monomial": {}}


def test_series_json_rejects_garbage():
    with pytest.raises(ValidationError):
        TruncatedSeries.from_json({"variables": ["u"], "order": 3}, FREE)
    with pytest.raises(ValidationError):
        TruncatedSeries.from_json(
            {"variables": ["u"], "order": 3, "terms": [{"coeff": "1", "monomial": {}}]},
            FREE,
        )


@pytest.mark.parametrize(
    "field,value", [("exponents", [True]), ("order", True)], ids=["exponents", "order"]
)
def test_series_json_rejects_bools(field, value):
    data = {"variables": ["u"], "order": 3,
            "terms": [{"exponents": [1], "coeff": "1", "monomial": {}}]}
    if field == "exponents":
        data["terms"][0]["exponents"] = value
    else:
        data["order"] = value
    with pytest.raises(ValidationError):
        TruncatedSeries.from_json(data, FREE)


# -- Hypothesis: substitution against the term-by-term oracle ---------------

_BACKENDS = {
    "free": FREE,
    "log": log_backend(8),
    "additive": ADDITIVE,
    "mult": MULTIPLICATIVE,
}


def _coefficient_pool(backend):
    # scalars plus the backend's own law coefficients (none on additive)
    pool = [GradedPolynomial.constant(c, backend) for c in (1, -1, 2, Fraction(-1, 2))]
    for i, j in ((1, 1), (1, 2), (2, 2), (1, 3)):
        a = lazard_coefficient(i, j, backend)
        if not a.is_zero():
            pool.append(a)
    return pool


@st.composite
def _coefficients(draw, backend):
    pool = _coefficient_pool(backend)
    factors = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    poly = factors[0]
    for f in factors[1:]:
        poly = poly * f
    if draw(st.booleans()):
        poly = poly + draw(st.sampled_from(pool))
    return poly


@st.composite
def _series(draw, variables, order, backend, low=0, max_terms=6):
    # sparse: a few random exponent vectors of degree low..order, none
    # when low > order
    r = len(variables)
    terms = {}
    for _ in range(draw(st.integers(0, max_terms)) if low <= order else 0):
        degree = draw(st.integers(low, order))
        cuts = sorted(draw(st.lists(st.integers(0, degree), min_size=r - 1, max_size=r - 1)))
        exps = tuple(b - a for a, b in zip([0] + cuts, cuts + [degree]))
        terms[exps] = draw(_coefficients(backend))
    return TruncatedSeries(variables, order, backend, terms)


# orders around the command line's limit, 16, and around 32, where a
# degree first needs six bits: the packed fields are 8 bits at every order
_ORDERS = (15, 16, 31, 32, 33)
# those, and every small order as well
_ORDER_DRAWS = st.one_of(st.integers(0, 8), st.sampled_from(_ORDERS))


def _sparse_sizes(order):
    # (most terms, lowest image degree) that keep the oracles' full powers small
    return (8, 1) if order <= 8 else (3, order // 4)


def _image_lows(order, lowest):
    # an image's lowest degree: often the smallest allowed, so that products
    # of several images stay below the order, and at times order + 1, a
    # zero image
    return st.one_of(st.integers(lowest, min(lowest + 1, order + 1)), st.integers(lowest, order + 1))


@st.composite
def _products(draw):
    """Two series in 1-4 variables over one backend, at an order from _ORDER_DRAWS."""
    backend = _BACKENDS[draw(st.sampled_from(sorted(_BACKENDS)))]
    order = draw(_ORDER_DRAWS)
    variables = ("u", "v", "w", "x")[: draw(st.integers(1, 4))]
    most, _ = _sparse_sizes(order)
    return tuple(draw(_series(variables, order, backend, max_terms=most)) for _ in range(2))


@st.composite
def _substitutions(draw):
    """(series, assignment): series in 1-4 variables, images in 1-4 others."""
    backend = _BACKENDS[draw(st.sampled_from(sorted(_BACKENDS)))]
    order = draw(_ORDER_DRAWS)
    source = ("u", "v", "w", "t")[: draw(st.integers(1, 4))]
    target = draw(st.sampled_from(
        [("u",), ("u", "v"), ("x",), ("x", "y"), ("y", "x", "z"), ("x", "y", "z", "s")]
    ))
    most, lowest = _sparse_sizes(order)
    series = draw(_series(source, order, backend, max_terms=most))
    assignment = {}
    for name in source:
        low = draw(_image_lows(order, lowest))
        assignment[name] = draw(_series(target, order, backend, low=low, max_terms=most // 2))
    return series, assignment


def _power_of_a11(e, exps=(1,), order=2):
    # the one-term series A(1,1)^e * u^exps, whose ring exponent sums reach
    # MAX_EXPONENT = 2 * _EDGE - 1 with e = _EDGE - 1 and _EDGE
    names = ("u", "v", "w", "x")[: len(exps)]
    coefficient = GradedPolynomial(FREE, {((a_gen(1, 1), e),): 1})
    return TruncatedSeries(names, order, FREE, {exps: coefficient})


_EDGE = (MAX_EXPONENT + 1) // 2


@given(_products())
@example((_power_of_a11(_EDGE - 1), _power_of_a11(_EDGE)))  # reaches the limit
@example((_power_of_a11(_EDGE), _power_of_a11(_EDGE)))  # one past it: raises
@example((_power_of_a11(_EDGE, order=1), _power_of_a11(_EDGE, order=1)))  # cut away
def test_product_matches_the_two_level_oracle(case):
    left, right = case
    try:
        fast = left * right
    except ValidationError as exc:
        assert "exceeds the limit" in str(exc)
        with pytest.raises(ValidationError, match="exceeds the limit"):
            oracles.series_mul_two_level(left, right)
        return
    slow = oracles.series_mul_two_level(left, right)
    assert fast == slow
    assert fast.to_json() == slow.to_json()


@given(_substitutions())
@example((  # [u^2] at x -> A(1,1)^_EDGE x: the power reaches one past the limit
    TruncatedSeries(("u",), 2, FREE, {(2,): 1}), {"u": _power_of_a11(_EDGE, order=2)},
))
@example((  # the coefficient times the image's power reaches the limit exactly
    _power_of_a11(_EDGE - 1, exps=(1, 1), order=3),
    {"u": _power_of_a11(_EDGE // 2, order=3), "v": _power_of_a11(_EDGE // 2, order=3)},
))
@example((  # one past it through the rest factor
    _power_of_a11(_EDGE, exps=(1, 1), order=3),
    {"u": _power_of_a11(_EDGE // 2, order=3), "v": _power_of_a11(_EDGE // 2, order=3)},
))
@example((  # a rest factor of three powers, a squared one in the middle: x^4
    TruncatedSeries(("t", "a", "b", "c"), 4, FREE, {(0, 1, 2, 1): 1}),
    {v: TruncatedSeries(("x",), 4, FREE, {(1,): 1}) for v in "tabc"},
))
def test_substitute_matches_term_by_term_oracle(case):
    series, assignment = case
    try:
        fast = series.substitute(assignment)
    except ValidationError as exc:
        assert "exceeds the limit" in str(exc)
        for oracle in (oracles.substitute_two_level, oracles.substitute_by_terms):
            with pytest.raises(ValidationError, match="exceeds the limit"):
                oracle(series, assignment)
        return
    for oracle in (oracles.substitute_two_level, oracles.substitute_by_terms):
        slow = oracle(series, assignment)
        assert fast == slow
        assert fast.to_json() == slow.to_json()


@pytest.mark.parametrize("order", [4, 5])
def test_substitute_every_monomial_shape_matches_the_oracle(order):
    # every monomial in four variables, under every assignment of three
    # images of lowest degree 1, 1 and 2: each rest factor of one, two or
    # three powers, with each exponent in each place
    a11 = _a(1, 1)
    pool = [
        TruncatedSeries(("x",), order, FREE, {(1,): 1}),
        TruncatedSeries(("x",), order, FREE, {(1,): 1, (2,): a11}),
        TruncatedSeries(("x",), order, FREE, {(2,): 1, (3,): 2}),
    ]
    exponents = [e for e in itertools.product(range(order + 1), repeat=4) if sum(e) <= order]
    for picks in itertools.product(pool, repeat=4):
        env = dict(zip("tabc", picks))
        for exps in exponents:
            f = TruncatedSeries(("t", "a", "b", "c"), order, FREE, {exps: 1})
            assert f.substitute(env) == oracles.substitute_by_terms(f, env), (exps, picks)


def test_substitute_cuts_at_the_images_lowest_degree():
    # u*v + u^3 with u -> x^2 and v -> x + x^2: the rest factor v starts at
    # degree 1, the image of u at 2, so the cut inside each column matters
    f = TruncatedSeries(("u", "v"), 6, FREE, {(1, 1): _a(1, 1), (3, 0): 2, (2, 1): 1})
    x2 = TruncatedSeries(("x",), 6, FREE, {(2,): 1})
    x_x2 = TruncatedSeries(("x",), 6, FREE, {(1,): 1, (2,): _a(1, 2)})
    env = {"u": x2, "v": x_x2}
    assert f.substitute(env) == oracles.substitute_by_terms(f, env)
    assert f.substitute(env).coefficient((6,)) == 2 + _a(1, 2)


# -- powers by squares ------------------------------------------------------------

@st.composite
def _squares(draw):
    """(P, cut, need): P in 1-3 variables over FREE or log with no constant
    term, sparse or holding every monomial up to some degree, a cut from 0
    to P's order and the degree up to which each power of P is read."""
    backend = _BACKENDS[draw(st.sampled_from(["free", "log"]))]
    order = draw(st.integers(1, 8))
    variables = ("x", "y", "z")[: draw(st.integers(1, 3))]
    if draw(st.booleans()):
        p = draw(_series(variables, order, backend, low=1))
    else:
        top = draw(st.integers(1, min(order, 6 - len(variables))))
        p = TruncatedSeries(variables, order, backend, {
            exps: draw(st.sampled_from(_coefficient_pool(backend)))
            for exps in itertools.product(range(top + 1), repeat=len(variables))
            if 0 < sum(exps) <= top
        })
    need = {e: draw(st.integers(0, order)) for e in range(1, order + 1)}
    return p, draw(st.integers(0, order)), need


@given(_squares())
def test_a_square_is_the_product_by_itself_at_one_product_per_pair(case):
    p, cut, need = case
    mask, shift = p._layout.mask, p._layout.shift
    acc: dict = {}
    before = meter.products
    _multiply(acc, None, p._rows(), cut, mask, shift)
    degrees = [k & mask for k in p._terms]
    pairs = sum(1 for i, d in enumerate(degrees) for f in degrees[i:] if d + f <= cut)
    assert meter.products - before == pairs
    assert _nonzero(acc) == {k: c for k, c in (p * p)._terms.items() if k & mask <= cut}
    # the powers substitute builds, squares among them, against the chain
    one = TruncatedSeries.one(p.variables, p.order, p.backend)
    fast, slow = [one, p], [one, p]
    for e in range(p.order + 1):
        assert _power(fast, need, e) == oracles.power_by_chain(slow, need, e)
    f = TruncatedSeries(("t",), p.order, p.backend, {(e,): e for e in range(1, p.order + 1)})
    assert f.substitute({"t": p}) == oracles.substitute_by_terms(f, {"t": p})


def test_a_tie_in_the_square_rule_squares():
    # P = u^2 - u at order 8: |P^3|^2 = 2 |P^5| |P| = 16, so P^6 is P^3
    # squared (4 products), not P^5 * P (5 products)
    u = TruncatedSeries.variable("u", ("u",), 8, FREE)
    one = TruncatedSeries.one(("u",), 8, FREE)
    p = u * u - u
    before = meter.products
    sixth = _power([one, p], {6: 8}, 6)
    assert meter.products - before == 27
    assert sixth == TruncatedSeries(("u",), 8, FREE, {(6,): 1, (7,): -6, (8,): 15})


@pytest.mark.parametrize("cut", [3, 4])
def test_a_square_raises_where_its_diagonal_passes_the_exponent_limit(cut):
    # A(1,1)^(_EDGE - 1) x + A(1,1)^_EDGE x^2: the cross term reaches the
    # limit exactly, the square of x^2 passes it, at degree 4
    p = _a11_times(_EDGE - 1, {1: 1}, 4) + _a11_times(_EDGE, {2: 1}, 4)
    mask, shift = p._layout.mask, p._layout.shift
    acc: dict = {}
    low = p.truncate(cut)
    if cut < 4:
        _multiply(acc, None, p._rows(), cut, mask, shift)
        assert _nonzero(acc) == (low * low)._terms
        return
    for square in (lambda: _multiply(acc, None, p._rows(), cut, mask, shift), lambda: low * low):
        with pytest.raises(ValidationError, match="exceeds the limit"):
            square()


# -- the sum with the smaller image first, and cuts that keep the keys ---------

@functools.lru_cache(maxsize=None)
def _law(kind, order):
    return FormalGroupLaw(_BACKENDS[kind], order)


@st.composite
def _sums(draw):
    """(law, s, t): two images in 1-4 variables, at a law order from _ORDER_DRAWS."""
    kind = draw(st.sampled_from(sorted(_BACKENDS)))
    order = max(1, draw(_ORDER_DRAWS))
    if kind == "log":
        # the log table past order 9 takes seconds, past 24 minutes
        order = min(order, _BACKENDS["log"].log_order + 1)
    variables = ("x", "y", "z", "w")[: draw(st.integers(1, 4))]
    most, lowest = _sparse_sizes(order)
    backend = _BACKENDS[kind]
    s, t = (draw(_series(variables, order, backend, low=draw(_image_lows(order, lowest)),
                         max_terms=most)) for _ in range(2))
    return _law(kind, order), s, t


def _a11_times(e, terms, order):
    # A(1,1)^e times the one-variable series with the given {exponent: coefficient}
    coefficient = GradedPolynomial(FREE, {((a_gen(1, 1), e),): 1})
    return TruncatedSeries(("x",), order, FREE, {(k,): c * coefficient for k, c in terms.items()})


@given(_sums())
@example((  # t is the smaller image; A(1,1) s t reaches the exponent limit exactly
    _law("free", 2), _a11_times(_EDGE - 1, {1: 1, 2: 1}, 2), _a11_times(_EDGE - 1, {1: 1}, 2),
))
@example((  # and one past it: both orientations raise
    _law("free", 2), _a11_times(_EDGE, {1: 1, 2: 1}, 2), _a11_times(_EDGE, {1: 1}, 2),
))
def test_sum_matches_the_fixed_orientation_oracle(case):
    law, s, t = case
    try:
        fast = law.sum(s, t)
    except ValidationError as exc:
        assert "exceeds the limit" in str(exc)
        with pytest.raises(ValidationError, match="exceeds the limit"):
            oracles.sum_fixed_orientation(law, s, t)
        return
    slow = oracles.sum_fixed_orientation(law, s, t)
    assert fast == slow
    assert fast.to_json() == slow.to_json()


@st.composite
def _law_substitutions(draw):
    """(F, [assignment, ...]): one law's F and a few substitutions into it, each
    into 1-3 variables; an image is a bare variable, another single term
    (-x, 2x, x^2 or A(1,1) x), zero or a sparse series, and F(x, x) reuses
    one image."""
    kind = draw(st.sampled_from(sorted(_BACKENDS)))
    backend = _BACKENDS[kind]
    law = _law(kind, draw(st.integers(1, 6)))
    order, a11 = law.order, GradedPolynomial.generator(a_gen(1, 1), backend)
    assignments = []
    for r in draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)):
        target = ("x", "y", "z")[:r]

        def image():
            x = TruncatedSeries.variable(target[draw(st.integers(0, r - 1))], target, order, backend)
            return draw(st.sampled_from([
                x, x, -x, x.scale(2), x * x, x.scale(a11), TruncatedSeries.zero(target, order, backend),
                draw(_series(target, order, backend, low=1, max_terms=4)),
            ]))

        u = image()
        assignments.append({"u": u, "v": u if draw(st.booleans()) else image()})
    return law.series, assignments


@given(_law_substitutions())
def test_law_substitution_matches_the_two_level_oracle(case):
    # one law's F keeps its column split per target layout and each bare
    # variable's moved columns, and interleaved targets reuse them
    f, assignments = case
    for assignment in assignments:
        fast = f.substitute(assignment)
        slow = oracles.substitute_two_level(f, assignment)
        assert fast == slow
        assert fast.to_json() == slow.to_json()


@st.composite
def _cuts(draw):
    """(series, order, support, target): a series in 1-4 variables, a lower
    order, a set of its variables and an order for the shift by them."""
    backend = _BACKENDS[draw(st.sampled_from(sorted(_BACKENDS)))]
    order = draw(_ORDER_DRAWS)
    r = draw(st.integers(1, 4))
    series = draw(_series(("u", "v", "w", "x")[:r], order, backend,
                          max_terms=_sparse_sizes(order)[0]))
    support = frozenset(draw(st.sets(st.integers(1, r))))
    return series, min(order, draw(_ORDER_DRAWS)), support, draw(_ORDER_DRAWS)


@given(_cuts())
def test_truncate_and_the_symbol_shift_match_the_repacking_oracles(case):
    series, order, support, target = case
    # the package shifts by prod u_i only as a key offset inside
    # snc.apply_divisor_operator; the oracle the tests use for that shift must
    # agree with the shifted exponents read in by the constructor
    shifted = TruncatedSeries(series.variables, target, series.backend, {
        tuple(e + 1 if i in support else e for i, e in enumerate(exps, 1)): poly
        for exps, poly in series.items()
    })
    for fast, slow in (
        (series.truncate(order), oracles.truncate_by_repack(series, order)),
        (shifted, oracles.times_symbols_by_repack(series, support, target)),
    ):
        assert fast == slow
        assert fast.to_json() == slow.to_json()


def test_an_exponent_overflow_still_raises_after_a_cut():
    # the kept keys carry the ring monomial that the product's row guard
    # reads, at a cut far below the order (8 to 4) or just below it (33 to 31)
    for order, cut in ((8, 4), (33, 31)):
        at_limit = _power_of_a11(_EDGE - 1, order=order).truncate(cut)
        past = _power_of_a11(_EDGE, order=order).truncate(cut)
        assert (at_limit * past).coefficient((2,)) == GradedPolynomial(
            FREE, {((a_gen(1, 1), 2 * _EDGE - 1),): 1})
        with pytest.raises(ValidationError, match="exceeds the limit"):
            past * past


@pytest.mark.parametrize("kind", sorted(_BACKENDS))
def test_the_law_is_its_own_variable_swap(kind):
    # so F(s, t) = F(t, s) term for term, and sum may put either image first
    for order in (1, 2, 5, 9):
        law = FormalGroupLaw(_BACKENDS[kind], order)
        swapped = {(j, i): p for (i, j), p in law.series.items()}
        assert TruncatedSeries(("u", "v"), order, law.backend, swapped) == law.series


def test_sum_raises_what_the_fixed_orientation_raises():
    # in each case the second argument has fewer terms, so a swap before
    # the checks would name the other series or the other order first
    law = FormalGroupLaw(FREE, 4)
    x = TruncatedSeries.variable("x", ("x",), 4, FREE)
    big = TruncatedSeries(("x",), 4, FREE, {(1,): 1, (2,): 1, (3,): _a(1, 1)})
    one = TruncatedSeries.one(("x",), 4, FREE)
    y = TruncatedSeries.variable("y", ("y",), 4, FREE)
    x3, big3 = x.truncate(3), big.truncate(3)
    x_add = TruncatedSeries.variable("x", ("x",), 4, ADDITIVE)
    big_add = TruncatedSeries(("x",), 4, ADDITIVE, {(1,): 1, (2,): 1})
    cases = [
        (big + one, x, ConstantTermError, "series for 'u' has a constant term"),
        (big, x + one, ConstantTermError, "series for 'v' has a constant term"),
        (big + one, x + one, ConstantTermError, "series for 'u' has a constant term"),
        (big, y, ValidationError, "variable mismatch: ('x',) vs ('y',)"),
        (big, x3, OrderError, "order mismatch: 4 vs 3"),
        (big3, x3, OrderError, "substitution needs matching orders (3 vs 4)"),
        (big, x_add, BackendMismatchError, "mixed backends in series arithmetic"),
        (big_add, x_add, BackendMismatchError, "substitution across different backends"),
        (big, 5, ValidationError, "substitution values must be series"),
        (5, x, ValidationError, "substitution values must be series"),
    ]
    for s, t, kind, message in cases:
        raised = []
        for add in (law.sum, lambda s, t: oracles.sum_fixed_orientation(law, s, t)):
            with pytest.raises(kind) as err:
                add(s, t)
            raised.append((type(err.value), str(err.value)))
        assert raised[0] == raised[1] == (kind, message)


def test_a_tie_in_term_counts_keeps_the_given_order():
    # s = u + u^2 and t = u + u^3 have two terms each; F(s, t) makes 88
    # products and F(t, s) 81, so the count shows which image went first
    law = FormalGroupLaw(FREE, 6)
    u = TruncatedSeries.variable("u", ("u",), 6, FREE)
    s, t = u + u * u, u + u * u * u
    counts = []
    for add in (law.sum, lambda s, t: oracles.sum_fixed_orientation(law, s, t)):
        before = meter.products
        counts.append((add(s, t), meter.products - before))
    assert counts[0] == counts[1] and counts[0][1] == 88


@pytest.mark.parametrize("kind", sorted(_BACKENDS))
def test_a_zero_image_returns_the_other_one(kind):
    # F(x, 0) = F(0, x) = x, taken without a substitution and after the checks
    law, backend = _law(kind, 4), _BACKENDS[kind]
    s = TruncatedSeries(("x", "y"), 4, backend, {(1, 0): 1, (1, 1): 2, (0, 3): -1})
    zero = TruncatedSeries.zero(("x", "y"), 4, backend)
    for a, b in ((s, zero), (zero, s), (zero, zero)):
        result = law.sum(a, b)
        assert result is (b if a is zero else a)
        assert result.to_json() == oracles.sum_fixed_orientation(law, a, b).to_json()
    one = TruncatedSeries.one(("x", "y"), 4, backend)
    with pytest.raises(ConstantTermError, match="series for 'u'"):
        law.sum(s + one, zero)
    with pytest.raises(ConstantTermError, match="series for 'v'"):
        law.sum(zero, s + one)
    with pytest.raises(OrderError):
        law.sum(s, zero.truncate(3))
    other = ADDITIVE if backend is not ADDITIVE else FREE
    with pytest.raises(BackendMismatchError):
        law.sum(s, TruncatedSeries.zero(("x", "y"), 4, other))


class _OracleSumLaw(FormalGroupLaw):
    """The same law, with every formal sum composed term by term."""

    def sum(self, s, t):
        return oracles.substitute_by_terms(self.series, {"u": s, "v": t})


@pytest.mark.parametrize("kind", sorted(_BACKENDS))
def test_derived_series_match_the_oracle_law(kind):
    backend = _BACKENDS[kind]
    for order in (1, 3, 5):
        law, slow = FormalGroupLaw(backend, order), _OracleSumLaw(backend, order)
        for n in (-4, -2, -1, 2, 3, 5):
            assert law.n_series(n) == slow.n_series(n)
        for ns in ((1, 1), (2, -1, 3), (0, -2, 1)):
            fast, ref = law.linear_combination(ns), slow.linear_combination(ns)
            assert fast == ref
            assert fast.to_json() == ref.to_json()
        s, t = law.n_series(2), law.inverse()
        assert law.sum(s, t) == slow.sum(s, t)


# -- Hypothesis: group-law properties -----------------------------------------

@given(
    st.sampled_from(["log", "additive", "mult"]),
    st.integers(1, 5),
    st.data(),
)
def test_associativity_on_random_series(kind, order, data):
    backend = _BACKENDS[kind]
    law = FormalGroupLaw(backend, order)
    names = ("x", "y")
    s, t, w = (data.draw(_series(names, order, backend, low=1, max_terms=4)) for _ in range(3))
    assert law.sum(law.sum(s, t), w) == law.sum(s, law.sum(t, w))


_LOG_LAW = FormalGroupLaw(log_backend(8), 6)


@given(st.integers(-4, 4), st.integers(-4, 4))
def test_n_series_is_additive_on_log(m, n):
    law = _LOG_LAW
    assert law.n_series(m + n) == law.sum(law.n_series(m), law.n_series(n))


@given(
    st.sampled_from(sorted(_BACKENDS)),
    st.integers(1, 8),
    st.integers(-64, 64),
)
def test_n_series_matches_the_fold_oracle(kind, order, n):
    backend = _BACKENDS[kind]
    fast = FormalGroupLaw(backend, order).n_series(n)
    slow = oracles.n_series_by_fold(FormalGroupLaw(backend, order), n)
    assert fast == slow
    assert fast.to_json() == slow.to_json()


@functools.lru_cache(maxsize=None)
def _folded(kind, order, n):
    return oracles.n_series_by_fold(FormalGroupLaw(_BACKENDS[kind], order), n)


@given(
    st.sampled_from(["free", "log"]),
    st.integers(1, 8),
    st.lists(st.integers(-20, 20), max_size=8),
)
@example("free", 8, [3, -1, 0, 1, -5, -20, 20, -2])
@example("log", 8, [-20, 1, -1, 0, 9, -9, 2, -2])
def test_n_series_in_any_call_order_matches_the_fold_oracle(kind, order, ns):
    # one law serves every call, so [-n]u may compose a fold prefix an
    # earlier call left half built, or an interpolated [n]u it cached
    law = FormalGroupLaw(_BACKENDS[kind], order)
    for n in ns:
        fast, slow = law.n_series(n), _folded(kind, order, n)
        assert fast == slow
        assert fast.to_json() == slow.to_json()


@given(
    st.sampled_from(sorted(_BACKENDS)),
    st.integers(0, 6),
    st.sampled_from([("u1",), ("u1", "u2"), ("u1", "u2", "u3")]),
    st.data(),
)
def test_recompose_inverts_support_decompose(kind, order, variables, data):
    backend = _BACKENDS[kind]
    s = data.draw(_series(variables, order, backend, max_terms=8))
    assert recompose(support_decompose(s), variables, order, backend) == s


@given(
    st.sampled_from(["free", "log", "mult"]),
    st.integers(1, 8),
    st.integers(-8, 16),
    st.lists(st.integers(-2, 3), min_size=3, max_size=3),
)
@example("free", 8, 16, [3, -2, 3])
@example("log", 8, -8, [-2, 3, 2])
def test_generator_exponents_stay_below_the_order(kind, order, n, ns):
    # every generator has degree >= 1 and a coefficient of a term of degree
    # <= order has degree <= order - 1, so no exponent nears MAX_EXPONENT
    law = FormalGroupLaw(_BACKENDS[kind], order)
    for s in (law.series, law.inverse(), law.n_series(n), law.linear_combination(ns)):
        for _, coefficient in s.items():
            for monomial, _ in coefficient.sorted_terms():
                assert all(e <= order - 1 for _, e in monomial)


def test_the_mult_law_fits_up_to_order_128():
    # chi(u) = -u / (1 + b u) has b^(k-1) at u^k: order 128 reaches
    # MAX_EXPONENT, and past it the product guard raises, not wraps
    top = MAX_EXPONENT + 1
    inverse = FormalGroupLaw(MULTIPLICATIVE, top).inverse()
    assert inverse.coefficient((top,)) == GradedPolynomial(
        MULTIPLICATIVE, {((b_gen(), MAX_EXPONENT),): 1})
    with pytest.raises(ValidationError, match="exceeds the limit"):
        FormalGroupLaw(MULTIPLICATIVE, top + 1).inverse()
