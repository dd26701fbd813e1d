"""Independent oracles for the test suite.

log_law_coefficients and log_inverse_coefficients recompute expected
values from first principles with their own dense representation (tuples
of m-exponents over Fraction), sharing no code with the package under
test.  The defining equation of the log-backend law is l(F(u, v)) =
l(u) + l(v) with l(t) = t + m1 t^2 + m2 t^3 + ...; solving it degree by
degree needs no series reversion, so agreement with the package's
reversion-based table is meaningful evidence.  Two more share no code
with what they check: specialize reads a FREE result over another backend
by mapping each A(i,j) to lazard_coefficient(i, j, B), a ring map that
carries the FREE law to the law over B (the Lazard ring's universal
property), with polynomial arithmetic only; inverse_by_interpolation reads
chi(u) off the fold of u at n = -1, with no solver.

The rest are different: each is the straightforward algorithm that a
faster one in the package replaced, kept as a reference for it.
tuple_mono_mul and tuple_poly_mul multiply monomials as sorted tuples of
(Generator, exponent) pairs, the representation that packed int keys
replaced; inverse_by_substitution solves F(u, chi(u)) = 0 with one full
substitution per order; product_class_full_order and
apply_divisor_operator_full_bound multiply before truncating;
product_class_by_pairs multiplies the support parts pair by pair, and it
and divisor_class_full_combination decompose the combination at the
law's full order with every support kept, where the package works in the
Stanley-Reisner quotient; substitute_by_terms composes series one term at
a time; power_by_chain builds each power of a substituted image as the
previous one times the image, where the package squares an even power's
half when that makes fewer products; n_series_by_fold builds [n]u with
the full left fold of |n| - 1 law sums, where the package interpolates
from a short shared fold prefix of u and composes [-n]u as [n]u with
chi(u), so the left fold of chi(u) is run here only.
series_mul_two_level and substitute_two_level are the series product and
composition from before a series became one dict of packed keys: terms
keyed by exponent vectors with GradedPolynomial coefficients, one
polynomial product per pair of terms, collected in per-exponent buckets.
chern_mul_by_pairs and chern_substitute_by_terms are the chern product and
substitution from before chern polynomials became series: a double loop
over term pairs, and a sum of term products.  normal_form_in_order
absorbs stray symbols in a chosen order, to check that the package's fixed
order does not matter.  face_classes_by_parts,
apply_divisor_operator_by_pairs and normal_form_by_steps are snc's class
vectors from before they stayed packed: support_decompose and one
evaluate_at_chern per part, checked by the public FaceClassVector
constructor; one cut, one chern product, one shift by the shared symbols
and one chern sum per pair of an entry and a divisor part; and each stray
symbol absorbed one step at a time, the lowest index first.
normal_form_packed is the normal form from before it read decoded terms:
one move per packed series part, then one key addition per term.
log_coefficient_table_by_lists is the log table
from before the series layer built it: l, its powers and its reversion as
lists of coefficients, and F = g(l(u) + l(v)) from a hand-written loop
over the powers of l(u) + l(v) keyed by (u, v) exponent pairs.
sum_fixed_orientation is FormalGroupLaw.sum with s always in F's first
slot, where the package puts the image with fewer terms there.
truncate_by_repack and times_symbols_by_repack decode every series part
and encode it again in the target layout (_repack, the general re-keyer
the package used to have), where the package keeps the keys, filters them
by degree and adds one constant key for the symbols.
multiply_into is the polynomial product from before ring's product kernel
served polynomials and series alike: a pair loop over packed monomials
with an overflow test per product and no work meter, which the two-level
and chern oracles use.  recompose inverts fglcalc.support_decompose with the
package's own shift by a product of variables.  json_coefficient_by_fraction
reads a coefficient string with Fraction's own text parser, where the
package converts the digits its pattern already matched.  add_by_merge is
the sum of two term dicts as polynomials, series and cycle sums each ran
it before they shared one base: an absent key starts from 0.
sorted_rows_by_sort is the product kernel's right operand as it was made
before its terms went to per-degree buckets: a sort keyed by degree, then
one bisection per degree.  law_series_by_constructor builds a law's F
through the checked TruncatedSeries constructor, from exponent pairs and
GradedPolynomial coefficients, where the package packs the keys directly.
"""

from bisect import bisect_right
from fractions import Fraction
from functools import reduce
from math import comb
from operator import add, itemgetter, mul, or_

import fglcalc.ring
from fglcalc import (
    BackendMismatchError,
    ChernPolynomial,
    FaceClassVector,
    FormalGroupLaw,
    GradedPolynomial,
    TruncatedSeries,
    ValidationError,
    evaluate_at_chern,
    lazard_coefficient,
    log_backend,
    m_gen,
    support_decompose,
)
from fglcalc.chern import _symbols
from fglcalc.ring import MAX_EXPONENT
from fglcalc.series import _layout
from fglcalc.snc import _check_law, _check_multiplicities, _face_combination, require_valid

# dense polynomial in m1..mk: dict mapping exponent tuples to Fraction;
# tuples are right-padded with zeros as needed


def mono_mul(e1, e2):
    n = max(len(e1), len(e2))
    e1 = e1 + (0,) * (n - len(e1))
    e2 = e2 + (0,) * (n - len(e2))
    return tuple(a + b for a, b in zip(e1, e2))


def poly_add(p, q):
    out = dict(p)
    for mono, c in q.items():
        acc = out.get(mono, Fraction(0)) + c
        if acc:
            out[mono] = acc
        else:
            out.pop(mono, None)
    return out


def poly_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono = mono_mul(m1, m2)
            acc = out.get(mono, Fraction(0)) + c1 * c2
            if acc:
                out[mono] = acc
            else:
                out.pop(mono, None)
    return out


def poly_scale(p, c):
    c = Fraction(c)
    if not c:
        return {}
    return {m: v * c for m, v in p.items()}


def m_sym(k):
    """The symbol m_k as a dense polynomial."""
    exps = [0] * k
    exps[k - 1] = 1
    return {tuple(exps): Fraction(1)}


ONE = {(): Fraction(1)}


def normalize(p):
    """Strip trailing zeros from exponent tuples and drop zero entries."""
    out = {}
    for mono, c in p.items():
        while mono and mono[-1] == 0:
            mono = mono[:-1]
        if c:
            out[mono] = out.get(mono, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


# -- bivariate series: dict[(i, j)] -> dense poly ---------------------------

def biv_mul(f, g, top):
    out = {}
    for (i1, j1), p in f.items():
        for (i2, j2), q in g.items():
            if i1 + i2 + j1 + j2 > top:
                continue
            key = (i1 + i2, j1 + j2)
            prod = poly_mul(p, q)
            out[key] = poly_add(out.get(key, {}), prod)
    return {k: v for k, v in out.items() if v}


def log_law_coefficients(top):
    """All a_{i,j} with i + j <= top, solved from l(F) = l(u) + l(v).

    Returns dict[(i, j)] -> dense polynomial.  Degree-by-degree: the degree
    d part of F equals the degree d part of l(u) + l(v) minus the degree d
    part of sum_k m_k F^{k+1} computed from lower-degree parts of F only
    (F has no constant term, so F_d never feeds its own equation).
    """
    ell = {}  # l(u) + l(v) as a bivariate series
    for k in range(1, top + 1):
        coeff = ONE if k == 1 else m_sym(k - 1)
        ell[(k, 0)] = dict(coeff)
        ell[(0, k)] = dict(coeff)

    f = {}
    for d in range(1, top + 1):
        correction = {}
        power = dict(f)  # F^1 restricted to what is known (degrees < d)
        for k in range(1, d):
            power = biv_mul(power, f, top)  # F^{k+1}
            mk = m_sym(k)
            for (i, j), p in power.items():
                if i + j == d:
                    correction[(i, j)] = poly_add(
                        correction.get((i, j), {}), poly_mul(mk, p)
                    )
        for i in range(0, d + 1):
            j = d - i
            target = ell.get((i, j), {})
            value = poly_add(target, poly_scale(correction.get((i, j), {}), -1))
            if value:
                f[(i, j)] = value

    return {
        (i, j): normalize(p)
        for (i, j), p in f.items()
        if i >= 1 and j >= 1
    }


def log_inverse_coefficients(top):
    """Coefficients of chi(u) with l(chi(u)) = -l(u), as dict[k] -> dense poly."""
    ell = {k: (dict(ONE) if k == 1 else m_sym(k - 1)) for k in range(1, top + 1)}
    target = {k: poly_scale(p, -1) for k, p in ell.items()}

    chi = {}
    for d in range(1, top + 1):
        correction = {}
        power = dict(chi)
        for k in range(1, d):
            nxt = {}
            for a, p in power.items():
                for b, q in chi.items():
                    if a + b <= top:
                        nxt[a + b] = poly_add(nxt.get(a + b, {}), poly_mul(p, q))
            power = nxt  # chi^{k+1}
            if d in power:
                correction = poly_add(correction, poly_mul(m_sym(k), power[d]))
        value = poly_add(target.get(d, {}), poly_scale(correction, -1))
        if value:
            chi[d] = value
    return {k: normalize(p) for k, p in chi.items()}


def graded_to_dense(poly):
    """Convert a package polynomial over the log backend to the dense form."""
    out = {}
    for mono, coeff in poly.sorted_terms():
        exps = []
        for gen, e in mono:
            assert gen.kind == "m", f"unexpected generator {gen.name}"
            while len(exps) < gen.i:
                exps.append(0)
            exps[gen.i - 1] = e
        key = tuple(exps)
        out[key] = out.get(key, Fraction(0)) + Fraction(coeff)
    return normalize(out)


# -- the full-order intersection product ------------------------------------

def product_class_full_order(config, n_mults, p_mults, law):
    """fglcalc.snc.product_class without any early truncation.

    Multiplies whole support parts at law.order, multiplies by the shared
    variables as a series, and only then cuts at the face dimension.
    """
    parts_n = support_decompose(law.linear_combination(tuple(n_mults)))
    parts_p = support_decompose(law.linear_combination(tuple(p_mults)))
    r = config.r
    variables = tuple(f"u{i}" for i in range(1, r + 1))
    entries = {}
    for J, part_n in parts_n.items():
        if not J:
            continue
        for I, part_p in parts_p.items():
            if not I:
                continue
            K = J | I
            if K not in config.faces:
                continue
            series = part_n * part_p
            common = J & I
            if common:
                exps = tuple(1 if i in common else 0 for i in range(1, r + 1))
                series = series * TruncatedSeries(
                    variables, law.order, law.backend, {exps: 1}
                )
            # the constructor drops every term above the bound
            cp = ChernPolynomial(r, config.face_dim(K), law.backend, dict(series.items()))
            if K in entries:
                cp = entries[K] + cp
            entries[K] = cp
    return FaceClassVector(config, entries)


def apply_divisor_operator_full_bound(vector, multiplicities, law):
    """fglcalc.snc.apply_divisor_operator multiplying at the face bound.

    Multiplies each factor at the full dimension of the target face, then
    by one chern symbol per shared index.
    """
    config = vector.config
    parts_n = support_decompose(law.linear_combination(tuple(multiplicities)))
    r = config.r
    entries = {}
    for I, beta in vector.items():
        for J, part_n in parts_n.items():
            if not J:
                continue
            K = J | I
            if K not in config.faces:
                continue
            bound = config.face_dim(K)
            factor = ChernPolynomial(r, bound, law.backend, dict(part_n.items()))
            term = factor * ChernPolynomial(r, bound, law.backend, dict(beta.items()))
            for i in J & I:
                term = term * ChernPolynomial.symbol(i, r, bound, law.backend)
            if K in entries:
                term = entries[K] + term
            entries[K] = term
    return FaceClassVector(config, entries)


# -- the intersection product pair by pair ------------------------------------

def divisor_class_full_combination(config, multiplicities, law):
    """fglcalc.snc.divisor_class read off the unreduced combination.

    Decomposes F^{(n)} at the law's full order, every support included, and
    keeps the parts on faces.
    """
    require_valid(config)
    ns = _check_multiplicities(config, multiplicities)
    _check_law(config, law)
    parts = support_decompose(law.linear_combination(ns))
    entries = {}
    for J, part in parts.items():
        if J and J in config.faces:
            entries[J] = evaluate_at_chern(part, config.face_dim(J))
    return FaceClassVector(config, entries)


def product_class_by_pairs(config, n_mults, p_mults, law):
    """fglcalc.snc.product_class as a sum over pairs of support parts.

    Sums, over pairs of supports (J from the first divisor, I from the
    second) whose union K is a face, the evaluation of
    F_J * F_I * prod_{i in J and I} u_i at the dimension of D_K.  Only the
    terms of F_J * F_I up to degree dim D_K - |J and I| survive, so both
    factors are cut there before multiplying; every degree is nonnegative,
    so the cut commutes with the product.
    """
    require_valid(config)
    ns = _check_multiplicities(config, n_mults, "first multiplicities")
    ps = _check_multiplicities(config, p_mults, "second multiplicities")
    _check_law(config, law)
    parts_n = support_decompose(law.linear_combination(ns))
    parts_p = support_decompose(law.linear_combination(ps))
    entries: dict = {}
    for J, part_n in parts_n.items():
        if not J:
            continue
        for I, part_p in parts_p.items():
            if not I:
                continue
            K = J | I
            if K not in config.faces:
                continue
            dim = config.face_dim(K)
            common = J & I
            top = dim - len(common)
            if top < 0:
                continue  # every term lies above the face dimension
            series = part_n.truncate(top) * part_p.truncate(top)
            if common:
                series = TruncatedSeries(series.variables, dim, series.backend, {
                    tuple(e + 1 if i in common else e for i, e in enumerate(exps, 1)): poly
                    for exps, poly in series.items()
                })
            cp = evaluate_at_chern(series, dim)
            if K in entries:
                cp = entries[K] + cp
            entries[K] = cp
    return FaceClassVector(config, entries)


def recompose(parts: dict, variables, order, backend) -> TruncatedSeries:
    """Inverse of fglcalc.support_decompose: sum of G_J * prod_{i in J} u_i."""
    total = TruncatedSeries.zero(variables, order, backend)
    for support, part in parts.items():
        total = total + times_symbols_by_repack(part, support, order)
    return total


# -- tuple monomials ---------------------------------------------------------

def tuple_mono_mul(m1, m2):
    """Merge two sorted (Generator, exponent) tuples, adding shared exponents."""
    out = []
    i = j = 0
    while i < len(m1) and j < len(m2):
        g1, e1 = m1[i]
        g2, e2 = m2[j]
        if g1.sort_key == g2.sort_key:
            out.append((g1, e1 + e2))
            i += 1
            j += 1
        elif g1.sort_key < g2.sort_key:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def tuple_terms(poly):
    """A package polynomial as a dict from tuple monomials to coefficients."""
    return dict(poly.sorted_terms())


def tuple_poly_mul(p, q):
    """Product of two tuple-monomial term dicts, zero terms dropped."""
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono = tuple_mono_mul(m1, m2)
            out[mono] = out.get(mono, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def tuple_poly_add(p, q):
    """Sum of two tuple-monomial term dicts, zero terms dropped."""
    out = dict(p)
    for mono, c in q.items():
        out[mono] = out.get(mono, 0) + c
    return {m: c for m, c in out.items() if c}


# -- the formal inverse by repeated substitution ------------------------------

def inverse_by_substitution(law):
    """fglcalc.FormalGroupLaw.inverse solved with one substitution per order.

    Substitutes the inverse known so far into F and reads off the lowest
    wrong coefficient of the residual.
    """
    u_var = ("u",)
    chi = {(1,): GradedPolynomial.constant(-1, law.backend)}
    u = TruncatedSeries.variable("u", u_var, law.order, law.backend)
    for k in range(2, law.order + 1):
        partial = TruncatedSeries(u_var, law.order, law.backend, chi)
        residual = law.series.substitute({"u": u, "v": partial})
        # the v-derivative of F at v=0 is 1, so the u^k residual is
        # exactly the needed correction with opposite sign
        bad = residual.coefficient((k,))
        if not bad.is_zero():
            chi[(k,)] = -bad
    return TruncatedSeries(u_var, law.order, law.backend, chi)


def inverse_by_interpolation(law):
    """fglcalc.FormalGroupLaw.inverse as the fold's interpolation at n = -1.

    The coefficient of u^k in [n]u is a polynomial of degree <= k in n
    (FormalGroupLaw.n_series), so Lagrange's formula through [1]u..[k]u
    read at n = -1 gives the coefficient of u^k in chi(u):
    sum_{j=1..k} (-1)^j C(k+1, j+1) [u^k][j]u.  The folds are plain law sums.
    """
    u = TruncatedSeries.variable("u", ("u",), law.order, law.backend)
    folds = [None, u]
    while len(folds) <= law.order:
        folds.append(law.sum(folds[-1], u))
    return TruncatedSeries(("u",), law.order, law.backend, {
        (k,): sum((folds[j].coefficient((k,)) * ((-1) ** j * comb(k + 1, j + 1))
                   for j in range(1, k + 1)), GradedPolynomial.zero(law.backend))
        for k in range(1, law.order + 1)
    })


# -- composition one term at a time --------------------------------------------

def substitute_by_terms(series, assignment):
    """fglcalc.TruncatedSeries.substitute as a sum of full-order term products.

    Each term c * x0^e0 * x1^e1 * ... of series becomes the series product
    of the assigned powers, scaled by c and added to the total.  The
    argument checks are left to the package method.
    """
    images = [assignment[v] for v in series.variables]
    target_vars, order, backend = images[0].variables, series.order, series.backend
    one = TruncatedSeries.one(target_vars, order, backend)
    powers = [[one, s] for s in images]

    def power(i, e):
        cache = powers[i]
        while len(cache) <= e:
            cache.append(cache[-1] * cache[1])
        return cache[e]

    total = TruncatedSeries.zero(target_vars, order, backend)
    for exps, poly in series.items():
        factor = None
        for i, e in enumerate(exps):
            if e:
                factor = power(i, e) if factor is None else factor * power(i, e)
        if factor is None:
            factor = one
        total = total + factor.scale(poly)
    return total


def power_by_chain(cache, need, e):
    """fglcalc.series._power with every power a chain product P^k = P^(k-1) * P.

    cache holds the one and the image, need the degree up to which each
    power is read; each power is cut where the package cuts it.
    """
    while len(cache) <= e:
        k = len(cache)
        cut = max(0, max(d for f, d in need.items() if f >= k))
        cache.append(cache[-1]._cut(cut) * cache[1]._cut(cut))
    return cache[e]


# -- the sum in a fixed orientation, and re-encoded cuts -------------------------

def sum_fixed_orientation(law, s, t):
    """F(s, t) with s in F's first slot, whichever image has fewer terms."""
    return law.series.substitute({"u": s, "v": t})


def _repack(terms, src, dst, top, move=None):
    """terms re-keyed from layout src to dst, dropping those of degree above top.

    move, if given, maps each exponent vector to the one it becomes; it
    must be one to one, since the moved terms are not added up.
    """
    series_mask, src_shift, dst_shift = src.series_mask, src.shift, dst.shift
    parts = {}  # old series part -> new one, or None to drop
    out = {}
    for k, c in terms.items():
        part = k & series_mask
        new = parts.get(part, -1)
        if new == -1:
            exps = src.exponents(part)
            if move is not None:
                exps = move(exps)
            new = parts[part] = dst.encode(exps) if sum(exps) <= top else None
        if new is not None:
            out[new + (k >> src_shift << dst_shift)] = c
    return out


def truncate_by_repack(series, order):
    """fglcalc.TruncatedSeries.truncate with every part decoded and encoded again."""
    src, dst = series._layout, _layout(len(series.variables))
    terms = _repack(series._terms, src, dst, order)
    return series._raw(series.variables, order, series.backend, terms, dst)


def times_symbols_by_repack(series, support, order):
    """series times prod_{i in support} u_i (1-based), at order: every exponent
    vector moved one by one, as snc.apply_divisor_operator's offset does per key."""
    src, dst = series._layout, _layout(len(series.variables))
    terms = _repack(series._terms, src, dst, order, lambda exps: tuple(
        e + 1 if i in support else e for i, e in enumerate(exps, 1)
    ))
    return series._raw(series.variables, order, series.backend, terms, dst)


# -- the two-level series product and composition ------------------------------

def multiply_into(p1, p2, acc: dict):
    """Add the polynomial product p1 * p2 into a {monomial: coefficient} dict.

    A product monomial that reaches a field's top bit raises, as in the package.
    """
    for m1, c1 in p1._terms.items():
        for m2, c2 in p2._terms.items():
            mono = m1 + m2
            if mono & fglcalc.ring._top_bits:
                raise ValidationError(f"a product exponent exceeds the limit {MAX_EXPONENT}")
            acc[mono] = acc.get(mono, 0) + c1 * c2


def from_accumulator(backend, acc: dict):
    """A multiply_into dict as a GradedPolynomial, zero sums dropped."""
    return GradedPolynomial._raw(backend, {m: c for m, c in acc.items() if c})


def _by_degree(terms: dict) -> list:
    """(degree, exponents, coefficient) triples of a term dict, lowest degree first."""
    return sorted(((sum(e), e, p) for e, p in terms.items()), key=itemgetter(0))


def _accumulate_product(left, right: list, order: int, acc: dict):
    """Add left * right, cut above total degree order, into acc.

    left yields (degree, exponents, coefficient) triples in any order; right
    is a _by_degree list, so each row stops at its first term past the
    order.  acc maps exponents to {monomial: coefficient} buckets.
    """
    for d1, e1, p1 in left:
        room = order - d1
        for d2, e2, p2 in right:
            if d2 > room:
                break
            key = tuple(map(add, e1, e2))
            bucket = acc.get(key)
            if bucket is None:
                bucket = acc[key] = {}
            multiply_into(p1, p2, bucket)


def _collect(backend, acc: dict) -> dict:
    """Finalize _accumulate_product buckets into a term dict, zeros dropped."""
    out = {}
    for exps, bucket in acc.items():
        poly = from_accumulator(backend, bucket)
        if poly:
            out[exps] = poly
    return out


def _like(series, variables, order, terms):
    """A series of the class of `series` (chern or plain) from a two-level term dict."""
    if isinstance(series, ChernPolynomial):
        return ChernPolynomial(len(variables), order, series.backend, terms)
    return TruncatedSeries(variables, order, series.backend, terms)


def series_mul_two_level(left, right):
    """fglcalc.TruncatedSeries.__mul__ on {exponents: GradedPolynomial} terms.

    Each pair of terms within the order makes one polynomial product into
    the bucket of its exponent sum.  The operand checks are left to the
    package.
    """
    acc: dict = {}
    _accumulate_product(
        ((sum(e), e, p) for e, p in left.items()),
        _by_degree(dict(right.items())), left.order, acc,
    )
    return _like(left, left.variables, left.order, _collect(left.backend, acc))


def substitute_two_level(series, assignment):
    """fglcalc.TruncatedSeries.substitute on {exponents: GradedPolynomial} terms.

    The same grouping by rest exponents and the same cuts as the package,
    with every product a two-level pair loop.  The argument checks are left
    to the package method.
    """
    images = [assignment[v] for v in series.variables]
    target_vars, order, backend = images[0].variables, series.order, series.backend

    def product(left: list, right: list, cut: int) -> list:
        cut = max(cut, 0)
        acc: dict = {}
        _accumulate_product((t for t in left if t[0] <= cut),
                            [t for t in right if t[0] <= cut], cut, acc)
        return _by_degree(_collect(backend, acc))

    one = [(0, (0,) * len(target_vars), GradedPolynomial.one(backend))]
    powers = [[one, _by_degree(dict(s.items()))] for s in images]
    low = [p[1][0][0] if p[1] else order + 1 for p in powers]

    columns: dict = {}
    for exps, poly in series.items():
        columns.setdefault(exps[1:], []).append((exps[0], poly))
    need = [{} for _ in images]
    for rest, column in columns.items():
        rest_low = sum(map(mul, rest, low[1:]))
        inner_low = min(e0 for e0, _ in column) * low[0]
        for e0, _ in column:
            need[0][e0] = max(need[0].get(e0, -1), order - rest_low)
        for i, e in enumerate(rest, 1):
            if e:
                room = order - inner_low - rest_low + e * low[i]
                need[i][e] = max(need[i].get(e, -1), room)

    def power(i: int, e: int) -> list:
        cache = powers[i]
        while len(cache) <= e:
            k = len(cache)
            cut = max(d for f, d in need[i].items() if f >= k)
            cache.append(product(cache[-1], cache[1], cut))
        return cache[e]

    acc: dict = {}
    for rest, column in columns.items():
        rest_factor = None
        for i, e in enumerate(rest, 1):
            if e:
                p = power(i, e)
                rest_factor = p if rest_factor is None else product(rest_factor, p, order)
        if rest_factor is None:
            inner, room = acc, order
        elif rest_factor:
            inner, room = {}, order - rest_factor[0][0]
        else:
            continue  # the rest factor vanishes below the order
        for e0, poly in column:
            if e0 * low[0] > room:
                continue
            for d, exps, q in power(0, e0):
                if d > room:
                    break
                bucket = inner.get(exps)
                if bucket is None:
                    bucket = inner[exps] = {}
                multiply_into(poly, q, bucket)
        if rest_factor is not None:
            _accumulate_product(
                ((sum(e), e, p) for e, p in _collect(backend, inner).items()),
                rest_factor, order, acc,
            )
    return _like(images[0], target_vars, order, _collect(backend, acc))


def n_series_by_fold(law, n):
    """fglcalc.FormalGroupLaw.n_series as the full left fold.

    [n]u = F(...F(F(u, u), u)..., u) with |n| - 1 law sums, and [-n]u the
    same fold of chi(u), which the package no longer runs: it composes
    [n]u with chi(u) instead.  Nothing is cached.
    """
    u = TruncatedSeries.variable("u", ("u",), law.order, law.backend)
    if n == 0:
        result = TruncatedSeries.zero(("u",), law.order, law.backend)
    elif n > 0:
        result = u
        for _ in range(n - 1):
            result = law.sum(result, u)
    else:
        chi = law.inverse()
        result = chi
        for _ in range(-n - 1):
            result = law.sum(result, chi)
    return result


# -- chern arithmetic term by term ---------------------------------------------

def chern_mul_by_pairs(left, right):
    """fglcalc.ChernPolynomial's product as a double loop over term pairs.

    Pairs whose c-degrees add up past the bound are skipped.  The operand
    checks are left to the package.
    """
    bound = left.dim_bound
    acc: dict = {}
    for e1, p1 in left.items():
        d1 = sum(e1)
        for e2, p2 in right.items():
            if d1 + sum(e2) > bound:
                continue
            key = tuple(a + b for a, b in zip(e1, e2))
            bucket = acc.get(key)
            if bucket is None:
                bucket = acc[key] = {}
            multiply_into(p1, p2, bucket)
    out = {}
    for key, bucket in acc.items():
        poly = from_accumulator(left.backend, bucket)
        if not poly.is_zero():
            out[key] = poly
    return ChernPolynomial(left.nvars, bound, left.backend, out)


def chern_substitute_by_terms(series, values):
    """A series at chern values, one value per variable, as a sum of term products.

    Terms of series above the values' bound are skipped, since each value
    has no constant term; the rest become products of cached powers, built
    with chern_mul_by_pairs, scaled and added.  The argument checks are left
    to the package's TruncatedSeries.substitute.
    """
    first = values[0]
    nvars, bound, backend = first.nvars, first.dim_bound, first.backend
    one = ChernPolynomial.one(nvars, bound, backend)
    powers = [[one, v] for v in values]

    def power(i, e):
        cache = powers[i]
        while len(cache) <= e:
            cache.append(chern_mul_by_pairs(cache[-1], cache[1]))
        return cache[e]

    total = ChernPolynomial.zero(nvars, bound, backend)
    for exps, poly in series.items():
        if sum(exps) > bound:
            continue
        factor = one
        for i, e in enumerate(exps):
            if e:
                factor = chern_mul_by_pairs(factor, power(i, e))
        total = total + factor.scale(poly)
    return total


# -- a FREE result read over another backend -------------------------------------

def specialize(value, backend):
    """value, computed over FREE, with each A(i,j) read as lazard_coefficient(i, j, backend).

    value is a GradedPolynomial, a series, a ChernPolynomial or a
    FaceClassVector; every coefficient is mapped with GradedPolynomial
    arithmetic and the container is rebuilt through its public constructor.
    """
    if isinstance(value, FaceClassVector):
        return FaceClassVector(value.config, {J: specialize(cp, backend) for J, cp in value.items()})
    if isinstance(value, ChernPolynomial):
        return ChernPolynomial(value.nvars, value.dim_bound, backend, {
            exps: specialize(poly, backend) for exps, poly in value.items()})
    if isinstance(value, TruncatedSeries):
        return TruncatedSeries(value.variables, value.order, backend, {
            exps: specialize(poly, backend) for exps, poly in value.items()})
    total = GradedPolynomial.zero(backend)
    for pairs, c in value.sorted_terms():
        term = GradedPolynomial.constant(c, backend)
        for gen, e in pairs:
            assert gen.kind == "A", gen
            for _ in range(e):
                term = term * lazard_coefficient(gen.i, gen.j, backend)
        total = total + term
    return total


# -- the normal form in any absorption order -----------------------------------

def normal_form_in_order(vector, rank):
    """fglcalc.normal_form, absorbing the stray index of highest rank[j] first."""
    config, r = vector.config, vector.config.r
    acc = {}
    for start, cp in vector.items():
        for exps, poly in cp.items():
            face, exps = start, list(exps)
            stray = [j for j in range(1, r + 1) if exps[j - 1] and j not in face]
            while stray and face in config.faces:
                j = max(stray, key=rank.__getitem__)
                stray.remove(j)
                face, exps[j - 1] = face | {j}, exps[j - 1] - 1
            if face not in config.faces or sum(exps) > config.face_dim(face):
                continue  # absorbed into a missing face, or truncated away
            bucket = acc.setdefault(face, {})
            key = tuple(exps)
            bucket[key] = bucket[key] + poly if key in bucket else poly
    return FaceClassVector(config, {
        face: ChernPolynomial(r, config.face_dim(face), next(iter(terms.values())).backend, terms)
        for face, terms in acc.items()
    })


# -- snc's class vectors as separate chern polynomials ---------------------------

def face_classes_by_parts(config, series):
    """fglcalc.snc._face_classes: the face parts of series, each read at the symbols."""
    return FaceClassVector(config, {
        J: evaluate_at_chern(part, config.face_dim(J))
        for J, part in support_decompose(series).items()
        if J in config.faces
    })


def apply_divisor_operator_by_pairs(vector, multiplicities, law):
    """fglcalc.apply_divisor_operator with one chern sum per pair.

    Each entry at a face I is multiplied by every support part F_J of the
    divisor's face-reduced combination (times the symbols shared between J
    and I) and deposited on the union face, truncated to its dimension.
    Both factors are cut before multiplying; each cut is made once per
    part and degree, since many pairs share it.
    """
    config = vector.config
    require_valid(config)
    ns = _check_multiplicities(config, multiplicities)
    _check_law(config, law)
    parts_n = support_decompose(_face_combination(config, ns, law))
    factors: dict = {}  # (J, degree) -> F_J at the symbols, cut there
    entries: dict = {}
    for I, beta in vector.items():
        cuts: dict = {}  # degree -> beta cut there
        for J, part_n in parts_n.items():
            K = J | I
            if K not in config.faces:
                continue
            bound = config.face_dim(K)
            common = J & I
            top = bound - len(common)
            if top < 0:
                continue  # every term lies above the face dimension
            factor = factors.get((J, top))
            if factor is None:
                factor = factors[J, top] = evaluate_at_chern(part_n, top)
            cut = cuts.get(top)
            if cut is None:
                cut = cuts[top] = beta.truncate(top)
            term = factor * cut
            if common:
                term = times_symbols_by_repack(term, common, bound)
            if K in entries:
                term = entries[K] + term
            entries[K] = term
    return FaceClassVector(config, entries)


def normal_form_by_steps(vector):
    """fglcalc.normal_form, each stray symbol absorbed in its own step.

    The lowest stray index moves first; the face and the degree are checked
    after every step.
    """
    config = vector.config
    require_valid(config)
    r = config.r

    def destination(face, exps):
        # (face, exponents) where terms at face with exps end up, or None
        while True:
            stray = next((j for j in range(1, r + 1) if exps[j - 1] and j not in face), None)
            if stray is None:
                return (face, exps) if sum(exps) <= config.face_dim(face) else None
            face = face | {stray}
            if face not in config.faces:
                return None
            exps = tuple(e - 1 if k == stray else e for k, e in enumerate(exps, start=1))
            if sum(exps) > config.face_dim(face):
                return None

    acc: dict = {}  # face -> (backend, packed terms at the face dimension)
    for J, cp in vector.items():
        src = cp._layout
        series_mask, src_shift = src.series_mask, src.shift
        moves: dict = {}  # series part -> (bucket, new series part, its shift), or None
        for k, c in cp._terms.items():
            move = moves.get(k & series_mask, 0)
            if move == 0:
                dest = destination(J, src.exponents(k & series_mask))
                if dest is not None:
                    face, exps = dest
                    backend, bucket = acc.setdefault(face, (cp.backend, {}))
                    if backend != cp.backend:
                        raise BackendMismatchError("mixed backends in a class vector")
                    dst = _layout(r)
                    dest = (bucket, dst.encode(exps), dst.shift)
                move = moves[k & series_mask] = dest
            if move is not None:
                bucket, part, shift = move
                key = part + (k >> src_shift << shift)
                total = bucket.get(key, 0) + c
                if total:
                    bucket[key] = total
                else:
                    del bucket[key]

    entries = {}
    for face, (backend, terms) in acc.items():
        dim = config.face_dim(face)
        entries[face] = ChernPolynomial._raw(_symbols(r), dim, backend, terms, _layout(r))
    return FaceClassVector(config, entries)


def normal_form_packed(vector):
    """fglcalc.normal_form on packed keys, each series part moved once.

    The stray indices S of a series part are found once per part and kept
    with the part's bucket at J + S and its key there, less one power of
    each stray symbol; each term then moves with one key addition.
    """
    config = vector.config
    require_valid(config)
    r = config.r
    acc: dict = {}  # face -> (backend, its layout, packed terms at the face dimension)
    for J, cp in vector._entries.items():
        src = cp._layout
        series_mask, src_shift, units = src.series_mask, src.shift, src.units
        moves: dict = {}  # series part -> (bucket, new series part, its shift), or None
        for k, c in cp._terms.items():
            move = moves.get(k & series_mask, 0)
            if move == 0:
                part = k & series_mask
                stray = src.support(part) - J
                face = J | stray
                move = None
                if face in config.faces:
                    _, dst, bucket = acc.setdefault(
                        face, (cp.backend, _layout(r), {}))
                    part -= sum(units[j - 1] for j in stray)
                    if dst is not src:
                        part = dst.encode(src.exponents(part))
                    move = (bucket, part, dst.shift)
                moves[k & series_mask] = move
            if move is not None:
                bucket, part, shift = move
                key = part + (k >> src_shift << shift)
                total = bucket.get(key, 0) + c
                if total:
                    bucket[key] = total
                else:
                    del bucket[key]
    return FaceClassVector._raw(config, {
        face: ChernPolynomial._raw(_symbols(r), config.face_dim(face), backend, terms, layout)
        for face, (backend, layout, terms) in acc.items() if terms
    })


def _poly_list_mul(a, b, top, backend):
    # product of univariate series given as coefficient lists, truncated at top
    out = [GradedPolynomial.zero(backend) for _ in range(top + 1)]
    for i, pa in enumerate(a):
        if pa.is_zero():
            continue
        for j in range(top - i + 1):
            pb = b[j]
            if not pb.is_zero():
                out[i + j] = out[i + j] + pa * pb
    return out


def log_coefficient_table_by_lists(order: int):
    """All a_{i,j} with i+j-1 <= order on the log backend of that order.

    Reverts l(t) = t + m(1) t^2 + m(2) t^3 + ... to g with g(l(t)) = t, then
    expands F(u, v) = g(l(u) + l(v)) up to total degree order + 1.
    """
    backend = log_backend(order)
    top = order + 1
    zero = GradedPolynomial.zero(backend)
    one = GradedPolynomial.one(backend)

    ell = [zero, one] + [
        GradedPolynomial.generator(m_gen(k - 1), backend) for k in range(2, top + 1)
    ]

    # powers of l, then reversion coefficients g[k] solving sum g_j l^j = t
    ell_pows = [None, list(ell)]
    for _ in range(2, top + 1):
        ell_pows.append(_poly_list_mul(ell_pows[-1], ell, top, backend))
    g = [zero, one]
    for k in range(2, top + 1):
        acc = zero
        for j in range(1, k):
            term = ell_pows[j][k]
            if not term.is_zero():
                acc = acc + g[j] * term
        g.append(-acc)

    # s = l(u) + l(v) as a bivariate truncated series, then F = sum g_j s^j
    s = {}
    for k in range(1, top + 1):
        if not ell[k].is_zero():
            s[(k, 0)] = ell[k]
            s[(0, k)] = ell[k]
    f_terms: dict = {}
    s_pow = {(0, 0): one}
    for j in range(1, top + 1):
        nxt: dict = {}
        for (e1, e2), p in s_pow.items():
            for (d1, d2), q in s.items():
                if e1 + d1 + e2 + d2 > top:
                    continue
                key = (e1 + d1, e2 + d2)
                prod = p * q
                nxt[key] = nxt.get(key, zero) + prod
        s_pow = {k: v for k, v in nxt.items() if not v.is_zero()}
        gj = g[j]
        if gj.is_zero():
            continue
        for key, p in s_pow.items():
            f_terms[key] = f_terms.get(key, zero) + gj * p

    # sanity: the unit axiom must come out on the nose
    assert f_terms.get((1, 0), zero) == one
    for k in range(2, top + 1):
        assert f_terms.get((k, 0), zero).is_zero()

    table = {}
    for (i, j), p in f_terms.items():
        if i >= 1 and j >= 1:
            table[(i, j)] = p
    for i in range(1, top):
        for j in range(1, top - i + 1):
            table.setdefault((i, j), zero)
    return table


def json_coefficient_by_fraction(text):
    """A coefficient string such as "-3/4" as Fraction parses it, as the package did."""
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValidationError(f"bad coefficient {text!r}") from exc


def add_by_merge(left: dict, right: dict) -> dict:
    """The term dict of a sum, cancelled terms dropped, with 0 + c for a new key."""
    out = dict(left)
    for k, c in right.items():
        total = out.get(k, 0) + c
        if total:
            out[k] = total
        else:
            del out[k]
    return out


def sorted_rows_by_sort(terms: dict, mask: int, shift: int, order: int) -> tuple:
    """(pairs, ends, bound) of ring._sorted_rows from a stable sort by degree and bisections."""
    def degree(pair):
        return pair[0] & mask

    pairs = sorted(terms.items(), key=degree)
    ends = [bisect_right(pairs, d, key=degree) for d in range(order + 1)]
    return pairs, ends, reduce(or_, terms, 0) >> shift << shift


def law_series_by_constructor(law: FormalGroupLaw) -> TruncatedSeries:
    """F(u, v) of law through the public series constructor."""
    terms = {(1, 0): 1, (0, 1): 1}
    for i in range(1, law.order):
        for j in range(1, law.order - i + 1):
            a = lazard_coefficient(i, j, law.backend)
            if not a.is_zero():
                terms[(i, j)] = a
    return TruncatedSeries(("u", "v"), law.order, law.backend, terms)
