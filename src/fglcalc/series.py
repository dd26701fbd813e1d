"""Truncated multivariate power series and the formal group law operations.

A TruncatedSeries holds terms of total degree <= order in named variables,
with GradedPolynomial coefficients; everything beyond the order is discarded
on construction, so arithmetic is exact modulo (u_1, ..., u_r)^{order+1}.
Results keep the class of the left operand (in substitute, of the images),
so a subclass such as fglcalc.chern.ChernPolynomial is closed under them.

Composition (substitute) runs in one pass over coefficient buckets: the
terms are grouped by their exponents in every variable but the first, each
group's sum of first-variable powers is accumulated Horner-style and cut at
the degree its rest factor leaves, and the group is then multiplied by that
rest factor straight into the result.  No series is scaled or added on the
way.

FormalGroupLaw bundles a backend and an order and derives from them the
two-variable law F(u, v), the formal inverse, n-fold sums [n]u, and the
multi-variable combinations F^{(n_1, ..., n_r)}.  Results are cached on the
instance; the iterated sums fold left to right.  [n]u reads one fold prefix
per sign, [0]u, [1]u = u, [2]u = F(u, u), ..., kept on the law and run at
most up to [order]u; beyond it the coefficient of u^k is a polynomial of
degree <= k in n, which integer Lagrange weights recover exactly from the
prefix.  That needs no associativity, so it equals the left fold on the
free law too.
"""

from __future__ import annotations

from math import comb
from operator import add, itemgetter, mul

from .errors import (
    BackendMismatchError,
    ConstantTermError,
    OrderError,
    ValidationError,
    is_integer,
)
from .ring import CoefficientBackend, GradedPolynomial, lazard_coefficient

_ZERO_EXP_CACHE: dict = {}


def _zero_exps(r: int):
    try:
        return _ZERO_EXP_CACHE[r]
    except KeyError:
        return _ZERO_EXP_CACHE.setdefault(r, (0,) * r)


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
            p1._multiply_into(p2, bucket)


def _collect(backend, acc: dict) -> dict:
    """Finalize _accumulate_product buckets into a term dict, zeros dropped."""
    out = {}
    for exps, bucket in acc.items():
        poly = GradedPolynomial._from_accumulator(backend, bucket)
        if poly:
            out[exps] = poly
    return out


def _product(left: list, right: list, cut: int, variables, backend) -> list:
    """Product of two _by_degree lists, cut at degree cut, as a _by_degree list.

    It goes through TruncatedSeries.__mul__, so the powers that composition
    builds show up as series products when that method is profiled.
    """
    cut = max(cut, 0)
    left, right = (
        TruncatedSeries._raw(variables, cut, backend, {e: p for d, e, p in terms if d <= cut})
        for terms in (left, right)
    )
    return _by_degree((left * right)._terms)


class TruncatedSeries:
    """Polynomial truncation of a power series at a fixed total degree."""

    __slots__ = ("variables", "order", "backend", "_terms")

    def __init__(self, variables, order: int, backend: CoefficientBackend, terms=None):
        variables = tuple(variables)
        if not variables:
            raise ValidationError("a series needs at least one variable")
        if len(set(variables)) != len(variables):
            raise ValidationError(f"duplicate variable names in {variables}")
        if not is_integer(order):
            raise OrderError(f"truncation order must be an integer, got {order!r}")
        if order < 0:
            raise OrderError("truncation order must be >= 0")
        self.variables = variables
        self.order = order
        self.backend = backend
        clean = {}
        if terms:
            r = len(variables)
            for exps, poly in terms.items():
                exps = tuple(exps)
                if len(exps) != r or not all(is_integer(e) and e >= 0 for e in exps):
                    raise ValidationError(f"bad exponent vector {exps}")
                if sum(exps) > order:
                    continue  # truncation is the contract, not an error
                if not isinstance(poly, GradedPolynomial):
                    poly = GradedPolynomial.constant(poly, backend)
                if poly.backend != backend:
                    raise BackendMismatchError("series coefficient over wrong backend")
                if not poly.is_zero():
                    clean[exps] = poly
        self._terms = clean

    @classmethod
    def _raw(cls, variables, order, backend, terms):
        self = object.__new__(cls)
        self.variables = variables
        self.order = order
        self.backend = backend
        self._terms = terms
        return self

    @classmethod
    def zero(cls, variables, order, backend) -> TruncatedSeries:
        return cls(variables, order, backend)

    @classmethod
    def one(cls, variables, order, backend) -> TruncatedSeries:
        return cls(variables, order, backend, {_zero_exps(len(tuple(variables))): 1})

    @classmethod
    def variable(cls, name: str, variables, order, backend) -> TruncatedSeries:
        """The series consisting of the single variable `name`."""
        variables = tuple(variables)
        if name not in variables:
            raise ValidationError(f"{name!r} is not among {variables}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, order, backend, {exps: 1})

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def constant_term(self) -> GradedPolynomial:
        zero = _zero_exps(len(self.variables))
        return self._terms.get(zero, GradedPolynomial.zero(self.backend))

    def coefficient(self, exps) -> GradedPolynomial:
        """Coefficient polynomial of the monomial with the given exponents."""
        exps = tuple(exps)
        if len(exps) != len(self.variables):
            raise ValidationError("exponent vector length mismatch")
        return self._terms.get(exps, GradedPolynomial.zero(self.backend))

    def items(self):
        """Nonzero (exponents, coefficient) pairs in canonical order.

        Graded, and within a degree the earlier variables lead: u1^2 before
        u1*u2 before u2^2.
        """
        return sorted(
            self._terms.items(),
            key=lambda kv: (sum(kv[0]), tuple(-e for e in kv[0])),
        )

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.variables == other.variables
            and self.order == other.order
            and self.backend == other.backend
            and self._terms == other._terms
        )

    __hash__ = None

    def _check_compatible(self, other: TruncatedSeries):
        if self.backend != other.backend:
            raise BackendMismatchError("mixed backends in series arithmetic")
        if self.variables != other.variables:
            raise ValidationError(
                f"variable mismatch: {self.variables} vs {other.variables}"
            )
        if self.order != other.order:
            raise OrderError(f"order mismatch: {self.order} vs {other.order}")

    # -- arithmetic -------------------------------------------------------

    def __neg__(self):
        return self._raw(
            self.variables, self.order, self.backend,
            {e: -p for e, p in self._terms.items()},
        )

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self._terms)
        for exps, poly in other._terms.items():
            acc = out.get(exps)
            acc = poly if acc is None else acc + poly
            if acc.is_zero():
                out.pop(exps, None)
            else:
                out[exps] = acc
        return self._raw(self.variables, self.order, self.backend, out)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        acc: dict = {}
        _accumulate_product(
            ((sum(e), e, p) for e, p in self._terms.items()),
            _by_degree(other._terms), self.order, acc,
        )
        return self._raw(self.variables, self.order, self.backend, _collect(self.backend, acc))

    def scale(self, factor) -> TruncatedSeries:
        """Multiply every coefficient by a scalar or a GradedPolynomial."""
        if isinstance(factor, GradedPolynomial):
            if factor.backend != self.backend:
                raise BackendMismatchError("scale factor over wrong backend")
        out = {}
        for exps, poly in self._terms.items():
            q = poly * factor
            if not q.is_zero():
                out[exps] = q
        return self._raw(self.variables, self.order, self.backend, out)

    def truncate(self, order: int) -> TruncatedSeries:
        """The same series cut to total degree <= order, at that order.

        Only lowering is exact: terms above self.order are unknown.
        """
        if not 0 <= order <= self.order:
            raise OrderError(f"cannot truncate order {self.order} to {order}")
        return self._raw(
            self.variables, order, self.backend,
            {e: p for e, p in self._terms.items() if sum(e) <= order},
        )

    # -- substitution -----------------------------------------------------

    def substitute(self, assignment) -> TruncatedSeries:
        """Compose: replace each variable by a series with zero constant term.

        All assigned series must share one variable tuple, the same order as
        this series, and the same backend; the result lives in their
        variables.  Truncation at the shared order is exact because every
        assigned series has no constant term.

        With images s_0, s_1, ... the terms group by their rest exponents
        (e_1, e_2, ...): each group is (sum_e0 c_e0 s_0^e0) * R with the rest
        factor R = s_1^e_1 s_2^e_2 ...  R has no term below its lowest
        degree d, so the inner sum is accumulated only up to degree
        order - d, and every power of an image only up to the highest degree
        any group reads from it.
        """
        missing = [v for v in self.variables if v not in assignment]
        if missing:
            raise ValidationError(f"no substitution given for {missing}")
        images = [assignment[v] for v in self.variables]
        for s in images:
            if not isinstance(s, TruncatedSeries):
                raise ValidationError("substitution values must be series")
            images[0]._check_compatible(s)
        if images[0].backend != self.backend:
            raise BackendMismatchError("substitution across different backends")
        if images[0].order != self.order:
            raise OrderError(
                f"substitution needs matching orders ({images[0].order} vs {self.order})"
            )
        for v, s in zip(self.variables, images):
            if not s.constant_term().is_zero():
                raise ConstantTermError(f"series for {v!r} has a constant term")

        target_vars = images[0].variables
        order = self.order
        backend = self.backend
        one = [(0, _zero_exps(len(target_vars)), GradedPolynomial.one(backend))]
        powers = [[one, _by_degree(s._terms)] for s in images]
        # lowest degree of each image; a zero image never gets below the order
        low = [p[1][0][0] if p[1] else order + 1 for p in powers]

        columns: dict = {}
        for exps, poly in self._terms.items():
            columns.setdefault(exps[1:], []).append((exps[0], poly))
        # need[i][e]: the degree up to which some column uses images[i]**e
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
            # images[i]**e as a _by_degree list, cut above the degree any
            # column reads; the cut never rises with e, so each power is
            # exact as far as the next one needs it
            cache = powers[i]
            while len(cache) <= e:
                k = len(cache)
                cut = max(d for f, d in need[i].items() if f >= k)
                cache.append(_product(cache[-1], cache[1], cut, target_vars, backend))
            return cache[e]

        acc: dict = {}
        for rest, column in columns.items():
            rest_factor = None
            for i, e in enumerate(rest, 1):
                if e:
                    p = power(i, e)
                    rest_factor = p if rest_factor is None else _product(
                        rest_factor, p, order, target_vars, backend
                    )
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
                    poly._multiply_into(q, bucket)
            if rest_factor is not None:
                _accumulate_product(
                    ((sum(e), e, p) for e, p in _collect(backend, inner).items()),
                    rest_factor, order, acc,
                )
        return images[0]._raw(target_vars, order, backend, _collect(backend, acc))

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        terms = []
        for exps, poly in self.items():
            for entry in poly.to_json():
                terms.append(
                    {"exponents": list(exps), "coeff": entry["coeff"], "monomial": entry["monomial"]}
                )
        return {"variables": list(self.variables), "order": self.order, "terms": terms}

    @classmethod
    def from_json(cls, data, backend: CoefficientBackend) -> TruncatedSeries:
        if not isinstance(data, dict):
            raise ValidationError("series JSON must be an object")
        for key in ("variables", "order", "terms"):
            if key not in data:
                raise ValidationError(f"series JSON lacks {key!r}")
        variables = data["variables"]
        if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
            raise ValidationError("'variables' must be a list of names")
        order = data["order"]
        if not is_integer(order):
            raise ValidationError("'order' must be an integer")
        grouped: dict = {}
        if not isinstance(data["terms"], list):
            raise ValidationError("'terms' must be a list")
        for entry in data["terms"]:
            if not isinstance(entry, dict) or "exponents" not in entry:
                raise ValidationError("series term needs an 'exponents' vector")
            exps = entry["exponents"]
            if not isinstance(exps, list) or not all(map(is_integer, exps)):
                raise ValidationError(f"bad exponents {exps!r}")
            grouped.setdefault(tuple(exps), []).append(
                {"coeff": entry.get("coeff"), "monomial": entry.get("monomial")}
            )
        terms = {
            exps: GradedPolynomial.from_json(entries, backend)
            for exps, entries in grouped.items()
        }
        return cls(variables, order, backend, terms)

    def __str__(self):
        if not self._terms:
            return "0"
        chunks = []
        for exps, poly in self.items():
            body = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.variables, exps)
                if e
            )
            if poly.term_count() == 1 and not body:
                piece = poly.to_text()
            elif poly.term_count() == 1:
                text = poly.to_text()
                piece = body if text == "1" else (
                    "-" + body if text == "-1" else f"{text}*{body}"
                )
            else:
                piece = f"({poly.to_text()})" + (f"*{body}" if body else "")
            chunks.append(piece)
        text = chunks[0]
        for piece in chunks[1:]:
            if piece.startswith("-"):
                text += " - " + piece[1:]
            else:
                text += " + " + piece
        return text

    def __repr__(self):
        return f"{type(self).__name__}({self!s})"


# ---------------------------------------------------------------------------
# the formal group law and its derived series

class FormalGroupLaw:
    """The law F(u, v) over a backend, truncated at a fixed total order.

    On the log backend the order may not exceed log_order + 1, since the
    coefficient a_{i,j} of u^i v^j has degree i + j - 1.
    """

    def __init__(self, backend: CoefficientBackend, order: int = 8):
        if not is_integer(order):
            raise OrderError(f"a formal group law needs an integer order, got {order!r}")
        if order < 1:
            raise OrderError("a formal group law needs order >= 1")
        if backend.kind == "log" and order > backend.log_order + 1:
            raise OrderError(
                f"order {order} exceeds what log backend of order {backend.log_order} provides"
            )
        self.backend = backend
        self.order = order
        self._series: TruncatedSeries | None = None
        self._inverse: TruncatedSeries | None = None
        self._prefixes: dict = {}  # [0]u, [±1]u, [±2]u, ... by sign, see n_series
        self._n_series: dict = {}
        self._linear: dict = {}
        self._lower: dict = {}  # this law at lower orders, for fglcalc.snc
        self._face_combinations: dict = {}  # fglcalc.snc's, by (ns, faces, ambient_dim)

    @property
    def series(self) -> TruncatedSeries:
        """F(u, v) = u + v + sum a_{i,j} u^i v^j in variables ("u", "v")."""
        if self._series is None:
            terms = {(1, 0): 1, (0, 1): 1}
            for i in range(1, self.order):
                for j in range(1, self.order - i + 1):
                    a = lazard_coefficient(i, j, self.backend)
                    if not a.is_zero():
                        terms[(i, j)] = a
            self._series = TruncatedSeries(("u", "v"), self.order, self.backend, terms)
        return self._series

    def sum(self, s: TruncatedSeries, t: TruncatedSeries) -> TruncatedSeries:
        """F(s, t) for two series with zero constant term over this backend."""
        return self.series.substitute({"u": s, "v": t})

    def inverse(self) -> TruncatedSeries:
        """The series chi(u) with F(u, chi(u)) = 0, solved coefficient by coefficient.

        F(u, chi) = 0 reads chi = -u - sum a_ij u^i chi^j, so with c_k the
        coefficient of u^k in chi, c_1 = -1 and

            c_k = -sum_{i, j >= 1, i + j <= k} a_ij [u^(k-i)] chi^j,

        where [u^d] chi^j needs only c_1 .. c_(d-j+1), all below c_k.  The
        solution is unique, so this holds on every backend.
        """
        if self._inverse is not None:
            return self._inverse
        backend = self.backend
        zero = GradedPolynomial.zero(backend)
        a_terms = [(i, j, a) for (i, j), a in self.series._terms.items() if i and j]
        c = [zero, GradedPolynomial.constant(-1, backend)]
        # powers[j][d] = [u^d] chi^j for j >= 2 and j <= d < len(c); every
        # lower slot is zero, since chi has no constant term
        powers: dict = {}

        def power_coefficient(j: int, d: int) -> GradedPolynomial:
            if j == 1:
                return c[d]
            row = powers.setdefault(j, {})
            p = row.get(d)
            if p is None:
                acc: dict = {}
                for t in range(1, d - j + 2):
                    c[t]._multiply_into(power_coefficient(j - 1, d - t), acc)
                p = row[d] = GradedPolynomial._from_accumulator(backend, acc)
            return p

        for k in range(2, self.order + 1):
            acc: dict = {}
            for i, j, a in a_terms:
                if i + j <= k:
                    a._multiply_into(power_coefficient(j, k - i), acc)
            c.append(-GradedPolynomial._from_accumulator(backend, acc))
        chi = {(k,): p for k, p in enumerate(c) if p}
        self._inverse = TruncatedSeries._raw(("u",), self.order, backend, chi)
        return self._inverse

    def _fold_prefix(self, sign: int, length: int) -> list:
        """[0]u, [sign]u, [2 sign]u, ... in u, the left fold extended to length terms."""
        prefix = self._prefixes.get(sign)
        if prefix is None:
            u = TruncatedSeries.variable("u", ("u",), self.order, self.backend)
            zero = TruncatedSeries.zero(("u",), self.order, self.backend)
            prefix = self._prefixes[sign] = [zero, self.inverse() if sign < 0 else u]
        while len(prefix) < length:
            prefix.append(self.sum(prefix[-1], prefix[1]))
        return prefix

    def n_series(self, n: int, variable: str = "u") -> TruncatedSeries:
        """[n]u: the n-fold formal sum of u (inverse-based for n < 0).

        [n]u is the left fold F(...F(F(u, u), u)..., u), and [-n]u the same
        fold of chi(u).  The fold order matters: the free law is not
        associative, so a regrouping such as F([2]u, [2]u) differs from
        [4]u there.

        The fold is run once per sign and kept, and only up to [order]u.
        A larger m = |n| is interpolated.  One fold step x -> F(x, s), with
        s = u or chi(u), changes the coefficient c_k of u^k by a sum of
        products of lower coefficients whose indices add up to at most
        k - 1, so by induction c_k is a polynomial of degree <= k in the
        number of steps, on every backend and without associativity.  It is
        therefore fixed by its values at 0, 1, ..., k, and Lagrange's
        formula gives

            c_k(m) = sum_{j=1..k} (-1)^(k-j) C(m, j) C(m-j-1, k-j) c_k(j)

        (the j = 0 term vanishes, since [0]u = 0).  The weights are integers,
        so the result is exact, equal to the fold term for term.
        """
        # checked before the cache, where True and 2.0 would hit 1 and 2
        if not is_integer(n):
            raise ValidationError(f"n must be an integer, got {n!r}")
        if not isinstance(variable, str) or not variable:
            raise ValidationError(f"variable must be a nonempty string, got {variable!r}")
        key = (n, variable)
        cached = self._n_series.get(key)
        if cached is not None:
            return cached
        m, order = abs(n), self.order
        prefix = self._fold_prefix(-1 if n < 0 else 1, min(m, order) + 1)
        if m <= order:
            result = prefix[m]
        else:
            terms = {}
            for k in range(1, order + 1):
                bucket: dict = {}
                for j in range(1, k + 1):
                    coeff = prefix[j]._terms.get((k,))
                    if coeff is not None:
                        w = (-1) ** (k - j) * comb(m, j) * comb(m - j - 1, k - j)
                        for mono, c in coeff._terms.items():
                            bucket[mono] = bucket.get(mono, 0) + w * c
                poly = GradedPolynomial._from_accumulator(self.backend, bucket)
                if poly:
                    terms[(k,)] = poly
            result = TruncatedSeries._raw(("u",), order, self.backend, terms)
        if variable != "u":
            result = TruncatedSeries._raw((variable,), order, self.backend, dict(result._terms))
        self._n_series[key] = result
        return result

    def _embedded_n_series(self, n: int, index: int, variables) -> TruncatedSeries:
        """[n]u written in the variable variables[index] of a series in variables."""
        terms = {}
        for (e,), poly in self.n_series(n)._terms.items():
            exps = [0] * len(variables)
            exps[index] = e
            terms[tuple(exps)] = poly
        return TruncatedSeries._raw(variables, self.order, self.backend, terms)

    def linear_combination(self, multiplicities, variables=None) -> TruncatedSeries:
        """F^{(n_1, ..., n_r)}: the formal sum of [n_i]u_i, folded left to right.

        Defaults to variables u1, ..., ur.  Multiplicities may be any
        integers, including zero.
        """
        ns = tuple(multiplicities)
        if not ns:
            raise ValidationError("need at least one multiplicity")
        if not all(map(is_integer, ns)):
            raise ValidationError("multiplicities must be integers")
        if variables is None:
            variables = tuple(f"u{i}" for i in range(1, len(ns) + 1))
        else:
            variables = tuple(variables)
            if len(variables) != len(ns):
                raise ValidationError("one variable per multiplicity required")
        key = (ns, variables)
        cached = self._linear.get(key)
        if cached is not None:
            return cached

        result = self._embedded_n_series(ns[0], 0, variables)
        for idx in range(1, len(ns)):
            result = self.sum(result, self._embedded_n_series(ns[idx], idx, variables))
        self._linear[key] = result
        return result


def support_decompose(series: TruncatedSeries) -> dict:
    """Split a series into parts with prescribed variable support.

    Returns a dict mapping frozensets J of 1-based variable indices to
    series G_J such that

        series = sum_J G_J * prod_{i in J} u_i

    and no variable outside J occurs in G_J.  A monomial with support
    exactly S contributes to the key J = S (one power of each variable in S
    is divided out); the constant term, if any, sits at J = frozenset().
    Only nonzero parts appear.
    """
    parts: dict = {}
    for exps, poly in series._terms.items():
        support = frozenset(i + 1 for i, e in enumerate(exps) if e)
        reduced = tuple(e - 1 if e else 0 for e in exps)
        bucket = parts.setdefault(support, {})
        acc = bucket.get(reduced)
        bucket[reduced] = poly if acc is None else acc + poly
    out = {}
    for support, bucket in sorted(parts.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))):
        clean = {e: p for e, p in bucket.items() if not p.is_zero()}
        if clean:
            out[support] = TruncatedSeries._raw(
                series.variables, series.order, series.backend, clean
            )
    return out


def _times_symbols(terms, support) -> dict:
    """Terms multiplied by prod_{i in support} u_i (1-based): a shift of the exponents."""
    return {
        tuple(e + 1 if i in support else e for i, e in enumerate(exps, start=1)): poly
        for exps, poly in terms.items()
    }


def recompose(parts: dict, variables, order, backend) -> TruncatedSeries:
    """Inverse of support_decompose: sum of G_J * prod_{i in J} u_i."""
    variables = tuple(variables)
    total = TruncatedSeries.zero(variables, order, backend)
    for support, part in parts.items():
        shifted = _times_symbols(part._terms, support)
        total = total + TruncatedSeries(variables, order, backend, shifted)
    return total
