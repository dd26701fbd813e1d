"""Truncated multivariate power series and the formal group law operations.

A TruncatedSeries holds terms of total degree <= order in named variables,
with GradedPolynomial coefficients; everything beyond the order is discarded
on construction, so arithmetic is exact modulo (u_1, ..., u_r)^{order+1}.
Results keep the class of the left operand (in substitute, of the images),
so a subclass such as fglcalc.chern.ChernPolynomial is closed under them.

A series is stored as one dict from packed int keys to exact rationals, one
entry per pair of a series monomial and a ring monomial.  A key holds, from
low to high bits, the total degree, one exponent field per variable (the
first variable highest), each ring.FIELD_BITS (8) bits wide, and then the
ring's packed monomial (fglcalc.ring).  So there is one layout per variable
count, whatever the order: truncate keeps the keys, and dividing by a
product of variables (_support_parts) or multiplying by one (the offset of
snc.apply_divisor_operator) is one key subtraction or addition per term.
Multiplying two terms is adding their keys: a product keeps only degrees
<= order, the order is at most 255 (a larger one raises OrderError), and
no exponent exceeds the degree, so no field carries into the next.
Products run ring's product kernel (fglcalc.ring._multiply) with the
layout's degree mask and monomial shift.
items() and coefficient() decode the keys into GradedPolynomial
coefficients on demand.

Composition (substitute) runs the same kernel throughout.  The terms are
grouped by their exponents in every variable but the first, once per target
layout, and the groups are kept on the series, so on a law's F.  Each
group's sum of first-variable powers is cut at the degree its rest factor
leaves and multiplied by it straight into the result; for a bare variable
as first image, as in each step of the fold [n]u, the sum is the group
moved onto it, kept too, and costs no product.  Powers of the images are
each cut at the highest degree any group reads from it.  P^k is P^(k-1) * P,
or for even k P^(k/2) squared by the kernel's square mode, when the term
counts say the square makes fewer products: |P^(k/2)|^2 < 2 |P^(k-1)| |P|.

FormalGroupLaw bundles a backend and an order and derives from them the
two-variable law F(u, v), the formal inverse, n-fold sums [n]u, and the
multi-variable combinations F^{(n_1, ..., n_r)}.  F is cached on the
instance, and each [n]u in one table, chi as [-1]u (a combination is not:
no caller repeats one); the iterated sums fold left to right.  [n]u is one
fold step from [n-1]u, interpolated past [order]u, and [-n]u is [n]u
composed with chi(u); n_series says why both equal the left fold.
"""

from __future__ import annotations

from math import comb
from operator import mul

from .errors import (
    BackendMismatchError,
    ConstantTermError,
    OrderError,
    ValidationError,
    is_integer,
    json_entries,
    json_object,
)
from .ring import (
    FIELD_BITS,
    CoefficientBackend,
    GradedPolynomial,
    SparseSum,
    _FIELD_MASK,
    _check_backend,
    _coerce_scalar,
    _multiply,
    _nonzero,
    _signed_sum,
    _sorted_rows,
    _term_text,
    lazard_coefficient,
)


class _Layout:
    """Where the fields of a packed key sit, for r variables.

    The exponent vector of each series part (a key's bits below the ring
    monomial), its support and the key of the product of the variables in
    that support, which _support_parts divides out, are decoded once and
    kept: there are at most as many as monomials in r variables of the
    degrees in use.
    """

    __slots__ = ("r", "mask", "shift", "series_mask", "units", "_exponents", "_supports")

    def __init__(self, r: int):
        self.r = r
        self.mask = _FIELD_MASK  # the degree field, or any one exponent field
        self.shift = FIELD_BITS * (r + 1)  # where the ring monomial starts
        self.series_mask = (1 << self.shift) - 1
        # units[i]: the key of one power of variable i, its field plus one degree
        self.units = tuple((1 << FIELD_BITS * (r - i)) + 1 for i in range(r))
        self._exponents: dict = {}
        self._supports: dict = {}

    def encode(self, exps) -> int:
        return sum(map(mul, exps, self.units))

    def exponents(self, part: int) -> tuple:
        exps = self._exponents.get(part)
        if exps is None:
            exps = self._exponents[part] = tuple(
                (part >> FIELD_BITS * f) & _FIELD_MASK for f in range(self.r, 0, -1)
            )
        return exps

    def support(self, part: int) -> frozenset:
        """The 1-based indices of the variables with a nonzero exponent in part."""
        return self.support_key(part)[0]

    def support_key(self, part: int) -> tuple:
        """(support(part), the key of prod_{i in it} u_i)."""
        hit = self._supports.get(part)
        if hit is None:
            support = frozenset(i for i, e in enumerate(self.exponents(part), 1) if e)
            hit = self._supports[part] = (support, sum(self.units[i - 1] for i in support))
        return hit


_LAYOUTS: dict = {}   # r -> _Layout


def _layout(r: int) -> _Layout:
    layout = _LAYOUTS.get(r)
    if layout is None:
        if r > _FIELD_MASK:  # r units of up to 8r bits, built before any product
            raise ValidationError(f"{r} variables exceed the limit {_FIELD_MASK}")
        layout = _LAYOUTS[r] = _Layout(r)
    return layout


def _as_tuple(value, error: str) -> tuple:
    try:
        return tuple(value)
    except TypeError:
        raise ValidationError(f"{error} {value!r}") from None


def _power(cache: list, need: dict, e: int) -> TruncatedSeries:
    """cache[e], the power e of cache[1] (cache[0] is one), cut where need reads it; the
    cut never rises with e, so each power is exact as far as the next one needs it."""
    while len(cache) <= e:
        k = len(cache)
        cut = max(0, max(d for f, d in need.items() if f >= k))
        half = cache[k // 2]
        if k % 2 or len(half._terms) ** 2 >= 2 * len(cache[-1]._terms) * len(cache[1]._terms):
            cache.append(cache[-1]._cut(cut) * cache[1]._cut(cut))
            continue
        half, acc = half._cut(cut), {}
        _multiply(acc, None, half._rows(), cut, half._layout.mask, half._layout.shift)
        cache.append(half._like(_nonzero(acc)))
    return cache[e]


class TruncatedSeries(SparseSum):
    """Polynomial truncation of a power series at a fixed total degree."""

    __slots__ = ("variables", "order", "backend", "_terms", "_layout", "_sorted", "_plans")

    def __init__(self, variables, order: int, backend: CoefficientBackend, terms=None):
        variables = _as_tuple(variables, "variables must be nonempty strings, got")
        if not variables:
            raise ValidationError("a series needs at least one variable")
        if not all(isinstance(v, str) and v for v in variables):
            raise ValidationError(f"variables must be nonempty strings, got {variables!r}")
        if len(set(variables)) != len(variables):
            raise ValidationError(f"duplicate variable names in {variables}")
        if not is_integer(order):
            raise OrderError(f"truncation order must be an integer, got {order!r}")
        if order < 0:
            raise OrderError("truncation order must be >= 0")
        if order > _FIELD_MASK:  # the degree field's largest value
            raise OrderError(f"truncation order {order} exceeds the limit {_FIELD_MASK}")
        _check_backend(backend)
        layout = _layout(len(variables))
        clean = {}
        if terms:
            if not isinstance(terms, dict):
                raise ValidationError("series terms must be a dict from exponent vectors to coefficients")
            r, shift = len(variables), layout.shift
            for exps, poly in terms.items():
                exps = _as_tuple(exps, "bad exponent vector")
                if len(exps) != r or not all(is_integer(e) and e >= 0 for e in exps):
                    raise ValidationError(f"bad exponent vector {exps}")
                if sum(exps) > order:
                    continue  # truncation is the contract, not an error
                if not isinstance(poly, GradedPolynomial):
                    poly = GradedPolynomial.constant(poly, backend)
                if poly.backend != backend:
                    raise BackendMismatchError("series coefficient over wrong backend")
                part = layout.encode(exps)
                for mono, c in poly._terms.items():
                    clean[part + (mono << shift)] = c
        self.variables = variables
        self.order = order
        self.backend = backend
        self._terms = clean
        self._layout = layout
        self._sorted = self._plans = None

    @classmethod
    def _raw(cls, variables, order, backend, terms, layout):
        # terms: packed keys in layout; the order, unchecked here, is at most 255
        self = object.__new__(cls)
        self.variables = variables
        self.order = order
        self.backend = backend
        self._terms = terms
        self._layout = layout
        self._sorted = self._plans = None
        return self

    def _like(self, terms):
        return self._raw(self.variables, self.order, self.backend, terms, self._layout)

    @classmethod
    def zero(cls, variables, order, backend) -> TruncatedSeries:
        return cls(variables, order, backend)

    @classmethod
    def one(cls, variables, order, backend) -> TruncatedSeries:
        variables = _as_tuple(variables, "variables must be nonempty strings, got")
        return cls(variables, order, backend, {(0,) * len(variables): 1})

    @classmethod
    def variable(cls, name: str, variables, order, backend) -> TruncatedSeries:
        """The series consisting of the single variable `name`."""
        variables = _as_tuple(variables, "variables must be nonempty strings, got")
        if name not in variables:
            raise ValidationError(f"{name!r} is not among {variables}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, order, backend, {exps: 1})

    def _rows(self) -> tuple:
        """This series as a right operand of _multiply, bucketed by degree once and kept."""
        rows = self._sorted
        if rows is None:
            layout = self._layout
            rows = self._sorted = _sorted_rows(self._terms, layout.mask, layout.shift, self.order)
        return rows

    def _cut(self, order: int) -> TruncatedSeries:
        """This series read at a lower order, with its terms left in place.

        Only an operand of __mul__, whose rows stop at the order, so a
        power in substitute is cut without copying its terms.
        """
        cut = self._raw(self.variables, order, self.backend, self._terms, self._layout)
        cut._sorted = self._rows()
        return cut

    # -- queries ----------------------------------------------------------

    def coefficient(self, exps) -> GradedPolynomial:
        """Coefficient polynomial of the monomial with the given exponents."""
        exps = _as_tuple(exps, "bad exponent vector")
        if len(exps) != len(self.variables):
            raise ValidationError("exponent vector length mismatch")
        if not all(is_integer(e) and e >= 0 for e in exps):
            raise ValidationError(f"bad exponent vector {exps}")
        if sum(exps) > self.order:
            return GradedPolynomial.zero(self.backend)
        layout = self._layout
        part, series_mask, shift = layout.encode(exps), layout.series_mask, layout.shift
        return GradedPolynomial._raw(self.backend, {
            k >> shift: c for k, c in self._terms.items() if k & series_mask == part
        })

    def items(self):
        """Nonzero (exponents, coefficient) pairs in canonical order.

        Graded, and within a degree the earlier variables lead: u1^2 before
        u1*u2 before u2^2.
        """
        layout, backend = self._layout, self.backend
        series_mask, shift, mask = layout.series_mask, layout.shift, layout.mask
        parts: dict = {}
        for k, c in self._terms.items():
            monos = parts.get(k & series_mask)
            if monos is None:
                monos = parts[k & series_mask] = {}
            monos[k >> shift] = c
        # the first variable's field is the highest, so within a degree a
        # larger packed part leads
        return [
            (layout.exponents(part), GradedPolynomial._raw(backend, parts[part]))
            for part in sorted(parts, key=lambda p: (p & mask, -p))
        ]

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.variables == other.variables
            and self.order == other.order
            and self.backend == other.backend
            and self._terms == other._terms
        )

    def _check_compatible(self, other: TruncatedSeries):
        if (self.backend is other.backend and self.variables is other.variables
                and self.order == other.order):
            return  # the fold's operands share their backend and variables
        if self.backend != other.backend:
            raise BackendMismatchError("mixed backends in series arithmetic")
        if self.variables != other.variables:
            raise ValidationError(
                f"variable mismatch: {self.variables} vs {other.variables}"
            )
        if self.order != other.order:
            raise OrderError(f"order mismatch: {self.order} vs {other.order}")

    # -- arithmetic -------------------------------------------------------

    def _operand(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        return other

    __add__ = SparseSum.__add__

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        acc: dict = {}
        _multiply(acc, self._terms, other._rows(), self.order, self._layout.mask, self._layout.shift)
        return self._raw(self.variables, self.order, self.backend, _nonzero(acc), self._layout)

    def scale(self, factor) -> TruncatedSeries:
        """Multiply every coefficient by a scalar or a GradedPolynomial."""
        if isinstance(factor, GradedPolynomial):
            if factor.backend != self.backend:
                raise BackendMismatchError("scale factor over wrong backend")
            shift = self._layout.shift
            return self * self._like({m << shift: c for m, c in factor._terms.items()})
        return self._scaled(_coerce_scalar(factor))

    def truncate(self, order: int) -> TruncatedSeries:
        """The same series cut to total degree <= order, at that order.

        Only lowering is exact: terms above self.order are unknown.
        """
        if not (is_integer(order) and 0 <= order <= self.order):
            raise OrderError(f"cannot truncate order {self.order} to {order!r}")
        mask = self._layout.mask
        terms = {k: c for k, c in self._terms.items() if k & mask <= order}
        return self._raw(self.variables, order, self.backend, terms, self._layout)

    # -- substitution -----------------------------------------------------

    def _images(self, assignment) -> tuple:
        """substitute's checks: the images in variable order and their lowest degrees."""
        if not isinstance(assignment, dict):
            raise ValidationError("substitute takes a dict from variable names to series")
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
        # lowest degrees; a zero image never gets below the order
        low = [s._rows()[0][0][0] & s._layout.mask if s._terms else self.order + 1 for s in images]
        for v, d in zip(self.variables, low):
            if d == 0:
                raise ConstantTermError(f"series for {v!r} has a constant term")
        return images, low

    def substitute(self, assignment, _checked=None) -> TruncatedSeries:
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
        any group reads from it.  The groups are kept on this series per
        target layout; with s_0 a bare variable each inner sum is its group
        moved onto it, kept too, and makes no product.  _checked is
        _images(assignment) from a caller that has run it (FormalGroupLaw.sum).
        """
        images, low = _checked or self._images(assignment)
        target = images[0]
        order, backend, layout = self.order, self.backend, target._layout
        mask, shift = layout.mask, layout.shift

        # columns[rest][e0]: the terms with exponents (e0, rest), as ring
        # monomials moved to the target layout at degree 0
        src = self._layout
        plans = self._plans = self._plans or {}
        columns = plans.get(layout)
        if columns is None:
            columns = plans[layout] = {}
            first = FIELD_BITS * src.r  # the first variable's field
            rest_mask = ((1 << first) - 1) ^ src.mask
            for k, c in self._terms.items():
                column = columns.setdefault(k & rest_mask, {})
                column.setdefault((k >> first) & src.mask, {})[k >> src.shift << shift] = c
        # a bare variable first image: moved[rest] holds the column's e0 parts
        # times the variable's power e0, its inner sum without a product
        unit = next(iter(target._terms)) if len(target._terms) == 1 else None
        unit = unit if unit in layout.units and target._terms[unit] == 1 else None
        moved = plans.get((layout, unit))
        if moved is None and unit is not None:
            moved = plans[layout, unit] = {
                rest: {m + e0 * unit: c for e0, part in column.items() for m, c in part.items()}
                for rest, column in columns.items()
            }
        # need[i][e]: the degree up to which some column uses images[i]**e
        need = [{} for _ in images]
        groups = []
        for rest_key, column in columns.items():
            rest = src.exponents(rest_key)[1:]
            rest_low = sum(map(mul, rest, low[1:]))
            inner_low = min(column) * low[0]
            if inner_low + rest_low > order:
                continue  # every term of the column lies above the order
            for e0 in column:
                if need[0].get(e0, -1) < order - rest_low:
                    need[0][e0] = order - rest_low
            for i, e in enumerate(rest, 1):
                if e:
                    room = order - inner_low - rest_low + e * low[i]
                    if need[i].get(e, -1) < room:
                        need[i][e] = room
            groups.append((rest, column, inner_low, moved and moved[rest_key]))

        one = target._raw(target.variables, order, backend, {0: 1}, layout)
        powers = [[one, s] for s in images]
        acc: dict = {}
        for rest, column, inner_low, left in groups:
            factors = [(_power(powers[i], need[i], e), e * low[i]) for i, e in enumerate(rest, 1) if e]
            if not factors:
                inner, room = acc, order
            else:
                # the rest factor is read up to degree order - inner_low only
                top = order - inner_low
                if len(factors) == 1:
                    rows = factors[0][0]._rows()
                else:
                    # each partial product is cut at top less the lowest
                    # degrees of the factors still to come, which is as far
                    # as the power it multiplies by was built
                    later = sum(d for _, d in factors[1:])
                    rest_factor = factors[0][0]._terms
                    for p, d in factors[1:]:
                        later -= d
                        product: dict = {}
                        _multiply(product, rest_factor, p._rows(), top - later, mask, shift)
                        rest_factor = _nonzero(product)
                    rows = _sorted_rows(rest_factor, mask, shift, top)
                if not rows[0]:
                    continue  # the rest factor vanishes below the order
                inner, room = {}, order - (rows[0][0][0] & mask)
            if left is None:
                for e0, part in column.items():
                    if e0 * low[0] <= room:
                        _multiply(inner, part, _power(powers[0], need[0], e0)._rows(), room, mask, shift)
                left = _nonzero(inner) if factors else None
            elif not factors:
                for k, c in left.items():
                    acc[k] = acc.get(k, 0) + c
            if factors:  # the kernel cuts each row of a moved column
                _multiply(acc, left, rows, order, mask, shift)
        return target._raw(target.variables, order, backend, _nonzero(acc), layout)

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
        json_object(data, ("variables", "order", "terms"), "series JSON must be an object",
                    "series JSON lacks {first!r}")
        variables = data["variables"]
        if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
            raise ValidationError("'variables' must be a list of names")
        order = data["order"]
        if not is_integer(order):
            raise ValidationError("'order' must be an integer")
        grouped: dict = {}
        for entry in json_entries(data["terms"], "terms", ("exponents",),
                                  "series term needs an 'exponents' vector"):
            exps = entry["exponents"]
            if not isinstance(exps, list) or not all(map(is_integer, exps)):
                raise ValidationError(f"bad exponents {exps!r}")
            # each entry is a polynomial term too: its other keys are 'coeff' and 'monomial'
            grouped.setdefault(tuple(exps), []).append(entry)
        terms = {
            exps: GradedPolynomial.from_json(entries, backend)
            for exps, entries in grouped.items()
        }
        return cls(variables, order, backend, terms)

    def __str__(self):
        variables = self.variables
        return _signed_sum(
            _term_text(poly.to_text(),
                       "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(variables, exps) if e),
                       poly.term_count() > 1)
            for exps, poly in self.items()
        )


# ---------------------------------------------------------------------------
# the formal group law and its derived series

class FormalGroupLaw:
    """The law F(u, v) over a backend, truncated at a fixed total order.

    On the log backend the order may not exceed log_order + 1, since the
    coefficient a_{i,j} of u^i v^j has degree i + j - 1.
    """

    def __init__(self, backend: CoefficientBackend, order: int = 8):
        _check_backend(backend)
        if not is_integer(order):
            raise OrderError(f"a formal group law needs an integer order, got {order!r}")
        if order < 1:
            raise OrderError("a formal group law needs order >= 1")
        if order > _FIELD_MASK:  # the series' degree field's largest value
            raise OrderError(f"a formal group law order {order} exceeds the limit {_FIELD_MASK}")
        if backend.kind == "log" and order > backend.log_order + 1:
            raise OrderError(
                f"order {order} exceeds what log backend of order {backend.log_order} provides"
            )
        self.backend = backend
        self.order = order
        self._series: TruncatedSeries | None = None
        self._n_series: dict = {}  # n -> [n]u, chi at -1; see n_series
        self._lower: dict = {}  # this law at lower orders (_at_order), for fglcalc.snc
        self._face_combinations: dict = {}  # fglcalc.snc's, by (ns, faces, ambient_dim)

    @property
    def series(self) -> TruncatedSeries:
        """F(u, v) = u + v + sum a_{i,j} u^i v^j in variables ("u", "v")."""
        if self._series is None:
            layout = _layout(2)
            u, v = layout.units
            terms = {u: 1, v: 1}
            for i in range(1, self.order):
                for j in range(1, self.order - i + 1):
                    for mono, c in lazard_coefficient(i, j, self.backend)._terms.items():
                        terms[i * u + j * v + (mono << layout.shift)] = c
            self._series = TruncatedSeries._raw(("u", "v"), self.order, self.backend, terms, layout)
        return self._series

    def _at_order(self, order: int) -> FormalGroupLaw:
        """This law at an order <= its own, kept.  F and each [n]u (chi too) built
        here before it are cut from this law's, once each, which is exact: each is
        the higher-order series modulo the degrees above order, on the same keys."""
        low = self if order == self.order else self._lower.get(order)
        if low is None:
            low = self._lower[order] = FormalGroupLaw(self.backend, order)
            # None stays None: what this law has not built, the lower one builds
            low._series = self._series and self._series.truncate(order)
            low._n_series = {n: s.truncate(order) for n, s in self._n_series.items()}
        return low

    def sum(self, s: TruncatedSeries, t: TruncatedSeries) -> TruncatedSeries:
        """F(s, t) for two series with zero constant term over this backend.

        F is symmetric (a_ij = a_ji), so after the checks in the given order
        the smaller image goes first, where substitute runs every inner sum.
        F(x, 0) = x, so a zero image returns the other one."""
        law = self.series
        images, low = law._images({"u": s, "v": t})
        if not t._terms or not s._terms:
            return t if not s._terms else s
        if len(t._terms) < len(s._terms):
            images, low = images[::-1], low[::-1]
        return law.substitute(dict(zip(law.variables, images)), (images, low))

    def inverse(self) -> TruncatedSeries:
        """The series chi(u) with F(u, chi(u)) = 0, solved coefficient by coefficient.

        F(u, chi) = 0 reads chi = -u - sum a_ij u^i chi^j, so with c_k the
        coefficient of u^k in chi, c_1 = -1 and

            c_k = -sum_{i, j >= 1, i + j <= k} a_ij [u^(k-i)] chi^j,

        where [u^d] chi^j needs only c_1 .. c_(d-j+1), all below c_k.  The
        solution is unique, so this holds on every backend.
        """
        chi = self._n_series.get(-1)
        if chi is not None:
            return chi
        law = self.series
        source = law._layout
        a_terms: dict = {}  # (i, j) -> {monomial: coefficient} of a_ij
        for k, v in law._terms.items():
            i, j = source.exponents(k & source.series_mask)
            if i and j:
                a_terms.setdefault((i, j), {})[k >> source.shift] = v
        # ring's product kernel on bare polynomials (mask and shift 0): c[k]
        # holds the terms of the coefficient of u^k in chi, rows[k] the same
        # as a right operand
        c = [{}, {0: -1}]
        rows = [_sorted_rows(t, 0, 0, 0) for t in c]
        # powers[j][d]: the rows of [u^d] chi^j for j >= 2 and j <= d < len(c);
        # every lower slot is zero, since chi has no constant term
        powers: dict = {}

        def power_rows(j: int, d: int) -> tuple:
            if j == 1:
                return rows[d]
            row = powers.setdefault(j, {})
            p = row.get(d)
            if p is None:
                acc: dict = {}
                for t in range(1, d - j + 2):
                    _multiply(acc, c[t], power_rows(j - 1, d - t), 0, 0, 0)
                p = row[d] = _sorted_rows(_nonzero(acc), 0, 0, 0)
            return p

        for k in range(2, self.order + 1):
            acc: dict = {}
            for (i, j), a in a_terms.items():
                if i + j <= k:
                    _multiply(acc, a, power_rows(j, k - i), 0, 0, 0)
            c.append({m: -v for m, v in acc.items() if v})
            rows.append(_sorted_rows(c[k], 0, 0, 0))
        # the recursive helper holds itself through its closure; emptying
        # the cell frees its tables now instead of at the next cycle
        # collection, which the flat kernel's few allocations make rare
        del power_rows
        layout = _layout(1)
        shift, unit = layout.shift, layout.units[0]
        terms = {k * unit + (m << shift): v for k, p in enumerate(c) for m, v in p.items()}
        chi = self._n_series[-1] = TruncatedSeries._raw(("u",), self.order, self.backend, terms, layout)
        return chi

    def n_series(self, n: int) -> TruncatedSeries:
        """[n]u: the n-fold formal sum of u (inverse-based for n < 0).

        [n]u is the left fold F(...F(F(u, u), u)..., u), and [-n]u the same
        fold of chi(u).  The fold order matters: the free law is not
        associative, so a regrouping such as F([2]u, [2]u) differs from
        [4]u there.

        Each [n]u is kept in one table on the law, chi as [-1]u.  The fold
        runs only up to [order]u, [k]u = F([k-1]u, u); a larger n is
        interpolated from [1]u .. [order]u.  One fold step x -> F(x, u)
        changes the coefficient c_k of u^k by a sum of products of lower
        coefficients whose indices add up to at most k - 1, so by induction
        c_k is a polynomial of degree <= k in the number of steps, on every
        backend and without associativity.  It is therefore fixed by its
        values at 0, 1, ..., k, and Lagrange's formula gives

            c_k(n) = sum_{j=1..k} (-1)^(k-j) C(n, j) C(n-j-1, k-j) c_k(j)

        (the j = 0 term vanishes, since [0]u = 0).  The weights are integers,
        so the result is exact, equal to the fold term for term.  [-n]u is
        [n]u o chi: composition is associative whatever F is, so F(A, B) o
        chi = F(A o chi, B o chi), and by induction [n]u o chi is the fold.
        """
        # checked before the cache, where True and 2.0 would hit 1 and 2
        if not is_integer(n):
            raise ValidationError(f"n must be an integer, got {n!r}")
        cached = self._n_series.get(n)
        if cached is not None:
            return cached
        order = self.order
        if n < 0:
            result = self.inverse() if n == -1 else self.n_series(-n).substitute({"u": self.inverse()})
        elif n <= 1:  # [0]u = 0 and [1]u = u
            result = TruncatedSeries(("u",), order, self.backend, {(1,): n})
        elif n <= order:
            result = self.sum(self.n_series(n - 1), self.n_series(1))
        else:
            fold = [self.n_series(j) for j in range(order + 1)]
            # in one variable the degree field is the exponent k of u^k
            layout = fold[1]._layout
            weights = [[(-1) ** (k - j) * comb(n, j) * comb(n - j - 1, k - j)
                        for j in range(k + 1)] for k in range(order + 1)]
            acc: dict = {}
            for j in range(1, order + 1):
                for packed, c in fold[j]._terms.items():
                    k = packed & layout.mask
                    if k >= j:
                        acc[packed] = acc.get(packed, 0) + weights[k][j] * c
            result = TruncatedSeries._raw(("u",), order, self.backend, _nonzero(acc), layout)
        self._n_series[n] = result
        return result

    def _embedded_n_series(self, n: int, index: int, variables) -> TruncatedSeries:
        """[n]u written in the variable variables[index] of a series in variables."""
        series = self.n_series(n)
        src, dst = series._layout, _layout(len(variables))
        mask, src_shift, dst_shift, unit = src.mask, src.shift, dst.shift, dst.units[index]
        terms = {(k >> src_shift << dst_shift) + (k & mask) * unit: c
                 for k, c in series._terms.items()}
        return TruncatedSeries._raw(variables, self.order, self.backend, terms, dst)

    def linear_combination(self, multiplicities, variables=None) -> TruncatedSeries:
        """F^{(n_1, ..., n_r)}: the formal sum of [n_i]u_i, folded left to right.

        Defaults to variables u1, ..., ur, which must otherwise be distinct
        nonempty names.  Multiplicities may be any integers, including zero.
        """
        ns = _as_tuple(multiplicities, "multiplicities must be integers, got")
        if not ns:
            raise ValidationError("need at least one multiplicity")
        if not all(map(is_integer, ns)):
            raise ValidationError("multiplicities must be integers")
        if variables is None:
            variables = tuple(f"u{i}" for i in range(1, len(ns) + 1))
        else:  # the names pass the series constructor's checks
            variables = TruncatedSeries(variables, 0, self.backend).variables
            if len(variables) != len(ns):
                raise ValidationError("one variable per multiplicity required")
        result = self._embedded_n_series(ns[0], 0, variables)
        for idx in range(1, len(ns)):
            result = self.sum(result, self._embedded_n_series(ns[idx], idx, variables))
        return result


def _support_parts(series: TruncatedSeries, keep=None) -> dict:
    """{J: the terms of support J, less the key of prod_{i in J} u_i}, for J in keep if given."""
    layout = series._layout
    series_mask = layout.series_mask
    seen: dict = {}  # series part -> (its support's terms, the key of prod_{i in it} u_i), or None
    parts: dict = {}
    for k, c in series._terms.items():
        hit = seen.get(k & series_mask, 0)
        if hit == 0:
            support, key = layout.support_key(k & series_mask)
            hit = None
            if keep is None or support in keep:
                hit = (parts.setdefault(support, {}), key)
            seen[k & series_mask] = hit
        if hit is not None:
            hit[0][k - hit[1]] = c  # one to one within a support
    return parts


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
    if not isinstance(series, TruncatedSeries):
        raise ValidationError(f"support_decompose takes a series, got {series!r}")
    parts = _support_parts(series)
    return {
        support: TruncatedSeries._raw(
            series.variables, series.order, series.backend, parts[support], series._layout
        )
        for support in sorted(parts, key=lambda J: (len(J), sorted(J)))
    }
