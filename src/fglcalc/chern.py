"""Nilpotent Chern-symbol algebra.

ChernPolynomial models expressions in commuting first-Chern-class symbols
c_1, ..., c_r over a coefficient backend, truncated hard at a dimension
bound: any monomial of total c-degree exceeding dim_bound is dropped.  That
truncation encodes the vanishing of Chern classes above the dimension of the
underlying space, so dropping is silent and is part of the semantics.
"""

from __future__ import annotations

from .errors import (
    BackendMismatchError,
    ConstantTermError,
    OrderError,
    ValidationError,
)
from .ring import CoefficientBackend, GradedPolynomial
from .series import TruncatedSeries


class ChernPolynomial:
    """Polynomial in nilpotent symbols c_1..c_nvars, cut at dim_bound."""

    __slots__ = ("nvars", "dim_bound", "backend", "_terms")

    def __init__(self, nvars: int, dim_bound: int, backend: CoefficientBackend, terms=None):
        if nvars < 0:
            raise ValidationError("nvars must be >= 0")
        if dim_bound < 0:
            raise ValidationError("dim_bound must be >= 0")
        self.nvars = nvars
        self.dim_bound = dim_bound
        self.backend = backend
        clean = {}
        if terms:
            for exps, poly in terms.items():
                exps = tuple(exps)
                if len(exps) != nvars or any(e < 0 for e in exps):
                    raise ValidationError(f"bad c-exponent vector {exps}")
                if sum(exps) > dim_bound:
                    continue  # beyond the dimension bound: identically zero
                if not isinstance(poly, GradedPolynomial):
                    poly = GradedPolynomial.constant(poly, backend)
                if poly.backend != backend:
                    raise BackendMismatchError("chern coefficient over wrong backend")
                if not poly.is_zero():
                    clean[exps] = poly
        self._terms = clean

    @classmethod
    def _raw(cls, nvars, dim_bound, backend, terms):
        self = object.__new__(cls)
        self.nvars = nvars
        self.dim_bound = dim_bound
        self.backend = backend
        self._terms = terms
        return self

    @classmethod
    def zero(cls, nvars, dim_bound, backend) -> ChernPolynomial:
        return cls._raw(nvars, dim_bound, backend, {})

    @classmethod
    def constant(cls, value, nvars, dim_bound, backend) -> ChernPolynomial:
        return cls(nvars, dim_bound, backend, {(0,) * nvars: value})

    @classmethod
    def one(cls, nvars, dim_bound, backend) -> ChernPolynomial:
        return cls.constant(1, nvars, dim_bound, backend)

    @classmethod
    def symbol(cls, i: int, nvars: int, dim_bound: int, backend) -> ChernPolynomial:
        """The symbol c_i (1-based); zero when the bound cannot hold degree 1."""
        if not 1 <= i <= nvars:
            raise ValidationError(f"symbol index {i} outside 1..{nvars}")
        exps = tuple(1 if k == i - 1 else 0 for k in range(nvars))
        return cls(nvars, dim_bound, backend, {exps: 1})

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def items(self):
        """Nonzero (c_exponents, coefficient) pairs in canonical order.

        Graded, with earlier symbols leading within a degree.
        """
        return sorted(
            self._terms.items(),
            key=lambda kv: (sum(kv[0]), tuple(-e for e in kv[0])),
        )

    def coefficient(self, exps) -> GradedPolynomial:
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise ValidationError("c-exponent vector length mismatch")
        return self._terms.get(exps, GradedPolynomial.zero(self.backend))

    def __eq__(self, other):
        if not isinstance(other, ChernPolynomial):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.dim_bound == other.dim_bound
            and self.backend == other.backend
            and self._terms == other._terms
        )

    __hash__ = None

    def _check_compatible(self, other: ChernPolynomial):
        if self.backend != other.backend:
            raise BackendMismatchError("mixed backends in chern arithmetic")
        if self.nvars != other.nvars:
            raise ValidationError(f"nvars mismatch: {self.nvars} vs {other.nvars}")
        if self.dim_bound != other.dim_bound:
            raise ValidationError(
                f"dimension bound mismatch: {self.dim_bound} vs {other.dim_bound}"
            )

    # -- arithmetic -------------------------------------------------------

    def __neg__(self):
        return ChernPolynomial._raw(
            self.nvars, self.dim_bound, self.backend,
            {e: -p for e, p in self._terms.items()},
        )

    def __add__(self, other):
        if not isinstance(other, ChernPolynomial):
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
        return ChernPolynomial._raw(self.nvars, self.dim_bound, self.backend, out)

    def __sub__(self, other):
        if not isinstance(other, ChernPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, ChernPolynomial):
            return NotImplemented
        self._check_compatible(other)
        bound = self.dim_bound
        acc: dict = {}
        for e1, p1 in self._terms.items():
            d1 = sum(e1)
            for e2, p2 in other._terms.items():
                if d1 + sum(e2) > bound:
                    continue
                key = tuple(a + b for a, b in zip(e1, e2))
                bucket = acc.get(key)
                if bucket is None:
                    bucket = acc[key] = {}
                p1._multiply_into(p2, bucket)
        out = {}
        for key, bucket in acc.items():
            poly = GradedPolynomial._from_accumulator(self.backend, bucket)
            if not poly.is_zero():
                out[key] = poly
        return ChernPolynomial._raw(self.nvars, self.dim_bound, self.backend, out)

    def scale(self, factor) -> ChernPolynomial:
        """Multiply every coefficient by a scalar or GradedPolynomial."""
        if isinstance(factor, GradedPolynomial):
            if factor.backend != self.backend:
                raise BackendMismatchError("scale factor over wrong backend")
        out = {}
        for exps, poly in self._terms.items():
            q = poly * factor
            if not q.is_zero():
                out[exps] = q
        return ChernPolynomial._raw(self.nvars, self.dim_bound, self.backend, out)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        terms = []
        for exps, poly in self.items():
            terms.append({"c_exponents": list(exps), "coeff": poly.to_json()})
        return {"dim_bound": self.dim_bound, "terms": terms}

    @classmethod
    def from_json(cls, data, backend: CoefficientBackend, nvars: int | None = None) -> ChernPolynomial:
        if not isinstance(data, dict) or "dim_bound" not in data or "terms" not in data:
            raise ValidationError("chern JSON needs 'dim_bound' and 'terms'")
        bound = data["dim_bound"]
        if not isinstance(bound, int) or isinstance(bound, bool) or bound < 0:
            raise ValidationError(f"bad dim_bound {bound!r}")
        if not isinstance(data["terms"], list):
            raise ValidationError("'terms' must be a list")
        terms = {}
        for entry in data["terms"]:
            if not isinstance(entry, dict) or "c_exponents" not in entry or "coeff" not in entry:
                raise ValidationError("chern term needs 'c_exponents' and 'coeff'")
            exps = entry["c_exponents"]
            if not isinstance(exps, list) or not all(
                isinstance(e, int) and not isinstance(e, bool) and e >= 0 for e in exps
            ):
                raise ValidationError(f"bad c_exponents {exps!r}")
            if nvars is None:
                nvars = len(exps)
            exps = tuple(exps)
            poly = GradedPolynomial.from_json(entry["coeff"], backend)
            if exps in terms:
                poly = terms[exps] + poly
            terms[exps] = poly
        if nvars is None:
            raise ValidationError("cannot infer symbol count from an empty chern JSON")
        return cls(nvars, bound, backend, terms)

    def __str__(self):
        if not self._terms:
            return "0"
        chunks = []
        for exps, poly in self.items():
            body = "*".join(
                f"c{i + 1}" if e == 1 else f"c{i + 1}^{e}"
                for i, e in enumerate(exps)
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
        return f"ChernPolynomial({self!s})"


# ---------------------------------------------------------------------------
# bridges from series to chern symbols

def evaluate_at_chern(series: TruncatedSeries, dim_bound: int) -> ChernPolynomial:
    """Read each series variable u_i as the symbol c_i and cut at dim_bound.

    The series order must be at least dim_bound, otherwise monomials the
    bound would keep are missing and the result would be silently wrong.
    """
    if dim_bound < 0:
        raise ValidationError("dim_bound must be >= 0")
    if series.order < dim_bound:
        raise OrderError(
            f"series order {series.order} is below the dimension bound {dim_bound}"
        )
    # series terms are already clean: nonnegative exponents, nonzero
    # coefficients over the series backend
    return ChernPolynomial._raw(
        len(series.variables), dim_bound, series.backend,
        series.truncate(dim_bound)._terms,
    )


def chern_substitute(series: TruncatedSeries, values) -> ChernPolynomial:
    """Substitute a chern polynomial with zero constant term per variable."""
    values = list(values)
    if len(values) != len(series.variables):
        raise ValidationError("one chern value per series variable required")
    if not values:
        raise ValidationError("need at least one value")
    first = values[0]
    for v in values:
        if not isinstance(v, ChernPolynomial):
            raise ValidationError("substitution values must be ChernPolynomial")
        first._check_compatible(v)
        if not v.coefficient((0,) * v.nvars).is_zero():
            raise ConstantTermError("chern substitution values need zero constant term")
    if first.backend != series.backend:
        raise BackendMismatchError("chern substitution across different backends")
    if series.order < first.dim_bound:
        raise OrderError(
            f"series order {series.order} is below the dimension bound {first.dim_bound}"
        )

    nvars, bound, backend = first.nvars, first.dim_bound, first.backend
    one = ChernPolynomial.one(nvars, bound, backend)
    powers = [[one, v] for v in values]

    def power(i, e):
        cache = powers[i]
        while len(cache) <= e:
            cache.append(cache[-1] * cache[1])
        return cache[e]

    total = ChernPolynomial.zero(nvars, bound, backend)
    for exps, poly in series.items():
        if sum(exps) > bound:
            continue  # each value is nilpotent of order > its degree
        factor = None
        for i, e in enumerate(exps):
            if e:
                factor = power(i, e) if factor is None else factor * power(i, e)
        if factor is None:
            factor = one
        total = total + factor.scale(poly)
    return total

