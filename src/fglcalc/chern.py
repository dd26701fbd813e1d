"""Chern polynomials: truncated series in first-Chern-class symbols.

A ChernPolynomial is a TruncatedSeries in the commuting symbols
c1, ..., cr whose order is a dimension bound: any monomial of total
c-degree exceeding dim_bound is dropped.  That truncation encodes the
vanishing of Chern classes above the dimension of the underlying space, so
dropping is silent and is part of the semantics.  Arithmetic, rendering
and substitution (TruncatedSeries.substitute) are the series'; this module
adds the constructors by symbol count, the JSON shape with "c_exponents",
and the reading of a group-law series at the symbols.
"""

from __future__ import annotations

from .errors import ValidationError, is_integer, json_entries, json_object
from .ring import _FIELD_MASK, CoefficientBackend, GradedPolynomial
from .series import TruncatedSeries

_SYMBOLS: dict = {}


def _check_nvars(nvars) -> None:  # before the count sizes a tuple
    if not is_integer(nvars):
        raise ValidationError(f"symbol count must be an integer, got {nvars!r}")
    if nvars > _FIELD_MASK:  # series._layout's limit
        raise ValidationError(f"{nvars} symbols exceed the limit {_FIELD_MASK}")


def _symbols(nvars: int) -> tuple:
    """The variable names ("c1", ..., "c<nvars>"), one shared tuple per count."""
    try:
        return _SYMBOLS[nvars]
    except KeyError:
        return _SYMBOLS.setdefault(nvars, tuple(f"c{i}" for i in range(1, nvars + 1)))


class ChernPolynomial(TruncatedSeries):
    """Polynomial in nilpotent symbols c_1..c_nvars, cut at dim_bound."""

    __slots__ = ()

    def __init__(self, nvars: int, dim_bound: int, backend: CoefficientBackend, terms=None):
        _check_nvars(nvars)
        if is_integer(dim_bound) and dim_bound < 0:  # the series rejects a non-integer
            raise ValidationError("dim_bound must be >= 0")
        super().__init__(_symbols(nvars), dim_bound, backend, terms)

    # own class-dict entries: perfbench's tracer wraps chern arithmetic through them
    __add__ = TruncatedSeries.__add__
    __mul__ = TruncatedSeries.__mul__

    @property
    def nvars(self) -> int:
        return len(self.variables)

    @property
    def dim_bound(self) -> int:
        return self.order

    @classmethod
    def zero(cls, nvars, dim_bound, backend) -> ChernPolynomial:
        return cls(nvars, dim_bound, backend)

    @classmethod
    def constant(cls, value, nvars, dim_bound, backend) -> ChernPolynomial:
        _check_nvars(nvars)
        return cls(nvars, dim_bound, backend, {(0,) * nvars: value})

    @classmethod
    def one(cls, nvars, dim_bound, backend) -> ChernPolynomial:
        return cls.constant(1, nvars, dim_bound, backend)

    @classmethod
    def symbol(cls, i: int, nvars: int, dim_bound: int, backend) -> ChernPolynomial:
        """The symbol c_i (1-based); zero when the bound cannot hold degree 1."""
        _check_nvars(nvars)
        if not (is_integer(i) and 1 <= i <= nvars):
            raise ValidationError(f"symbol index {i} outside 1..{nvars}")
        exps = tuple(1 if k == i - 1 else 0 for k in range(nvars))
        return cls(nvars, dim_bound, backend, {exps: 1})

    @classmethod
    def variable(cls, name, variables, order, backend):
        """Not available: the series form does not fit the chern constructor."""
        raise ValidationError(
            "ChernPolynomial.variable is not defined; use "
            "ChernPolynomial.symbol(i, nvars, dim_bound, backend)"
        )

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        terms = [{"c_exponents": list(exps), "coeff": poly.to_json()}
                 for exps, poly in self.items()]
        return {"dim_bound": self.order, "terms": terms}

    @classmethod
    def from_json(cls, data, backend: CoefficientBackend, nvars: int | None = None) -> ChernPolynomial:
        json_object(data, ("dim_bound", "terms"), "chern JSON needs 'dim_bound' and 'terms'")
        bound = data["dim_bound"]
        if not is_integer(bound) or bound < 0:
            raise ValidationError(f"bad dim_bound {bound!r}")
        terms = {}
        for entry in json_entries(data["terms"], "terms", ("c_exponents", "coeff"),
                                  "chern term needs 'c_exponents' and 'coeff'"):
            exps = entry["c_exponents"]
            if not isinstance(exps, list) or not all(is_integer(e) and e >= 0 for e in exps):
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


def evaluate_at_chern(series: TruncatedSeries, dim_bound: int) -> ChernPolynomial:
    """Read each series variable u_i as the symbol c_i and cut at dim_bound.

    The cut raises OrderError when the series order is below dim_bound:
    monomials the bound would keep are missing, so the result would be
    silently wrong.
    """
    if not isinstance(series, TruncatedSeries):
        raise ValidationError(f"evaluate_at_chern takes a TruncatedSeries, got {series!r}")
    # the packed keys carry over: the layout does not depend on the names
    cut = series.truncate(dim_bound)
    return ChernPolynomial._raw(
        _symbols(len(series.variables)), dim_bound, series.backend, cut._terms, cut._layout
    )
