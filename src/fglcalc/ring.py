"""Graded coefficient rings for formal group law calculus.

The universal formal group law F(u, v) = u + v + sum a_{i,j} u^i v^j has its
coefficients in a graded polynomial ring (the Lazard ring).  This module
provides that ring in four flavors, selected by a CoefficientBackend tag:

  free      polynomial ring on symbols A(i,j), i <= j, with deg A(i,j) = i+j-1;
            only the symmetry a_{i,j} = a_{j,i} is imposed
  log       coefficients generated by logarithm symbols m(i) of degree i;
            a_{i,j} is the polynomial obtained by reverting the logarithm
            l(u) = u + sum_i m(i) u^{i+1}
  additive  a_{i,j} = 0 for all i, j
  mult      a_{1,1} = b (degree 1), all other a_{i,j} = 0

Polynomials are sparse dicts keyed by monomials.  A monomial is one
Kronecker-packed int, 0 when empty, with each exponent in its generator's
field.  Each backend kind numbers fields from 0 in the order generators are
first packed on it (_field), so a law's own generators come first and its
keys do not depend on what else the process has run.  Multiplying monomials
is adding keys.  Exponents stay below 2**(FIELD_BITS - 1), so a product of
two monomials never carries into a neighbouring field; input that exceeds
the bound and products that would reach it raise ValidationError.  Fields
are 8 bits, so keys stay short to add and hash, and MAX_EXPONENT is 127.
Every generator has degree at least 1, so no coefficient of a law, inverse
or [n]u truncated at order k has an exponent past k - 1: laws up to order
128 fit, and past it the multiplicative law, the only one cheap that far,
raises ValidationError.  Monomials are decoded to sorted (Generator,
exponent) pairs only to sort, render or grade them.  Coefficients are exact
rationals (int or fractions.Fraction); floats are rejected.

This module owns the one product kernel: _multiply adds a product of two
term dicts into a third, one row per left term read in place from the
right operand's (key, coefficient) pairs, bucketed by degree in one pass,
with the overflow guard and the work meter's bump (fglcalc.stats) at one
site each.  A key holds a degree under a mask and a packed monomial from a
shift up; a bare polynomial passes mask and shift 0, fglcalc.series its
layout's, and both build the right operand with _sorted_rows.  In its
square mode both operands are the bucketed pairs, and each unordered pair
of terms is one product: c_i^2 on the diagonal, 2 c_i c_j off it.

The log coefficients are built by the series layer: l and its reversion g
are one-variable TruncatedSeries and F(u, v) = g(l(u) + l(v)) is one
substitution, so this module does no series arithmetic of its own.
fglcalc.series imports this module for its coefficients, so the table
builder imports TruncatedSeries inside the function, when it first runs.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import islice
from operator import or_

from .errors import BackendMismatchError, OrderError, Record, ValidationError, is_integer, json_object
from .stats import meter

# Degree markers for the non-homogeneous cases.
ANY_DEGREE = "any"            # the zero polynomial is homogeneous of every degree
INHOMOGENEOUS = "inhomogeneous"


def _common_degree(degrees: set):
    """The one degree in a set of them, ANY_DEGREE for none, else INHOMOGENEOUS."""
    if not degrees:
        return ANY_DEGREE
    return next(iter(degrees)) if len(degrees) == 1 else INHOMOGENEOUS


# ---------------------------------------------------------------------------
# generators

FIELD_BITS = 8                             # width of one exponent field
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
_FIELD_MASK = (1 << FIELD_BITS) - 1


# per generator kind: its number of indices, then the texts a_gen and m_gen raise
_INDEX_RULES = {
    "A": (2, "A(i,j) requires integer indices, got {}", "A(i,j) requires i, j >= 1"),
    "m": (1, "m(i) requires an integer index, got {}", "m(i) requires i >= 1"),
    "b": (0, "b takes no index, got {}", None),
}


def _generator_key(kind, indices) -> tuple:
    """(kind, i, j) of the generator a kind and its indices name, A's indices in order
    and absent ones 0; anything else raises ValidationError with _INDEX_RULES' texts."""
    rules = _INDEX_RULES.get(kind) if isinstance(kind, str) else None
    if rules is None:
        raise ValidationError(f"unknown generator kind {kind!r}")
    count, not_integers, below_one = rules
    if len(indices) != count or not all(map(is_integer, indices)):
        raise ValidationError(not_integers.format(", ".join(map(repr, indices))))
    if indices and min(indices) < 1:
        raise ValidationError(below_one)
    return (kind, *sorted(indices), 0, 0)[:3]


class Generator:
    """A named generator with a fixed grading degree: A(i,j), m(i) or b.

    A plain value, equal and hashed by (kind, i, j); the constructor orders
    A's indices and refuses the indices a_gen, m_gen and b_gen do not take.
    Its exponent field in a packed monomial is numbered per backend kind (_field).

    Sort order for canonical output: A(i,j) by (i+j, i), then b, then m(i).
    """

    __slots__ = ("kind", "i", "j", "degree", "sort_key", "name")

    def __init__(self, kind: str, *indices: int):
        self.kind, self.i, self.j = kind, i, j = _generator_key(kind, indices)
        if kind == "A":
            self.degree, self.sort_key, self.name = i + j - 1, (0, i + j, i), f"A({i},{j})"
        elif kind == "b":
            self.degree, self.sort_key, self.name = 1, (1, 0, 0), "b"
        else:
            self.degree, self.sort_key, self.name = i, (2, i, 0), f"m({i})"

    def __eq__(self, other):
        if not isinstance(other, Generator):
            return NotImplemented
        return (self.kind, self.i, self.j) == (other.kind, other.i, other.j)

    def __hash__(self):
        return hash((self.kind, self.i, self.j))

    def __repr__(self):
        return self.name


@lru_cache(maxsize=None)  # called with checked arguments only: True would hit 1's entry
def _interned(kind: str, *indices: int) -> Generator:
    return Generator(kind, *indices)


def a_gen(i: int, j: int) -> Generator:
    """The symbol A(i,j); indices normalize to i <= j (symmetry a_ij = a_ji)."""
    return _interned(*_generator_key("A", (i, j)))


def m_gen(i: int) -> Generator:
    """The logarithm coefficient symbol m(i), degree i."""
    _generator_key("m", (i,))
    return _interned("m", i)


def b_gen() -> Generator:
    """The multiplicative backend's single generator b, degree 1."""
    return _interned("b")


# ASCII digits only, as Generator writes them: \d also matches other scripts' digits
_GEN_NAME = re.compile(r"A\(([0-9]+),([0-9]+)\)|m\(([0-9]+)\)|b")


def generator_from_name(name: str) -> Generator:
    m = _GEN_NAME.fullmatch(name) if isinstance(name, str) else None
    if m is None:
        raise ValidationError(f"unrecognized generator name {name!r}")
    try:
        if m.group(1) is not None:
            return a_gen(int(m.group(1)), int(m.group(2)))
        if m.group(3) is not None:
            return m_gen(int(m.group(3)))
    except ValidationError:
        raise
    except ValueError:  # int() refuses digit strings past sys.get_int_max_str_digits()
        raise ValidationError(f"unrecognized generator name {name!r}") from None
    return b_gen()


# ---------------------------------------------------------------------------
# backends

class CoefficientBackend(Record):
    """Tag selecting how the law coefficients a_{i,j} are realized.

    log_order bounds the indices available on the log backend: a_{i,j} is
    defined for i + j - 1 <= log_order.  It is None for the other kinds.
    """

    __slots__ = ("kind", "log_order")

    def __init__(self, kind: str, log_order: int | None = None):
        if kind not in ("free", "log", "additive", "mult"):
            raise ValidationError(f"unknown backend kind {kind!r}")
        if (kind == "log") != (log_order is not None):
            raise ValidationError("log_order is set exactly for the log backend")
        if log_order is not None and not is_integer(log_order):
            raise OrderError(f"log_order must be an integer, got {log_order!r}")
        if log_order is not None and log_order < 1:
            raise OrderError("log backend needs log_order >= 1")
        super().__init__(kind, log_order)

    def __repr__(self):
        if self.kind == "log":
            return f"CoefficientBackend(log, order={self.log_order})"
        return f"CoefficientBackend({self.kind})"


FREE = CoefficientBackend("free")
ADDITIVE = CoefficientBackend("additive")
MULTIPLICATIVE = CoefficientBackend("mult")


def log_backend(order: int) -> CoefficientBackend:
    """Log-coefficient backend with a_{i,j} available for i+j-1 <= order.

    The first law over it builds all of them, at a cost the library does
    not cap.  On a 2-vCPU Xeon VM: 1.6 M products in 0.83 s at order 20,
    7.7 M in 4 s at 24 and 32 M in 27 s at 28; growing about fourfold per
    four orders, order 32 takes minutes.  Inside meter.budget
    (fglcalc.stats) the build stops at the budget and caches nothing.
    """
    return CoefficientBackend("log", order)


def _check_backend(backend):
    if not isinstance(backend, CoefficientBackend):
        raise ValidationError(f"backend must be a CoefficientBackend, got {backend!r}")


def _require_same_backend(x: CoefficientBackend, y: CoefficientBackend):
    if x != y:
        raise BackendMismatchError(f"mixed backends {x!r} and {y!r}")


# ---------------------------------------------------------------------------
# monomials: Kronecker-packed exponent fields, 0 for the empty monomial

# per backend kind: Generator -> field and field -> Generator, numbered from 0
# in the order generators are first packed on that kind
_FIELDS = {kind: ({}, []) for kind in ("free", "log", "additive", "mult")}
_top_bits = 0  # the top bit of every field that any kind has numbered


def _field(gen: Generator, kind: str) -> int:
    """The exponent field of gen in the monomials of that backend kind."""
    global _top_bits
    fields, generators = _FIELDS[kind]
    field = fields.get(gen)
    if field is None:
        field = fields[gen] = len(generators)
        generators.append(gen)
        _top_bits |= 1 << (FIELD_BITS * field + FIELD_BITS - 1)
    return field


def _encode(pairs, kind: str) -> int:
    """Pack (Generator, exponent) pairs for a backend kind; repeated generators add up."""
    if not (isinstance(pairs, tuple) and all(isinstance(p, tuple) and len(p) == 2
                                             and isinstance(p[0], Generator) for p in pairs)):
        raise ValidationError(f"a monomial is a tuple of (Generator, exponent) pairs, got {pairs!r}")
    fields: dict = {}
    for gen, e in pairs:
        if not is_integer(e) or e < 0:
            raise ValidationError(f"bad exponent {e!r} for {gen.name}")
        fields[gen] = fields.get(gen, 0) + e
    mono = 0
    for gen, e in fields.items():
        if e > MAX_EXPONENT:
            raise ValidationError(
                f"exponent {e} of {gen.name} exceeds the limit {MAX_EXPONENT}"
            )
        mono |= e << (FIELD_BITS * _field(gen, kind))
    return mono


def _decode(mono, kind: str) -> tuple:
    """The sorted (Generator, exponent) pairs of a monomial packed for a backend kind."""
    generators = _FIELDS[kind][1]
    pairs = []
    while mono:
        index = ((mono & -mono).bit_length() - 1) // FIELD_BITS
        shift = FIELD_BITS * index
        e = (mono >> shift) & _FIELD_MASK
        pairs.append((generators[index], e))
        mono -= e << shift
    pairs.sort(key=lambda ge: ge[0].sort_key)
    return tuple(pairs)


def _mono_degree(mono, kind: str) -> int:
    return sum(g.degree * e for g, e in _decode(mono, kind))


def _mono_sort_key(pairs):
    # graded, then lexicographic in the generator order
    return (sum(g.degree * e for g, e in pairs), tuple((g.sort_key, -e) for g, e in pairs))


def _mono_text(pairs) -> str:
    parts = []
    for g, e in pairs:
        parts.append(g.name if e == 1 else f"{g.name}^{e}")
    return "*".join(parts)


def _coerce_scalar(value):
    """Accept exact rationals only; normalize integral Fractions to int."""
    if isinstance(value, bool):
        raise ValidationError("bool is not a ring scalar")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise ValidationError(f"coefficients must be exact rationals, got {type(value).__name__}")


_RATIONAL_TEXT = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _json_coefficient(value):
    """An exact rational from JSON: an integer, or a string like "-3/4"."""
    if is_integer(value):
        return value
    match = _RATIONAL_TEXT.fullmatch(value) if isinstance(value, str) else None
    if match:
        num, den = match.groups()
        try:  # int() refuses digit strings past sys.get_int_max_str_digits()
            return int(num) if den is None else Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad coefficient {value!r}") from exc
    raise ValidationError(
        f"bad coefficient {value!r}: use an integer or a string like \"-3/4\""
    )


def _add_term(terms: dict, mono: int, coeff):
    # add an exact coeff at mono, dropping the term if it cancels
    acc = terms.get(mono, 0) + coeff
    if acc:
        terms[mono] = _coerce_scalar(acc)
    else:
        terms.pop(mono, None)


# ---------------------------------------------------------------------------
# the product kernel

def _sorted_rows(terms: dict, mask: int, shift: int, order: int) -> tuple:
    """A term dict of degrees <= order as the right operand of _multiply: (pairs, ends, bound).

    pairs are its (key, coefficient) items by degree, equal degrees in
    insertion order, ends[d] counts those of degree <= d, and bound ORs
    their ring monomials.  Each item goes to its degree's bucket in one pass.
    A bare polynomial passes mask, shift and order 0: one bucket of every term.
    """
    buckets = [[] for _ in range(order + 1)]
    for item in terms.items():
        buckets[item[0] & mask].append(item)
    pairs, ends = [], []
    for bucket in buckets:
        pairs += bucket
        ends.append(len(pairs))
    return pairs, ends, reduce(or_, terms, 0) >> shift << shift


def _multiply(acc: dict, left: dict, rows: tuple, cut: int, mask: int, shift: int):
    """Add left * right, cut above degree cut, into the term dict acc.

    left is a term dict whose terms above the cut are skipped; rows is the
    right operand's _sorted_rows, made for an order of at least the cut.
    Each left term is one row: its key is added to every right key up to
    the degree it leaves, read in place from the front of the pairs.  Zero
    sums stay in acc for the caller to drop.

    With left None this is the square of the rows' own series: row i is
    pair i, of degree at most half the cut, and adds c_i^2, then
    2 c_i c_j for the pairs j > i it reaches, one product per unordered pair.
    """
    pairs, ends, bound = rows
    if not pairs:
        return
    # the top bit of every ring field, read per call: fields are numbered lazily
    top = _top_bits << shift
    get = acc.get
    k0, c0 = pairs[0]
    allowance = meter.allowance()
    done = first = 0  # first: the pair a row starts at, its own in a square
    square = left is None
    for k1, c1 in islice(pairs, ends[cut // 2]) if square else left.items():
        room = cut - (k1 & mask)
        if room < 0:
            continue
        end = ends[room]
        n = end - first
        if not n:
            continue
        done += n
        if done > allowance:
            meter.exceeded()
        # fieldwise, bound >= every right monomial without a carry
        if (k1 + bound) & top and any((k1 + k2) & top for k2, _ in islice(pairs, first, end)):
            raise ValidationError(f"a product exponent exceeds the limit {MAX_EXPONENT}")
        if square:
            acc[k1 + k1] = get(k1 + k1, 0) + c1 * c1
            first += 1
            c1 += c1
        elif n == 1:  # 46 % of the rows on series-cold
            k = k1 + k0
            acc[k] = get(k, 0) + c1 * c0
            continue
        for k2, c2 in islice(pairs, first, end):
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2
    meter.products += done


def _nonzero(acc: dict) -> dict:
    """acc with its zero sums deleted, in place: no second dict is made.  Few
    sums cancel, so the keys are listed only when some value equals 0."""
    if 0 in acc.values():
        for k in [k for k, c in acc.items() if not c]:
            del acc[k]
    return acc


# ---------------------------------------------------------------------------
# sparse sums

def _term_text(coeff: str, body: str, grouped: bool = False) -> str:
    """A coefficient's text times a rendered body; grouped puts a sum in parentheses."""
    if grouped:
        coeff = f"({coeff})"
    if not body:
        return coeff
    if coeff in ("1", "-1"):
        return coeff[:-1] + body
    return f"{coeff}*{body}"


def _signed_sum(pieces) -> str:
    """Rendered terms joined by " + ", or by " - " before a negative one; none is "0"."""
    text = ""
    for piece in pieces:
        if not text:
            text = piece
        elif piece.startswith("-"):
            text += " - " + piece[1:]
        else:
            text += " + " + piece
    return text or "0"


class SparseSum:
    """A finite formal sum: the dict self._terms from keys to nonzero coefficients.

    The arithmetic that GradedPolynomial, fglcalc.series.TruncatedSeries and
    fglcalc.cycles.CycleSum share.  A subclass supplies _operand(other),
    other checked against self or NotImplemented, and _like(terms), a value
    of its own kind and shape with other terms, if _raw(backend, terms)
    does not make one.  Each subclass binds __add__ in its own class dict,
    where perfbench's tracer wraps it.
    """

    __slots__ = ()

    @classmethod
    def _raw(cls, backend, terms):
        # internal fast path: terms already normalized, no zero values
        self = object.__new__(cls)
        self.backend = backend
        self._terms = terms
        return self

    def _like(self, terms):
        return self._raw(self.backend, terms)

    def is_zero(self) -> bool:
        return not self._terms

    __hash__ = None

    def __add__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        get = out.get
        for k, c in other._terms.items():
            acc = get(k)
            if acc is None:  # copied: 0 + c would be one more polynomial addition
                out[k] = c
            else:
                acc = acc + c
                if acc:
                    out[k] = acc
                else:
                    del out[k]
        return self._like(out)

    def __neg__(self):
        return self._like({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def _scaled(self, scalar):
        # nonzero times nonzero is nonzero over every coefficient domain here
        return self._like({k: c * scalar for k, c in self._terms.items()} if scalar else {})

    def __repr__(self):
        return f"{type(self).__name__}({self!s})"


# ---------------------------------------------------------------------------
# polynomials

class GradedPolynomial(SparseSum):
    """Sparse polynomial over interned generators, tagged with its backend.

    The constructor takes a dict from monomials, given as tuples of
    (Generator, exponent) pairs, to coefficients.
    """

    __slots__ = ("backend", "_terms")

    def __init__(self, backend: CoefficientBackend, terms=None):
        _check_backend(backend)
        if terms is not None and not isinstance(terms, dict):
            raise ValidationError("polynomial terms must be a dict from monomials to coefficients")
        self.backend = backend
        clean: dict = {}
        if terms:
            for pairs, coeff in terms.items():
                _add_term(clean, _encode(pairs, backend.kind), _coerce_scalar(coeff))
        self._terms = clean

    @classmethod
    def zero(cls, backend) -> GradedPolynomial:
        return cls._raw(backend, {})

    @classmethod
    def one(cls, backend) -> GradedPolynomial:
        return cls._raw(backend, {0: 1})

    @classmethod
    def constant(cls, value, backend) -> GradedPolynomial:
        value = _coerce_scalar(value)
        return cls._raw(backend, {0: value} if value else {})

    @classmethod
    def generator(cls, gen: Generator, backend) -> GradedPolynomial:
        if not isinstance(gen, Generator):
            raise ValidationError(f"not a generator: {gen!r}")
        _check_backend(backend)
        return cls._raw(backend, {1 << (FIELD_BITS * _field(gen, backend.kind)): 1})

    # -- queries ----------------------------------------------------------

    def __bool__(self):
        return bool(self._terms)

    def graded_degree(self):
        """Common degree of all terms, ANY_DEGREE for 0, else INHOMOGENEOUS."""
        return _common_degree({_mono_degree(m, self.backend.kind) for m in self._terms})

    def term_count(self) -> int:
        return len(self._terms)

    def sorted_terms(self):
        """Terms as (monomial, coefficient) in canonical graded-lex order.

        Each monomial is a sorted tuple of (Generator, exponent) pairs.
        """
        terms = [(_decode(m, self.backend.kind), c) for m, c in self._terms.items()]
        terms.sort(key=lambda kv: _mono_sort_key(kv[0]))
        return terms

    # -- arithmetic -------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, GradedPolynomial):
            return self.backend == other.backend and self._terms == other._terms
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self._terms == ({0: _coerce_scalar(other)} if other else {})
        return NotImplemented

    def _operand(self, other):
        if isinstance(other, GradedPolynomial):
            _require_same_backend(self.backend, other.backend)
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return GradedPolynomial.constant(other, self.backend)
        return NotImplemented

    __add__ = __radd__ = SparseSum.__add__

    def __rsub__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, GradedPolynomial):
            _require_same_backend(self.backend, other.backend)
            acc: dict = {}
            _multiply(acc, self._terms, _sorted_rows(other._terms, 0, 0, 0), 0, 0, 0)
            return GradedPolynomial._raw(self.backend, _nonzero(acc))
        try:
            scalar = _coerce_scalar(other)
        except ValidationError:
            return NotImplemented
        return self._scaled(scalar)

    __rmul__ = __mul__

    # -- serialization ----------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form, e.g. "4*m(1)^2 - 3*m(2)"; zero renders "0"."""
        return _signed_sum(_term_text(str(c), _mono_text(m)) for m, c in self.sorted_terms())

    def to_json(self) -> list:
        """JSON form: list of {"coeff": str, "monomial": {name: exp}} terms."""
        out = []
        for pairs, coeff in self.sorted_terms():
            out.append({"coeff": str(coeff), "monomial": {g.name: e for g, e in pairs}})
        return out

    @classmethod
    def from_json(cls, data, backend: CoefficientBackend) -> GradedPolynomial:
        _check_backend(backend)
        if not isinstance(data, list):
            raise ValidationError("polynomial JSON must be a list of terms")
        terms: dict = {}
        for entry in data:
            json_object(entry, ("coeff", "monomial"), "polynomial term needs 'coeff' and 'monomial'")
            coeff = _json_coefficient(entry["coeff"])
            pairs = []
            if not isinstance(entry["monomial"], dict):
                raise ValidationError("'monomial' must be an object")
            for name, e in entry["monomial"].items():
                if not is_integer(e) or e < 1:
                    raise ValidationError(f"bad exponent {e!r} for {name!r}")
                pairs.append((generator_from_name(name), e))
            _add_term(terms, _encode(tuple(pairs), backend.kind), coeff)
        return cls._raw(backend, terms)

    def __str__(self):
        return self.to_text()


# ---------------------------------------------------------------------------
# law coefficients per backend

def lazard_coefficient(i: int, j: int, backend: CoefficientBackend) -> GradedPolynomial:
    """The coefficient a_{i,j} of u^i v^j in F(u, v), over the given backend.

    Requires i, j >= 1.  On the log backend the pair must satisfy
    i + j - 1 <= log_order; anything deeper raises OrderError.
    """
    if not (is_integer(i) and is_integer(j)):
        raise ValidationError(f"lazard_coefficient requires integers, got {i!r}, {j!r}")
    if i < 1 or j < 1:
        raise ValidationError("lazard_coefficient requires i, j >= 1")
    _check_backend(backend)
    kind = backend.kind
    if kind == "free":
        return GradedPolynomial.generator(a_gen(i, j), backend)
    if kind == "additive":
        return GradedPolynomial.zero(backend)
    if kind == "mult":
        if i == j == 1:
            return GradedPolynomial.generator(b_gen(), backend)
        return GradedPolynomial.zero(backend)
    # log: from the reverted logarithm
    if i + j - 1 > backend.log_order:
        raise OrderError(
            f"a({i},{j}) has degree {i + j - 1}, beyond log backend order {backend.log_order}"
        )
    return _log_coefficient_table(backend.log_order)[(i, j)]


@lru_cache(maxsize=None)
def _log_coefficient_table(order: int):
    """All a_{i,j} with i+j-1 <= order on the log backend of that order.

    Reverts l(t) = t + m(1) t^2 + m(2) t^3 + ... to g with g(l(t)) = t, then
    expands F(u, v) = g(l(u) + l(v)) up to total degree order + 1.
    """
    # fglcalc.series imports this module, so it is imported at call time
    from .series import TruncatedSeries

    backend = log_backend(order)
    top = order + 1
    one = GradedPolynomial.one(backend)
    # ell[k] and g[k] are the coefficients of t^(k+1) in l and g; powers[k] is l^(k+1)
    ell = [one] + [GradedPolynomial.generator(m_gen(k), backend) for k in range(1, top)]
    l_t = TruncatedSeries(("t",), top, backend, {(k + 1,): p for k, p in enumerate(ell)})

    # reversion: g_k = -sum_{j<k} g_j [t^k] l^j, with the powers of l as products
    powers = [l_t]
    while len(powers) < top - 1:
        powers.append(powers[-1] * l_t)
    zero = GradedPolynomial.zero(backend)
    power_coefficients = [dict(p.items()) for p in powers]
    g = [one]
    for k in range(2, top + 1):
        g.append(-sum((g[j] * power_coefficients[j].get((k,), zero) for j in range(k - 1)),
                      zero))
    g_t = TruncatedSeries(("t",), top, backend, {(k + 1,): p for k, p in enumerate(g)})

    s = TruncatedSeries(("u", "v"), top, backend, {
        exps: p for k, p in enumerate(ell, 1) for exps in ((k, 0), (0, k))
    })
    f = g_t.substitute({"t": s})

    coefficients = dict(f.items())

    # sanity: the unit axiom must come out on the nose
    assert coefficients.get((1, 0)) == one
    assert all((k, 0) not in coefficients for k in range(2, top + 1))
    return {(i, j): coefficients.get((i, j), zero)
            for i in range(1, top) for j in range(1, top - i + 1)}
