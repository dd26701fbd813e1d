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

Polynomials are sparse dicts keyed by monomials.  Each generator owns a
field index, fixed for the life of the process, and a monomial is one
Kronecker-packed int holding the exponent e of generator g at bit
FIELD_BITS * g.index; the empty monomial is 0.  Multiplying monomials is
then adding their keys.  Exponents stay below 2**(FIELD_BITS - 1), so a
product of two monomials never carries into a neighbouring field; input
that exceeds the bound and products that would reach it raise
ValidationError.  Monomials are decoded to sorted tuples of (Generator,
exponent) pairs only to sort, render or grade them.  Coefficients are exact
rationals (int or fractions.Fraction); floats are rejected.

This module owns the one product kernel: _multiply adds a product of two
term dicts into a third, one row per left term, with the exponent overflow
guard and the work meter's bump (fglcalc.stats) at one site each.  A key
holds a degree under a mask and a packed monomial from a shift up; a bare
polynomial passes mask and shift 0, fglcalc.series its layout's.

The log coefficients are built by the series layer: l and its reversion g
are one-variable TruncatedSeries and F(u, v) = g(l(u) + l(v)) is one
substitution, so this module does no series arithmetic of its own.
fglcalc.series imports this module for its coefficients, so the table
builder imports TruncatedSeries inside the function, when it first runs.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache, reduce
from operator import or_

from .errors import BackendMismatchError, OrderError, Record, ValidationError, is_integer
from .stats import meter

# Degree markers for the non-homogeneous cases.
ANY_DEGREE = "any"            # the zero polynomial is homogeneous of every degree
INHOMOGENEOUS = "inhomogeneous"


# ---------------------------------------------------------------------------
# generators

FIELD_BITS = 32                            # width of one exponent field
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
_FIELD_MASK = (1 << FIELD_BITS) - 1

# process-wide field registry: (kind, i, j) -> index, and index -> generator
_FIELD_INDEX: dict = {}
_FIELD_GENERATORS: list = []
_top_bits = 0  # the top bit of every registered field


def _field_index(gen) -> int:
    global _top_bits
    key = (gen.kind, gen.i, gen.j)
    index = _FIELD_INDEX.get(key)
    if index is None:
        index = _FIELD_INDEX[key] = len(_FIELD_GENERATORS)
        _FIELD_GENERATORS.append(gen)
        _top_bits |= 1 << (FIELD_BITS * index + FIELD_BITS - 1)
    return index


class Generator:
    """An interned named generator with a fixed grading degree.

    Its index is the exponent field it owns in packed monomials; every
    Generator with the same (kind, i, j) gets the same index.

    Sort order for canonical output: A(i,j) by (i+j, i), then b, then m(i).
    """

    __slots__ = ("kind", "i", "j", "degree", "sort_key", "name", "index")

    def __init__(self, kind: str, i: int = 0, j: int = 0):
        self.kind = kind
        self.i = i
        self.j = j
        if kind == "A":
            self.degree = i + j - 1
            self.sort_key = (0, i + j, i)
            self.name = f"A({i},{j})"
        elif kind == "b":
            self.degree = 1
            self.sort_key = (1, 0, 0)
            self.name = "b"
        elif kind == "m":
            self.degree = i
            self.sort_key = (2, i, 0)
            self.name = f"m({i})"
        else:
            raise ValidationError(f"unknown generator kind {kind!r}")
        self.index = _field_index(self)

    def __eq__(self, other):
        if not isinstance(other, Generator):
            return NotImplemented
        return self.index == other.index

    def __hash__(self):
        return self.index

    def __repr__(self):
        return self.name


@lru_cache(maxsize=None)
def _a_gen_interned(i: int, j: int) -> Generator:
    return Generator("A", i, j)


def a_gen(i: int, j: int) -> Generator:
    """The symbol A(i,j); indices normalize to i <= j (symmetry a_ij = a_ji)."""
    if not (is_integer(i) and is_integer(j)):
        raise ValidationError(f"A(i,j) requires integer indices, got {i!r}, {j!r}")
    if i < 1 or j < 1:
        raise ValidationError("A(i,j) requires i, j >= 1")
    if i > j:
        i, j = j, i
    return _a_gen_interned(i, j)


@lru_cache(maxsize=None, typed=True)  # typed: True must miss the entry of 1
def m_gen(i: int) -> Generator:
    """The logarithm coefficient symbol m(i), degree i."""
    if not is_integer(i):
        raise ValidationError(f"m(i) requires an integer index, got {i!r}")
    if i < 1:
        raise ValidationError("m(i) requires i >= 1")
    return Generator("m", i)


@lru_cache(maxsize=None)
def b_gen() -> Generator:
    """The multiplicative backend's single generator b, degree 1."""
    return Generator("b")


_GEN_NAME = re.compile(r"^(?:A\((\d+),(\d+)\)|m\((\d+)\)|b)$")


def generator_from_name(name: str) -> Generator:
    m = _GEN_NAME.match(name)
    if m is None:
        raise ValidationError(f"unrecognized generator name {name!r}")
    if m.group(1) is not None:
        return a_gen(int(m.group(1)), int(m.group(2)))
    if m.group(3) is not None:
        return m_gen(int(m.group(3)))
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

def _encode(pairs) -> int:
    """Pack (Generator, exponent) pairs; repeated generators add up."""
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
        mono |= e << (FIELD_BITS * gen.index)
    return mono


def _decode(mono) -> tuple:
    """The sorted (Generator, exponent) pairs of a packed monomial."""
    pairs = []
    while mono:
        index = ((mono & -mono).bit_length() - 1) // FIELD_BITS
        shift = FIELD_BITS * index
        e = (mono >> shift) & _FIELD_MASK
        pairs.append((_FIELD_GENERATORS[index], e))
        mono -= e << shift
    pairs.sort(key=lambda ge: ge[0].sort_key)
    return tuple(pairs)


def _mono_degree(mono) -> int:
    return sum(g.degree * e for g, e in _decode(mono))


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


_RATIONAL_TEXT = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _json_coefficient(value):
    """An exact rational from JSON: an integer, or a string like "-3/4"."""
    if is_integer(value):
        return value
    if isinstance(value, str) and _RATIONAL_TEXT.fullmatch(value):
        try:
            return Fraction(value)
        except ZeroDivisionError as exc:
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
    """A term dict as the right operand of _multiply: (keys, coefficients, ends, bound).

    The keys are sorted by degree, ends[d] counts those of degree <= d for
    d <= order, and bound ORs their ring monomials.
    """
    keys = sorted(terms, key=mask.__and__)
    degrees = list(map(mask.__and__, keys))
    ends = [bisect_right(degrees, d) for d in range(order + 1)]
    bound = reduce(or_, keys, 0) >> shift << shift
    return keys, list(map(terms.__getitem__, keys)), ends, bound


def _polynomial_rows(terms: dict) -> tuple:
    """_sorted_rows(terms, 0, 0, 0) without the sort and bisection a zero mask makes moot.

    Polynomial operands have a few terms, where those would cost as much as the products.
    """
    return list(terms), list(terms.values()), [len(terms)], reduce(or_, terms, 0)


def _multiply(acc: dict, left: dict, rows: tuple, cut: int, mask: int, shift: int):
    """Add left * right, cut above degree cut, into the term dict acc.

    left is a term dict whose terms above the cut are skipped; rows is the
    right operand's _sorted_rows, made for an order of at least the cut.
    Each left term is one row: its key is added to every right key up to
    the degree it leaves.  Zero sums stay in acc for the caller to drop.
    """
    keys, coeffs, ends, bound = rows
    if not keys:
        return
    # the top bit of every ring field, read per call: generators register lazily
    top = _top_bits << shift
    get = acc.get
    k0, c0 = keys[0], coeffs[0]
    allowance = meter.allowance()
    done = 0
    for k1, c1 in left.items():
        room = cut - (k1 & mask)
        if room < 0:
            continue
        n = ends[room]
        if not n:
            continue
        done += n
        if done > allowance:
            meter.exceeded()
        # fieldwise, bound >= every right monomial without a carry
        if (k1 + bound) & top and any((k1 + k2) & top for k2 in keys[:n]):
            raise ValidationError(f"a product exponent exceeds the limit {MAX_EXPONENT}")
        if n == 1:  # 58 % of the series rows on series-cold and snc-check
            k = k1 + k0
            acc[k] = get(k, 0) + c1 * c0
            continue
        for k2, c2 in zip(keys[:n], coeffs[:n]):
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2
    meter.products += done


def _nonzero(acc: dict) -> dict:
    """acc with its zero sums deleted, in place: no second dict is made."""
    for k in [k for k, c in acc.items() if not c]:
        del acc[k]
    return acc


# ---------------------------------------------------------------------------
# polynomials

class GradedPolynomial:
    """Sparse polynomial over interned generators, tagged with its backend.

    The constructor takes a dict from monomials, given as tuples of
    (Generator, exponent) pairs, to coefficients.
    """

    __slots__ = ("backend", "_terms")

    def __init__(self, backend: CoefficientBackend, terms=None):
        _check_backend(backend)
        self.backend = backend
        clean: dict = {}
        if terms:
            for pairs, coeff in terms.items():
                _add_term(clean, _encode(pairs), _coerce_scalar(coeff))
        self._terms = clean

    @classmethod
    def _raw(cls, backend, terms):
        # internal fast path: terms already normalized, no zero values
        self = object.__new__(cls)
        self.backend = backend
        self._terms = terms
        return self

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
        return cls._raw(backend, {1 << (FIELD_BITS * gen.index): 1})

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def graded_degree(self):
        """Common degree of all terms, ANY_DEGREE for 0, else INHOMOGENEOUS."""
        degs = {_mono_degree(m) for m in self._terms}
        if not degs:
            return ANY_DEGREE
        if len(degs) == 1:
            return degs.pop()
        return INHOMOGENEOUS

    def term_count(self) -> int:
        return len(self._terms)

    def sorted_terms(self):
        """Terms as (monomial, coefficient) in canonical graded-lex order.

        Each monomial is a sorted tuple of (Generator, exponent) pairs.
        """
        terms = [(_decode(m), c) for m, c in self._terms.items()]
        terms.sort(key=lambda kv: _mono_sort_key(kv[0]))
        return terms

    # -- arithmetic -------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, GradedPolynomial):
            return self.backend == other.backend and self._terms == other._terms
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self._terms == ({0: _coerce_scalar(other)} if other else {})
        return NotImplemented

    __hash__ = None

    def __neg__(self):
        return GradedPolynomial._raw(self.backend, {m: -c for m, c in self._terms.items()})

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        _require_same_backend(self.backend, other.backend)
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            acc = out.get(mono, 0) + coeff
            if acc:
                out[mono] = acc
            else:
                out.pop(mono, None)
        return GradedPolynomial._raw(self.backend, out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, GradedPolynomial):
            _require_same_backend(self.backend, other.backend)
            acc: dict = {}
            _multiply(acc, self._terms, _polynomial_rows(other._terms), 0, 0, 0)
            return GradedPolynomial._raw(self.backend, _nonzero(acc))
        try:
            scalar = _coerce_scalar(other)
        except ValidationError:
            return NotImplemented
        if not scalar:
            return GradedPolynomial.zero(self.backend)
        return GradedPolynomial._raw(self.backend, {m: c * scalar for m, c in self._terms.items()})

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, GradedPolynomial):
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return GradedPolynomial.constant(other, self.backend)
        return NotImplemented

    # -- serialization ----------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form, e.g. "4*m(1)^2 - 3*m(2)"; zero renders "0"."""
        if not self._terms:
            return "0"
        chunks = []
        for mono, coeff in self.sorted_terms():
            body = _mono_text(mono)
            mag = abs(coeff)
            if not body:
                piece = str(mag)
            elif mag == 1:
                piece = body
            else:
                piece = f"{mag}*{body}"
            if not chunks:
                chunks.append(piece if coeff > 0 else "-" + piece)
            else:
                chunks.append((" + " if coeff > 0 else " - ") + piece)
        return "".join(chunks)

    @classmethod
    def from_text(cls, text: str, backend: CoefficientBackend) -> GradedPolynomial:
        """Parse the canonical text form (also accepts explicit unit coefficients)."""
        _check_backend(backend)
        s = text.strip()
        if s in ("", "0"):
            return cls.zero(backend)
        # normalize to a +/- separated sequence of terms
        if s[0] not in "+-":
            s = "+" + s
        pieces = re.findall(r"([+-])\s*([^+-]+)", s)
        if "".join(sign + body for sign, body in pieces).replace(" ", "") != s.replace(" ", ""):
            raise ValidationError(f"cannot parse polynomial text {text!r}")
        terms: dict = {}
        for sign, body in pieces:
            coeff = Fraction(-1 if sign == "-" else 1)
            pairs = []
            for factor in body.strip().split("*"):
                factor = factor.strip()
                if not factor:
                    raise ValidationError(f"empty factor in {text!r}")
                if re.fullmatch(r"\d+(?:/\d+)?", factor):
                    coeff *= Fraction(factor)
                    continue
                if "^" in factor:
                    gname, _, exp = factor.partition("^")
                    if not exp.isdigit() or int(exp) < 1:
                        raise ValidationError(f"bad exponent in {factor!r}")
                    e = int(exp)
                else:
                    gname, e = factor, 1
                pairs.append((generator_from_name(gname.strip()), e))
            _add_term(terms, _encode(tuple(pairs)), coeff)
        return cls._raw(backend, terms)

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
            if not isinstance(entry, dict) or "coeff" not in entry or "monomial" not in entry:
                raise ValidationError("polynomial term needs 'coeff' and 'monomial'")
            coeff = _json_coefficient(entry["coeff"])
            pairs = []
            if not isinstance(entry["monomial"], dict):
                raise ValidationError("'monomial' must be an object")
            for name, e in entry["monomial"].items():
                if not is_integer(e) or e < 1:
                    raise ValidationError(f"bad exponent {e!r} for {name!r}")
                pairs.append((generator_from_name(name), e))
            _add_term(terms, _encode(tuple(pairs)), coeff)
        return cls._raw(backend, terms)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"GradedPolynomial({self.to_text()})"


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
