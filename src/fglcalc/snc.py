"""Divisor classes over combinatorial simple-normal-crossing data.

An SncConfiguration records the combinatorics of an s.n.c. divisor on a
smooth ambient space: components D_1..D_r and the family of index sets J
whose intersections D_J are nonempty.  The family must be downward closed,
contain every singleton, and respect ambient_dim - |J| >= 0.  It and its
SncComponents are immutable slotted records (errors.Record).

A FaceClassVector assigns to some faces J a ChernPolynomial in the symbols
c_1..c_r (the classes of the O(D_i) restricted to D_J), truncated at the
face dimension ambient_dim - |J|.  divisor_class and product_class produce
such vectors from multiplicity data and a formal group law; normal_form
rewrites stray c_j factors into deeper faces (a section moves a hyperplane
class into the zero locus) until every entry only involves decisions its
face can see.  The fold, the product and the operator keep packed term
dicts: a series becomes one in a single pass over its keys, and the divisor
operator adds each product's keys into its face's terms.  A fold below the
law's order runs on the law cut to it (FormalGroupLaw._at_order), as on a
restriction.  normal_form reads decoded terms; the vectors are clean already.

A term of support J and total degree D reaches the face J in c-degree
D - |J|, so only face supports and degrees up to ambient_dim matter.  Faces
are downward closed, so the other terms span an ideal (the Stanley-Reisner
ideal, plus the higher degrees) that products and substitution preserve:
F^{(n)} is folded at order ambient_dim with non-face terms dropped after
every step, and a product of two divisors is one product of those.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache

from .chern import ChernPolynomial, _symbols
from .errors import (
    BackendMismatchError,
    ConfigurationError,
    OrderError,
    Record,
    ValidationError,
    check_flags,
    is_integer,
    json_entries,
    json_object,
)
from .ring import _common_degree, _mono_degree, _nonzero
from .series import FormalGroupLaw, TruncatedSeries, _as_tuple, _layout, _support_parts

# re-exported, not called here: perfbench's tracer test reads it as
# fglcalc.snc.evaluate_at_chern to check that every import site is patched
from .chern import evaluate_at_chern  # noqa: F401


class SncComponent(Record):
    """One irreducible divisor component."""

    __slots__ = ("name", "quasiprojective")

    def __init__(self, name: str, quasiprojective: bool = True):
        check_flags(quasiprojective=quasiprojective)  # before the name, as from_json did
        if not isinstance(name, str) or not name:
            raise ValidationError("component name must be a nonempty string")
        super().__init__(name, quasiprojective)


def _face(face) -> frozenset:
    if not isinstance(face, (list, tuple, set, frozenset)):
        raise ValidationError(f"face {face!r} is not a list of component indices")
    for i in face:
        if not is_integer(i):
            raise ValidationError(f"face index {i!r} is not an integer")
    return frozenset(face)


def _normalize_faces(faces):
    if not isinstance(faces, Iterable):
        raise ValidationError(f"faces must be a list of index lists, got {faces!r}")
    return frozenset(_face(face) for face in faces)


class SncConfiguration(Record):
    """Combinatorics of an s.n.c. divisor inside an ambient smooth space."""

    __slots__ = ("ambient_dim", "components", "faces")

    def __init__(self, ambient_dim: int, components=(), faces=frozenset()):
        if not is_integer(ambient_dim):
            raise ValidationError("ambient_dim must be an integer")
        components = tuple(components) if isinstance(components, Iterable) else None
        if components is None or not all(isinstance(comp, SncComponent) for comp in components):
            raise ValidationError("components must be SncComponent instances")
        super().__init__(ambient_dim, components, _normalize_faces(faces))

    @property
    def r(self) -> int:
        return len(self.components)

    def face_dim(self, face) -> int:
        return self.ambient_dim - len(face if isinstance(face, frozenset) else _face(face))

    def sorted_faces(self):
        return sorted(self.faces, key=lambda J: (len(J), sorted(J)))

    def to_json(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "components": [
                {"name": c.name, "quasiprojective": c.quasiprojective}
                for c in self.components
            ],
            "faces": [sorted(J) for J in self.sorted_faces()],
        }

    @classmethod
    def from_json(cls, data) -> SncConfiguration:
        json_object(data, ("ambient_dim", "components", "faces"),
                    "configuration JSON must be an object", "configuration JSON lacks {first!r}")
        comps = tuple(SncComponent(entry["name"], entry.get("quasiprojective", True))
                      for entry in json_entries(data["components"], "components", ("name",),
                                                "each component needs a 'name'"))
        if not isinstance(data["faces"], list):
            raise ValidationError("'faces' must be a list of index lists")
        return cls(data["ambient_dim"], comps, data["faces"])  # the constructor normalizes them


def _check_config(config):
    # ahead of require_valid too: its cache would hash a list before any check
    if not isinstance(config, SncConfiguration):
        raise ValidationError(f"expected an SncConfiguration, got {config!r}")


def validate_config(config: SncConfiguration) -> list:
    """Structural violations as {"rule": ..., "face": [...]} dicts; [] if valid."""
    _check_config(config)
    violations = set()  # (rule, sorted face tuple)
    r = config.r
    if config.ambient_dim < 0:
        violations.add(("negative-ambient-dimension", ()))
    names = [c.name for c in config.components]
    if len(set(names)) != len(names):
        violations.add(("duplicate-component-name", ()))
    for face in config.faces:
        if not face:
            violations.add(("empty-face", ()))
            continue
        if any(i < 1 or i > r for i in face):
            violations.add(("index-out-of-range", tuple(sorted(face))))
            continue
        if config.face_dim(face) < 0:
            violations.add(("negative-face-dimension", tuple(sorted(face))))
        for i in face:
            sub = face - {i}
            if sub and sub not in config.faces:
                violations.add(("not-downward-closed", tuple(sorted(sub))))
    for i in range(1, r + 1):
        if frozenset({i}) not in config.faces:
            violations.add(("missing-singleton", (i,)))
    # deterministic report order
    return [{"rule": rule, "face": list(face)} for rule, face in sorted(violations)]


@lru_cache(maxsize=8)
def require_valid(config: SncConfiguration):
    """Raise ConfigurationError unless config is valid; passes, not raises, are cached by equality."""
    violations = validate_config(config)
    if violations:
        raise ConfigurationError(violations)


def _check_multiplicities(config, multiplicities, what="multiplicities"):
    ms = _as_tuple(multiplicities, f"{what} must be integers, got")
    if len(ms) != config.r:
        raise ValidationError(f"{what}: expected {config.r} entries, got {len(ms)}")
    if not all(map(is_integer, ms)):
        raise ValidationError(f"{what} must be integers")
    if ms and not any(ms):
        raise ValidationError(f"{what} must not all vanish")
    return ms


def _check_law(config, law: FormalGroupLaw):
    if not isinstance(law, FormalGroupLaw):
        raise ValidationError(f"expected a FormalGroupLaw, got {law!r}")
    if law.order < config.ambient_dim:
        raise OrderError(
            f"law order {law.order} is below ambient_dim {config.ambient_dim}"
        )


class FaceClassVector:
    """Assignment of a dimension-truncated ChernPolynomial to some faces."""

    __slots__ = ("config", "_entries")

    def __init__(self, config: SncConfiguration, entries=None):
        _check_config(config)
        if entries is not None and not isinstance(entries, dict):
            raise ValidationError("class vector entries must be a dict from faces to classes")
        self.config = config
        clean = {}
        if entries:
            for face, cp in entries.items():
                face = _face(face)
                if face not in config.faces:
                    raise ValidationError(f"{sorted(face)} is not a face")
                if not isinstance(cp, ChernPolynomial):
                    raise ValidationError("entries must be ChernPolynomial values")
                if cp.nvars != config.r:
                    raise ValidationError("entry symbol count must match component count")
                if cp.backend != next(iter(entries.values())).backend:
                    raise BackendMismatchError("mixed backends in a class vector")
                if cp.dim_bound != config.face_dim(face):
                    raise ValidationError(
                        f"entry at {sorted(face)} must be truncated at {config.face_dim(face)}"
                    )
                if not cp.is_zero():
                    clean[face] = cp
        self._entries = clean

    @classmethod
    def _raw(cls, config: SncConfiguration, entries: dict) -> FaceClassVector:
        self = object.__new__(cls)  # entries: face -> nonzero class at its dimension, unchecked
        self.config, self._entries = config, entries
        return self

    def faces(self):
        return sorted(self._entries, key=lambda J: (len(J), sorted(J)))

    def entry(self, face) -> ChernPolynomial | None:
        return self._entries.get(_face(face))

    def items(self):
        return [(J, self._entries[J]) for J in self.faces()]

    def is_zero(self) -> bool:
        return not self._entries

    def __eq__(self, other):
        if not isinstance(other, FaceClassVector):
            return NotImplemented
        return self.config == other.config and self._entries == other._entries

    __hash__ = None

    def to_json(self) -> dict:
        return {
            "entries": [
                {"face": sorted(J), "class": cp.to_json()} for J, cp in self.items()
            ]
        }

    @classmethod
    def from_json(cls, config: SncConfiguration, data, backend) -> FaceClassVector:
        _check_config(config)  # the entries read config.r
        json_object(data, ("entries",), "class vector JSON needs 'entries'")
        entries = {}
        for item in json_entries(data["entries"], "entries", ("face", "class"),
                                 "each entry needs 'face' and 'class'"):
            face = _face(item["face"])
            cp = ChernPolynomial.from_json(item["class"], backend, nvars=config.r)
            if face in entries:
                cp = entries[face] + cp
            entries[face] = cp
        return cls(config, entries)

    def __repr__(self):
        body = ", ".join(f"{sorted(J)}: {cp}" for J, cp in self.items())
        return f"FaceClassVector({{{body}}})"


def _check_vector(vector):
    if not isinstance(vector, FaceClassVector):
        raise ValidationError(f"expected a FaceClassVector, got {vector!r}")


# ---------------------------------------------------------------------------
# class construction

def _on_faces(series: TruncatedSeries, faces) -> TruncatedSeries:
    """series modulo the Stanley-Reisner ideal: the terms whose support is a face."""
    layout = series._layout
    series_mask = layout.series_mask
    on_face: dict = {}  # series part -> whether its support is a face
    terms = {}
    for k, c in series._terms.items():
        keep = on_face.get(k & series_mask)
        if keep is None:
            keep = on_face[k & series_mask] = layout.support(k & series_mask) in faces
        if keep:
            terms[k] = c
    return TruncatedSeries._raw(series.variables, series.order, series.backend, terms, layout)


def _face_combination(config: SncConfiguration, ns: tuple, law: FormalGroupLaw) -> TruncatedSeries:
    """F^{(n)} folded at order ambient_dim, non-face terms dropped at every step."""
    key = (ns, config.faces, config.ambient_dim)
    result = law._face_combinations.get(key)
    if result is None:
        if not ns:
            raise ValidationError("need at least one multiplicity")
        low = law._at_order(config.ambient_dim)  # at most law.order, by _check_law
        variables = tuple(f"u{i}" for i in range(1, len(ns) + 1))
        result = low._embedded_n_series(ns[0], 0, variables)
        for idx in range(1, len(ns)):
            step = low.sum(result, low._embedded_n_series(ns[idx], idx, variables))
            result = _on_faces(step, config.faces)
        law._face_combinations[key] = result
    return result


def _face_classes(config: SncConfiguration, series: TruncatedSeries) -> FaceClassVector:
    """The support parts of series on faces, at the symbols, in one pass over its keys.

    series is at order ambient_dim, so each is within its face dimension."""
    symbols, layout = _symbols(config.r), series._layout
    return FaceClassVector._raw(config, {
        J: ChernPolynomial._raw(symbols, config.face_dim(J), series.backend, terms, layout)
        for J, terms in _support_parts(series, config.faces).items()
    })


def divisor_class(config: SncConfiguration, multiplicities, law: FormalGroupLaw) -> FaceClassVector:
    """Face-by-face class of the divisor sum n_i D_i.

    The part of F^{(n_1..n_r)} supported on a face J, with the variables read
    as the symbols c_i, truncated at the face dimension.  Faces absent from
    the configuration contribute nothing.  The combination is read modulo
    the non-face supports and the total degrees above ambient_dim.
    """
    _check_config(config)
    require_valid(config)
    ns = _check_multiplicities(config, multiplicities)
    _check_law(config, law)
    return _face_classes(config, _face_combination(config, ns, law))


def product_class(config: SncConfiguration, n_mults, p_mults, law: FormalGroupLaw) -> FaceClassVector:
    """Class of the intersection product of two divisor sums.

    At a face K: the sum, over supports J of the first divisor and I of the
    second with union K, of F_J * F_I * prod_{i in J and I} u_i at the
    dimension of D_K.  That is the support-K part of F^{(n)} * F^{(p)}, taken
    in one product.  Only face supports and total degrees up to ambient_dim
    (c-degree up to dim D_K) reach a face, so both factors are reduced
    modulo the non-face supports and the higher degrees, and the product's
    non-face terms are dropped as its face classes are read.
    """
    _check_config(config)
    require_valid(config)
    ns = _check_multiplicities(config, n_mults, "first multiplicities")
    ps = _check_multiplicities(config, p_mults, "second multiplicities")
    _check_law(config, law)
    product = _face_combination(config, ns, law) * _face_combination(config, ps, law)
    return _face_classes(config, product)


def apply_divisor_operator(vector: FaceClassVector, multiplicities, law: FormalGroupLaw) -> FaceClassVector:
    """Intersect an existing face-class vector with the divisor sum n_i D_i.

    An entry beta at a face I and the divisor's class F_J at a face J give
    F_J * beta * prod_{i in J and I} c_i on the union K, cut at dim D_K: one
    chern product at order dim D_K - |J and I|, of F_J cut there (once per
    degree) and a view that shares beta's bucketed rows, whose keys plus the
    key of the shared symbols are added straight into K's terms.  Every
    entry has the one key layout of r symbols, so no key is re-encoded.  The
    entries may carry stray symbols, so they are not lifted into one series
    product.
    """
    _check_vector(vector)
    config = vector.config
    require_valid(config)
    ns = _check_multiplicities(config, multiplicities)
    _check_law(config, law)
    classes = _face_classes(config, _face_combination(config, ns, law))._entries
    symbols, layout = _symbols(config.r), _layout(config.r)
    acc: dict = {}  # face -> its terms
    lefts: dict = {}  # (J, degree) -> F_J cut there
    for I, beta in vector._entries.items():
        for J, factor in classes.items():
            K = J | I
            if K not in config.faces:
                continue
            bound = config.face_dim(K)
            common = J & I
            top = bound - len(common)
            if top < 0:
                continue  # every term lies above the face dimension
            terms = acc.setdefault(K, {})
            left = lefts.get((J, top))
            if left is None:  # top is dim D_J - |I|: every I of one size shares the cut
                left = lefts[J, top] = factor.truncate(top)
            offset = sum(layout.units[i - 1] for i in common)
            get = terms.get
            for k, c in (left * beta._cut(top))._terms.items():
                terms[k + offset] = get(k + offset, 0) + c
    return FaceClassVector._raw(config, {
        K: ChernPolynomial._raw(symbols, config.face_dim(K), law.backend, terms, layout)
        for K, terms in acc.items() if _nonzero(terms)
    })


# ---------------------------------------------------------------------------
# restriction and lifting

def restricted_component_indices(config: SncConfiguration, index: int) -> list:
    """Original indices of the components that meet D_index, ascending."""
    _check_config(config)
    require_valid(config)
    if not is_integer(index) or not 1 <= index <= config.r:
        raise ValidationError(f"component index {index!r} outside 1..{config.r}")
    return [
        j
        for j in range(1, config.r + 1)
        if j != index and frozenset({index, j}) in config.faces
    ]


def restrict_to_component(config: SncConfiguration, index: int, multiplicities):
    """The induced configuration on D_index, with transported multiplicities.

    Components that do not meet D_index disappear; faces J of the result are
    exactly those with J + {index} a face upstairs; the ambient dimension
    drops by one.  Returns (configuration, multiplicities) with entries
    reindexed along the kept components.
    """
    _check_config(config)
    require_valid(config)
    ms = _as_tuple(multiplicities, "multiplicities must be integers, got")
    if len(ms) != config.r:
        raise ValidationError(f"expected {config.r} multiplicities, got {len(ms)}")
    if not all(map(is_integer, ms)):
        raise ValidationError("multiplicities must be integers")
    kept = restricted_component_indices(config, index)
    position = {orig: new for new, orig in enumerate(kept, start=1)}
    new_faces = set()
    for face in config.faces:
        if index in face:
            continue
        if face | {index} in config.faces and face:
            if all(j in position for j in face):
                new_faces.add(frozenset(position[j] for j in face))
    new_components = tuple(config.components[j - 1] for j in kept)
    new_config = SncConfiguration(config.ambient_dim - 1, new_components, new_faces)
    new_ms = tuple(ms[j - 1] for j in kept)
    return new_config, new_ms


def lift_restricted_class(vector: FaceClassVector, config: SncConfiguration, index: int) -> FaceClassVector:
    """Transport a class vector on the restriction to D_index back upstairs.

    A face J' of the restricted configuration corresponds to the face
    J + {index} of `config`; chern symbols are re-indexed along the kept
    components.  Dimension bounds already agree, since restricting drops the
    ambient dimension and adding the index grows the face by one; a vector
    on a configuration of another ambient dimension is refused, so no entry
    is read at a bound it was not cut at.  Each term keeps its degree, so
    its key is re-packed one to one and none is dropped.
    """
    _check_vector(vector)
    _check_config(config)
    require_valid(config)
    kept = restricted_component_indices(config, index)
    sub = vector.config
    if len(kept) != sub.r or sub.ambient_dim != config.ambient_dim - 1:
        raise ValidationError("vector does not live on the restriction to this component")
    r, layout, src = config.r, _layout(config.r), _layout(sub.r)

    def lift(exps):
        lifted = [0] * r
        for j, e in zip(kept, exps):
            lifted[j - 1] = e
        return lifted

    entries = {}
    for Jp, cp in vector.items():
        face = frozenset(kept[k - 1] for k in Jp) | {index}
        if face not in config.faces:
            raise ValidationError(f"lifted face {sorted(face)} is not a face upstairs")
        dim = config.face_dim(face)
        terms = {layout.encode(lift(src.exponents(k & src.series_mask)))
                 + (k >> src.shift << layout.shift): c for k, c in cp._terms.items()}
        entries[face] = ChernPolynomial._raw(_symbols(r), dim, cp.backend, terms, layout)
    return FaceClassVector(config, entries)


# ---------------------------------------------------------------------------
# normal form and grading

def normal_form(vector: FaceClassVector) -> FaceClassVector:
    """Absorb stray symbols into deeper faces until every entry is clean.

    A term at face J containing c_j with j outside J is rewritten as the
    same term at J + {j} with one power of c_j removed (a section of O(D_j)
    moves the class into D_j); if J + {j} is not a face the term vanishes.
    Absorptions at distinct indices commute, so with S the stray indices a
    term moves to J + S in one step, or vanishes unless J + S is a face
    (faces are downward closed).  Each absorption drops the degree and the
    dimension bound by one, so a term within dim D_J stays within each bound.
    """
    _check_vector(vector)
    config = vector.config
    require_valid(config)
    acc: dict = {}  # face -> {exponents: coefficient}
    for J, cp in vector._entries.items():
        backend = cp.backend  # one for every entry
        for exps, poly in cp.items():
            stray = frozenset(j for j, e in enumerate(exps, 1) if e and j not in J)
            if J | stray in config.faces:
                terms = acc.setdefault(J | stray, {})
                exps = tuple(e - (j in stray) for j, e in enumerate(exps, 1))
                terms[exps] = terms[exps] + poly if exps in terms else poly
    return FaceClassVector(config, {
        face: ChernPolynomial(config.r, config.face_dim(face), backend, terms)
        for face, terms in acc.items()
    })


def class_dimension(vector: FaceClassVector):
    """Common dimension of all terms: face dim minus c-degree plus coefficient degree.

    Returns ANY_DEGREE for the empty vector and INHOMOGENEOUS when terms
    disagree.
    """
    _check_vector(vector)
    return _common_degree({
        vector.config.face_dim(J) - (k & cp._layout.mask)
        + _mono_degree(k >> cp._layout.shift, cp.backend.kind)
        for J, cp in vector.items() for k in cp._terms
    })


# ---------------------------------------------------------------------------
# the observable identities

def check_properties(config: SncConfiguration, n_mults, p_mults, law: FormalGroupLaw) -> dict:
    """Evaluate the three structural identities for a pair of divisors.

    symmetry     product_class does not depend on the argument order
    restriction  when the first divisor is a single reduced component absent
                 from the second, the product is the second's divisor class
                 on that component, lifted back; None when not applicable
    operator     the product equals the divisor operator applied to the
                 second divisor's class; both are clean (every symbol of
                 an entry lies in its face), so they are compared as they are
    """
    _check_config(config)
    require_valid(config)
    ns = _check_multiplicities(config, n_mults, "first multiplicities")
    ps = _check_multiplicities(config, p_mults, "second multiplicities")
    _check_law(config, law)

    product = product_class(config, ns, ps, law)
    symmetric = product == product_class(config, ps, ns, law)

    operator = product == apply_divisor_operator(divisor_class(config, ps, law), ns, law)

    restriction = None
    support = [i for i, n in enumerate(ns, start=1) if n]
    if len(support) == 1 and ns[support[0] - 1] == 1 and ps[support[0] - 1] == 0:
        i = support[0]
        sub_config, sub_ps = restrict_to_component(config, i, ps)
        if sub_config.r and any(sub_ps):
            lifted = lift_restricted_class(
                divisor_class(sub_config, sub_ps, law), config, i
            )
        else:
            lifted = FaceClassVector(config, {})
        restriction = product == lifted

    return {"symmetry": symmetric, "restriction": restriction, "operator": operator}
