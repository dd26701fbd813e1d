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
face can see.  The vectors stay packed term dicts throughout: a series
becomes one in a single pass over its keys, the divisor operator adds each
product's keys into its face's terms, and normal_form moves each term once.

A term of support J and total degree D reaches the face J in c-degree
D - |J|, so only face supports and degrees up to ambient_dim matter.  Faces
are downward closed, so the other terms span an ideal (the Stanley-Reisner
ideal, plus the higher degrees) that products and substitution preserve:
F^{(n)} is folded at order ambient_dim with non-face terms dropped after
every step, and a product of two divisors is one product of those.
"""

from __future__ import annotations

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
)
from .ring import ANY_DEGREE, INHOMOGENEOUS, _mono_degree, _nonzero
from .series import FormalGroupLaw, TruncatedSeries, _cut_terms, _layout, _repack, _support_parts

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
    return frozenset(_face(face) for face in faces)


class SncConfiguration(Record):
    """Combinatorics of an s.n.c. divisor inside an ambient smooth space."""

    __slots__ = ("ambient_dim", "components", "faces")

    def __init__(self, ambient_dim: int, components=(), faces=frozenset()):
        if not is_integer(ambient_dim):
            raise ValidationError("ambient_dim must be an integer")
        components = tuple(components)
        for comp in components:
            if not isinstance(comp, SncComponent):
                raise ValidationError("components must be SncComponent instances")
        super().__init__(ambient_dim, components, _normalize_faces(faces))

    @property
    def r(self) -> int:
        return len(self.components)

    def face_dim(self, face) -> int:
        return self.ambient_dim - len(face)

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
        if not isinstance(data, dict):
            raise ValidationError("configuration JSON must be an object")
        for key in ("ambient_dim", "components", "faces"):
            if key not in data:
                raise ValidationError(f"configuration JSON lacks {key!r}")
        comps = []
        if not isinstance(data["components"], list):
            raise ValidationError("'components' must be a list")
        for entry in data["components"]:
            if not isinstance(entry, dict) or "name" not in entry:
                raise ValidationError("each component needs a 'name'")
            comps.append(SncComponent(entry["name"], entry.get("quasiprojective", True)))
        if not isinstance(data["faces"], list):
            raise ValidationError("'faces' must be a list of index lists")
        return cls(data["ambient_dim"], tuple(comps), _normalize_faces(data["faces"]))


def _check_config(config):
    # ahead of require_valid too: its cache would hash a list before any check
    if not isinstance(config, SncConfiguration):
        raise ValidationError(f"expected an SncConfiguration, got {config!r}")


def validate_config(config: SncConfiguration) -> list:
    """Structural violations as {"rule": ..., "face": [...]} dicts; [] if valid."""
    _check_config(config)
    violations = []
    r = config.r
    if config.ambient_dim < 0:
        violations.append({"rule": "negative-ambient-dimension", "face": []})
    names = [c.name for c in config.components]
    if len(set(names)) != len(names):
        violations.append({"rule": "duplicate-component-name", "face": []})
    for face in config.sorted_faces():
        if not face:
            violations.append({"rule": "empty-face", "face": []})
            continue
        if any(i < 1 or i > r for i in face):
            violations.append({"rule": "index-out-of-range", "face": sorted(face)})
            continue
        if config.face_dim(face) < 0:
            violations.append({"rule": "negative-face-dimension", "face": sorted(face)})
        for i in sorted(face):
            sub = face - {i}
            if sub and sub not in config.faces:
                violations.append(
                    {"rule": "not-downward-closed", "face": sorted(sub)}
                )
    for i in range(1, r + 1):
        if frozenset({i}) not in config.faces:
            violations.append({"rule": "missing-singleton", "face": [i]})
    # deterministic report order, duplicates removed
    seen = set()
    unique = []
    for v in sorted(violations, key=lambda v: (v["rule"], v["face"])):
        key = (v["rule"], tuple(v["face"]))
        if key not in seen:
            seen.add(key)
            unique.append(v)
    return unique


@lru_cache(maxsize=8)
def require_valid(config: SncConfiguration):
    """Raise ConfigurationError unless config is valid; passes, not raises, are cached by equality."""
    violations = validate_config(config)
    if violations:
        raise ConfigurationError(violations)


def _check_multiplicities(config, multiplicities, what="multiplicities"):
    ms = tuple(multiplicities)
    if len(ms) != config.r:
        raise ValidationError(f"{what}: expected {config.r} entries, got {len(ms)}")
    for m in ms:
        if not is_integer(m):
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
        return self._entries.get(frozenset(face))

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
        if not isinstance(data, dict) or "entries" not in data:
            raise ValidationError("class vector JSON needs 'entries'")
        if not isinstance(data["entries"], list):
            raise ValidationError("'entries' must be a list")
        entries = {}
        for item in data["entries"]:
            if not isinstance(item, dict) or "face" not in item or "class" not in item:
                raise ValidationError("each entry needs 'face' and 'class'")
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
        order = config.ambient_dim  # at most law.order, by _check_law
        low = law if order == law.order else law._lower.get(order)
        if low is None:
            low = law._lower[order] = FormalGroupLaw(law.backend, order)
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
    src = series._layout
    r, entries = config.r, {}
    for J, terms in _support_parts(series, config.faces).items():
        dim = config.face_dim(J)
        dst = _layout(r, dim)
        if dst is not src:  # the fields narrow below order 32
            terms = _repack(terms, src, dst, dim)
        entries[J] = ChernPolynomial._raw(_symbols(r), dim, series.backend, terms, dst)
    return FaceClassVector._raw(config, entries)


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
    degree) and a view that shares beta's sorted rows, whose keys plus the
    key of the shared symbols are added straight into K's terms.  The
    entries may carry stray symbols, so they are not lifted into one series
    product.
    """
    _check_vector(vector)
    config = vector.config
    require_valid(config)
    ns = _check_multiplicities(config, multiplicities)
    _check_law(config, law)
    classes = _face_classes(config, _face_combination(config, ns, law))._entries
    r, symbols = config.r, _symbols(config.r)
    acc: dict = {}  # face -> (its layout, its terms)
    lefts: dict = {}  # (J, degree, layout) -> F_J cut there
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
            layout, terms = acc.setdefault(K, (_layout(r, bound), {}))
            left = lefts.get((J, top, layout))
            if left is None:  # top is dim D_J - |I|: every I of one size shares the cut
                left = lefts[J, top, layout] = ChernPolynomial._raw(
                    symbols, top, law.backend, _cut_terms(factor._terms, factor._layout, layout, top), layout)
            right = beta._cut(top) if beta._layout is layout else ChernPolynomial._raw(  # around order 32
                symbols, top, beta.backend, _cut_terms(beta._terms, beta._layout, layout, top), layout)
            offset = sum(layout.units[i - 1] for i in common)
            get = terms.get
            for k, c in (left * right)._terms.items():
                terms[k + offset] = get(k + offset, 0) + c
    return FaceClassVector._raw(config, {
        K: ChernPolynomial._raw(symbols, config.face_dim(K), law.backend, terms, layout)
        for K, (layout, terms) in acc.items() if _nonzero(terms)
    })


# ---------------------------------------------------------------------------
# restriction and lifting

def restricted_component_indices(config: SncConfiguration, index: int) -> list:
    """Original indices of the components that meet D_index, ascending."""
    _check_config(config)
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
    ms = tuple(multiplicities)
    if len(ms) != config.r:
        raise ValidationError(f"expected {config.r} multiplicities, got {len(ms)}")
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
    ambient dimension and adding the index grows the face by one.
    """
    _check_vector(vector)
    _check_config(config)
    require_valid(config)
    kept = restricted_component_indices(config, index)
    sub = vector.config
    if len(kept) != sub.r:
        raise ValidationError("vector does not live on the restriction to this component")
    r = config.r

    def lift(exps):
        lifted = [0] * r
        for pos, e in enumerate(exps, start=1):
            lifted[kept[pos - 1] - 1] = e
        return tuple(lifted)

    entries = {}
    for Jp, cp in vector.items():
        face = frozenset(kept[k - 1] for k in Jp) | {index}
        if face not in config.faces:
            raise ValidationError(f"lifted face {sorted(face)} is not a face upstairs")
        dim = config.face_dim(face)
        layout = _layout(r, dim)
        terms = _repack(cp._terms, cp._layout, layout, dim, lift)
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
                        face, (cp.backend, _layout(r, config.face_dim(face)), {}))
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


def class_dimension(vector: FaceClassVector):
    """Common dimension of all terms: face dim minus c-degree plus coefficient degree.

    Returns ANY_DEGREE for the empty vector and INHOMOGENEOUS when terms
    disagree.
    """
    _check_vector(vector)
    dims = set()
    for J, cp in vector.items():
        base = vector.config.face_dim(J)
        mask, shift = cp._layout.mask, cp._layout.shift
        for k in cp._terms:
            dims.add(base - (k & mask) + _mono_degree(k >> shift))
    if not dims:
        return ANY_DEGREE
    if len(dims) == 1:
        return dims.pop()
    return INHOMOGENEOUS


# ---------------------------------------------------------------------------
# the observable identities

def check_properties(config: SncConfiguration, n_mults, p_mults, law: FormalGroupLaw) -> dict:
    """Evaluate the three structural identities for a pair of divisors.

    symmetry     product_class does not depend on the argument order
    restriction  when the first divisor is a single reduced component absent
                 from the second, the product is the second's divisor class
                 on that component, lifted back; None when not applicable
    operator     normal form of the product equals the divisor operator
                 applied to the second divisor's class
    """
    _check_config(config)
    require_valid(config)
    ns = _check_multiplicities(config, n_mults, "first multiplicities")
    ps = _check_multiplicities(config, p_mults, "second multiplicities")
    _check_law(config, law)

    product = product_class(config, ns, ps, law)
    symmetric = product == product_class(config, ps, ns, law)

    operator = normal_form(product) == normal_form(
        apply_divisor_operator(divisor_class(config, ps, law), ns, law)
    )

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
