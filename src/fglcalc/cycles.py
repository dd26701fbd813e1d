"""Free graded groups of decorated cycles and their relation generators.

A decorated cycle [Y -> X, L_1, ..., L_r] is a formal symbol: a smooth
source label, an arbitrary target label, and a finite multiset of line
bundle names.  Its degree is dim Y - r.  CycleSum is the free module on
such symbols, with integer or GradedPolynomial coefficients.

Relation builders produce the generators by which geometric theories divide
these groups: the double point relation of a degeneration, its blowup
instance (iterated along a tower, with the telescoping sum), and the three
quotient generators (too many pulled-back bundles, a section moving a
bundle into its zero locus, and the group-law expansion of a tensor
product).  Everything here is bookkeeping on labels; validation checks the
stated dimension and smoothness arithmetic, nothing more.  Labels, cycles,
morphisms and witnesses are immutable slotted records (errors.Record) that
compare and hash by their fields.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    BackendMismatchError,
    CycleError,
    DimensionMismatchError,
    Record,
    ValidationError,
    WitnessError,
    check_flags,
    is_integer,
)
from .ring import (
    ANY_DEGREE,
    INHOMOGENEOUS,
    CoefficientBackend,
    GradedPolynomial,
    lazard_coefficient,
)

# the kinds of a record field read from JSON, and the default of a required one
LABEL, NAMES, REQUIRED = "label", "names", object()


def _from_json(cls, data):
    """The record of class cls described by the JSON object data, read through cls._json.

    The table holds the text for data that is not an object, the text for
    missing keys (formatted with their list, missing, and the first of them,
    first), the text for a name list that is not a list (formatted with its
    key), and a (key, default or REQUIRED, kind) entry per field in
    __slots__ order.  The checks run in that order: an object, every
    required key present, every NAMES value a list unless it is the field's
    default, then each LABEL read by SpaceLabel.from_json in field order.
    """
    not_object, lacks, not_list, fields = cls._json
    if not isinstance(data, dict):
        raise ValidationError(not_object)
    missing = [key for key, default, _ in fields if default is REQUIRED and key not in data]
    if missing:
        raise ValidationError(lacks.format(missing=missing, first=missing[0]))
    values = [data.get(key, default) for key, default, _ in fields]
    for (key, default, kind), value in zip(fields, values):
        if kind == NAMES and value is not default and not isinstance(value, list):
            raise ValidationError(not_list.format(key=key))
    return cls(*(SpaceLabel.from_json(value) if kind == LABEL else value
                 for (_, _, kind), value in zip(fields, values)))


class SpaceLabel(Record):
    """Name plus the little geometry the calculus actually consumes."""

    __slots__ = ("name", "dim", "smooth", "quasiprojective", "complete", "nu")
    _json = ("label JSON needs 'name' and 'dim'", "label JSON needs 'name' and 'dim'", None, (
        ("name", REQUIRED, None), ("dim", REQUIRED, None), ("smooth", True, None),
        ("quasiprojective", True, None), ("complete", False, None), ("nu", None, None)))
    from_json = classmethod(_from_json)

    def __init__(self, name: str, dim: int, smooth: bool = True,
                 quasiprojective: bool = True, complete: bool = False,
                 nu: int | None = None):
        # flags before name and dim: the order from_json reported them in
        check_flags("label field ", smooth=smooth, quasiprojective=quasiprojective,
                    complete=complete)
        if nu is not None and not is_integer(nu):
            raise ValidationError("'nu' must be an integer when present")
        if not isinstance(name, str) or not name:
            raise ValidationError("label name must be a nonempty string")
        if not is_integer(dim) or dim < 0:
            raise ValidationError(f"label dimension must be an integer >= 0, got {dim!r}")
        super().__init__(name, dim, smooth, quasiprojective, complete, nu)

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "dim": self.dim,
            "smooth": self.smooth,
            "quasiprojective": self.quasiprojective,
            "complete": self.complete,
        }
        if self.nu is not None:
            out["nu"] = self.nu
        return out


def _label_key(label: SpaceLabel):
    return (
        label.name,
        label.dim,
        label.smooth,
        label.quasiprojective,
        label.complete,
        label.nu is not None,
        label.nu or 0,
    )


class DecoratedCycle(Record):
    """[source -> target, bundles]: the free generator of a cycle group.

    The source must be smooth and quasiprojective; the bundle multiset is
    stored sorted, so two decorations differing only in listing order are
    the same cycle.
    """

    __slots__ = ("source", "target", "bundles")
    _json = ("cycle JSON needs 'source' and 'target'", "cycle JSON needs 'source' and 'target'",
             "{key!r} must be a list",
             (("source", REQUIRED, LABEL), ("target", REQUIRED, LABEL), ("bundles", (), NAMES)))
    from_json = classmethod(_from_json)

    def __init__(self, source: SpaceLabel, target: SpaceLabel, bundles: tuple = ()):
        if not source.smooth:
            raise CycleError(f"cycle source {source.name!r} must be smooth")
        if not source.quasiprojective:
            raise CycleError(f"cycle source {source.name!r} must be quasiprojective")
        bundles = tuple(bundles)
        for b in bundles:
            if not isinstance(b, str) or not b:
                raise ValidationError("bundle names must be nonempty strings")
        super().__init__(source, target, tuple(sorted(bundles)))

    @property
    def degree(self) -> int:
        return self.source.dim - len(self.bundles)

    def sort_key(self):
        return (_label_key(self.source), _label_key(self.target), self.bundles)

    def to_json(self) -> dict:
        return {
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "bundles": list(self.bundles),
        }

    def __str__(self):
        inside = f"{self.source.name} -> {self.target.name}"
        if self.bundles:
            inside += "; " + ", ".join(self.bundles)
        return f"[{inside}]"


class LabelMorphism(Record):
    """A named arrow between targets, used for pushforward."""

    __slots__ = ("source", "target", "proper")

    def __init__(self, source: SpaceLabel, target: SpaceLabel, proper: bool = True):
        check_flags("morphism field ", proper=proper)
        super().__init__(source, target, proper)

    def then(self, other: LabelMorphism) -> LabelMorphism:
        """Composite self followed by other."""
        if self.target != other.source:
            raise CycleError("morphisms do not compose: targets do not meet")
        return LabelMorphism(self.source, other.target, self.proper and other.proper)


class CycleSum:
    """Formal linear combination of decorated cycles.

    Coefficients are plain integers (backend None) or GradedPolynomial over
    one shared backend.  Sums over different backends do not mix.
    """

    __slots__ = ("backend", "_terms")

    def __init__(self, backend: CoefficientBackend | None = None, terms=None):
        self.backend = backend
        clean = {}
        if terms:
            for cycle, coeff in terms.items():
                if not isinstance(cycle, DecoratedCycle):
                    raise ValidationError("CycleSum keys must be DecoratedCycle")
                coeff = self._coerce(coeff)
                if coeff:
                    clean[cycle] = coeff
        self._terms = clean

    def _coerce(self, coeff):
        if self.backend is None:
            if not is_integer(coeff):
                raise ValidationError("integer coefficients required without a backend")
            return coeff
        if isinstance(coeff, GradedPolynomial):
            if coeff.backend != self.backend:
                raise BackendMismatchError("coefficient over the wrong backend")
            return coeff
        if isinstance(coeff, (int, Fraction)) and not isinstance(coeff, bool):
            return GradedPolynomial.constant(coeff, self.backend)
        raise ValidationError(f"bad cycle coefficient {coeff!r}")

    @classmethod
    def single(cls, cycle: DecoratedCycle, coeff=1, backend=None) -> CycleSum:
        return cls(backend, {cycle: coeff})

    @classmethod
    def zero(cls, backend=None) -> CycleSum:
        return cls(backend)

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, cycle: DecoratedCycle):
        zero = 0 if self.backend is None else GradedPolynomial.zero(self.backend)
        return self._terms.get(cycle, zero)

    def items(self):
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key())

    def total_degree(self):
        """Common degree of all terms (cycle degree plus coefficient degree)."""
        degs = set()
        for cycle, coeff in self._terms.items():
            if isinstance(coeff, GradedPolynomial):
                g = coeff.graded_degree()
                if g == INHOMOGENEOUS:
                    return INHOMOGENEOUS
                degs.add(cycle.degree + g)
            else:
                degs.add(cycle.degree)
        if not degs:
            return ANY_DEGREE
        if len(degs) == 1:
            return degs.pop()
        return INHOMOGENEOUS

    def __eq__(self, other):
        if not isinstance(other, CycleSum):
            return NotImplemented
        return self.backend == other.backend and self._terms == other._terms

    __hash__ = None

    # -- arithmetic -------------------------------------------------------

    def _check(self, other: CycleSum):
        if self.backend != other.backend:
            raise BackendMismatchError("cycle sums over different backends")

    def __add__(self, other):
        if not isinstance(other, CycleSum):
            return NotImplemented
        self._check(other)
        out = dict(self._terms)
        for cycle, coeff in other._terms.items():
            acc = out.get(cycle)
            acc = coeff if acc is None else acc + coeff
            if acc:
                out[cycle] = acc
            else:
                out.pop(cycle, None)
        return CycleSum._raw(self.backend, out)

    @classmethod
    def _raw(cls, backend, terms):
        self = object.__new__(cls)
        self.backend = backend
        self._terms = terms
        return self

    def __neg__(self):
        return CycleSum._raw(self.backend, {c: -k for c, k in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, CycleSum):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar):
        if isinstance(scalar, CycleSum):
            return NotImplemented
        try:
            scalar = self._coerce(scalar)
        except ValidationError:
            return NotImplemented
        if not scalar:
            return CycleSum.zero(self.backend)
        out = {}
        for cycle, coeff in self._terms.items():
            acc = coeff * scalar
            if acc:
                out[cycle] = acc
        return CycleSum._raw(self.backend, out)

    __rmul__ = __mul__

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        terms = []
        for cycle, coeff in self.items():
            value = coeff.to_json() if isinstance(coeff, GradedPolynomial) else coeff
            terms.append({"coeff": value, "cycle": cycle.to_json()})
        return {"terms": terms}

    @classmethod
    def from_json(cls, data, backend: CoefficientBackend | None = None) -> CycleSum:
        if not isinstance(data, dict) or "terms" not in data:
            raise ValidationError("cycle sum JSON needs 'terms'")
        if not isinstance(data["terms"], list):
            raise ValidationError("'terms' must be a list")
        pairs = []
        for entry in data["terms"]:
            if not isinstance(entry, dict) or "coeff" not in entry or "cycle" not in entry:
                raise ValidationError("cycle term needs 'coeff' and 'cycle'")
            cycle = DecoratedCycle.from_json(entry["cycle"])
            raw = entry["coeff"]
            if isinstance(raw, list):
                if backend is None:
                    raise ValidationError("polynomial coefficients need a backend")
                coeff = GradedPolynomial.from_json(raw, backend)
            elif is_integer(raw):
                coeff = raw if backend is None else GradedPolynomial.constant(raw, backend)
            else:
                raise ValidationError(f"bad coefficient {raw!r}")
            pairs.append((cycle, coeff))
        return _summed(pairs, backend)

    def __str__(self):
        if not self._terms:
            return "0"
        chunks = []
        for cycle, coeff in self.items():
            # a constant's to_text() is the text of the integer
            polynomial = isinstance(coeff, GradedPolynomial)
            text = coeff.to_text() if polynomial else str(coeff)
            if text == "1":
                piece = str(cycle)
            elif text == "-1":
                piece = f"-{cycle}"
            elif polynomial and coeff.term_count() > 1:
                piece = f"({text})*{cycle}"
            else:
                piece = f"{text}*{cycle}"
            chunks.append(piece)
        text = chunks[0]
        for piece in chunks[1:]:
            if piece.startswith("-"):
                text += " - " + piece[1:]
            else:
                text += " + " + piece
        return text

    def __repr__(self):
        return f"CycleSum({self!s})"


def _summed(pairs, backend: CoefficientBackend | None = None) -> CycleSum:
    """The CycleSum of (cycle, coefficient) pairs; a repeated cycle's coefficients add.

    The coefficients are added in one dict, never as cycle sums, which would
    copy the running total at every step (in a blowup tower the exceptional
    pieces keep it growing).
    """
    terms: dict = {}
    for cycle, coeff in pairs:
        prev = terms.get(cycle)
        terms[cycle] = coeff if prev is None else prev + coeff
    return CycleSum(backend, terms)


# ---------------------------------------------------------------------------
# functoriality

def pushforward(total: CycleSum, morphism: LabelMorphism) -> CycleSum:
    """Compose every cycle with a proper arrow out of the common target."""
    if not (isinstance(total, CycleSum) and isinstance(morphism, LabelMorphism)):
        raise CycleError("pushforward takes a CycleSum and a LabelMorphism")
    if not morphism.proper:
        raise CycleError("pushforward requires a proper morphism")
    for cycle in total._terms:
        if cycle.target != morphism.source:
            raise CycleError(
                f"cycle targets {cycle.target.name!r}, morphism leaves {morphism.source.name!r}"
            )
    return _summed(
        ((DecoratedCycle(c.source, morphism.target, c.bundles), k) for c, k in total._terms.items()),
        total.backend,
    )


def _product_label(a: SpaceLabel, b: SpaceLabel) -> SpaceLabel:
    return SpaceLabel(
        f"{a.name} x {b.name}",
        a.dim + b.dim,
        a.smooth and b.smooth,
        a.quasiprojective and b.quasiprojective,
        a.complete and b.complete,
    )


def exterior_product(left: CycleSum, right: CycleSum) -> CycleSum:
    """[Y -> X] x [Y' -> X'] = [Y x Y' -> X x X'], extended bilinearly.

    Defined for undecorated cycles only; decorated inputs are rejected.
    """
    if not (isinstance(left, CycleSum) and isinstance(right, CycleSum)):
        raise CycleError("exterior_product takes two CycleSums")
    left._check(right)
    for s in (left, right):
        for cycle in s._terms:
            if cycle.bundles:
                raise CycleError("exterior products take undecorated cycles")
    return _summed((
        (DecoratedCycle(_product_label(c1.source, c2.source), _product_label(c1.target, c2.target)),
         k1 * k2)
        for c1, k1 in left._terms.items()
        for c2, k2 in right._terms.items()
    ), left.backend)


# ---------------------------------------------------------------------------
# degeneration relations

class DoublePointDatum(Record):
    """Labels of a double point degeneration over a curve.

    The fiber over a general point is smooth_fiber; the special fiber is
    component_a glued to component_b along intersection, and
    projective_bundle is the P^1-bundle over the intersection.
    """

    __slots__ = ("smooth_fiber", "component_a", "component_b", "intersection",
                 "projective_bundle", "target")
    _json = ("double point JSON must be an object", "double point JSON lacks {missing}", None,
             tuple((key, REQUIRED, LABEL) for key in __slots__))
    from_json = classmethod(_from_json)

    def __init__(self, smooth_fiber: SpaceLabel, component_a: SpaceLabel,
                 component_b: SpaceLabel, intersection: SpaceLabel,
                 projective_bundle: SpaceLabel, target: SpaceLabel):
        super().__init__(smooth_fiber, component_a, component_b, intersection,
                         projective_bundle, target)
        _check_parts(self, (("component_a", 0), ("component_b", 0), ("projective_bundle", 0),
                            ("intersection", 1)), self.__slots__[:5])


def _check_parts(record, dims, smooth):
    """Raise unless every field is a label, then unless each (part, drop) in dims
    has the first field's dimension less drop, then unless each part in smooth is smooth."""
    for part in record.__slots__:
        if not isinstance(getattr(record, part), SpaceLabel):
            raise CycleError(f"{part} must be a SpaceLabel")
    d = getattr(record, record.__slots__[0]).dim
    for part, drop in dims:
        if getattr(record, part).dim != d - drop:
            raise DimensionMismatchError(
                f"{part} must have dimension {d - drop}, got {getattr(record, part).dim}"
            )
    for part in smooth:
        if not getattr(record, part).smooth:
            raise CycleError(f"{part} must be smooth")


def _relation(general, piece_a, piece_b, bundle, target: SpaceLabel) -> CycleSum:
    """[general] - [piece_a] - [piece_b] + [bundle] over target: a degeneration's relation."""
    return CycleSum(None, {
        DecoratedCycle(general, target): 1,
        DecoratedCycle(piece_a, target): -1,
        DecoratedCycle(piece_b, target): -1,
        DecoratedCycle(bundle, target): 1,
    })


def double_point_relation(datum: DoublePointDatum) -> CycleSum:
    """[general fiber] - [A] - [B] + [P^1-bundle over A meet B], over the target."""
    if not isinstance(datum, DoublePointDatum):
        raise CycleError("double_point_relation takes a DoublePointDatum")
    return _relation(datum.smooth_fiber, datum.component_a, datum.component_b,
                     datum.projective_bundle, datum.target)


class BlowupStep(Record):
    """One stage of a blowup tower: base is replaced by its blowup.

    The deformation to the normal cone of the center turns the base into
    the blowup glued to a projective cone piece (exceptional here) along
    the exceptional divisor; projective_bundle is the P^1-bundle of that
    gluing.  All four labels share the base dimension.
    """

    __slots__ = ("base", "blowup", "exceptional", "projective_bundle")
    _json = ("blowup step JSON must be an object", "blowup step JSON lacks {missing}", None,
             tuple((key, REQUIRED, LABEL) for key in __slots__))
    from_json = classmethod(_from_json)

    def __init__(self, base: SpaceLabel, blowup: SpaceLabel, exceptional: SpaceLabel,
                 projective_bundle: SpaceLabel):
        super().__init__(base, blowup, exceptional, projective_bundle)
        _check_parts(self, (("blowup", 0), ("exceptional", 0), ("projective_bundle", 0)),
                     self.__slots__)


def blowup_relation(step: BlowupStep, target: SpaceLabel) -> CycleSum:
    """[base] - [blowup] - [exceptional piece] + [its P^1-bundle], over target."""
    if not (isinstance(step, BlowupStep) and isinstance(target, SpaceLabel)):
        raise CycleError("blowup_relation takes a BlowupStep and a SpaceLabel")
    return _relation(step.base, step.blowup, step.exceptional, step.projective_bundle, target)


def blowup_tower_relations(steps, target: SpaceLabel) -> list:
    """Relations of consecutive tower stages; steps must chain base-to-blowup."""
    steps = list(steps)
    relations = [blowup_relation(step, target) for step in steps]  # checks each step first
    for prev, nxt in zip(steps, steps[1:]):
        if prev.blowup != nxt.base:
            raise CycleError(
                f"tower breaks between {prev.blowup.name!r} and {nxt.base.name!r}"
            )
    return relations


def sum_relations(relations) -> CycleSum:
    """Sum of integer cycle sums, such as the relations of a blowup tower."""
    return _summed(pair for rel in relations for pair in rel._terms.items())


def telescope_sum(steps, target: SpaceLabel) -> CycleSum:
    """Sum of the tower relations; interior stages cancel in pairs."""
    return sum_relations(blowup_tower_relations(steps, target))


# ---------------------------------------------------------------------------
# quotient relation generators

class DimWitness(Record):
    """Too many bundles pulled back from a lower-dimensional base.

    source fibers over base; pulled_back names bundles coming from the
    base, extra names the remaining decorations.  The class vanishes when
    the pulled-back count exceeds dim base.
    """

    __slots__ = ("source", "target", "base", "pulled_back", "extra")
    _json = ("witness JSON must be an object", "dim witness lacks {first!r}",
             "{key!r} must be a list of names",
             (("source", REQUIRED, LABEL), ("target", REQUIRED, LABEL), ("base", REQUIRED, LABEL),
              ("pulled_back", REQUIRED, NAMES), ("extra", (), NAMES)))
    from_json = classmethod(_from_json)

    def __init__(self, source: SpaceLabel, target: SpaceLabel, base: SpaceLabel,
                 pulled_back: tuple, extra: tuple = ()):
        super().__init__(source, target, base, tuple(pulled_back), tuple(extra))


class SectWitness(Record):
    """A section of the last bundle cuts out zero_locus inside source.

    restricted optionally renames the surviving bundles on the zero locus;
    by default they keep their names.
    """

    __slots__ = ("source", "target", "zero_locus", "bundles", "restricted")
    _json = ("witness JSON must be an object", "sect witness lacks {first!r}",
             "{key!r} must be a list of names",
             (("source", REQUIRED, LABEL), ("target", REQUIRED, LABEL),
              ("zero_locus", REQUIRED, LABEL), ("bundles", REQUIRED, NAMES),
              ("restricted", None, NAMES)))
    from_json = classmethod(_from_json)

    def __init__(self, source: SpaceLabel, target: SpaceLabel, zero_locus: SpaceLabel,
                 bundles: tuple, restricted: tuple | None = None):
        super().__init__(source, target, zero_locus, tuple(bundles),
                         None if restricted is None else tuple(restricted))


class TensorWitness(Record):
    """A tensor product decoration to be expanded through the group law."""

    __slots__ = ("source", "target", "bundles", "left", "right", "tensor")
    _json = ("witness JSON must be an object", "fgl witness lacks {first!r}",
             "{key!r} must be a list of names",
             (("source", REQUIRED, LABEL), ("target", REQUIRED, LABEL), ("bundles", (), NAMES),
              ("left", REQUIRED, None), ("right", REQUIRED, None), ("tensor", REQUIRED, None)))
    from_json = classmethod(_from_json)

    def __init__(self, source: SpaceLabel, target: SpaceLabel, bundles: tuple,
                 left: str, right: str, tensor: str):
        super().__init__(source, target, tuple(bundles), left, right, tensor)


def relation_generator(kind: str, witness, backend: CoefficientBackend | None = None) -> CycleSum:
    """One generator of the relations imposed on the cycle group.

    kind "dim":  the single class with too many pulled-back bundles
    kind "sect": [Y, bundles] - [zero locus, restricted bundles]
    kind "fgl":  [Y, ..., L tensor M] minus its group-law expansion in
                 copies of L and M; needs a backend, and terms whose bundle
                 count would exceed dim Y are dropped (they vanish anyway)
    """
    if kind == "dim":
        if not isinstance(witness, DimWitness):
            raise WitnessError("dim relation needs a DimWitness")
        if not witness.pulled_back:
            raise WitnessError("dim witness needs at least one pulled-back bundle")
        if witness.source.dim < witness.base.dim:
            raise DimensionMismatchError("source cannot fiber over a larger base")
        if len(witness.pulled_back) <= witness.base.dim:
            raise WitnessError(
                f"need more than {witness.base.dim} pulled-back bundles to vanish, "
                f"got {len(witness.pulled_back)}"
            )
        cycle = DecoratedCycle(
            witness.source, witness.target, witness.pulled_back + witness.extra
        )
        return CycleSum(None, {cycle: 1})

    if kind == "sect":
        if not isinstance(witness, SectWitness):
            raise WitnessError("sect relation needs a SectWitness")
        if not witness.bundles:
            raise WitnessError("sect witness needs the bundle being cut")
        if witness.zero_locus.dim != witness.source.dim - 1:
            raise DimensionMismatchError(
                "zero locus must drop the dimension by exactly one"
            )
        restricted = witness.restricted
        if restricted is None:
            restricted = witness.bundles[:-1]
        if len(restricted) != len(witness.bundles) - 1:
            raise WitnessError("restricted names must cover all bundles but the last")
        upstairs = DecoratedCycle(witness.source, witness.target, witness.bundles)
        downstairs = DecoratedCycle(witness.zero_locus, witness.target, restricted)
        return CycleSum(None, {upstairs: 1, downstairs: -1})

    if kind == "fgl":
        if not isinstance(witness, TensorWitness):
            raise WitnessError("fgl relation needs a TensorWitness")
        if backend is None:
            raise WitnessError("fgl relation needs a coefficient backend")
        prefix = witness.bundles
        room = witness.source.dim - len(prefix)
        one = GradedPolynomial.one(backend)
        pairs = []
        if room >= 1:
            for name, coeff in ((witness.tensor, one), (witness.left, -one), (witness.right, -one)):
                pairs.append((prefix + (name,), coeff))
        for i in range(1, room + 1):
            for j in range(1, room - i + 1):
                a = lazard_coefficient(i, j, backend)
                if a:
                    pairs.append((prefix + (witness.left,) * i + (witness.right,) * j, -a))
        return _summed(
            ((DecoratedCycle(witness.source, witness.target, bundles), k) for bundles, k in pairs),
            backend,
        )

    raise WitnessError(f"unknown relation kind {kind!r}")
