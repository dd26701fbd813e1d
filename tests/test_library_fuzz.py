"""Every public library call ends in a result or a ValidationError.

Each site below is one callable of fglcalc.__all__, or one public method of
a class it exports, with arguments it accepts.  The tests replace some of
those arguments with values from _VALUES (wrong types, bools, floats and
NaN, repeated names, foreign backends, a string for a law, generators of
another kind, counts just past each cap, and the other sites' objects) and
require a return or a ValidationError subclass.  The last test plants a bad
value inside an argument instead: one entry of one dict, list, tuple or
frozenset in it, at any depth, is replaced by a value of _PLANTED, wrapped,
repeated or dropped.  A binary operator given a non-operand ends in Python's
TypeError once every fglcalc operand has returned NotImplemented: that is
the operator protocol, not a defect.
"""

import inspect
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fglcalc
from fglcalc import (
    FREE,
    MULTIPLICATIVE,
    BlowupStep,
    ChernPolynomial,
    CoefficientBackend,
    CycleSum,
    DecoratedCycle,
    DimWitness,
    DoublePointDatum,
    FaceClassVector,
    FormalGroupLaw,
    Generator,
    GradedPolynomial,
    LabelMorphism,
    SectWitness,
    SncComponent,
    SncConfiguration,
    SpaceLabel,
    TensorWitness,
    TruncatedSeries,
    ValidationError,
    a_gen,
    b_gen,
    divisor_class,
    log_backend,
    m_gen,
    restrict_to_component,
)
from fglcalc.ring import _FIELD_MASK, MAX_EXPONENT

LAW = FormalGroupLaw(FREE, 3)
U = TruncatedSeries.variable("u", ("u",), 3, FREE)
S = LAW.linear_combination((1, 2))
P = GradedPolynomial.generator(a_gen(1, 1), FREE) + 2
C = ChernPolynomial.symbol(1, 2, 2, FREE)
CONFIG = SncConfiguration(2, (SncComponent("D1"), SncComponent("D2")), [[1], [2], [1, 2]])
VECTOR = divisor_class(CONFIG, (1, 1), LAW)
LOW_CONFIG, LOW_NS = restrict_to_component(CONFIG, 1, (1, 1))
LOW_VECTOR = divisor_class(LOW_CONFIG, LOW_NS, LAW)
X, Y, D = SpaceLabel("X", 3), SpaceLabel("Y", 2), SpaceLabel("D", 1)
CYCLE = DecoratedCycle(Y, X, ("L",))
SUM = CycleSum.single(CYCLE)
BARE = CycleSum.single(DecoratedCycle(Y, X))
MORPHISM = LabelMorphism(X, SpaceLabel("Z", 3))
STEP = BlowupStep(Y, SpaceLabel("Y1", 2), SpaceLabel("E", 2), SpaceLabel("P", 2))
DATUM = DoublePointDatum(Y, SpaceLabel("A", 2), SpaceLabel("B", 2), D, SpaceLabel("PD", 2), X)
DIM = DimWitness(Y, X, D, ("P1", "P2"), ("M",))
SECT = SectWitness(Y, X, D, ("L",), ())
TENSOR = TensorWitness(Y, X, ("K",), "L", "M", "LM")

_PAST_CAPS = [_FIELD_MASK + 1, MAX_EXPONENT + 1, [1] * (_FIELD_MASK + 1),
              tuple(f"v{i}" for i in range(_FIELD_MASK + 1))]
_VALUES = [
    None, True, False, 0, -1, 2, 10**30, 1.5, 2.0, float("nan"), float("inf"),
    "", "x", "free", "u", (), [], {}, ("u", "u"), ["c1", "c1"], object(),
    MULTIPLICATIVE, log_backend(2), b_gen(), m_gen(2), a_gen(1, 2), *_PAST_CAPS,
    LAW, U, S, P, C, CONFIG, VECTOR, LOW_VECTOR, SUM, CYCLE, X, MORPHISM, STEP, TENSOR,
]

_STEP_JSON = {"base": Y.to_json(), "blowup": Y.to_json(), "exceptional": Y.to_json(),
              "projective_bundle": Y.to_json()}
_DATUM_JSON = {"smooth_fiber": Y.to_json(), "component_a": Y.to_json(),
               "component_b": Y.to_json(), "intersection": D.to_json(),
               "projective_bundle": Y.to_json(), "target": X.to_json()}
_DIM_JSON = {"source": Y.to_json(), "target": X.to_json(), "base": D.to_json(),
             "pulled_back": ["P1", "P2"], "extra": ["M"]}
_SECT_JSON = {"source": Y.to_json(), "target": X.to_json(), "zero_locus": D.to_json(),
              "bundles": ["L"], "restricted": []}
_TENSOR_JSON = {"source": Y.to_json(), "target": X.to_json(), "bundles": ["K"],
                "left": "L", "right": "M", "tensor": "LM"}


def _sites():
    """{name: (callable, arguments, None or an operator's (own operand, reflected))}."""
    functions = {
        "a_gen": (1, 2), "b_gen": (), "m_gen": (2,), "generator_from_name": ("A(1,2)",),
        "lazard_coefficient": (1, 2, FREE), "log_backend": (3,),
        "evaluate_at_chern": (S, 2), "support_decompose": (S,),
        "apply_divisor_operator": (VECTOR, (1, 1), LAW),
        "check_properties": (CONFIG, (1, 1), (1, 0), LAW),
        "class_dimension": (VECTOR,), "divisor_class": (CONFIG, (1, 1), LAW),
        "lift_restricted_class": (LOW_VECTOR, CONFIG, 1), "normal_form": (VECTOR,),
        "product_class": (CONFIG, (1, 1), (1, 0), LAW),
        "restrict_to_component": (CONFIG, 1, (1, 1)),
        "restricted_component_indices": (CONFIG, 1), "validate_config": (CONFIG,),
        "blowup_relation": (STEP, X), "blowup_tower_relations": ([STEP], X),
        "double_point_relation": (DATUM,), "exterior_product": (BARE, BARE),
        "pushforward": (SUM, LabelMorphism(X, X)), "relation_generator": ("fgl", TENSOR, FREE),
        "sum_relations": ([SUM, SUM],), "telescope_sum": ([STEP], X),
        # constructors
        "BlowupStep": (Y, Y, Y, Y), "ChernPolynomial": (2, 2, FREE, {(1, 0): 1}),
        "CoefficientBackend": ("log", 3), "CycleSum": (None, {CYCLE: 2}),
        "DecoratedCycle": (Y, X, ("L",)), "DimWitness": (Y, X, D, ("P1", "P2"), ("M",)),
        "DoublePointDatum": (Y, Y, Y, D, Y, X),
        "FaceClassVector": (CONFIG, dict(VECTOR.items())), "FormalGroupLaw": (FREE, 3),
        "Generator": ("A", 1, 2), "GradedPolynomial": (FREE, {((a_gen(1, 1), 2),): 3}),
        "LabelMorphism": (X, X, True), "SectWitness": (Y, X, D, ("L",), ()),
        "SncComponent": ("D1", True), "SncConfiguration": (2, CONFIG.components, [[1], [2]]),
        "SpaceLabel": ("Y", 2, True, True, False, None),
        "TensorWitness": (Y, X, ("K",), "L", "M", "LM"),
        "TruncatedSeries": (("u", "v"), 3, FREE, {(1, 1): P}),
    }
    methods = {
        BlowupStep: {"from_json": (_STEP_JSON,)},
        DimWitness: {"from_json": (_DIM_JSON,)},
        DoublePointDatum: {"from_json": (_DATUM_JSON,)},
        SectWitness: {"from_json": (_SECT_JSON,)},
        TensorWitness: {"from_json": (_TENSOR_JSON,)},
        SpaceLabel: {"from_json": ({**Y.to_json(), "nu": 1},), "to_json": ()},  # nu too
        ChernPolynomial: {
            "constant": (3, 2, 2, FREE), "one": (2, 2, FREE), "symbol": (1, 2, 2, FREE),
            "zero": (2, 2, FREE), "variable": ("c1", ("c1",), 2, FREE),
            "from_json": (C.to_json(), FREE, 2), "to_json": (),
            "__add__": (C,), "__mul__": (C,),
        },
        CycleSum: {
            "coefficient": (CYCLE,), "items": (), "single": (CYCLE, 2, None), "zero": (None,),
            "total_degree": (), "to_json": (), "from_json": (SUM.to_json(), None),
            "__add__": (SUM,), "__mul__": (3,), "__rmul__": (3,), "__eq__": (SUM,),
        },
        DecoratedCycle: {"from_json": (CYCLE.to_json(),), "sort_key": (), "to_json": ()},
        FaceClassVector: {
            "entry": ([1],), "faces": (), "is_zero": (), "items": (), "to_json": (),
            "from_json": (CONFIG, VECTOR.to_json(), FREE), "__eq__": (VECTOR,),
        },
        FormalGroupLaw: {
            "inverse": (), "linear_combination": ((1, -2), ("s", "t")), "n_series": (5,),
            "sum": (U, U),
        },
        Generator: {"__eq__": (a_gen(1, 2),)},
        GradedPolynomial: {
            "constant": (2, FREE), "from_json": (P.to_json(), FREE),
            "generator": (m_gen(2), log_backend(3)), "graded_degree": (), "one": (FREE,),
            "sorted_terms": (), "term_count": (), "to_json": (), "to_text": (), "zero": (FREE,),
            "__add__": (P,), "__radd__": (2,), "__mul__": (P,), "__rmul__": (2,), "__eq__": (P,),
        },
        LabelMorphism: {"then": (LabelMorphism(SpaceLabel("Z", 3), X),)},
        SncConfiguration: {
            "face_dim": ([1, 2],), "sorted_faces": (), "to_json": (),
            "from_json": (CONFIG.to_json(),),
        },
        TruncatedSeries: {
            "coefficient": ((1, 1),), "from_json": (S.to_json(), FREE), "items": (),
            "one": (("u",), 3, FREE), "scale": (P,), "substitute": ({"u1": U, "u2": U},),
            "to_json": (), "truncate": (2,), "variable": ("v", ("u", "v"), 3, FREE),
            "zero": (("u",), 3, FREE), "__add__": (S,), "__mul__": (S,), "__eq__": (S,),
        },
    }
    instances = {ChernPolynomial: C, CycleSum: SUM, DecoratedCycle: CYCLE, FaceClassVector: VECTOR,
                 FormalGroupLaw: LAW, Generator: a_gen(1, 2), GradedPolynomial: P,
                 LabelMorphism: MORPHISM, SncConfiguration: CONFIG, SpaceLabel: Y, TruncatedSeries: S}
    sites = {name: (getattr(fglcalc, name), args, None) for name, args in functions.items()}
    for cls, table in methods.items():
        for name, args in table.items():
            if name.startswith("__"):  # through the operator, as a caller writes it
                reflected = name.startswith("__r")
                op = getattr(operator, name.strip("_").removeprefix("r") if reflected else name)
                sites[f"{cls.__name__}.{name}"] = (op, args, (instances[cls], reflected))
            else:
                static = isinstance(inspect.getattr_static(cls, name), classmethod)
                sites[f"{cls.__name__}.{name}"] = (getattr(cls if static else instances[cls], name),
                                                   args, None)
    return sites


SITES = _sites()
_NAMES = sorted(SITES)


def _public_callables():
    """The names the sites must cover: each callable of __all__ but the error types,
    and each public method and arithmetic operator of an exported class."""
    names = set()
    for name in fglcalc.__all__:
        obj = getattr(fglcalc, name)
        if inspect.isclass(obj) and issubclass(obj, BaseException):
            continue  # what the calls raise, built from the library's own reports
        if not callable(obj):
            continue
        names.add(name)
        if inspect.isclass(obj):
            for attr, value in vars(obj).items():
                if isinstance(value, (classmethod, staticmethod)) or inspect.isfunction(value):
                    if not attr.startswith("_") or attr in (
                        "__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__eq__"
                    ):
                        names.add(f"{name}.{attr}")
    return names


def _declined(op, left, right) -> bool:
    """True when each fglcalc operand's side of op returns NotImplemented."""
    name = op.__name__.strip("_")
    for this, other, dunder in ((left, right, f"__{name}__"), (right, left, f"__r{name}__")):
        method = getattr(type(this), dunder, None)
        if type(this).__module__.startswith("fglcalc.") and method is not None:
            if method(this, other) is not NotImplemented:
                return False
    return True


def _with_operand(name, args) -> tuple:
    """args, with an operator site's own operand put on its side."""
    operand = SITES[name][2]
    if operand is None:
        return args
    this, reflected = operand
    return (args[0], this) if reflected else (this, args[0])


def _call(name, args):
    call, _, operand = SITES[name]
    args = _with_operand(name, args)
    try:
        call(*args)
    except ValidationError:
        pass
    except TypeError:
        if operand is None or not _declined(call, *args):
            raise


def test_the_sites_cover_every_public_callable():
    assert _public_callables() == set(SITES)


@pytest.mark.parametrize("name", _NAMES)
def test_each_site_accepts_its_own_arguments(name):
    call, args, _ = SITES[name]
    if name == "ChernPolynomial.variable":  # refused whatever the arguments
        with pytest.raises(ValidationError):
            call(*_with_operand(name, args))
    else:
        call(*_with_operand(name, args))


@pytest.mark.parametrize("name", _NAMES)
def test_each_argument_replaced_by_each_value(name):
    args = SITES[name][1]
    for position in range(len(args)):
        for value in _VALUES:
            _call(name, args[:position] + (value,) + args[position + 1:])


@settings(max_examples=400)
@given(st.sampled_from(_NAMES), st.data())
def test_several_arguments_replaced_at_once(name, data):
    args = list(SITES[name][1])
    if len(args) < 2:
        return
    positions = data.draw(st.lists(st.sampled_from(range(len(args))), min_size=2, max_size=3,
                                   unique=True))
    for position in positions:
        args[position] = data.draw(st.sampled_from(_VALUES))
    _call(name, tuple(args))


# -- a bad value planted inside a container argument ---------------------------------

_PLANTED = [None, True, 0, -1, 10**20, 1.5, float("nan"), Fraction(1, 2), "", "m(1)", "1",
            (1, 2, 3), m_gen(1), object(), [1], {1: 2}]
_KEYS = [value for value in _PLANTED if not isinstance(value, (list, dict))]  # they hash


def _replacements(entry, hashable):
    """What may stand in an entry's place: each planted value, the entry wrapped in a
    container, or the entry with a value planted inside it."""
    yield from _KEYS if hashable else _PLANTED
    yield (entry,) if hashable else [entry]
    yield from _planted(entry, hashable)


def _planted(value, hashable=False):
    """Each copy of value with one entry of one dict, list, tuple or frozenset in it, at any
    depth, replaced, repeated or dropped; a dict key or a set entry only by what hashes."""
    if type(value) is dict:
        items = list(value.items())
        for i, (key, entry) in enumerate(items):
            for new in _replacements(key, True):
                yield dict(items[:i] + [(new, entry)] + items[i + 1:])
            for new in _replacements(entry, False):
                yield dict(items[:i] + [(key, new)] + items[i + 1:])
            yield dict(items[:i] + items[i + 1:])
    elif type(value) in (list, tuple, frozenset):
        entries, kind = list(value), type(value)
        for i, entry in enumerate(entries):
            for new in _replacements(entry, hashable or kind is frozenset):
                yield kind(entries[:i] + [new] + entries[i + 1:])
            yield kind(entries[:i + 1] + entries[i:])
            yield kind(entries[:i] + entries[i + 1:])


_NESTED = [name for name in _NAMES if any(next(_planted(arg), None) is not None
                                          for arg in SITES[name][1])]


@pytest.mark.parametrize("name", _NESTED)
def test_each_entry_inside_an_argument_replaced(name):
    args = SITES[name][1]
    for position, arg in enumerate(args):
        for value in _planted(arg):
            _call(name, args[:position] + (value,) + args[position + 1:])
