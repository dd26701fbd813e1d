"""The immutable records: construction, equality, hashing, immutability, checks."""

import copy
import pickle

import pytest

from fglcalc import (
    FREE,
    BlowupStep,
    CoefficientBackend,
    CycleError,
    DecoratedCycle,
    DimensionMismatchError,
    DimWitness,
    DoublePointDatum,
    FormalGroupLaw,
    LabelMorphism,
    OrderError,
    SectWitness,
    SncComponent,
    SncConfiguration,
    SpaceLabel,
    TensorWitness,
    ValidationError,
    divisor_class,
    log_backend,
)

X = SpaceLabel("X", 3)
Y = SpaceLabel("Y", 2)
A = SpaceLabel("A", 2)
B = SpaceLabel("B", 2)
D = SpaceLabel("D", 1)
P = SpaceLabel("P(D)", 2)
D1 = SncComponent("D1")
ONE_FACE = frozenset({frozenset({1})})

# class, field names in order, arguments, and arguments differing in one field;
# the arguments are already normalized, so they read back unchanged
RECORDS = [
    (CoefficientBackend, ("kind", "log_order"), ("log", 3), ("log", 4)),
    (SncComponent, ("name", "quasiprojective"), ("D1", True), ("D1", False)),
    (SncConfiguration, ("ambient_dim", "components", "faces"),
     (2, (D1,), ONE_FACE), (3, (D1,), ONE_FACE)),
    (SpaceLabel, ("name", "dim", "smooth", "quasiprojective", "complete", "nu"),
     ("Y", 2, True, True, False, 1), ("Y", 2, True, True, False, 2)),
    (DecoratedCycle, ("source", "target", "bundles"), (Y, X, ("L", "M")), (Y, X, ("L",))),
    (LabelMorphism, ("source", "target", "proper"), (Y, X, True), (Y, X, False)),
    (DoublePointDatum,
     ("smooth_fiber", "component_a", "component_b", "intersection", "projective_bundle",
      "target"),
     (Y, A, B, D, P, X), (Y, A, B, D, P, Y)),
    (BlowupStep, ("base", "blowup", "exceptional", "projective_bundle"),
     (Y, A, B, P), (Y, B, A, P)),
    (DimWitness, ("source", "target", "base", "pulled_back", "extra"),
     (Y, X, D, ("P1", "P2"), ("M",)), (Y, X, D, ("P1", "P2"), ())),
    (SectWitness, ("source", "target", "zero_locus", "bundles", "restricted"),
     (Y, X, D, ("L1", "L2"), None), (Y, X, D, ("L1", "L2"), ("K",))),
    (TensorWitness, ("source", "target", "bundles", "left", "right", "tensor"),
     (Y, X, (), "L", "M", "LM"), (Y, X, (), "L", "M", "N")),
]
IDS = [entry[0].__name__ for entry in RECORDS]

# class, required arguments, and the defaults of the remaining fields
DEFAULTS = [
    (CoefficientBackend, ("free",), {"log_order": None}),
    (SncComponent, ("D1",), {"quasiprojective": True}),
    (SncConfiguration, (2,), {"components": (), "faces": frozenset()}),
    (SpaceLabel, ("Y", 2),
     {"smooth": True, "quasiprojective": True, "complete": False, "nu": None}),
    (DecoratedCycle, (Y, X), {"bundles": ()}),
    (LabelMorphism, (Y, X), {"proper": True}),
    (DimWitness, (Y, X, D, ("P1",)), {"extra": ()}),
    (SectWitness, (Y, X, D, ("L1",)), {"restricted": None}),
]


@pytest.mark.parametrize("cls, fields, args, _", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, fields, args, _):
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(fields, args)))
    assert by_position == by_keyword
    assert tuple(getattr(by_position, f) for f in fields) == args
    assert tuple(getattr(by_keyword, f) for f in fields) == args


@pytest.mark.parametrize("cls, required, defaults", DEFAULTS,
                         ids=[entry[0].__name__ for entry in DEFAULTS])
def test_defaults(cls, required, defaults):
    record = cls(*required)
    for name, value in defaults.items():
        assert getattr(record, name) == value


@pytest.mark.parametrize("cls, fields, args, other", RECORDS, ids=IDS)
def test_equality_and_hash_follow_the_fields(cls, fields, args, other):
    a, b, c = cls(*args), cls(*args), cls(*other)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != c and not a == c
    assert len({a, b, c}) == 2
    assert a != args


def test_records_of_different_classes_are_unequal():
    records = [cls(*args) for cls, _, args, _ in RECORDS]
    for i, left in enumerate(records):
        for right in records[i + 1:]:
            assert left != right and right != left
    # the same field values in two classes still differ
    component, backend = SncComponent("log", True), log_backend(1)
    assert (component.name, component.quasiprojective) == (backend.kind, backend.log_order)
    assert component != backend and backend != component
    assert len({component, backend}) == 2


# a flag or nu of the wrong type, which would otherwise be stored as given
FLAG_CHECKS = [
    (lambda: SncComponent("D1", []), "'quasiprojective' must be a boolean"),
    (lambda: SncComponent("D1", None), "'quasiprojective' must be a boolean"),
    (lambda: SpaceLabel("x", 2, smooth="no"), "label field 'smooth' must be a boolean"),
    (lambda: SpaceLabel("x", 2, quasiprojective=1), "label field 'quasiprojective' must be a boolean"),
    (lambda: SpaceLabel("x", 2, complete=None), "label field 'complete' must be a boolean"),
    (lambda: SpaceLabel("x", 2, nu=1.0), "'nu' must be an integer when present"),
    (lambda: SpaceLabel("x", 2, nu=True), "'nu' must be an integer when present"),
    (lambda: LabelMorphism(Y, X, proper=0), "morphism field 'proper' must be a boolean"),
]


@pytest.mark.parametrize("build, message", FLAG_CHECKS, ids=[c[1] for c in FLAG_CHECKS])
def test_record_flags_are_checked_at_construction(build, message):
    with pytest.raises(ValidationError) as excinfo:
        build()
    assert type(excinfo.value) is ValidationError
    assert str(excinfo.value) == message


def test_an_unhashable_flag_is_a_validation_error_not_a_type_error():
    # it used to reach require_valid's cache key as a list
    with pytest.raises(ValidationError, match="'quasiprojective' must be a boolean"):
        divisor_class(SncConfiguration(2, (SncComponent("D1", []),), [[1]]), (1,),
                      FormalGroupLaw(FREE, 2))
    assert SpaceLabel("x", 2, nu=3).nu == 3 and SpaceLabel("x", 2).nu is None


@pytest.mark.parametrize("cls, fields, args, _", RECORDS, ids=IDS)
def test_assignment_and_deletion_raise(cls, fields, args, _):
    record = cls(*args)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra_attribute = 1
    assert tuple(getattr(record, f) for f in fields) == args


@pytest.mark.parametrize("cls, fields, args, _", RECORDS, ids=IDS)
def test_copy_and_pickle_round_trip(cls, fields, args, _):
    record = cls(*args)
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert twin == record
        assert hash(twin) == hash(record)


def test_inputs_are_normalized_before_storing():
    cycle = DecoratedCycle(Y, X, ["M", "L"])
    assert cycle.bundles == ("L", "M")
    assert cycle == DecoratedCycle(Y, X, ("L", "M"))
    config = SncConfiguration(2, [D1], [[1], (1,)])
    assert config.components == (D1,)
    assert config.faces == ONE_FACE
    assert hash(config) == hash(SncConfiguration(2, (D1,), ONE_FACE))
    # list fields of the witnesses are stored as tuples, so they hash
    witnesses = [
        (DimWitness(Y, X, D, ["P1", "P2"], ["M"]), DimWitness(Y, X, D, ("P1", "P2"), ("M",))),
        (SectWitness(Y, X, D, ["L"]), SectWitness(Y, X, D, ("L",))),
        (SectWitness(Y, X, D, ["L1", "L2"], ["K"]), SectWitness(Y, X, D, ("L1", "L2"), ("K",))),
        (TensorWitness(Y, X, ["K"], "L", "M", "LM"), TensorWitness(Y, X, ("K",), "L", "M", "LM")),
    ]
    for from_lists, from_tuples in witnesses:
        assert from_lists == from_tuples
        assert hash(from_lists) == hash(from_tuples)
    assert SectWitness(Y, X, D, ["L"]).restricted is None


_NOT_SMOOTH = SpaceLabel("S", 2, smooth=False)

# every check the records make on construction, with its exception and message
CHECKS = [
    (lambda: CoefficientBackend("weird"), ValidationError, "unknown backend kind 'weird'"),
    (lambda: CoefficientBackend("log"), ValidationError,
     "log_order is set exactly for the log backend"),
    (lambda: CoefficientBackend("free", 3), ValidationError,
     "log_order is set exactly for the log backend"),
    (lambda: CoefficientBackend("log", 0), OrderError, "log backend needs log_order >= 1"),
    (lambda: SncComponent(""), ValidationError, "component name must be a nonempty string"),
    (lambda: SncComponent(7), ValidationError, "component name must be a nonempty string"),
    (lambda: SncConfiguration(True), ValidationError, "ambient_dim must be an integer"),
    (lambda: SncConfiguration(2, ("D1",)), ValidationError,
     "components must be SncComponent instances"),
    (lambda: SncConfiguration(2, (D1,), [5]), ValidationError,
     "face 5 is not a list of component indices"),
    (lambda: SncConfiguration(2, (D1,), [["a"]]), ValidationError,
     "face index 'a' is not an integer"),
    (lambda: SpaceLabel("", 1), ValidationError, "label name must be a nonempty string"),
    (lambda: SpaceLabel("X", -1), ValidationError,
     "label dimension must be an integer >= 0, got -1"),
    (lambda: SpaceLabel("X", True), ValidationError,
     "label dimension must be an integer >= 0, got True"),
    (lambda: DecoratedCycle(_NOT_SMOOTH, X), CycleError, "cycle source 'S' must be smooth"),
    (lambda: DecoratedCycle(SpaceLabel("Q", 2, quasiprojective=False), X), CycleError,
     "cycle source 'Q' must be quasiprojective"),
    (lambda: DecoratedCycle(Y, X, ("L", "")), ValidationError,
     "bundle names must be nonempty strings"),
    (lambda: DoublePointDatum(Y, X, B, D, P, X), DimensionMismatchError,
     "component_a must have dimension 2, got 3"),
    (lambda: DoublePointDatum(Y, A, B, Y, P, X), DimensionMismatchError,
     "intersection must have dimension 1, got 2"),
    (lambda: DoublePointDatum(Y, A, _NOT_SMOOTH, D, P, X), CycleError,
     "component_b must be smooth"),
    (lambda: BlowupStep(Y, A, D, P), DimensionMismatchError,
     "exceptional must have dimension 2, got 1"),
    (lambda: BlowupStep(_NOT_SMOOTH, A, B, P), CycleError, "base must be smooth"),
]


@pytest.mark.parametrize("build, error, message", CHECKS, ids=[c[2] for c in CHECKS])
def test_construction_checks_keep_their_errors(build, error, message):
    with pytest.raises(error) as excinfo:
        build()
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message


JSON_RECORDS = [SpaceLabel, DecoratedCycle, DoublePointDatum, BlowupStep, DimWitness,
                SectWitness, TensorWitness]


@pytest.mark.parametrize("cls", JSON_RECORDS, ids=[cls.__name__ for cls in JSON_RECORDS])
def test_record_json_tables_follow_the_slots(cls):
    # perfbench's tracer patches vars(cls)["from_json"], so each class keeps
    # its own binding of the shared decoder
    assert "from_json" in vars(cls)
    # the decoder constructs positionally: a reordered table would swap fields
    fields = cls._json[3]
    assert tuple(key for key, _, _ in fields) == cls.__slots__


def test_reprs():
    assert repr(FREE) == "CoefficientBackend(free)"
    assert repr(log_backend(3)) == "CoefficientBackend(log, order=3)"
    assert repr(SncComponent("D1")) == "SncComponent(name='D1', quasiprojective=True)"
    assert repr(LabelMorphism(Y, X)) == (
        "LabelMorphism(source=SpaceLabel(name='Y', dim=2, smooth=True, quasiprojective=True,"
        " complete=False, nu=None), target=SpaceLabel(name='X', dim=3, smooth=True,"
        " quasiprojective=True, complete=False, nu=None), proper=True)"
    )
