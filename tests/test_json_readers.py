"""Error texts of the JSON container readers and of SncConfiguration.from_json.

Each row is a reader, an input and the ValidationError text it reports.  The
rows marked two-fault carry two faults and fix which one is reported: the
shape of the object before its keys' values, and the entries in document
order.
"""

import json
import pathlib

import pytest

from fglcalc import snc
from fglcalc import (
    FREE,
    ChernPolynomial,
    CycleSum,
    DecoratedCycle,
    FaceClassVector,
    GradedPolynomial,
    SncComponent,
    SncConfiguration,
    TruncatedSeries,
    ValidationError,
)

_POLY = [{"coeff": "1/2", "monomial": {"A(1,1)": 1}}, {"coeff": 3, "monomial": {}}]
_SERIES = {"variables": ["u"], "order": 3, "terms": [
    {"exponents": [1], "coeff": 1, "monomial": {}},
    {"exponents": [2], "coeff": "-1", "monomial": {"A(1,1)": 1}}]}
_CHERN = {"dim_bound": 2, "terms": [{"c_exponents": [1, 0], "coeff": _POLY}]}
_CONFIG = {"ambient_dim": 3, "components": [{"name": "D1"}, {"name": "D2"}],
           "faces": [[1], [2], [1, 2]]}
_PAIR = SncConfiguration(3, (SncComponent("D1"), SncComponent("D2")),
                         frozenset({frozenset({1}), frozenset({2}), frozenset({1, 2})}))
_CYCLE = {"source": {"name": "Y", "dim": 2}, "target": {"name": "X", "dim": 3}}
_BAD_COEFF = 'bad coefficient {!r}: use an integer or a string like "-3/4"'
_NEEDS_TERM = "polynomial term needs 'coeff' and 'monomial'"
_NEEDS_CHERN = "chern JSON needs 'dim_bound' and 'terms'"
_NOT_A_BACKEND = "backend must be a CoefficientBackend, got 'garbage'"


def _without(data, *keys):
    return {k: v for k, v in data.items() if k not in keys}


def _with(data, **changes):
    return {**data, **changes}


def _terms(data, *terms):
    return _with(data, terms=list(terms))


def poly(data):
    return GradedPolynomial.from_json(data, FREE)


def series(data):
    return TruncatedSeries.from_json(data, FREE)


def chern(data):
    return ChernPolynomial.from_json(data, FREE)


def vector(data):
    return FaceClassVector.from_json(_PAIR, data, FREE)


def cycle_sum(data):
    return CycleSum.from_json(data)


def cycle_sum_free(data):
    return CycleSum.from_json(data, FREE)


def series_term(**fields):
    return _terms(_SERIES, {"exponents": [1], **fields})


def chern_term(**fields):
    return _terms(_CHERN, fields)


def cycle_term(**fields):
    return {"terms": [fields]}


def config(**changes):
    return _with(_CONFIG, **changes)


CONTAINER_JSON_ERRORS = [
    (lambda d: GradedPolynomial.from_json(d, "garbage"), "x", _NOT_A_BACKEND),
    (poly, {"terms": _POLY}, "polynomial JSON must be a list of terms"),
    (poly, "x", "polynomial JSON must be a list of terms"),
    (poly, [5], _NEEDS_TERM),
    (poly, [{"coeff": 1}], _NEEDS_TERM),
    (poly, [{"monomial": {}}], _NEEDS_TERM),
    (poly, [{"coeff": 1.5, "monomial": {}}], _BAD_COEFF.format(1.5)),
    (poly, [{"coeff": 1, "monomial": []}], "'monomial' must be an object"),
    (poly, [{"coeff": 1, "monomial": {"A(1,1)": 0}}], "bad exponent 0 for 'A(1,1)'"),
    (poly, [{"coeff": 1, "monomial": {"Q": 1}}], "unrecognized generator name 'Q'"),
    # two-fault
    (poly, [{"coeff": 1.5, "monomial": []}], _BAD_COEFF.format(1.5)),
    (poly, [{"coeff": 1.5}], _NEEDS_TERM),
    (poly, [{"coeff": 1, "monomial": []}, 7], "'monomial' must be an object"),
    (poly, [7, {"coeff": 1, "monomial": []}], _NEEDS_TERM),

    (series, [], "series JSON must be an object"),
    (series, _without(_SERIES, "variables"), "series JSON lacks 'variables'"),
    (series, _without(_SERIES, "order"), "series JSON lacks 'order'"),
    (series, _without(_SERIES, "terms"), "series JSON lacks 'terms'"),
    (series, _with(_SERIES, variables="u"), "'variables' must be a list of names"),
    (series, _with(_SERIES, variables=[1]), "'variables' must be a list of names"),
    (series, _with(_SERIES, order="3"), "'order' must be an integer"),
    (series, _with(_SERIES, terms={}), "'terms' must be a list"),
    (series, _terms(_SERIES, 5), "series term needs an 'exponents' vector"),
    (series, _terms(_SERIES, {"coeff": 1, "monomial": {}}),
     "series term needs an 'exponents' vector"),
    (series, series_term(exponents="1", coeff=1, monomial={}), "bad exponents '1'"),
    (series, series_term(exponents=[1.0], coeff=1, monomial={}), "bad exponents [1.0]"),
    (series, series_term(coeff="x", monomial={}), _BAD_COEFF.format("x")),
    (series, series_term(coeff=1, monomial=[]), "'monomial' must be an object"),
    (series, series_term(exponents=[1, 0], coeff=1, monomial={}),
     "bad exponent vector (1, 0)"),
    # two-fault
    (series, {"terms": []}, "series JSON lacks 'variables'"),
    (series, {"variables": 5, "order": 3}, "series JSON lacks 'terms'"),
    (series, _with(_SERIES, variables="u", order="x"), "'variables' must be a list of names"),
    (series, _with(_SERIES, order="x", terms=5), "'order' must be an integer"),
    (series, _terms(_SERIES, {"exponents": [1], "coeff": 1.5, "monomial": {}},
                    {"exponents": "x"}), "bad exponents 'x'"),

    (chern, 5, _NEEDS_CHERN),
    (chern, _without(_CHERN, "dim_bound"), _NEEDS_CHERN),
    (chern, _without(_CHERN, "terms"), _NEEDS_CHERN),
    (chern, _with(_CHERN, dim_bound=-1), "bad dim_bound -1"),
    (chern, _with(_CHERN, dim_bound=True), "bad dim_bound True"),
    (chern, _with(_CHERN, terms={}), "'terms' must be a list"),
    (chern, _terms(_CHERN, 3), "chern term needs 'c_exponents' and 'coeff'"),
    (chern, chern_term(coeff=_POLY), "chern term needs 'c_exponents' and 'coeff'"),
    (chern, chern_term(c_exponents=[1]), "chern term needs 'c_exponents' and 'coeff'"),
    (chern, chern_term(c_exponents="1", coeff=_POLY), "bad c_exponents '1'"),
    (chern, chern_term(c_exponents=[-1], coeff=_POLY), "bad c_exponents [-1]"),
    (chern, chern_term(c_exponents=[1], coeff={}), "polynomial JSON must be a list of terms"),
    (chern, _terms(_CHERN), "cannot infer symbol count from an empty chern JSON"),
    # two-fault
    (chern, _with(_CHERN, dim_bound=-1, terms=5), "bad dim_bound -1"),
    (chern, {"terms": 5}, _NEEDS_CHERN),
    (chern, chern_term(c_exponents="x"), "chern term needs 'c_exponents' and 'coeff'"),
    (chern, _terms(_CHERN, {"c_exponents": [1], "coeff": 5}, 7),
     "polynomial JSON must be a list of terms"),

    (lambda d: FaceClassVector.from_json(None, d, FREE), [],
     "expected an SncConfiguration, got None"),
    (vector, [], "class vector JSON needs 'entries'"),
    (vector, {}, "class vector JSON needs 'entries'"),
    (vector, {"entries": {}}, "'entries' must be a list"),
    (vector, {"entries": [1]}, "each entry needs 'face' and 'class'"),
    (vector, {"entries": [{"face": [1]}]}, "each entry needs 'face' and 'class'"),
    (vector, {"entries": [{"face": 1, "class": _CHERN}]},
     "face 1 is not a list of component indices"),
    (vector, {"entries": [{"face": ["1"], "class": _CHERN}]},
     "face index '1' is not an integer"),
    (vector, {"entries": [{"face": [1], "class": 5}]}, _NEEDS_CHERN),
    # two-fault
    (vector, {"entries": [{"face": 1, "class": 5}]},
     "face 1 is not a list of component indices"),
    (vector, {"entries": [{"face": [1], "class": 5}, 3]}, _NEEDS_CHERN),

    (cycle_sum, [], "cycle sum JSON needs 'terms'"),
    (cycle_sum, {}, "cycle sum JSON needs 'terms'"),
    (cycle_sum, {"terms": {}}, "'terms' must be a list"),
    (cycle_sum, {"terms": [1]}, "cycle term needs 'coeff' and 'cycle'"),
    (cycle_sum, cycle_term(coeff=1), "cycle term needs 'coeff' and 'cycle'"),
    (cycle_sum, cycle_term(cycle=_CYCLE), "cycle term needs 'coeff' and 'cycle'"),
    (cycle_sum, cycle_term(coeff=1.5, cycle=_CYCLE), "bad coefficient 1.5"),
    (cycle_sum, cycle_term(coeff=True, cycle=_CYCLE), "bad coefficient True"),
    (cycle_sum, cycle_term(coeff="1", cycle=_CYCLE), "bad coefficient '1'"),
    (cycle_sum, cycle_term(coeff=_POLY, cycle=_CYCLE), "polynomial coefficients need a backend"),
    (cycle_sum_free, cycle_term(coeff=[5], cycle=_CYCLE), _NEEDS_TERM),
    (cycle_sum_free, cycle_term(coeff={}, cycle=_CYCLE), "bad coefficient {}"),
    (cycle_sum, cycle_term(coeff=1, cycle=5), "cycle JSON needs 'source' and 'target'"),
    # two-fault
    (cycle_sum, cycle_term(coeff=1.5, cycle=5), "cycle JSON needs 'source' and 'target'"),
    (cycle_sum, {"terms": [{"coeff": 1.5, "cycle": _CYCLE}, 3]}, "bad coefficient 1.5"),
    (cycle_sum, {"terms": [3, {"coeff": 1.5, "cycle": _CYCLE}]},
     "cycle term needs 'coeff' and 'cycle'"),

    (SncConfiguration.from_json, [], "configuration JSON must be an object"),
    (SncConfiguration.from_json, _without(_CONFIG, "ambient_dim"),
     "configuration JSON lacks 'ambient_dim'"),
    (SncConfiguration.from_json, _without(_CONFIG, "components"),
     "configuration JSON lacks 'components'"),
    (SncConfiguration.from_json, _without(_CONFIG, "faces"),
     "configuration JSON lacks 'faces'"),
    (SncConfiguration.from_json, config(components={}), "'components' must be a list"),
    (SncConfiguration.from_json, config(components=[5]), "each component needs a 'name'"),
    (SncConfiguration.from_json, config(components=[{"quasiprojective": True}]),
     "each component needs a 'name'"),
    (SncConfiguration.from_json, config(components=[{"name": ""}]),
     "component name must be a nonempty string"),
    (SncConfiguration.from_json, config(components=[{"name": "D", "quasiprojective": 1}]),
     "'quasiprojective' must be a boolean"),
    (SncConfiguration.from_json, config(faces=5), "'faces' must be a list of index lists"),
    (SncConfiguration.from_json, config(faces=[5]), "face 5 is not a list of component indices"),
    (SncConfiguration.from_json, config(ambient_dim="3"), "ambient_dim must be an integer"),
    # two-fault
    (SncConfiguration.from_json, {"faces": []}, "configuration JSON lacks 'ambient_dim'"),
    (SncConfiguration.from_json, config(components=[{}], faces=5),
     "each component needs a 'name'"),
    (SncConfiguration.from_json, config(components=5, faces=5), "'components' must be a list"),
    (SncConfiguration.from_json, config(ambient_dim="x", faces=5),
     "'faces' must be a list of index lists"),
    (SncConfiguration.from_json, config(components=[{"name": "D"}, 5, {}]),
     "each component needs a 'name'"),

    # a series term is read as a polynomial term, which needs both keys; it
    # read 'bad coefficient None' without 'coeff', and "'monomial' must be
    # an object" without 'monomial'
    (series, series_term(monomial={}), _NEEDS_TERM),
    (series, series_term(coeff=1), _NEEDS_TERM),
    # a cycle sum over something that is not a backend; it was accepted
    (lambda d: CycleSum.from_json(d, "garbage"), {"terms": []}, _NOT_A_BACKEND),
    (lambda d: CycleSum.from_json(d, "garbage"), cycle_term(coeff=1, cycle=_CYCLE),
     _NOT_A_BACKEND),
    (lambda d: CycleSum("garbage", {DecoratedCycle.from_json(d): 1}), _CYCLE, _NOT_A_BACKEND),

    # the constructor checks the faces' entries, after ambient_dim
    (SncConfiguration.from_json, config(ambient_dim="x", faces=[5]), "ambient_dim must be an integer"),
]


@pytest.mark.parametrize("decode, data, message", CONTAINER_JSON_ERRORS,
                         ids=[f"{i}-{row[2]}" for i, row in enumerate(CONTAINER_JSON_ERRORS)])
def test_container_json_errors_keep_their_text(decode, data, message):
    with pytest.raises(ValidationError) as excinfo:
        decode(data)
    assert type(excinfo.value) is ValidationError
    assert str(excinfo.value) == message


@pytest.mark.parametrize("decode, data", [
    (poly, _POLY), (series, _SERIES), (chern, _CHERN), (vector, {"entries": [
        {"face": [1], "class": _CHERN}]}), (cycle_sum, cycle_term(coeff=2, cycle=_CYCLE)),
    (SncConfiguration.from_json, _CONFIG),
], ids=["polynomial", "series", "chern", "vector", "cycle sum", "configuration"])
def test_the_base_documents_are_valid(decode, data):
    # so that each row above shows the fault it adds
    decode(data)


def test_a_configuration_checks_each_face_once(monkeypatch):
    # from_json hands the checked list to the constructor, which normalizes it
    calls = []
    face = snc._face
    monkeypatch.setattr(snc, "_face", lambda f: calls.append(f) or face(f))
    path = pathlib.Path(__file__).parent / "data" / "snc_check.json"
    config = SncConfiguration.from_json(json.loads(path.read_text()))
    assert len(calls) == 3
    assert config.faces == {frozenset({1}), frozenset({2}), frozenset({1, 2})}
