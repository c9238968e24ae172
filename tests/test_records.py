"""The structural layer's records are immutable values: fields cannot be
assigned, equal fields make equal records (and equal hashes where the
fields hash), and each record checks its fields when built."""

import copy
import pickle

import pytest

import cogrowth
from cogrowth.automaton import SStateSet
from cogrowth.core_graph import CollapseData, build_core
from cogrowth.errors import PreconditionError, WordParseError
from cogrowth.whitehead import CutVertexReport
from cogrowth.words import Alphabet, WhiteheadAutomorphism

# each record with its fields, and one field changed
RECORDS = {
    "Alphabet": (Alphabet, {"names": ("x", "y", "z")}, {"names": ("x", "z", "y")}),
    "WhiteheadAutomorphism": (
        WhiteheadAutomorphism, {"a": 1, "members": frozenset({2, -3})}, {"a": -1}
    ),
    "CollapseData": (CollapseData, {"a": 2, "e_o": ((1, 2, 3), (4, 2, 5))},
                     {"e_o": ((1, 2, 3),)}),
    "CutVertexReport": (CutVertexReport,
                        {"letter": 1, "configuration": 2, "witness": ((2, -2), (-1,))},
                        {"configuration": 1}),
    "SStateSet": (SStateSet,
                  {"elements": ((3, 2), (1, -2)), "merge": {1: 3}, "survivors": (0, 1)},
                  {"survivors": (1, 0)}),
}


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_is_an_immutable_value(name):
    cls, fields, change = RECORDS[name]
    record = cls(**fields)
    assert record == cls(**fields)
    assert record != cls(**{**fields, **change})
    assert repr(record).startswith(f"{name}(")
    for field, value in fields.items():
        assert getattr(record, field) == value
        with pytest.raises(AttributeError):
            setattr(record, field, value)
    with pytest.raises(AttributeError):
        record.extra = None
    if name == "SStateSet":  # `merge` is a dict
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(cls(**fields))


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_survives_pickle_and_copy(name):
    cls, fields, _ = RECORDS[name]
    record = cls(**fields)
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is cls
        assert twin == record


@pytest.mark.parametrize("make, error, message", [
    (lambda: Alphabet(("x",)), WordParseError, "alphabet needs rank >= 2"),
    (lambda: Alphabet(("x", "Y")), WordParseError,
     "alphabet name 'Y' is not a lowercase letter"),
    (lambda: Alphabet(("x", "x")), WordParseError, "alphabet names must be pairwise distinct"),
    (lambda: WhiteheadAutomorphism(0, frozenset({1})), PreconditionError,
     "multiplier letter must be nonzero"),
    (lambda: WhiteheadAutomorphism(2, frozenset({-2})), PreconditionError,
     "A must avoid the multiplier and its inverse"),
    (lambda: WhiteheadAutomorphism(2, frozenset({0, 1})), PreconditionError,
     "letters are nonzero integers"),
    (lambda: CollapseData(2, ()), PreconditionError, "collapse needs at least one edge"),
    (lambda: CollapseData(2, ((1, 2, 3), (4, -2, 5))), PreconditionError,
     "collapse edge not labeled a"),
    (lambda: CollapseData(2, ((1, 2, 3), (3, 2, 4))), PreconditionError,
     "origin and terminus sets overlap"),
    (lambda: CollapseData(2, ((1, 2, 2), (1, 2, 2))), PreconditionError,
     "two collapse edges at one origin"),
], ids=lambda x: x if isinstance(x, str) else None)
def test_a_record_checks_its_fields(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message


def test_container_fields_are_normalised():
    # names are a tuple and A a frozenset, whatever iterable gives them
    for names in (["x", "y", "z"], "xyz", iter("xyz")):
        ab = Alphabet(names)
        assert ab == Alphabet(("x", "y", "z")) and type(ab.names) is tuple
        assert hash(ab) == hash(Alphabet(("x", "y", "z")))
    # cores folded over the two spellings of one alphabet are equal
    gens = [(1, -2), (2, 3)]
    assert build_core(gens, Alphabet(["x", "y", "z"])) == build_core(gens, Alphabet("xyz"))
    for members in ({2}, [2], (2, 2)):
        phi = WhiteheadAutomorphism(1, members)
        assert phi == WhiteheadAutomorphism(1, frozenset({2})) and type(phi.members) is frozenset
        assert hash(phi) == hash(WhiteheadAutomorphism(1, frozenset({2})))
    # the same checks, with the same messages, on any iterable
    with pytest.raises(WordParseError, match="^alphabet names must be pairwise distinct$"):
        Alphabet(["x", "x"])
    with pytest.raises(PreconditionError, match="^A must avoid the multiplier and its inverse$"):
        WhiteheadAutomorphism(2, [1, -2])


# the package's names: 34 functions and classes, and 7 submodules
PACKAGE_NAMES = {
    "AdjacencyMatrix", "Alphabet", "Automaton", "CollapseData", "CoreGraph",
    "ReductionTrace", "SStateSet", "StepReport", "WhiteheadAutomorphism", "accepts",
    "adjacency", "apply_whitehead", "build_automaton", "build_core", "certify_inequality",
    "choose_automorphism", "collapse_automaton", "collapse_core", "cyclic_reduce",
    "decompose", "derive_m1", "find_cut_vertices", "format_word", "free_reduce",
    "isomorphic", "label_sets", "make_nse", "ose", "parse_word", "pf_eigen", "reduce_full",
    "reduce_step", "whitehead_graph_of_core", "word_census",
    "automaton", "core_graph", "errors", "pipeline", "spectral", "whitehead", "words",
}


def test_star_import_binds_every_listed_name():
    namespace = {}
    exec("from cogrowth import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(cogrowth.__all__) == PACKAGE_NAMES
    assert len(cogrowth.__all__) == len(PACKAGE_NAMES) == 41
    assert all(namespace[name] is getattr(cogrowth, name) for name in namespace)
