import itertools
import random
from collections import Counter

import numpy as np
import pytest

from cogrowth.automaton import (
    Automaton,
    SStateSet,
    accepts,
    build_automaton,
    collapse_automaton,
    isomorphic,
    sample_accepted_word,
    word_census,
)
from cogrowth.cli import automaton_dot, automaton_json
from cogrowth.core_graph import CollapseData, build_core, collapse_core
from cogrowth.errors import CogrowthError, DeterminismViolationError, PreconditionError
from cogrowth.spectral import ose
from cogrowth.whitehead import choose_automorphism
from cogrowth.words import Alphabet, parse_word, sigma

import oracles

AB2 = Alphabet(("x", "y"))
AB4 = Alphabet(("x", "y", "z", "t"))


@pytest.fixture(scope="module")
def example_aut(example_core):
    return build_automaton(example_core)


@pytest.fixture(scope="module")
def example_collapse(example_core, example_aut):
    phi, cd = choose_automorphism(example_core)
    return phi, cd, SStateSet.from_collapse(example_aut, cd)


def S(ab, vertex, spec):
    return (vertex, parse_word(spec, ab)[0])


def test_example_automaton_states(example_aut, example_alphabet):
    ab = example_alphabet
    assert example_aut.n_states == 12
    assert example_aut.states == tuple(
        S(ab, v, w)
        for v, w in [
            (1, "X"), (1, "Y"), (1, "t"),
            (2, "x"), (2, "y"), (2, "Z"),
            (3, "y"), (3, "z"),
            (4, "Y"), (4, "Z"),
            (5, "z"), (5, "T"),
        ]
    )


def test_example_initial_set_and_ambiguity(example_aut, example_alphabet):
    ab = example_alphabet
    assert example_aut.initial == example_aut.final
    assert example_aut.initial == {S(ab, 1, "X"), S(ab, 1, "Y"), S(ab, 1, "t")}
    assert example_aut.ambiguity == 2


def assert_matches_definition(g):
    """States, successors in letter order and initial set against
    `oracles.automaton_by_definition`; the OSE matrix rows are the
    successors' indices, sorted."""
    aut = build_automaton(g)
    states, successors, initial = oracles.automaton_by_definition(g)
    assert aut.states == tuple(states)
    assert [[aut.states[j] for j in row] for row in aut.rows] == [
        successors[q] for q in states
    ]
    assert aut.initial == initial
    index = {q: i for i, q in enumerate(states)}
    assert ose(aut).rows == tuple(
        tuple(sorted(index[t] for t in successors[q])) for q in states
    )


def test_build_automaton_matches_its_definition(corpus, ladder, request):
    """On the 641 small cores and every core of the corpus and the
    ladder, those after each reduction step included."""
    cores = [g for rank, n_vertices in ((2, 2), (2, 3), (3, 2))
             for g in oracles.all_small_cores(Alphabet(tuple("xyz"[:rank])), n_vertices)]
    cores += [build_core(list(inst.gens), inst.alphabet) for inst in corpus + ladder]
    for g in cores:
        assert_matches_definition(g)
    # last, as a broken automaton stops the reductions
    traces = request.getfixturevalue("corpus_traces") + request.getfixturevalue("ladder_traces")
    after = [step.core_after for trace in traces for step in trace.steps]
    for g in after:
        assert_matches_definition(g)
    assert (len(cores), len(after)) == (641 + 212, 475)


def test_state_count_equals_twice_edges(corpus):
    for inst in corpus[:30]:
        g = build_core(list(inst.gens), inst.alphabet)
        aut = build_automaton(g)
        assert aut.n_states == 2 * g.n_edges


def test_accept_counts(example_aut, example_alphabet):
    assert accepts(example_aut, parse_word("yX", example_alphabet)) == 2
    assert accepts(example_aut, (1, -1)) == 0  # "x x^-1" is not reduced
    assert accepts(example_aut, ()) == 1
    assert accepts(example_aut, parse_word("yzYzt", example_alphabet)) == 2
    assert accepts(example_aut, parse_word("x", example_alphabet)) == 0


def test_homogeneous_ambiguity_sampled(example_aut):
    rng = random.Random(42)
    for _ in range(500):
        w = sample_accepted_word(example_aut, rng, rng.randint(1, 15))
        assert accepts(example_aut, w) == example_aut.ambiguity


def test_collapse_states_and_ose(example_aut, example_collapse, example_alphabet):
    _, _, s = example_collapse
    ab = example_alphabet
    assert s.elements == (S(ab, 2, "y"), S(ab, 1, "Y"))
    collapsed = collapse_automaton(example_aut, s)
    assert collapsed.n_states == 10
    assert collapsed.states == tuple(
        S(ab, v, w)
        for v, w in [
            (2, "x"), (2, "X"), (2, "Z"), (2, "t"),
            (3, "y"), (3, "z"),
            (4, "Y"), (4, "Z"),
            (5, "z"), (5, "T"),
        ]
    )
    assert collapsed.initial == {
        S(ab, 2, "x"), S(ab, 2, "X"), S(ab, 2, "Z"), S(ab, 2, "t")
    }
    assert collapsed.ambiguity == 3


def test_collapse_rejects_empty_state_set(example_aut):
    # CollapseData itself rejects an empty collapse
    with pytest.raises(PreconditionError, match="at least one edge"):
        empty = SStateSet.from_collapse(example_aut, CollapseData(a=2, e_o=()))
        collapse_automaton(example_aut, empty)


# F2 cores (x = 1, y = 2) with a collapse that breaks one guarantee each
DETERMINISM_WITNESSES = [
    pytest.param(
        ((1, 2, 1), (2, 2, 3), (3, 1, 1), (3, 2, 2)),
        CollapseData(2, ((1, 2, 2),)),
        "collapse states are adjacent to each other",
        id="adjacent",
    ),
    # the merge sends (1,y) and (3,y) to one state, and the arcs of both
    # on y to one key: the states are reported, not the arcs
    pytest.param(
        ((1, 2, 1), (2, 2, 3), (3, 1, 1), (3, 2, 2)),
        CollapseData(1, ((3, 1, 1),)),
        "vertex merge identified two states",
        id="merge-before-delta",
    ),
    pytest.param(
        ((1, 2, 1), (2, 1, 1), (3, 1, 2), (3, 2, 3)),
        CollapseData(1, ((3, 1, 1),)),
        "vertex merge identified two states",
        id="merged-states",
    ),
]


@pytest.mark.parametrize("edges, cd, message", DETERMINISM_WITNESSES)
def test_collapse_rejects_a_collapse_that_breaks_determinism(edges, cd, message):
    aut = build_automaton(oracles.core_from_edges(AB2, 1, edges))
    with pytest.raises(DeterminismViolationError) as excinfo:
        collapse_automaton(aut, SStateSet.from_collapse(aut, cd))
    assert str(excinfo.value) == message


def test_no_small_collapse_clashes_on_delta_without_merging_states():
    """Every collapse (a letter a and a nonempty set of a-edges) of the
    15 + 404 + 222 small cores of 2 letters on 2-3 vertices and 3
    letters on 2 either is rejected by `CollapseData`, merges two
    states, or collapses: none doubly defines delta alone.  A clash at
    an origin o on a letter l needs l at o and at its terminus t, and
    then the surviving states (o, l^-1) and (t, l^-1) merge."""
    outcomes = Counter()
    for rank, n_vertices in ((2, 2), (2, 3), (3, 2)):
        alphabet = Alphabet(tuple("xyz"[:rank]))
        for g in oracles.all_small_cores(alphabet, n_vertices):
            aut = build_automaton(g)
            for a in sigma(rank):
                edges = [(v, a, g.step(v, a)) for v in g.vertices if g.step(v, a)]
                for k in range(1, len(edges) + 1):
                    for e_o in itertools.combinations(edges, k):
                        try:
                            s = SStateSet.from_collapse(aut, CollapseData(a, e_o))
                            collapse_automaton(aut, s)
                        except CogrowthError as exc:
                            outcomes[str(exc)] += 1
                        else:
                            outcomes["collapsed"] += 1
    assert outcomes == {
        "origin and terminus sets overlap": 5146,
        "vertex merge identified two states": 2432,
        "collapsed": 1520,
    }


def test_collapsed_language_equals_rebuilt_language(example_core, example_aut, example_collapse, example_alphabet):
    phi, cd, s = example_collapse
    collapsed = collapse_automaton(example_aut, s)
    rebuilt = build_automaton(collapse_core(example_core, cd))
    for n, (a, b) in enumerate(
        zip(
            oracles.brute_language_vectors(collapsed, 4, 8),
            oracles.brute_language_vectors(rebuilt, 4, 8),
        ),
        start=1,
    ):
        assert np.array_equal(a, b), f"languages differ at length {n}"


def test_isomorphic_under_state_renaming(example_aut, example_alphabet):
    mapping = {v: v + 10 for v in range(1, 6)}
    renamed = oracles.automaton_from_transitions(
        example_alphabet,
        [(mapping[v], l) for v, l in example_aut.states],
        {
            ((mapping[q[0]], q[1]), letter): (mapping[t[0]], t[1])
            for (q, letter), t in oracles.transitions(example_aut).items()
        },
        {(mapping[v], l) for v, l in example_aut.initial},
    )
    assert isomorphic(example_aut, renamed)
    assert isomorphic(renamed, example_aut)


def test_isomorphic_rejects_different_sizes(example_aut, example_collapse):
    _, _, s = example_collapse
    collapsed = collapse_automaton(example_aut, s)
    assert not isomorphic(example_aut, collapsed)


def test_isomorphic_rejects_equal_sizes(example_aut, example_alphabet):
    # <x^2, y> and <x, y^2>: 6 states, 4 of them initial, 14 transitions
    squares = [
        build_automaton(build_core([parse_word(w, AB2) for w in gens], AB2))
        for gens in (("xx", "y"), ("x", "yy"))
    ]
    sizes = [(a.n_states, len(a.initial), sum(map(len, a.rows))) for a in squares]
    assert sizes == [(6, 4, 14), (6, 4, 14)]
    assert not isomorphic(*squares)
    # the same transitions with the initial set at vertex 2, the other
    # vertex of degree 3
    a = example_aut
    moved = [q for q in a.states if q[0] == 2]
    assert len(moved) == len(a.initial) == 3
    assert not isomorphic(a, Automaton(example_alphabet, a.states, a.rows, moved))
    # swapping the two vertices of this core is an automorphism, so the
    # walks succeed; none takes the initial states, all at vertex 1, onto
    # a set split between the two vertices
    double = [(1, 1, 2), (2, 1, 1), (1, 2, 1), (2, 2, 2)]
    a = build_automaton(oracles.core_from_edges(AB2, 1, double))
    split = {(1, 1), (1, -1), (2, 2), (2, -2)}
    assert isomorphic(a, a)
    assert not isomorphic(a, Automaton(AB2, a.states, a.rows, split))


def test_collapse_isomorphic_to_direct_build(example_core, example_aut, example_collapse, example_alphabet):
    phi, cd, s = example_collapse
    collapsed = collapse_automaton(example_aut, s)
    rebuilt = build_automaton(
        build_core(
            [parse_word("X", example_alphabet), parse_word("zYzt", example_alphabet)],
            example_alphabet,
        )
    )
    assert isomorphic(collapsed, rebuilt)


def test_census_against_brute_force(example_core, example_aut):
    assert word_census(example_aut, 8) == oracles.brute_census(example_core, 8)
    assert word_census(example_aut, 8) == [0, 2, 0, 2, 4, 2, 12, 2]


def test_census_counts_root_loops():
    g = build_core([parse_word("x", AB2), parse_word("yy", AB2)], AB2)
    aut = build_automaton(g)
    # length-1 members are exactly the root loops x and x^-1
    assert word_census(aut, 2)[0] == 2


def test_validate_passes_on_corpus(corpus):
    for inst in corpus[:50]:
        aut = build_automaton(build_core(list(inst.gens), inst.alphabet))
        aut.validate()


@pytest.mark.parametrize(
    "delta, message",
    [
        # (1, x) moves on x^-1 to (1, x^-1) and back on x: strongly connected
        ({((1, 1), -1): (1, -1), ((1, -1), 1): (1, 1)},
         "transition labeled with the inverse of the entry letter"),
        # a loop on x at (1, x) and a loop on x^-1 at (1, x^-1), nothing between
        ({((1, 1), 1): (1, 1), ((1, -1), -1): (1, -1)},
         "transition diagram is not strongly connected"),
    ],
    ids=["inverse-letter", "two-pieces"],
)
def test_validate_rejects(delta, message):
    states = [(1, 1), (1, -1)]
    aut = oracles.automaton_from_transitions(AB2, states, delta, states)
    with pytest.raises(PreconditionError) as excinfo:
        aut.validate()
    assert str(excinfo.value) == message


def test_json_and_dot(example_aut, example_collapse):
    import json

    data = json.loads(automaton_json(example_aut))
    assert len(data["states"]) == 12
    assert data["initial"] == data["final"]
    _, _, s = example_collapse
    dot = automaton_dot(example_aut, dashed_into=set(s.elements))
    assert "style=dashed" in dot
    assert "doublecircle" in dot
