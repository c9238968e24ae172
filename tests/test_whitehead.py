import itertools
import random
from collections import Counter

import pytest

from cogrowth.automaton import SStateSet, build_automaton, collapse_automaton
from cogrowth.cli import cut_vertex_dict, whitehead_dot
from cogrowth.core_graph import build_core, collapse_core, label_sets, renumber, rooted_map
from cogrowth.errors import (
    NoCutVertexError,
    PreconditionError,
)
from cogrowth.whitehead import (
    WhiteheadGraph,
    choose_automorphism,
    find_cut_vertices,
    whitehead_graph_of_core,
)
from cogrowth.words import Alphabet, parse_word, sigma
from oracles import (
    all_small_cores,
    all_whitehead_automorphisms,
    canonical_numbering,
    clique_edges,
    collapse_for_cut,
    core_from_edges,
    cut_vertices,
    cyclic_length,
    first_cut_collapse,
    reduce_primitive_word,
    spanning_tree_basis,
    transitions,
    whitehead_descent,
    whitehead_graph_of_word,
)

AB2 = Alphabet(("x", "y"))
AB4 = Alphabet(("x", "y", "z", "t"))


def edge_set(wg):
    return set(wg.multiplicity)


def test_graph_of_two_letter_word():
    wg = whitehead_graph_of_word(parse_word("xy", AB2), 2)
    assert edge_set(wg) == {(-1, 2), (1, -2)}
    assert wg.n_edges_multiset == 2


def test_graph_of_single_letter():
    wg = whitehead_graph_of_word(parse_word("x", AB2), 2)
    assert edge_set(wg) == {(1, -1)}


def test_graph_of_length_five_word():
    # y z y^-1 z t: consecutive pairs give y^-1-z, z^-1-y^-1, y-z, z^-1-t
    # and the wrap-around gives t^-1-y
    wg = whitehead_graph_of_word(parse_word("yzYzt", AB4), 4)
    assert wg.n_edges_multiset == 5
    assert edge_set(wg) == {(-2, 3), (-2, -3), (2, 3), (-3, 4), (2, -4)}


def test_graph_of_word_requires_cyclically_reduced():
    message = "Whitehead graph needs a nonempty cyclically reduced word"
    with pytest.raises(PreconditionError, match=message):
        whitehead_graph_of_word(parse_word("yxY", AB4), 4)
    with pytest.raises(PreconditionError, match=message):
        whitehead_graph_of_word((), 4)


def test_graph_of_example_core(example_core):
    wg = whitehead_graph_of_core(label_sets(example_core), 4)
    # union of complete graphs on the five label sets
    assert edge_set(wg) == {
        (1, 2), (1, -4), (2, -4),          # L_1 = {x, y, t^-1}
        (-1, -2), (-1, 3), (-2, 3),        # L_2 = {x^-1, y^-1, z}
        (-2, -3),                          # L_3 = {y^-1, z^-1}
        (2, 3),                            # L_4 = {y, z}
        (-3, 4),                           # L_5 = {z^-1, t}
    }


def test_single_label_pair_gives_one_edge():
    wg = whitehead_graph_of_core({7: frozenset({1, -2})}, 2)
    assert edge_set(wg) == {(1, -2)}


def test_edge_count_bound_on_corpus(corpus):
    """Each vertex adds one edge per pair of its labels, also when label
    sets repeat: on the corpus and on x^100 y x^-100 z, x^100 z x^-100 t,
    where 297 of the 303 vertices share the label set {x, x^-1}."""
    from math import comb

    fold = ("x^100 y x^-100 z", "x^100 z x^-100 t")
    inputs = [(list(inst.gens), inst.alphabet) for inst in corpus[:30]]
    inputs.append(([parse_word(w, AB4) for w in fold], AB4))
    for gens, alphabet in inputs:
        g = build_core(gens, alphabet)
        ls = label_sets(g)
        wg = whitehead_graph_of_core(ls, alphabet.rank)
        pairs = sum(comb(len(ls[v]), 2) for v in g.vertices)
        assert wg.n_edges_simple <= pairs
        assert wg.n_edges_multiset == pairs
    assert g.n_vertices == 303
    assert Counter(ls.values())[frozenset({1, -1})] == 297


def test_example_cut_vertices(example_core):
    wg = whitehead_graph_of_core(label_sets(example_core), 4)
    cuts = {r.letter: r for r in find_cut_vertices(wg)}
    # y separates {x, t^-1}; z, y^-1 and z^-1 are also cut vertices
    assert {2, 3, -2, -3} <= set(cuts)
    assert 1 not in cuts and -1 not in cuts
    y_report = cuts[2]
    assert frozenset({1, -4}) in {frozenset(c) for c in y_report.witness}


def test_complete_graph_has_no_cut_vertex():
    letters = sigma(2)
    mult = {}
    for i, u in enumerate(letters):
        for v in letters[i + 1 :]:
            mult[(u, v)] = 1
    assert find_cut_vertices(WhiteheadGraph(2, mult)) == []


def test_path_graph_cut_vertex_configurations():
    # x -- y -- z -- y^-1: removing y splits {x} from {z, y^-1}, and y's
    # component contains y^-1, so y qualifies by configuration 2 only;
    # x qualifies by configuration 1 (its component misses x^-1)
    wg = WhiteheadGraph(3, {(1, 2): 1, (2, 3): 1, (-2, 3): 1})
    reports = {r.letter: r for r in find_cut_vertices(wg)}
    assert reports[2].configuration == 2
    assert {frozenset(c) for c in reports[2].witness} == {
        frozenset({1}),
        frozenset({3, -2}),
    }
    assert reports[1].configuration == 1


def test_choose_automorphism_example(example_core):
    phi, cd = choose_automorphism(example_core)
    assert phi.a == 2  # y
    assert phi.members == frozenset({1, -4})  # {x, t^-1}
    assert cd.s_o == (1,)
    assert cd.s_t == (2,)
    assert len(cd.e_o) == 1 and cd.e_o[0] == (1, 2, 2)
    assert example_core.step(2, -2) == 1  # the reverse of the collapse edge


def test_choose_automorphism_single_vertex_rejected():
    g = build_core([parse_word("x", AB2), parse_word("y", AB2)], AB2)
    with pytest.raises(PreconditionError):
        choose_automorphism(g)


def test_no_cut_vertex_certifies_non_factor():
    g = build_core([parse_word("xx", AB2), parse_word("yy", AB2)], AB2)
    with pytest.raises(NoCutVertexError):
        choose_automorphism(g)


def test_trichotomy_is_exclusive_on_corpus(corpus):
    for inst in corpus:
        g = build_core(list(inst.gens), inst.alphabet)
        if g.n_vertices < 2:
            continue
        try:
            phi, cd = choose_automorphism(g)
        except NoCutVertexError:
            continue
        ls = label_sets(g)
        members = phi.members
        for v in g.vertices:
            lv = ls[v]
            cases = (
                not (lv & members),
                lv <= members,
                phi.a in lv and lv <= members | {phi.a},
            )
            assert sum(cases) == 1
            assert (v in cd.s_o) == cases[2]
        assert cd.e_o
        for v in cd.s_o:
            assert not (phi.a in ls[v] and -phi.a in ls[v])


@pytest.mark.parametrize(
    "rank, n_vertices, n_cores",
    [(2, 2, 15), (2, 3, 404), (2, 4, 15858), (3, 2, 222), (3, 3, 28046)],
)
def test_every_cut_vertex_of_every_small_core_collapses(rank, n_vertices, n_cores):
    """The proof in the whitehead module, checked on every cut vertex
    (not only the first) of every labelled core with root 1, every
    vertex of degree >= 2 and rank >= 2: 15 + 404 + 15,858 cores on 2-4
    vertices over 2 letters and 222 + 28,046 on 2-3 vertices over 3
    letters, 44,545 in all.  On each cut the walk from the roots
    matches the contracted core with its renumbering by the oracle, and
    the collapsed automaton is also the automaton of the contracted
    core, initial set included.  The oracle's renumbering is also
    `renumber`'s, by which a step numbers its next core."""
    alphabet = Alphabet(tuple("xyz"[:rank]))
    count = 0
    for g in all_small_cores(alphabet, n_vertices):
        count += 1
        ls = label_sets(g)
        wg = whitehead_graph_of_core(ls, rank)
        cuts = find_cut_vertices(wg)
        aut = build_automaton(g) if cuts else None
        if cuts:
            # the search in choose_automorphism stops at the first cut
            first = cuts[0]
            assert choose_automorphism(g) == collapse_for_cut(g, ls, first.letter, first.witness)
        for cut in cuts:
            a = cut.letter
            phi, cd = collapse_for_cut(g, ls, a, cut.witness)
            for v in g.vertices:
                lv = ls[v]
                cases = (
                    not (lv & phi.members),
                    lv <= phi.members,
                    a in lv and lv <= phi.members | {a},
                )
                assert sum(cases) == 1
                assert (v in cd.s_o) == cases[2]
            assert cd.s_o
            for v, _, t in cd.e_o:
                assert -a not in ls[v]
                assert ls[v] & ls[t] <= {a}
            collapsed = collapse_core(g, cd)
            assert collapsed.n_vertices == g.n_vertices - len(cd.s_o)
            ids, form = canonical_numbering(collapsed.root, collapsed.edges)
            renumbered, core_map = renumber(collapsed)
            assert renumbered == core_from_edges(alphabet, 1, form)
            assert core_map == ids == rooted_map(
                collapsed.root, collapsed.neighbours, 1, renumbered.neighbours
            )
            # renamed through core_map, the collapsed automaton is the
            # automaton of the renumbered core, initial set included
            rename = lambda q: (core_map[q[0]], q[1])
            folded = collapse_automaton(aut, SStateSet.from_collapse(aut, cd))
            rebuilt = build_automaton(renumbered)
            assert {
                (rename(q), letter): rename(t)
                for (q, letter), t in transitions(folded).items()
            } == transitions(rebuilt)
            assert set(map(rename, folded.initial)) == rebuilt.initial
    assert count == n_cores


def test_cut_vertices_match_the_search_oracle(corpus):
    """Letter, configuration and witness (the pieces, in order) against
    `oracles.cut_vertices` on the corpus and on the 15 + 404 + 222
    small cores of 2 letters on 2-3 vertices and 3 letters on 2."""
    cores = [build_core(list(inst.gens), inst.alphabet) for inst in corpus]
    small = [
        g
        for rank, n_vertices in ((2, 2), (2, 3), (3, 2))
        for g in all_small_cores(Alphabet(tuple("xyz"[:rank])), n_vertices)
    ]
    assert len(small) == 641
    for g in cores + small:
        ls = label_sets(g)
        rank = g.alphabet.rank
        reports = find_cut_vertices(whitehead_graph_of_core(ls, rank))
        got = [(r.letter, r.configuration, r.witness) for r in reports]
        assert got == cut_vertices(clique_edges(ls), rank)


def assert_agrees_with_the_search_oracle(edges, rank):
    reports = find_cut_vertices(WhiteheadGraph(rank, dict.fromkeys(edges, 1)))
    got = [(r.letter, r.configuration, r.witness) for r in reports]
    assert got == cut_vertices(edges, rank), edges


def test_cut_vertices_of_every_simple_graph_on_four_letters():
    """The 64 simple graphs on x, x^-1, y, y^-1, against the set search."""
    pairs = list(itertools.combinations(sigma(2), 2))
    subsets = list(itertools.product((False, True), repeat=len(pairs)))
    assert len(subsets) == 64
    for keep in subsets:
        assert_agrees_with_the_search_oracle(list(itertools.compress(pairs, keep)), 2)


@pytest.mark.parametrize("rank", [3, 4])
def test_cut_vertices_of_random_simple_graphs(rank):
    """2,000 seeded simple graphs on the 2m letters, each pair an edge
    with a probability drawn per graph, against the set search."""
    rng = random.Random(rank)
    pairs = list(itertools.combinations(sigma(rank), 2))
    for _ in range(2000):
        density = rng.random()
        assert_agrees_with_the_search_oracle([p for p in pairs if rng.random() < density], rank)


def test_choice_on_every_corpus_and_ladder_core(corpus, ladder, corpus_traces, ladder_traces):
    """`choose_automorphism` gives the set search's (phi, collapse) on
    every core that a corpus or ladder reduction meets, and raises
    NoCutVertexError exactly where the search finds no cut vertex."""
    counts = Counter()
    for inst, trace in zip(corpus + ladder, corpus_traces + ladder_traces):
        cores = [step.core_before for step in trace.steps]
        cores.append(trace.steps[-1].core_after if trace.steps
                     else build_core(list(inst.gens), inst.alphabet))
        for g in cores:
            if g.n_vertices == 1:
                continue
            expected = first_cut_collapse(g)
            if expected is None:
                with pytest.raises(NoCutVertexError):
                    choose_automorphism(g)
            else:
                assert choose_automorphism(g) == expected
            counts[expected is None] += 1
    assert counts == {False: 475, True: 4}


def test_free_factor_verdict_matches_whitehead_descent():
    """On the 641 small cores of 2 letters on 2-3 vertices and 3 letters
    on 2, no core without a cut vertex descends to a rose (the "not a
    free factor" verdict holds), and every core with one does.
    `reduce_full` on the spanning-tree basis, cyclically reduced or not,
    reaches the descent's verdict, and each of its steps passes
    `check_step`."""
    from cogrowth.pipeline import check_step, reduce_full

    counts = Counter()
    for rank, n_vertices in ((2, 2), (2, 3), (3, 2)):
        alphabet = Alphabet(tuple("xyz"[:rank]))
        for g in all_small_cores(alphabet, n_vertices):
            final = whitehead_descent(g.edges, rank)
            rose = len({v for o, _, t in final for v in (o, t)}) == 1
            cut = bool(find_cut_vertices(whitehead_graph_of_core(label_sets(g), rank)))
            assert rose == cut
            trace = reduce_full(spanning_tree_basis(g.root, g.edges), alphabet)
            assert trace.status == ("single_vertex_core" if rose else "no_cut_vertex")
            assert all(check_step(step) == (True, True, True) for step in trace.steps)
            counts[cut, "reduce_full agrees"] += 1
    assert counts == {
        (False, "reduce_full agrees"): 597,
        (True, "reduce_full agrees"): 44,
    }


def test_reduce_primitive_two_letter_word():
    phi, image = reduce_primitive_word(parse_word("yx", AB2), 2)
    assert cyclic_length(image) == 1


def test_reduce_primitive_rejects_single_letter():
    with pytest.raises(PreconditionError):
        reduce_primitive_word(parse_word("x", AB2), 2)


def test_reduce_primitive_finds_nothing_for_square_word():
    assert reduce_primitive_word(parse_word("xxyy", AB2), 2) is None


def test_automorphism_enumeration_size():
    assert sum(1 for _ in all_whitehead_automorphisms(2)) == 4 * 2**2
    assert sum(1 for _ in all_whitehead_automorphisms(3)) == 6 * 2**4


def test_cut_vertex_json(example_core, example_alphabet):
    import json

    wg = whitehead_graph_of_core(label_sets(example_core), 4)
    report = find_cut_vertices(wg)[0]
    data = cut_vertex_dict(report, example_alphabet)
    json.dumps(data)
    assert data["configuration"] in (1, 2)
    assert isinstance(data["witness"], list)


def test_whitehead_graph_dot(example_core, example_alphabet):
    wg = whitehead_graph_of_core(label_sets(example_core), 4)
    dot = whitehead_dot(wg, example_alphabet)
    assert dot.startswith("graph whitehead")
    assert '"y" -- ' in dot or ' -- "y"' in dot
