import itertools
import random

import pytest

from cogrowth.core_graph import (
    CollapseData,
    build_core,
    collapse_core,
    label_sets,
    renumber,
    rooted_map,
)
from cogrowth.errors import (
    CyclicOrTrivialSubgroupError,
    EmptyGeneratorError,
    FoldingViolationError,
    PreconditionError,
)
from cogrowth.automaton import build_automaton
from cogrowth.cli import core_dot, core_json
from cogrowth.whitehead import choose_automorphism
from cogrowth.words import (
    Alphabet,
    apply_whitehead,
    inverse_word,
    is_cyclically_reduced,
    parse_word,
    sigma,
)

import oracles
from corpus_sweep import random_whitehead

AB2 = Alphabet(("x", "y"))
AB4 = Alphabet(("x", "y", "z", "t"))


def L(ab, spec):
    return frozenset(parse_word(spec, ab)[0] for spec in spec.split())


def test_example_core_label_sets(example_core, example_alphabet):
    assert example_core.n_vertices == 5
    assert example_core.root == 1
    ls = label_sets(example_core)
    assert ls[1] == L(example_alphabet, "x y T")
    assert ls[2] == L(example_alphabet, "X Y z")
    assert ls[3] == L(example_alphabet, "Y Z")
    assert ls[4] == L(example_alphabet, "y z")
    assert ls[5] == L(example_alphabet, "Z t")


def test_cyclic_subgroup_rejected():
    with pytest.raises(CyclicOrTrivialSubgroupError):
        build_core([parse_word("x", AB2)], AB2)
    with pytest.raises(CyclicOrTrivialSubgroupError):
        build_core([parse_word("xy", AB4)], AB4)  # single loop line
    with pytest.raises(CyclicOrTrivialSubgroupError):
        # redundant generators of one cyclic subgroup
        build_core([parse_word("xy", AB2), parse_word("xyxy", AB2)], AB2)


def test_generator_preconditions():
    with pytest.raises(EmptyGeneratorError):
        build_core([()], AB2)
    # not cyclically reduced, but the fold is a core
    core = build_core([parse_word("xyX", AB4), parse_word("z", AB4)], AB4)
    assert core.edges == ((1, 1, 2), (1, 3, 1), (2, 2, 2))
    # not even freely reduced: the fold of x x^-1 y, z has a hair
    with pytest.raises(PreconditionError, match="vertex 2 has degree < 2"):
        build_core([(1, -1, 2), (3,)], AB4)
    # x x^-1 y, y generate <y>: a loop with a hair, reported as cyclic
    with pytest.raises(CyclicOrTrivialSubgroupError):
        build_core([(1, -1, 2), (2,)], AB2)


def test_collapsed_example_core_has_four_vertices(example_alphabet):
    g = build_core(
        [parse_word("X", example_alphabet), parse_word("zYzt", example_alphabet)],
        example_alphabet,
    )
    assert g.n_vertices == 4
    assert g.n_edges == 5


def test_label_set_sizes_sum_to_twice_edges(corpus):
    for inst in corpus[:40]:
        g = build_core(list(inst.gens), inst.alphabet)
        ls = label_sets(g)
        # n_edges is read off the degrees; the edge list is counted
        assert sum(len(ls[v]) for v in g.vertices) == 2 * len(g.edges) == 2 * g.n_edges
        for v in g.vertices:
            assert len(ls[v]) == g.degree(v)


def test_membership_examples(example_core, example_alphabet):
    assert oracles.membership(example_core, parse_word("yX", example_alphabet))
    assert not oracles.membership(example_core, parse_word("x", example_alphabet))
    assert oracles.membership(example_core, ())
    assert oracles.membership(example_core, parse_word("yzYzt", example_alphabet))
    assert not oracles.membership(example_core, parse_word("yzYz", example_alphabet))


def all_reduced_words(rank, n):
    letters = sigma(rank)
    def rec(prefix):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for l in letters:
            if prefix and l == -prefix[-1]:
                continue
            prefix.append(l)
            yield from rec(prefix)
            prefix.pop()
    yield from rec([])


def test_membership_agrees_with_naive_fold_oracle():
    gens = [parse_word("xyXY", AB2), parse_word("xx", AB2)]
    g = build_core(gens, AB2)
    root, edges = oracles.naive_fold(gens, 2)
    for n in range(0, 9):
        for w in all_reduced_words(2, n):
            assert oracles.membership(g, w) == oracles.naive_membership(root, edges, w)


def form(graph):
    return oracles.canonical_numbering(graph.root, graph.edges)[1]


def assert_numbered_canonically(core):
    # the printed numbering is the conventional one: root 1, then
    # depth-first along x, X, y, Y, ..., as the oracle numbers it
    assert core.root == 1
    assert oracles.canonical_numbering(1, core.edges) == (
        {v: v for v in core.vertices},
        core.edges,
    )


def assert_folds_like_naive_fold(gens, alphabet):
    core = build_core(list(gens), alphabet)
    root, edges = oracles.naive_fold(gens, alphabet.rank)
    assert form(core) == oracles.canonical_numbering(root, edges)[1]
    assert_numbered_canonically(core)
    return core


def test_fold_agrees_with_naive_fold_on_corpus(corpus):
    for inst in corpus:
        assert_folds_like_naive_fold(inst.gens, inst.alphabet)


def fold_family(n):
    """x^n y x^-n z, x^n z x^-n t."""
    x, y, z, t = 1, 2, 3, 4
    return ((x,) * n + (y,) + (-x,) * n + (z,), (x,) * n + (z,) + (-x,) * n + (t,))


@pytest.mark.parametrize("n", [1, 2, 5, 25])
def test_fold_agrees_with_naive_fold_on_fold_family(n):
    for pair in itertools.permutations(fold_family(n)):
        for flips in itertools.product((False, True), repeat=2):
            gens = [inverse_word(w) if f else w for w, f in zip(pair, flips)]
            assert_folds_like_naive_fold(gens, AB4)


def whitehead_chain_images(seed, min_letters):
    """Images of <x,y,z> <= F4 under a seeded chain of Whitehead moves,
    drawn until their total length reaches `min_letters`; the first chain
    whose images are cyclically reduced."""
    rng = random.Random(seed)
    while True:
        words = [(1,), (2,), (3,)]
        while sum(map(len, words)) < min_letters:
            phi = random_whitehead(rng, 4)
            words = [apply_whitehead(phi, w) for w in words]
        if all(is_cyclically_reduced(w) for w in words):
            return words


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_fold_agrees_with_naive_fold_on_whitehead_chains(seed):
    gens = whitehead_chain_images(seed, 300)
    core = assert_folds_like_naive_fold(gens, AB4)
    # a free factor's images fold long cascades into a small core
    assert sum(map(len, gens)) - core.n_vertices >= 150


@pytest.mark.parametrize("n", [1, 25, 400])
@pytest.mark.parametrize("image", [(1, 2, 3, 4), (-3, 1, -4, 2)])
def test_fold_family_closed_form(n, image):
    """The core of the family has 3n+3 vertices and 3n+4 edges, also
    after a signed relabelling of the letters; its automaton has 6n+8
    states."""
    gens = [tuple(image[abs(l) - 1] * (1 if l > 0 else -1) for l in w)
            for w in fold_family(n)]
    core = build_core(gens, AB4)
    assert (core.n_vertices, core.n_edges, core.subgroup_rank) == (3 * n + 3, 3 * n + 4, 2)
    assert_numbered_canonically(core)
    assert build_automaton(core).n_states == 6 * n + 8


def assert_one_pass_core_is_the_constructed_core(core):
    """`build_core` assembles its core from one depth-first pass; the
    oracle, from the edge list, must give the same graph.  The edges are
    read off the neighbour maps and must come out sorted: the JSON and
    DOT outputs print them in that order."""
    assert core.edges == tuple(sorted(core.edges))
    built = oracles.core_from_edges(core.alphabet, 1, core.edges)
    assert core.root == built.root == 1
    assert core.vertices == built.vertices
    assert core.edges == built.edges
    for v in core.vertices:
        assert list(core.neighbours(v).items()) == list(built.neighbours(v).items())
        assert core.degree(v) == built.degree(v)
    for o, g, t in core.edges:
        for graph in (core, built):
            assert (graph.step(o, g), graph.step(t, -g)) == (t, o)


def test_one_pass_core_equals_the_constructed_core(corpus, ladder, request):
    cores = [build_core(list(inst.gens), inst.alphabet) for inst in corpus + ladder]
    for n in (1, 2, 5, 25, 100, 400):
        for image in ((1, 2, 3, 4), (-3, 1, -4, 2)):
            gens = [tuple(image[abs(l) - 1] * (1 if l > 0 else -1) for l in w)
                    for w in fold_family(n)]
            cores.append(build_core(gens, AB4))
    for core in cores:
        assert_one_pass_core_is_the_constructed_core(core)
    # the small cores whose spanning-tree basis is cyclically reduced
    small = 0
    for rank, n_vertices in ((2, 2), (2, 3), (3, 2)):
        alphabet = Alphabet(tuple("xyz"[:rank]))
        for g in oracles.all_small_cores(alphabet, n_vertices):
            basis = oracles.spanning_tree_basis(g.root, g.edges)
            if all(is_cyclically_reduced(w) for w in basis):
                core = build_core(basis, alphabet)
                assert form(core) == form(g)
                assert_one_pass_core_is_the_constructed_core(core)
                small += 1
    # last, as a broken core stops the reductions
    traces = request.getfixturevalue("corpus_traces") + request.getfixturevalue("ladder_traces")
    after = [step.core_after for trace in traces for step in trace.steps]
    for core in after:
        assert_one_pass_core_is_the_constructed_core(core)
    # 212 inputs, 12 of the fold family and the cores after 475 steps
    assert (len(cores), small, len(after)) == (212 + 12, 219, 475)


@pytest.mark.parametrize(
    "edges, error, message",
    [
        ([(1, 1, 2), (1, 1, 3), (2, 2, 3)], "FoldingViolationError", "two edges labeled x at vertex 1"),
        ([(1, 1, 3), (2, 1, 3), (1, 2, 2)], "FoldingViolationError", "two edges labeled X at vertex 3"),
        ([(1, 3, 2), (2, 1, 1)], "ValueError", "edge label 3 outside alphabet"),
    ],
    ids=["label-clash", "inverse-label-clash", "label-outside-alphabet"],
)
def test_constructor_rejects_edges_that_are_not_folded(edges, error, message):
    with pytest.raises(Exception) as excinfo:
        oracles.core_from_edges(AB2, 1, edges)
    assert (type(excinfo.value).__name__, str(excinfo.value)) == (error, message)


def test_folding_confluence_under_generator_permutation(example_gens, example_alphabet):
    base = build_core(example_gens, example_alphabet)
    for perm in itertools.permutations(example_gens):
        assert build_core(list(perm), example_alphabet) == base


def test_folding_confluence_on_corpus(corpus):
    for inst in corpus[:25]:
        base = build_core(list(inst.gens), inst.alphabet)
        flipped = build_core(list(reversed(inst.gens)), inst.alphabet)
        assert form(base) == form(flipped)
        assert base == flipped  # ids are canonical, so equality is exact


def test_collapse_matches_rebuilt_core(example_core, example_alphabet):
    phi, cd = choose_automorphism(example_core)
    collapsed = collapse_core(example_core, cd)
    assert collapsed.n_vertices == 4
    assert set(collapsed.vertices) == {2, 3, 4, 5}  # origin vertex 1 removed
    assert collapsed.root == 2
    rebuilt = build_core(
        [parse_word("X", example_alphabet), parse_word("zYzt", example_alphabet)],
        example_alphabet,
    )
    # the contracted core keeps its ids; the rebuilt one is renumbered from 1
    assert oracles.rooted_isomorphism(collapsed, rebuilt) == {2: 1, 3: 2, 4: 3, 5: 4}


def test_collapse_requires_edges(example_core):
    # CollapseData itself rejects an empty collapse
    with pytest.raises(PreconditionError, match="at least one edge"):
        collapse_core(example_core, CollapseData(a=2, e_o=()))


# F2 cores: 1 -y-> 3 and 2 -y-> 1 leave the two ends of 1 -x-> 2 by y
# for distinct vertices; 1 -y-> 2 and 2 -y-> 1 become two loops y at 2
SHARED_Y = [(1, 1, 2), (1, 2, 3), (2, 2, 1), (3, 1, 3)]
PARALLEL_Y = [(1, 1, 2), (1, 2, 2), (2, 2, 1)]


@pytest.mark.parametrize(
    "edges, e_o, error, message",
    [
        (SHARED_Y, ((1, 1, 2),), FoldingViolationError, "two edges labeled y at vertex 2"),
        (PARALLEL_Y, ((1, 1, 2),), FoldingViolationError, "two edges labeled y at vertex 2"),
        (SHARED_Y, ((1, 1, 3),), PreconditionError, "collapse edge (1,1,3) not in graph"),
    ],
    ids=["label-at-both-ends", "parallel-edges", "missing-edge"],
)
def test_collapse_core_rejects(edges, e_o, error, message):
    core = oracles.core_from_edges(AB2, 1, edges)
    renumber(core)  # a core
    with pytest.raises(error) as excinfo:
        collapse_core(core, CollapseData(a=1, e_o=e_o))
    assert str(excinfo.value) == message


def test_rooted_map_matches_only_an_isomorphic_graph(example_core):
    g, ab = example_core, example_core.alphabet
    assert g.edges == ((1, 1, 2), (1, 2, 2), (2, 3, 3), (4, 2, 3), (4, 3, 5), (5, 4, 1))

    def walk(other, root=1):
        return rooted_map(g.root, g.neighbours, root, other.neighbours)

    assert walk(g) == {v: v for v in g.vertices}
    # renumbered: 2 and 4 swap their ids
    ids = {2: 4, 4: 2}
    renumbered = oracles.core_from_edges(
        ab, 1, [(ids.get(o, o), l, ids.get(t, t)) for o, l, t in g.edges]
    )
    assert walk(renumbered) == {1: 1, 2: 4, 3: 3, 4: 2, 5: 5}
    # a moved root
    for v in g.vertices[1:]:
        assert walk(g, root=v) is None
    # a relabelled edge: 4 -y-> 3 becomes 4 -x-> 3
    relabelled = [(4, 1, 3) if e == (4, 2, 3) else e for e in g.edges]
    assert walk(oracles.core_from_edges(ab, 1, relabelled)) is None
    # two vertices that swap their edges, the targets kept
    for u, v in itertools.combinations(g.vertices, 2):
        swap = {u: v, v: u}
        out = {x: g.neighbours(swap.get(x, x)) for x in g.vertices}
        assert rooted_map(g.root, g.neighbours, g.root, out.__getitem__) is None
    # an extra vertex 6 on the edge 5 -t-> 1
    assert walk(oracles.core_from_edges(ab, 1, [*g.edges[:5], (5, 4, 6), (6, 4, 1)])) is None
    # a rose and a graph covering it twice: mapping the cover onto the
    # rose is consistent but not one-to-one, the other way not consistent
    rose = oracles.core_from_edges(AB2, 1, [(1, 1, 1), (1, 2, 1)])
    cover = oracles.core_from_edges(AB2, 1, [(1, 1, 2), (2, 1, 1), (1, 2, 1), (2, 2, 2)])
    assert rooted_map(1, cover.neighbours, 1, rose.neighbours) is None
    assert rooted_map(1, rose.neighbours, 1, cover.neighbours) is None
    # an extra piece the walk does not reach: the step counts the vertices
    apart = oracles.core_from_edges(ab, 1, [*g.edges, (6, 1, 6), (6, 2, 6)])
    assert walk(apart) == {v: v for v in g.vertices}
    assert len(walk(apart)) < apart.n_vertices


def test_collapse_data_validation():
    cd = CollapseData(a=2, e_o=((1, 2, 2), (3, 2, 4)))
    assert (cd.s_o, cd.s_t) == ((1, 3), (2, 4))
    # an edge not labeled a
    with pytest.raises(PreconditionError, match="not labeled a"):
        CollapseData(a=2, e_o=((1, 3, 2),))
    # vertex 2 is both a terminus and an origin
    with pytest.raises(PreconditionError, match="overlap"):
        CollapseData(a=2, e_o=((1, 2, 2), (2, 2, 3)))


def test_renumber_rejects_root_of_degree_one():
    # the root's label set is just {x}: cases 1 and 3 of the trichotomy
    # would both hold there for the cut vertex x
    g = oracles.core_from_edges(AB2, 1, [(1, 1, 2), (2, 2, 2)])
    with pytest.raises(PreconditionError, match="vertex 1 has degree < 2"):
        renumber(g)


def test_renumber_rejects_a_graph_that_is_not_connected():
    # vertex 3, with two loops, cannot be reached from the root
    g = oracles.core_from_edges(AB2, 1, [(1, 1, 2), (2, 1, 1), (1, 2, 1), (3, 1, 3), (3, 2, 3)])
    assert g.vertices == (1, 2, 3)
    with pytest.raises(PreconditionError, match="graph is not connected"):
        renumber(g)


def test_collapse_shrinks_and_respects_label_overlap_bound(corpus):
    from cogrowth.errors import NoCutVertexError

    checked = 0
    for inst in corpus:
        g = build_core(list(inst.gens), inst.alphabet)
        if g.n_vertices < 2:
            continue
        try:
            phi, cd = choose_automorphism(g)
        except NoCutVertexError:
            continue
        ls = label_sets(g)
        for o, a, t in cd.e_o:
            assert (ls[o] & ls[t]) <= {a}
        collapsed = collapse_core(g, cd)
        assert collapsed.n_vertices < g.n_vertices
        assert collapsed.n_edges < g.n_edges
        checked += 1
    assert checked >= 150


def test_json_roundtrip(example_core):
    text = core_json(example_core)
    again = oracles.core_from_json(text)
    assert again == example_core
    assert core_json(again) == text


def test_dot_marks_root(example_core):
    dot = core_dot(example_core)
    assert "doublecircle" in dot
    assert dot.count("->") == example_core.n_edges
    extended = core_dot(example_core, extended=True)
    assert extended.count("->") == 2 * example_core.n_edges


def test_isomorphic_any_root():
    g1 = build_core([parse_word("xy", AB2), parse_word("xY", AB2)], AB2)
    rerooted = oracles.core_from_edges(AB2, g1.vertices[-1], g1.edges)
    assert oracles.rooted_isomorphism(g1, rerooted) is None or g1.root == rerooted.root
    assert oracles.isomorphic_any_root(g1, rerooted)
