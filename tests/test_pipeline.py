import itertools
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cogrowth import automaton, core_graph, pipeline, spectral
from cogrowth.automaton import Automaton, accepts, build_automaton
from cogrowth.core_graph import build_core, collapse_core, label_sets, rooted_map
from cogrowth.errors import CogrowthError, PreconditionError
from cogrowth.words import (
    Alphabet,
    apply_whitehead,
    free_reduce,
    inverse_word,
    is_cyclically_reduced,
    parse_word,
    sigma,
)
from corpus_sweep import random_free_factor, random_whitehead
from oracles import (
    canonical_numbering,
    core_from_edges,
    cyclically_reduced_images,
    membership,
    naive_fold,
    rooted_isomorphism,
    transitions,
)

AB4 = Alphabet(("x", "y", "z", "t"))


@pytest.fixture(scope="module")
def steps(corpus):
    out = []
    for inst in corpus:
        try:
            core = build_core(list(inst.gens), inst.alphabet)
            out.append(pipeline.reduce_step(core, inst.gens))
        except CogrowthError:
            pass
    return out


def test_corpus_exercises_all_collapse_shapes(steps):
    """The random corpus must keep covering the structurally distinct
    collapse situations; each is handled by a different code path."""
    assert sum(1 for s in steps if s.phi.a < 0) >= 5, "inverse collapse letters"
    assert sum(1 for s in steps if s.core_before.root in s.collapse.s_t) >= 10
    assert sum(1 for s in steps if s.core_before.root in s.collapse.s_o) >= 10
    assert sum(1 for s in steps if len(s.collapse.e_o) > 1) >= 5, "multi-edge collapses"
    chains = 0
    for s in steps:
        ls = label_sets(s.core_before)
        chains += any(s.collapse.a in ls[t] for t in s.collapse.s_t)
    assert chains >= 10, "collapse letter continuing past the terminus"


def test_step_reports_are_internally_consistent(steps):
    for s in steps:
        assert s.core_after.n_vertices == s.core_before.n_vertices - len(s.collapse.s_o)
        assert s.aut_after.n_states == s.aut_before.n_states - 2 * len(s.collapse.e_o)
        assert s.pf1.eigenvalue > s.pf.eigenvalue
        assert s.m.boundary == s.aut_after.n_states
        assert len(s.gens_after) == len(s.gens_before)


def test_full_reduction_of_example(example_gens, example_alphabet):
    trace = pipeline.reduce_full(example_gens, example_alphabet)
    assert trace.status == "single_vertex_core"
    assert len(trace.steps) == 4
    # the terminal generators form a sub-basis (single letters)
    assert all(len(w) == 1 for w in trace.final_gens)
    for earlier, later in zip(trace.steps, trace.steps[1:]):
        assert later.pf.eigenvalue == pytest.approx(earlier.pf1.eigenvalue, abs=1e-8)
        assert later.core_before.n_vertices < earlier.core_before.n_vertices


def test_full_reduction_folds_once_builds_each_automaton_once_and_solves_each_matrix_once(
    example_gens, example_alphabet, monkeypatch
):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # each name in the module that defines it and in every module that
    # imports it
    for name, modules in {
        "build_core": (core_graph, pipeline),
        "rooted_map": (core_graph, automaton, pipeline),
        "build_automaton": (automaton, pipeline),
        "collapse_automaton": (automaton, pipeline),
        "ose": (spectral, pipeline),
        "pf_eigen": (spectral, pipeline),
        "decompose": (spectral,),
        "strongly_connected": (automaton,),
    }.items():
        wrapper = counted(name, getattr(modules[0], name))
        for module in modules:
            monkeypatch.setattr(module, name, wrapper)
    steps = len(pipeline.reduce_full(example_gens, example_alphabet).steps)
    assert steps == 4
    # the input is folded; each next core is contracted, not folded
    assert calls["build_core"] == 1
    # each automaton is built and validated once, the final rose's included
    assert calls["build_automaton"] == calls["strongly_connected"] == steps + 1
    # the second route (check_step) is not run
    assert calls["collapse_automaton"] == calls["rooted_map"] == calls["ose"] == 0
    # the blocks of each M are checked once, by derive_m1
    assert calls["decompose"] == steps
    # the first step solves M and M1; each later step reuses the previous M1's
    assert calls["pf_eigen"] == steps + 1


def test_step_rejects_a_core_that_is_not_folded_from_the_generators(
    example_core, example_alphabet
):
    gens = [parse_word(w, example_alphabet) for w in ("yX", "yzYzt", "x")]
    with pytest.raises(CogrowthError, match="contracted core"):
        pipeline.reduce_step(example_core, gens)


def test_check_step_catches_generators_of_a_smaller_subgroup(example_core, example_alphabet):
    # the step trusts that `core` is the core of `gens`: the images of a
    # proper subgroup's generators read loops in the next core, and only
    # check_step's fold tells the subgroups apart
    gens = [parse_word(w, example_alphabet) for w in ("yX", "yzYztyzYzt")]
    step = pipeline.reduce_step(example_core, gens)
    assert pipeline.check_step(step) == (True, True, False)


def test_step_rejects_a_carried_pair_that_is_not_its_automaton(
    example_gens, example_alphabet, example_core
):
    first = pipeline.reduce_full(example_gens, example_alphabet).steps[0]
    # the carried automaton is that of the core the previous step ended
    # at, which an equal core folded again is not
    twin = build_core(list(first.gens_after), example_alphabet)
    assert twin.edges == first.core_after.edges
    for core, gens in ((twin, first.gens_after), (example_core, example_gens)):
        with pytest.raises(PreconditionError, match="previous step"):
            pipeline.reduce_step(core, gens, previous=first)


def test_step_rejects_images_that_do_not_generate_the_contracted_core(
    example_core, example_alphabet
):
    # yx, yzYzt fold to another core than the example's, whose step then
    # sends yx off the contracted core
    gens = [parse_word(w, example_alphabet) for w in ("yx", "yzYzt")]
    assert build_core(gens, example_alphabet).edges != example_core.edges
    with pytest.raises(CogrowthError, match="contracted core disagrees"):
        pipeline.reduce_step(example_core, gens)


def test_step_conjugates_as_the_per_image_route_on_cyclically_reduced_generators(
    corpus_traces,
):
    """Where the generators are cyclically reduced, the one conjugator
    read off the root's trichotomy case gives the words that cyclically
    reducing each image gives.  The corpus takes both branches: c = a at
    an origin root (case 3) and at a root in case 2, and c empty."""
    cases = Counter()
    for trace in corpus_traces:
        for step in trace.steps:
            if not all(map(is_cyclically_reduced, step.gens_before)):
                continue
            assert step.gens_after == cyclically_reduced_images(step.phi, step.gens_before)
            labels = step.core_before.neighbours(step.core_before.root).keys()
            if labels <= step.phi.members:
                cases["case 2"] += 1
            elif labels <= step.phi.members | {step.phi.a}:
                cases["case 3"] += 1
            else:
                cases["c empty"] += 1
    assert cases == {"case 3": 151, "case 2": 6, "c empty": 246}


def conjugated_free_factors(count):
    """Free factors from `random_free_factor` (rank 3 or 4, from
    random.Random(5)) with every generator conjugated by one reduced word
    of 1-3 letters, kept when not every generator is cyclically reduced
    and their fold, by the oracle, is a core."""
    rng = random.Random(5)
    out = []
    while len(out) < count:
        rank = rng.choice((3, 4))
        ab = Alphabet(tuple("xyzt"[:rank]))
        gens = random_free_factor(rng, rank)
        length, g = rng.randint(1, 3), ()
        while len(g) < length:
            g = free_reduce(g + (rng.choice(sigma(rank)),))
        conjugated = [free_reduce(g + w + inverse_word(g)) for w in gens]
        if all(map(is_cyclically_reduced, conjugated)):
            continue
        fold = core_from_edges(ab, *naive_fold(conjugated, rank))
        if min(map(fold.degree, fold.vertices)) >= 2:
            out.append((conjugated, ab))
    return out


def test_conjugated_free_factors_that_fold_to_a_core_reduce_to_a_rose():
    """A generating set need not be cyclically reduced: a conjugate of a
    free factor whose fold is a core is decided, and every step's images
    fold to its contracted core."""
    ab3 = Alphabet(("x", "y", "z"))
    cases = [([parse_word(w, ab3) for w in ("zxz", "ZXXzyxzxz")], ab3)]
    cases += conjugated_free_factors(200)
    for gens, ab in cases:
        trace = pipeline.reduce_full(gens, ab)
        assert trace.status == "single_vertex_core"
        assert trace.steps
        assert all(pipeline.check_step(step) == (True, True, True) for step in trace.steps)


def test_check_step_checks_the_collapsed_automaton(example_core, example_gens):
    # moving the initial set keeps the matrix, so only the automaton
    # check can tell
    step = pipeline.reduce_step(example_core, example_gens)
    assert pipeline.check_step(step) == (True, True, True)
    good = step.aut_after
    moved = set(good.states) - set(good.initial)
    misplaced = Automaton(good.alphabet, good.states, good.rows, moved)
    assert pipeline.check_step(replace(step, aut_after=misplaced)) == (True, False, True)


def test_check_step_checks_the_order_of_the_collapsed_states(example_core, example_gens):
    # the NSE lead block and the collapsed OSE share this order
    step = pipeline.reduce_step(example_core, example_gens)
    s = step.m.collapse
    reversed_order = replace(step.m, collapse=s._replace(survivors=s.survivors[::-1]))
    with pytest.raises(CogrowthError, match="not in the OSE order"):
        pipeline.check_step(replace(step, m=reversed_order))
    # the same matrix with its states listed in another order is not M1
    order = list(range(step.m1.size))[::-1]
    position = {j: i for i, j in enumerate(order)}
    permuted = spectral.AdjacencyMatrix(
        tuple(tuple(sorted(position[j] for j in step.m1.rows[i])) for i in order),
        tuple(step.m1.states[i] for i in order),
    )
    assert pipeline.check_step(replace(step, m1=permuted)) == (False, True, True)


def test_next_automaton_is_the_collapsed_one_renamed(corpus_traces, ladder_traces):
    checked = 0
    for trace in corpus_traces + ladder_traces:
        for earlier, later in zip(trace.steps, trace.steps[1:]):
            assert later.aut_before is earlier.aut_after
        for step in trace.steps:
            rebuilt = build_automaton(step.core_after)
            assert step.aut_after.states == rebuilt.states
            assert transitions(step.aut_after) == transitions(rebuilt)
            assert step.aut_after.initial == rebuilt.initial
            assert pipeline.check_step(step) == (True, True, True)
            checked += 1
    assert checked >= 470


def test_core_map_is_the_rooted_isomorphism(corpus_traces, ladder_traces):
    """The walk from the roots gives the map the oracle finds, and, as
    `build_core` numbers by the oracle's preorder, the ids that preorder
    gives the contracted core."""
    checked = 0
    for trace in corpus_traces + ladder_traces:
        for step in trace.steps:
            contracted = collapse_core(step.core_before, step.collapse)
            after = step.core_after
            found = rooted_map(
                contracted.root, contracted.neighbours, after.root, after.neighbours
            )
            assert found == step.core_map == rooted_isomorphism(contracted, after)
            assert found == canonical_numbering(contracted.root, contracted.edges)[0]
            checked += 1
    assert checked == 475


def test_next_automaton_check_rejects_a_wrong_vertex_map(example_gens, example_alphabet):
    first = pipeline.reduce_full(example_gens, example_alphabet).steps[0]
    # a folded core has no rooted automorphism, so every other bijection
    # onto its vertices is not the walk from the roots
    for u, v in itertools.combinations(first.core_map, 2):
        swapped = {**first.core_map, u: first.core_map[v], v: first.core_map[u]}
        assert pipeline.check_step(replace(first, core_map=swapped)) == (True, True, False)
    # nor is a core numbered otherwise the folded one, though isomorphic
    after = first.core_after
    for u, v in itertools.combinations(after.vertices, 2):
        swap = {**{w: w for w in after.vertices}, u: v, v: u}
        renamed = core_from_edges(
            example_alphabet, swap[after.root], [(swap[o], l, swap[t]) for o, l, t in after.edges]
        )
        assert rooted_isomorphism(renamed, after) is not None
        assert pipeline.check_step(replace(first, core_after=renamed))[2] is False


def test_full_reduction_on_corpus_sample(corpus):
    statuses = set()
    for inst in corpus[7:27]:  # skip the hand-picked edge cases
        trace = pipeline.reduce_full(list(inst.gens), inst.alphabet)
        statuses.add(trace.status)
        for step in trace.steps:
            assert step.pf1.eigenvalue > step.pf.eigenvalue + 1e-8
    assert statuses == {"single_vertex_core"}


def test_consecutive_steps_solve_the_same_eigenvalue(corpus_traces):
    # the automaton after one collapse is the automaton before the next,
    # so the two brackets, each at most tol wide, enclose the same root
    tol = 1e-10  # reduce_full's default, which the traces use
    for trace in corpus_traces:
        for earlier, later in zip(trace.steps, trace.steps[1:]):
            assert abs(later.pf.eigenvalue - earlier.pf1.eigenvalue) <= 2 * tol
        # a carried eigenpair must still be one of its own step's matrix:
        # its Collatz-Wielandt bracket, recomputed here, stays tol wide
        for step in trace.steps:
            v = np.asarray(step.pf.eigenvector)
            ratios = (np.asarray(step.m.matrix) @ v) / v
            assert ratios.max() - ratios.min() <= tol
            assert ratios.min() <= step.pf.eigenvalue <= ratios.max()


def letters4():
    return st.integers(1, 4).flatmap(lambda g: st.sampled_from([g, -g]))


@given(st.lists(letters4(), max_size=14))
@settings(max_examples=150, deadline=None)
def test_membership_and_acceptance_agree(example_core, w):
    word = free_reduce(w)
    aut = build_automaton(example_core)
    count = accepts(aut, word)
    assert (count > 0) == membership(example_core, word)
    if word and count:
        assert count == aut.ambiguity


def test_membership_and_acceptance_agree_on_random_members(example_gens, example_core):
    # products of the generators are members; their reduced forms must be
    # accepted with full multiplicity
    rng = random.Random(3)
    aut = build_automaton(example_core)
    for _ in range(200):
        word = []
        for _ in range(rng.randint(1, 5)):
            g = list(example_gens[rng.randrange(len(example_gens))])
            if rng.random() < 0.5:
                g = [-l for l in reversed(g)]
            word.extend(g)
        word = free_reduce(word)
        assert membership(example_core, word)
        assert accepts(aut, word) == (aut.ambiguity if word else 1)


# subgroups of F3 that are not free factors
NOT_FREE_FACTORS = {
    "<x^2,y^2>": ("xx", "yy"),
    "<x^2,y>": ("xx", "y"),
    "<[x,y],z>": ("xyXY", "z"),
    "<xy,yx>": ("xy", "yx"),
}


@pytest.mark.parametrize("label", sorted(NOT_FREE_FACTORS))
def test_automorphic_images_of_a_non_free_factor_never_reduce_to_a_rose(label):
    """Being a free factor is invariant under Aut(F3), so no Whitehead
    image of these subgroups may reduce to a single-vertex core.  Images
    are resampled until every word is cyclically reduced, as
    random_free_factor does; each run ends in a terminal status or a
    typed error."""
    ab = Alphabet(("x", "y", "z"))
    base = [parse_word(w, ab) for w in NOT_FREE_FACTORS[label]]
    rng = random.Random(f"aut-invariance {label}")
    outcomes = Counter()
    stepped = 0
    for _ in range(100):
        while True:
            words = base
            for _ in range(rng.randint(1, 7)):
                phi = random_whitehead(rng, 3)
                words = [apply_whitehead(phi, w) for w in words]
            if all(w and is_cyclically_reduced(w) for w in words):
                if max(len(w) for w in words) <= 24:
                    break
        try:
            trace = pipeline.reduce_full(words, ab)
        except CogrowthError as exc:
            outcomes[type(exc).__name__] += 1
            continue
        outcomes[trace.status] += 1
        stepped += bool(trace.steps)
    assert "single_vertex_core" not in outcomes, outcomes
    assert stepped, "no image took a reduction step"
