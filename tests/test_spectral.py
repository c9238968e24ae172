import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from cogrowth import spectral
from cogrowth.automaton import (
    SStateSet,
    build_automaton,
    collapse_automaton,
    word_census,
)
from cogrowth.cli import matrix_csv, matrix_text, state_names
from cogrowth.core_graph import build_core, collapse_core
from cogrowth.pipeline import reduce_full
from cogrowth.errors import (
    CertificateFailureError,
    ConvergenceFailureError,
    DecompositionViolationError,
    EntryOverflowError,
    PreconditionError,
)
from cogrowth.spectral import (
    adjacency,
    certify_inequality,
    decompose,
    derive_m1,
    make_nse,
    ose,
    pf_eigen,
)
from cogrowth.whitehead import choose_automorphism
from cogrowth.words import (
    Alphabet,
    apply_whitehead,
    free_reduce,
    is_cyclically_reduced,
    parse_word,
)

import oracles
from corpus_sweep import random_whitehead

# the 12x12 transition matrix of the worked F_4 example under the NSE
EXAMPLE_M = [
    [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0],
    [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
    [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
    [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0],
]

# its collapse: rows of the removed tail states folded into their feeders
EXAMPLE_M1 = [
    [1, 0, 0, 0, 0, 1, 0, 0, 0, 1],
    [0, 1, 0, 0, 0, 1, 0, 0, 0, 1],
    [1, 1, 0, 0, 0, 0, 0, 0, 0, 1],
    [1, 1, 0, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 1, 0, 0],
]


@pytest.fixture(scope="module")
def example_spectral(example_core):
    aut = build_automaton(example_core)
    phi, cd = choose_automorphism(example_core)
    s = SStateSet.from_collapse(aut, cd)
    m = make_nse(aut, s)
    m1 = derive_m1(m)
    return aut, cd, s, m, m1


def S(ab, vertex, spec):
    return (vertex, parse_word(spec, ab)[0])


def test_nse_matches_worked_example(example_spectral, example_alphabet):
    _, _, _, m, _ = example_spectral
    ab = example_alphabet
    assert m.boundary is not None  # an NSE
    assert m.boundary == 10
    assert m.states == tuple(
        S(ab, v, w)
        for v, w in [
            (2, "x"), (1, "X"), (2, "Z"), (1, "t"),
            (3, "y"), (3, "z"),
            (4, "Y"), (4, "Z"),
            (5, "z"), (5, "T"),
            (2, "y"), (1, "Y"),
        ]
    )


def test_nse_rendering(example_spectral, example_alphabet):
    _, _, _, m, m1 = example_spectral
    assert state_names(m.states, example_alphabet) == [
        "(2,x)", "(1,x^-1)", "(2,z^-1)", "(1,t)", "(3,y)", "(3,z)",
        "(4,y^-1)", "(4,z^-1)", "(5,z)", "(5,t^-1)", "(2,y)", "(1,y^-1)",
    ]
    assert state_names(m1.states, example_alphabet) == [
        "(2,x)", "(2,x^-1)", "(2,z^-1)", "(2,t)", "(3,y)", "(3,z)",
        "(4,y^-1)", "(4,z^-1)", "(5,z)", "(5,t^-1)",
    ]


def test_nse_rejects_empty_state_set(example_core):
    from cogrowth.core_graph import CollapseData

    aut = build_automaton(example_core)
    # CollapseData itself rejects an empty collapse
    with pytest.raises(PreconditionError, match="at least one edge"):
        make_nse(aut, SStateSet.from_collapse(aut, CollapseData(a=2, e_o=())))


def test_adjacency_matches_reference_matrix(example_spectral):
    _, _, _, m, _ = example_spectral
    assert np.array_equal(m.matrix, np.array(EXAMPLE_M))


def test_row_and_column_sums(example_spectral):
    _, _, _, m, _ = example_spectral
    # row sums are out-degrees: the collapse-state rows have sum 2
    dense = np.asarray(m.matrix)
    assert dense[10].sum() == 2 and dense[11].sum() == 2
    # column sums are in-degrees
    aut = example_spectral[0]
    index = {q: i for i, q in enumerate(m.states)}
    indeg = [0] * 12
    for (_, _), t in oracles.transitions(aut).items():
        indeg[index[t]] += 1
    assert list(dense.sum(axis=0)) == indeg


def test_decomposition_blocks(example_spectral, example_alphabet):
    _, _, _, m, _ = example_spectral
    decompose(m)
    dense = np.asarray(m.matrix)
    u, o = dense[:10, 10:], dense[10:, 10:]
    assert o.shape == (2, 2) and not o.any()
    assert (u.sum(axis=1) <= 1).all()
    # U by columns: the (2,y) column has its ones in rows (1,x^-1) and (1,t)
    assert [tuple(np.nonzero(col)[0]) for col in u.T] == [(1, 3), (0, 2)]


def test_decomposition_on_corpus(corpus):
    from cogrowth.errors import NoCutVertexError

    for inst in corpus[:60]:
        g = build_core(list(inst.gens), inst.alphabet)
        if g.n_vertices < 2:
            continue
        try:
            phi, cd = choose_automorphism(g)
        except NoCutVertexError:
            continue
        aut = build_automaton(g)
        s = SStateSet.from_collapse(aut, cd)
        decompose(make_nse(aut, s))


def test_derive_m1_rejects_a_nonzero_collapse_block(example_spectral):
    _, _, _, m, _ = example_spectral
    broken = np.asarray(m.matrix)
    b = m.boundary
    broken[b, b + 1] = 1  # the first collapse state feeds the second
    with pytest.raises(DecompositionViolationError, match="block O"):
        derive_m1(oracles.from_array(broken, m.states, m.collapse))


@pytest.mark.parametrize(
    "cells, error, match",
    [
        # (1,x^-1) feeds both collapse states
        ([(1, 10), (1, 11)], DecompositionViolationError, "more than one entry"),
        # (1,x^-1) feeds (2,y), whose row has its 1 in the (3,z) column too
        ([(1, 5)], EntryOverflowError, "above 1"),
    ],
    ids=["two-entries-in-u", "entry-above-one"],
)
def test_derive_m1_rejects_a_lead_row_it_cannot_transform(
    example_spectral, cells, error, match
):
    _, _, _, m, _ = example_spectral
    broken = np.asarray(m.matrix)
    for cell in cells:
        broken[cell] = 1
    with pytest.raises(error, match=match):
        derive_m1(oracles.from_array(broken, m.states, m.collapse))


def test_derive_m1_matches_frozen_matrix(example_spectral):
    _, _, _, _, m1 = example_spectral
    assert np.array_equal(m1.matrix, np.array(EXAMPLE_M1))


def test_derive_m1_equals_collapsed_adjacency(example_spectral):
    aut, _, s, m, m1 = example_spectral
    collapsed = collapse_automaton(aut, s)
    direct = ose(collapsed)
    assert direct.states == m1.states
    assert np.array_equal(direct.matrix, m1.matrix)
    # both are OSE matrices
    assert direct.collapse is None and m1.collapse is None and m1.boundary is None


def test_nse_matrix_carries_its_collapse(example_spectral):
    aut, _, s, m, _ = example_spectral
    assert m.collapse is s
    assert m.states[m.boundary:] == s.elements
    # the same list through adjacency gives the same rows, but no collapse
    plain = adjacency(aut, list(m.states))
    assert plain.rows == m.rows and plain.states == m.states
    assert plain.collapse is None and plain.boundary is None


def test_adjacency_rejects_a_list_that_does_not_cover_the_states(example_spectral):
    aut = example_spectral[0]
    for states in (aut.states[1:], aut.states[:-1] + aut.states[:1]):
        with pytest.raises(PreconditionError, match="does not cover"):
            adjacency(aut, states)


def test_nse_steps_reject_an_ose_matrix(example_spectral):
    aut, _, _, m, m1 = example_spectral
    for call in (
        lambda: decompose(ose(aut)),
        lambda: derive_m1(ose(aut)),
        lambda: certify_inequality(ose(aut), pf_eigen(m1)),
        lambda: derive_m1(m1),
    ):
        with pytest.raises(PreconditionError, match="matrix must be indexed by the NSE"):
            call()


def test_decompose_rejects_a_tail_other_than_the_collapse_states(example_spectral):
    _, _, s, m, _ = example_spectral
    # the last two states swapped: the tail no longer lists s's elements in order
    order = list(range(m.size - 2)) + [m.size - 1, m.size - 2]
    swapped = [[m.matrix[i][j] for j in order] for i in order]
    with pytest.raises(PreconditionError, match="NSE tail"):
        decompose(oracles.from_array(swapped, [m.states[i] for i in order], s))


def test_lead_block_below_m1_with_prescribed_strict_positions(example_spectral):
    aut, _, s, m, m1 = example_spectral
    dense1 = np.asarray(m1.matrix)
    lead = np.asarray(m.matrix)[:10, :10]
    assert (lead <= dense1).all()
    expected_strict = set()
    index = {q: i for i, q in enumerate(m.states)}
    back = oracles.predecessors(aut, s.elements)
    for state in s.elements:
        feeders = [index[q] for q in back[state]]
        targets = [index[t] for _, t in oracles.successors(aut, state)]
        expected_strict |= {(i, j) for i in feeders for j in targets}
    actual_strict = {
        (i, j) for i, j in zip(*np.nonzero(dense1 - lead))
    }
    assert actual_strict == expected_strict


def test_pf_eigen_reference_values(example_spectral):
    _, _, _, m, m1 = example_spectral
    pf = pf_eigen(m)
    pf1 = pf_eigen(m1)
    assert pf.eigenvalue == pytest.approx(1.45, abs=0.005)
    assert pf1.eigenvalue == pytest.approx(1.64, abs=0.005)
    assert pf.residual <= 1e-10 and pf1.residual <= 1e-10
    assert min(pf.eigenvector) > 0 and min(pf1.eigenvector) > 0
    assert pf1.eigenvalue - pf.eigenvalue > 0.1


def test_pf_eigenvector_satisfies_eigen_equations(example_spectral):
    _, _, _, _, m1 = example_spectral
    pf1 = pf_eigen(m1)
    v = np.asarray(pf1.eigenvector) / pf1.eigenvector[5]
    # exact solution: entries are powers of the eigenvalue plus a pair of
    # equal entries 2/(lam-1)
    lam = pf1.eigenvalue
    expected = [
        2 / (lam - 1), 2 / (lam - 1), lam**3, lam**3,
        lam**2, 1.0, lam, lam, lam**2, 1.0,
    ]
    assert np.allclose(v, expected, atol=1e-8)


def test_pf_eigen_on_permutation_cycle():
    states = tuple((i, 1) for i in range(1, 5))
    cycle = np.zeros((4, 4), dtype=np.int64)
    for i in range(4):
        cycle[i, (i + 1) % 4] = 1
    pf = pf_eigen(oracles.from_array(cycle, states))
    assert pf.eigenvalue == pytest.approx(1.0, abs=1e-9)


def _matrix(rows):
    states = tuple((i, 1) for i in range(1, len(rows) + 1))
    return oracles.from_array(rows, states)


@pytest.mark.parametrize(
    "rows, error, match",
    [
        ([[1, 1], [0, 1]], None, None),
        # a row with no entries, which no automaton has, is refused at once
        ([[0, 1, 0], [0, 0, 1], [0, 0, 0]], PreconditionError, "row 3 .* no entries"),
        ([[1, 1], [0, 2]], None, None),
        # the Perron vector (1, 0) is not positive: no bracket narrows to it
        ([[2, 1], [0, 1]], ConvergenceFailureError, "stalled at bracket width"),
    ],
    ids=["unipotent", "nilpotent", "upper-2", "upper-singular"],
)
def test_pf_eigen_on_reducible_input_is_sound_or_fails(rows, error, match):
    # irreducibility is the callers' to establish; without it the
    # bracket still holds the spectral radius, or the solve gives up
    m = _matrix(rows)
    tol = 1e-10
    if error:
        with pytest.raises(error, match=match):
            pf_eigen(m, tol=tol)
        return
    radius = max(abs(np.linalg.eigvals(np.asarray(m.matrix, dtype=float))))
    assert abs(pf_eigen(m, tol=tol).eigenvalue - radius) <= tol


@pytest.mark.parametrize(
    "rows", [[[1, 1]], [[1, -1], [1, 1]], [[1, 0.5], [1, 1]]]
)
def test_from_array_rejects_a_matrix_that_is_not_square_nonnegative_integral(rows):
    with pytest.raises(ValueError):
        _matrix(rows)


@pytest.mark.parametrize("tol", [0.0, float("nan"), -1.0])
def test_pf_eigen_stops_when_the_iterate_stalls(example_spectral, tol):
    # no bracket reaches these tolerances: Newton's method stops where
    # rounding ends the narrowing, and the bracket on M is too wide
    _, _, _, m, _ = example_spectral
    with pytest.raises(ConvergenceFailureError, match="stalled"):
        pf_eigen(m, tol=tol)


def test_pf_eigen_agrees_with_charpoly_bisection(example_spectral):
    _, _, _, m, m1 = example_spectral
    for mat in (m, m1):
        exact = oracles.charpoly_pf(mat.matrix)
        assert abs(pf_eigen(mat).eigenvalue - exact) <= 1e-9


def _ose_matrix(gens, alphabet):
    aut = build_automaton(build_core(list(gens), alphabet))
    return ose(aut)


def _grown_free_factor(min_vertices, seed):
    """Image of the partial basis {x, y} of F4 under a seeded chain of
    Whitehead moves, grown until its core has `min_vertices` vertices."""
    ab = Alphabet(tuple("xyzt"))
    rng = random.Random(seed)
    gens = ((1,), (2,))
    while build_core(list(gens), ab).n_vertices < min_vertices:
        image = tuple(apply_whitehead(random_whitehead(rng, 4), w) for w in gens)
        if all(is_cyclically_reduced(w) for w in image):
            gens = image
    return gens, ab


@pytest.fixture(scope="module")
def corpus_steps(corpus_traces):
    return [step for trace in corpus_traces for step in trace.steps]


@pytest.fixture(scope="module")
def ladder_steps(ladder_traces):
    return [step for trace in ladder_traces for step in trace.steps]


@pytest.fixture(scope="module")
def corpus_matrices(corpus_steps):
    """Both matrices of every step of every corpus reduction."""
    return [m for step in corpus_steps for m in (step.m, step.m1)]


@pytest.fixture(scope="module")
def ladder_matrices(ladder_steps):
    """Both matrices of every step of every ladder reduction."""
    return [m for step in ladder_steps for m in (step.m, step.m1)]


def _fold_family(n):
    """x^n y x^-n z, x^n z x^-n t in F4."""
    x, y, z, t = 1, 2, 3, 4
    return [(x,) * n + (y,) + (-x,) * n + (z,), (x,) * n + (z,) + (-x,) * n + (t,)]


@pytest.fixture(scope="module")
def fold_matrices(example_alphabet):
    """Both matrices of every step of reducing the fold family at n = 30.
    On two of them Newton's full step is rejected, and the bracket
    reaches tol only through a halved step."""
    trace = reduce_full(_fold_family(30), example_alphabet)
    return [m for step in trace.steps for m in (step.m, step.m1)]


def test_pf_eigen_is_within_tol_of_eigvals_on_large_matrices(example_alphabet):
    # lambda near 1 leaves power iteration almost no spectral gap; the
    # fold family at n = 100 has order 608
    tol = 1e-10
    for m in (_ose_matrix(_fold_family(100), example_alphabet),
              _ose_matrix(*_grown_free_factor(100, 0))):
        pf = pf_eigen(m, tol=tol)
        dense, v = np.asarray(m.matrix, dtype=float), np.asarray(pf.eigenvector)
        exact = max(np.linalg.eigvals(dense).real)
        ratios = (dense @ v) / v
        lo, hi = ratios.min(), ratios.max()
        assert m.size >= 200
        assert abs(pf.eigenvalue - exact) <= tol
        assert lo <= pf.eigenvalue <= hi and hi - lo <= tol


# the relative spacing of doubles: twice the unit roundoff
ULP = Fraction(1, 2**52)


def _check_eigenpair(m, tol):
    # Newton's method on the kernel converges quadratically once it takes
    # full steps: a return to linear convergence needs tens of
    # iterations on these matrices
    pf = pf_eigen(m, tol=tol)
    assert pf.iterations <= 20
    assert max(pf.eigenvector) == 1.0
    assert pf.residual <= tol
    # exact arithmetic on the returned floats: the exact ratio (Mv)_i
    # / v_i is within half the bracket of lambda, up to the rounding
    # of the computed ratio (a sum of d terms, then a division: at
    # most d roundings) and of the bracket's midpoint (one more)
    lam, half = Fraction(pf.eigenvalue), Fraction(pf.residual) / 2
    v = [Fraction(x) for x in pf.eigenvector]
    for row, x in zip(m.rows, v):
        mv = sum(v[j] for j in row)
        rounding = (len(row) + 1) * ULP * max(mv, lam * x)
        assert abs(mv - lam * x) <= x * half + rounding


@pytest.mark.parametrize("tol", [1e-6, 1e-10])
def test_pf_eigen_on_corpus_matrices(corpus_matrices, tol):
    for m in corpus_matrices:
        _check_eigenpair(m, tol)


@pytest.mark.parametrize("tol", [1e-6, 1e-10])
def test_pf_eigen_on_ladder_matrices(ladder_matrices, tol):
    # chains of forced states up to hundreds of states long
    for m in ladder_matrices:
        _check_eigenpair(m, tol)


@pytest.mark.parametrize("tol", [1e-6, 1e-10])
def test_pf_eigen_on_fold_matrices(fold_matrices, tol):
    # lambda near 1, and Newton steps that are only taken halved
    for m in fold_matrices:
        _check_eigenpair(m, tol)


def test_pf_eigen_agrees_with_ihara_bass_on_the_ladder(ladder_steps):
    # the Ihara-Bass pencil of the core never builds a transition matrix
    assert len(ladder_steps) > 50
    for step in ladder_steps:
        assert abs(step.pf.eigenvalue - oracles.ihara_bass_pf(step.core_before)) <= 1e-9
        assert abs(step.pf1.eigenvalue - oracles.ihara_bass_pf(step.core_after)) <= 1e-9


def test_derive_m1_equals_the_dense_row_transform(corpus_steps, ladder_steps):
    for step in corpus_steps + ladder_steps:
        expected = oracles.dense_row_transform(step.m.matrix, step.m.boundary)
        assert np.array_equal(step.m1.matrix, expected)


def test_forced_states_meet_the_eigen_equation(corpus_steps, ladder_steps):
    # a state q with one successor t other than itself has (M1 v)_q = v_t,
    # so |v_t - lambda1 v_q| <= residual v_q; divided by v_q, both sides
    # are exact in floating point (the ratio lies in the bracket)
    for step in corpus_steps + ladder_steps:
        aut, pf1 = collapse_automaton(step.aut_before, step.m.collapse), step.pf1
        index = {q: i for i, q in enumerate(step.m1.states)}
        v = pf1.eigenvector
        for q in aut.states:
            (successor, *others) = [t for _, t in oracles.successors(aut, q)]
            if others or successor == q:
                continue
            i, j = index[q], index[successor]
            assert abs(v[j] / v[i] - pf1.eigenvalue) <= pf1.residual


@pytest.mark.parametrize("tol", [1e-10, 1e-6])
def test_pf_eigen_matches_the_state_by_state_reference(
    corpus_matrices, ladder_matrices, fold_matrices, tol
):
    # two brackets at most tol wide, each around the Perron root: their
    # midpoints are at most tol apart
    for m in corpus_matrices + ladder_matrices + fold_matrices:
        assert abs(pf_eigen(m, tol).eigenvalue - oracles.noda_reference(m, tol).eigenvalue) <= tol


@pytest.mark.parametrize("length", [10, 30, 100])
def test_pf_eigen_on_long_chains(length):
    # C(L) = <x, y, z t^L>: its core is a root with loops x and y and one
    # cycle of length L + 1, so the eigenvector falls as about 3^-L along
    # the cycle's chains of forced states; the first step's gap is about
    # 3^-L too
    ab = Alphabet(tuple("xyzt"))
    core = build_core([(1,), (2,), (3,) + (4,) * length], ab)
    _, cd = choose_automorphism(core)
    aut = build_automaton(core)
    m = make_nse(aut, SStateSet.from_collapse(aut, cd))
    after = collapse_core(core, cd)
    assert abs(pf_eigen(m).eigenvalue - oracles.ihara_bass_pf(core)) <= 1e-9
    assert abs(pf_eigen(derive_m1(m)).eigenvalue - oracles.ihara_bass_pf(after)) <= 1e-9


def test_pf_eigen_rejects_an_empty_matrix():
    with pytest.raises(PreconditionError):
        pf_eigen(spectral.AdjacencyMatrix((), ()))


def test_pf_eigen_reports_a_singular_solve_as_a_convergence_failure(
    example_spectral, monkeypatch
):
    _, _, _, m, _ = example_spectral

    def singular(a, b):
        raise ConvergenceFailureError("no nonzero pivot")

    # Newton's method stops at its start, whose bracket on M is too wide
    monkeypatch.setattr(spectral, "_solve", singular)
    with pytest.raises(ConvergenceFailureError, match="stalled .* after 1 steps"):
        pf_eigen(m)


def test_pf_eigen_stops_when_rounding_breaks_positivity(example_spectral, monkeypatch):
    # a solve that points the wrong way: after one halved step no
    # length narrows the bracket, and Newton's method stops short of tol
    _, _, _, m, _ = example_spectral
    monkeypatch.setattr(spectral, "_solve", lambda a, b: [-x for x in b])
    with pytest.raises(ConvergenceFailureError, match="stalled"):
        pf_eigen(m)


def test_solve_agrees_with_numpy_on_m_matrices():
    # s I - B with B >= 0 and s above its spectral radius: a nonsingular
    # M-matrix, at orders far above the workloads' kernels (at most 12)
    for order in range(1, 41):
        rng = np.random.default_rng(order)
        b = rng.random((order, order)) * (rng.random((order, order)) < 0.3)
        shift = 1.01 * max(abs(np.linalg.eigvals(b))) + 0.01
        a, rhs = shift * np.eye(order) - b, rng.random(order) + 0.1
        expected = np.linalg.solve(a, rhs)
        assert np.allclose(spectral._solve(a.tolist(), rhs.tolist()), expected,
                           rtol=1e-9, atol=0), order


@pytest.mark.parametrize(
    "a", [[[1.0, 2.0], [2.0, 4.0]], [[0.0, 1.0], [0.0, 1.0]]], ids=["rank-one", "zero-column"]
)
def test_solve_reports_a_singular_system(a):
    with pytest.raises(ConvergenceFailureError, match="singular"):
        spectral._solve(a, [1.0, 1.0])


def test_pf_eigen_on_a_subgroup_of_rank_25():
    # 25 random words of length 8 in F4: a kernel of 92 branch states
    rng = random.Random(0)
    gens = []
    while len(gens) < 25:
        w = free_reduce(rng.choice((1, 2, 3, 4, -1, -2, -3, -4)) for _ in range(8))
        if w and is_cyclically_reduced(w):
            gens.append(w)
    m = _ose_matrix(gens, Alphabet(tuple("xyzt")))
    _, depth = spectral._forced_chains(m.rows)
    assert depth.count(0) >= 80
    tol = 1e-10
    pf = pf_eigen(m, tol=tol)
    exact = max(np.linalg.eigvals(np.asarray(m.matrix, dtype=float)).real)
    assert abs(pf.eigenvalue - exact) <= tol


def test_certificate_with_override_of_three(example_spectral):
    _, _, _, m, m1 = example_spectral
    cert = certify_inequality(m, pf_eigen(m1), u_override=3.0)
    assert cert.strict_rows == (1, 2, 3, 4, 11, 12)
    for state, (value, lower, upper) in cert.s_values.items():
        assert value == 3.0
        assert lower == pytest.approx(2.5126, abs=5e-4)
        assert upper == pytest.approx(4.1221, abs=5e-4)
    # equality within 1e-9 on the untouched rows
    lam1 = cert.lam1
    mu = np.asarray(m.matrix) @ np.asarray(cert.u)
    for row in range(4, 10):
        assert abs(mu[row] - lam1 * cert.u[row]) <= 1e-9


@pytest.mark.parametrize(
    "choice,expected_rows",
    [(1, (1, 2, 3, 4)), (2, (11, 12)), (3, (1, 2, 3, 4, 11, 12))],
)
def test_certificate_choices(example_spectral, choice, expected_rows):
    _, _, _, m, m1 = example_spectral
    cert = certify_inequality(m, pf_eigen(m1), u_choice=choice)
    assert cert.strict_rows == expected_rows
    assert cert.u_choice == choice


def test_certificate_rejects_out_of_range_override(example_spectral):
    _, _, _, m, m1 = example_spectral
    pf1 = pf_eigen(m1)
    for u, message in [
        (100.0, r"\(Mu\) exceeds lam1\*u at NSE row 1"),
        (0.0, "comparison vector is not strictly positive"),
        (float("inf"), "no row has strict slack"),
    ]:
        with pytest.raises(CertificateFailureError, match=message):
            certify_inequality(m, pf1, u_override=u)


def test_certificate_rejects_an_eigenpair_of_another_matrix(example_spectral):
    _, _, _, m, m1 = example_spectral
    with pytest.raises(PreconditionError):
        certify_inequality(m, pf_eigen(m))


@pytest.mark.parametrize("entry", [0.0, math.nan, math.inf], ids=["zero", "nan", "inf"])
def test_certificate_rejects_an_eigenvector_entry_that_is_not_positive_and_finite(
    example_spectral, entry
):
    _, _, _, m, m1 = example_spectral
    pf1 = pf_eigen(m1)
    vector = pf1.eigenvector[:3] + [entry] + pf1.eigenvector[4:]
    with pytest.raises(PreconditionError):
        certify_inequality(m, replace(pf1, eigenvector=vector))


@pytest.mark.parametrize("lam1", [0.0, math.nan, math.inf], ids=["zero", "nan", "inf"])
def test_certificate_rejects_an_eigenvalue_that_is_not_positive_and_finite(
    example_spectral, lam1
):
    _, _, _, m, m1 = example_spectral
    with pytest.raises(PreconditionError):
        certify_inequality(m, replace(pf_eigen(m1), eigenvalue=lam1))


def test_census_growth_tracks_cogrowth(example_core, example_spectral):
    # the per-length root estimates approach the eigenvalue from below;
    # their running maximum is within 5% by length 20
    aut = build_automaton(example_core)
    _, _, _, m, _ = example_spectral
    alpha = pf_eigen(m).eigenvalue
    counts = word_census(aut, 20)
    best = max(
        counts[n - 1] ** (1.0 / n) for n in range(1, 21) if counts[n - 1]
    )
    assert abs(best - alpha) / alpha < 0.05


def test_matrix_text_keeps_columns_apart_from_order_100(example_alphabet):
    n = 120
    states = tuple((i, 1) for i in range(1, n + 1))
    cycle = [[int(j == (i + 1) % n) for j in range(n)] for i in range(n)]
    text = matrix_text(oracles.from_array(cycle, states), example_alphabet)
    _, header, *body = text.splitlines()
    assert header.split() == [str(j) for j in range(1, n + 1)]
    assert {len(line) for line in body} == {len(header)}
    assert [line.split()[1:] for line in body] == [
        [str(x) for x in row] for row in cycle
    ]


def test_matrix_exports(example_spectral, example_alphabet):
    _, _, _, m, _ = example_spectral
    csv_text = matrix_csv(m, example_alphabet)
    lines = csv_text.strip().split("\n")
    assert len(lines) == 13
    assert lines[0].count('"(') == 12  # quoted state names in the header
    text = matrix_text(m, example_alphabet)
    assert " | " in text or "|" in text
    assert text.count("-" * 10) >= 1
