"""One reduction step, and the full iterated reduction.

A step takes a folded core: it picks the collapse automorphism, builds
the automaton and both matrices (row-transformed and directly collapsed,
checked against each other), folds the core of the images (checked
against the contracted core), solves the Perron-Frobenius eigenpairs of
both matrices, and certifies the strict gap.  The follow-up generators
are the cyclically reduced images of the input generators and their
core is carried into the next step, so iterating strictly shrinks the
core until a single-vertex core remains or no cut vertex is left.

The full reduction runs the construction forward: the collapsed
automaton and its eigenpair, renamed to the vertex ids of the next core,
start the next step.  That step checks the renamed automaton against the
one built from its core and reuses the eigenpair instead of solving its
matrix again, so each artifact is computed once and a reduction of k
steps solves k + 1 eigenpairs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .automaton import (
    Automaton,
    SStateSet,
    build_automaton,
    collapse_automaton,
)
from .core_graph import CollapseData, CoreGraph, build_core, collapse_core, rooted_isomorphism
from .errors import CogrowthError, NoCutVertexError
from .spectral import (
    AdjacencyMatrix,
    InequalityCertificate,
    PFResult,
    StateOrdering,
    adjacency,
    certify_inequality,
    decompose,
    derive_m1,
    make_nse,
    ose,
    pf_eigen,
)
from .whitehead import choose_automorphism
from .words import Alphabet, WhiteheadAutomorphism, Word, apply_whitehead, cyclic_reduce


@dataclass(frozen=True)
class StepReport:
    """Everything one reduction step produces."""

    alphabet: Alphabet
    gens_before: tuple[Word, ...]
    gens_after: tuple[Word, ...]
    phi: WhiteheadAutomorphism
    collapse: CollapseData
    s_states: SStateSet
    core_before: CoreGraph
    core_after: CoreGraph
    # vertex ids of the contracted core -> those of core_after
    core_map: dict[int, int]
    aut_before: Automaton
    aut_after: Automaton
    ose_before: StateOrdering
    nse: StateOrdering
    ose_after: StateOrdering
    m: AdjacencyMatrix
    m1: AdjacencyMatrix
    pf: PFResult
    pf1: PFResult
    certificate: InequalityCertificate


def step_head(core: CoreGraph):
    """The collapse automorphism, its collapse data, the automaton, the
    collapse states and the matrix under the NSE; raises NoCutVertexError
    when no step exists."""
    phi, cd = choose_automorphism(core)
    aut = build_automaton(core)
    s = SStateSet.from_collapse(aut, cd)
    return phi, cd, aut, s, adjacency(aut, make_nse(aut, s))


def reduce_step(
    core: CoreGraph,
    gens,
    *,
    u_choice: int = 3,
    tol: float = 1e-10,
    carried: tuple[Automaton, PFResult] | None = None,
) -> StepReport:
    """Run one collapse step on `core`, the folded core of `gens`.

    The next core is folded from the images of `gens` and must be the
    contracted core up to rooted isomorphism.

    `carried` is the previous step's collapsed automaton and eigenpair as
    `carry_forward` renames them.  The automaton must equal the one built
    from `core` (states, transitions and initial set), or CogrowthError
    is raised; the eigenpair, reordered to the NSE, is then `pf`, and only
    the collapsed matrix is solved.  Without it both matrices are solved.
    """
    phi, cd, aut, s, m = step_head(core)
    decompose(m, s)
    m1 = derive_m1(m, s)

    collapsed = collapse_automaton(aut, s)
    m1_direct = adjacency(collapsed, ose(collapsed))
    if m1.ordering.states != m1_direct.ordering.states or not np.array_equal(
        m1.matrix, m1_direct.matrix
    ):
        raise CogrowthError(
            "row-transformed matrix disagrees with the collapsed automaton"
        )
    gens_after = tuple(cyclic_reduce(apply_whitehead(phi, w))[0] for w in gens)
    core_after = build_core(list(gens_after), core.alphabet)
    core_map = rooted_isomorphism(collapse_core(core, cd), core_after)
    if core_map is None:
        raise CogrowthError("contracted core disagrees with the core of the images")

    if carried is None:
        pf = pf_eigen(m, tol=tol)
    else:
        pf = _reuse(carried, aut, m.ordering)
    pf1 = pf_eigen(m1, tol=tol)
    certificate = certify_inequality(m, m1, s, pf1, u_choice=u_choice, tol=tol)
    return StepReport(
        alphabet=core.alphabet,
        gens_before=tuple(gens),
        gens_after=gens_after,
        phi=phi,
        collapse=cd,
        s_states=s,
        core_before=core,
        core_after=core_after,
        core_map=core_map,
        aut_before=aut,
        aut_after=collapsed,
        ose_before=ose(aut),
        nse=m.ordering,
        ose_after=m1.ordering,
        m=m,
        m1=m1,
        pf=pf,
        pf1=pf1,
        certificate=certificate,
    )


def _reuse(
    carried: tuple[Automaton, PFResult], aut: Automaton, ordering: StateOrdering
) -> PFResult:
    """The carried eigenpair reordered to `ordering`, once the carried
    automaton is checked to be `aut`: then M is the carried M1 with its
    states renamed, and the eigenpair keeps its bracket."""
    prev, pf = carried
    if (prev.alphabet, prev.states, prev.transitions, prev.initial) != (
        aut.alphabet,
        aut.states,
        aut.transitions,
        aut.initial,
    ):
        raise CogrowthError(
            "collapsed automaton of the previous step disagrees with the automaton of the core"
        )
    position = {q: i for i, q in enumerate(aut.states)}
    return replace(pf, eigenvector=pf.eigenvector[[position[q] for q in ordering.states]])


def carry_forward(step: StepReport) -> tuple[Automaton, PFResult]:
    """`step.aut_after` and `step.pf1` renamed to the vertex ids of
    `step.core_after`, the eigenvector listed in the renamed automaton's
    state order: what the next step starts from."""
    aut = step.aut_after
    rename = {q: (step.core_map[q[0]], q[1]) for q in aut.states}
    renamed = Automaton(
        aut.alphabet,
        rename.values(),
        {(rename[q], letter): rename[t] for (q, letter), t in aut.transitions.items()},
        (rename[q] for q in aut.initial),
    )
    # pf1 is indexed by the collapsed automaton's OSE, aut.states
    position = {q: i for i, q in enumerate(rename.values())}
    vector = step.pf1.eigenvector[[position[q] for q in renamed.states]]
    return renamed, replace(step.pf1, eigenvector=vector)


@dataclass(frozen=True)
class ReductionTrace:
    """Steps run until a terminal status.

    Statuses: ``single_vertex_core`` (the subgroup reduced to a wedge of
    basis loops: a free factor) and ``no_cut_vertex`` (certified not a
    free factor).  Every input reaches one of them, since a cut vertex
    always gives a step (see the whitehead module).
    """

    steps: tuple[StepReport, ...]
    status: str
    final_gens: tuple[Word, ...]


def reduce_full(
    gens, alphabet: Alphabet, u_choice: int = 3, tol: float = 1e-10
) -> ReductionTrace:
    gens = tuple(gens)
    core = build_core(list(gens), alphabet)
    steps: list[StepReport] = []
    carried = None
    while core.n_vertices > 1:
        try:
            step = reduce_step(core, gens, u_choice=u_choice, tol=tol, carried=carried)
        except NoCutVertexError:
            return ReductionTrace(tuple(steps), "no_cut_vertex", gens)
        steps.append(step)
        gens, core = step.gens_after, step.core_after
        if core.n_vertices > 1:
            carried = carry_forward(step)
    return ReductionTrace(tuple(steps), "single_vertex_core", gens)
