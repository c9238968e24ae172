"""One reduction step, and the full iterated reduction.

A step takes a folded core: it picks the collapse automorphism, builds
the automaton and both matrices (row-transformed and directly collapsed,
checked against each other), folds the core of the images (checked
against the contracted core), solves the Perron-Frobenius eigenpairs of
both matrices, and certifies the strict gap.  The follow-up generators
are the cyclically reduced images of the input generators and their
core is carried into the next step, so iterating strictly shrinks the
core until a single-vertex core remains or no cut vertex is left.

The full reduction runs the construction forward.  Through the vertex
map `StepReport.core_map`, each step checks the previous collapsed
automaton against the one built from its core (`check_next_automaton`)
and reuses the previous collapsed eigenpair instead of solving its
matrix again, so each artifact is computed once and a reduction of k
steps solves k + 1 eigenpairs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .automaton import (
    Automaton,
    SStateSet,
    State,
    build_automaton,
    collapse_automaton,
)
from .core_graph import CollapseData, CoreGraph, build_core, canonical, collapse_core
from .errors import CogrowthError, NoCutVertexError
from .spectral import (
    AdjacencyMatrix,
    InequalityCertificate,
    PFResult,
    adjacency,
    certify_inequality,
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
    # m is indexed by the NSE, m1 by the collapsed automaton's OSE
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
    previous: StepReport | None = None,
) -> StepReport:
    """Run one collapse step on `core`, the folded core of `gens`.

    The next core is folded from the images of `gens` and must be the
    contracted core up to rooted isomorphism.

    `previous` is the step whose `core_after` is `core`.  Its collapsed
    automaton must be the one built from `core` (`check_next_automaton`),
    or CogrowthError is raised; its collapsed eigenpair, reordered to the
    NSE, is then `pf`, and only the collapsed matrix is solved.  Without
    it both matrices are solved.
    """
    phi, cd, aut, s, m = step_head(core)
    m1 = derive_m1(m, s)

    collapsed = collapse_automaton(aut, s)
    m1_direct = adjacency(collapsed, ose(collapsed))
    if m1.ordering.states != m1_direct.ordering.states or m1.rows != m1_direct.rows:
        raise CogrowthError(
            "row-transformed matrix disagrees with the collapsed automaton"
        )
    gens_after = tuple(cyclic_reduce(apply_whitehead(phi, w))[0] for w in gens)
    core_after = build_core(list(gens_after), core.alphabet)
    # build_core's numbering is canonical: its edges are their own form
    core_map, form = canonical(collapse_core(core, cd))
    if form != core_after.edges:
        raise CogrowthError("contracted core disagrees with the core of the images")

    if previous is None:
        pf = pf_eigen(m, tol=tol)
    else:
        # M is the previous M1 with its states renamed: the eigenpair
        # keeps its bracket
        rename = check_next_automaton(previous, aut)
        position = {rename[q]: i for i, q in enumerate(previous.m1.ordering.states)}
        vector = previous.pf1.eigenvector
        pf = replace(
            previous.pf1, eigenvector=[vector[position[q]] for q in m.ordering.states]
        )
    pf1 = pf_eigen(m1, tol=tol)
    certificate = certify_inequality(m, m1, s, pf1, u_choice=u_choice, tol=tol)
    return StepReport(
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
        m=m,
        m1=m1,
        pf=pf,
        pf1=pf1,
        certificate=certificate,
    )


def check_next_automaton(step: StepReport, aut: Automaton) -> dict[State, State]:
    """Rename `step.aut_after` through `step.core_map` and require its
    states, transitions, initial set and alphabet to be those of `aut`,
    the automaton built from `step.core_after`; raises CogrowthError
    otherwise.  Returns the state renaming, one-to-one onto `aut.states`."""
    prev = step.aut_after
    rename = {q: (step.core_map[q[0]], q[1]) for q in prev.states}
    transitions = {(rename[q], l): rename[t] for (q, l), t in prev.transitions.items()}
    if (
        prev.alphabet != aut.alphabet
        or sorted(rename.values()) != sorted(aut.states)
        or transitions != aut.transitions
        or {rename[q] for q in prev.initial} != aut.initial
    ):
        raise CogrowthError(
            "collapsed automaton of the previous step disagrees with the automaton of the core"
        )
    return rename


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
    step = None
    while core.n_vertices > 1:
        try:
            step = reduce_step(core, gens, u_choice=u_choice, tol=tol, previous=step)
        except NoCutVertexError:
            return ReductionTrace(tuple(steps), "no_cut_vertex", gens)
        steps.append(step)
        gens, core = step.gens_after, step.core_after
    return ReductionTrace(tuple(steps), "single_vertex_core", gens)
