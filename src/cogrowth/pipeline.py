"""One reduction step, and the full iterated reduction.

A step takes a folded core: it picks the collapse automorphism, builds
the automaton and both matrices (row-transformed and directly collapsed,
checked against each other), folds the core of the images (checked
against the contracted core), computes both eigenvalues, and certifies
the strict gap.  The follow-up generators are the cyclically reduced
images of the input generators and their core is carried into the next
step, so iterating strictly shrinks the core until a single-vertex core
remains or no cut vertex is left.  Each artifact is computed once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .automaton import (
    Automaton,
    SStateSet,
    build_automaton,
    collapse_automaton,
)
from .core_graph import CollapseData, CoreGraph, build_core, collapse_core, rooted_isomorphic
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
) -> StepReport:
    """Run one collapse step on `core`, the folded core of `gens`.

    The next core is folded from the images of `gens` and must be the
    contracted core up to rooted isomorphism.
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
    if not rooted_isomorphic(collapse_core(core, cd), core_after):
        raise CogrowthError("contracted core disagrees with the core of the images")

    pf = pf_eigen(m, tol=tol)
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
    while core.n_vertices > 1:
        try:
            step = reduce_step(core, gens, u_choice=u_choice, tol=tol)
        except NoCutVertexError:
            return ReductionTrace(tuple(steps), "no_cut_vertex", gens)
        steps.append(step)
        gens, core = step.gens_after, step.core_after
    return ReductionTrace(tuple(steps), "single_vertex_core", gens)
