"""One reduction step, and the full iterated reduction.

A step takes a folded core: it picks the collapse automorphism, builds
the automaton and both matrices (row-transformed and directly collapsed,
checked against each other), folds the core of the images and builds
its automaton, checks the contracted core and the collapsed automaton
against those two, solves the Perron-Frobenius eigenpairs of both
matrices, and certifies the strict gap.  The follow-up generators are
the cyclically reduced images of the input generators, and their core
and automaton are carried into the next step, so iterating strictly
shrinks the core until a single-vertex core remains or no cut vertex is
left.

The full reduction runs the construction forward.  Each step takes the
previous step's core, automaton and collapsed eigenpair, the last
reordered through the vertex map `StepReport.core_map`, instead of
building or solving them again, so each artifact is computed and
checked once and a reduction of k steps solves k + 1 eigenpairs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .automaton import Automaton, SStateSet, build_automaton, collapse_automaton
from .core_graph import CollapseData, CoreGraph, build_core, collapse_core, rooted_map
from .errors import CogrowthError, NoCutVertexError, PreconditionError
from .spectral import (
    AdjacencyMatrix,
    InequalityCertificate,
    PFResult,
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
    core_before: CoreGraph
    core_after: CoreGraph
    # vertex ids of the contracted core -> those of core_after
    core_map: dict[int, int]
    # the automata built from core_before and core_after; the collapsed
    # automaton, checked against aut_after, is not kept
    aut_before: Automaton
    aut_after: Automaton
    # m is indexed by the NSE of the collapse's S-states (m.collapse), m1
    # by the collapsed automaton's OSE, in the contracted core's vertex ids
    m: AdjacencyMatrix
    m1: AdjacencyMatrix
    pf: PFResult
    pf1: PFResult
    certificate: InequalityCertificate


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
    contracted core up to rooted isomorphism (found by one walk from the
    roots, `core_graph.rooted_map`); the collapsed automaton,
    renamed through that isomorphism, must be the automaton built from
    the next core.  CogrowthError is raised otherwise.

    `previous` is the step whose `core_after` is `core`, or
    PreconditionError is raised.  Its `aut_after` is then the automaton
    of `core`, and its collapsed eigenpair, reordered to the NSE, is
    `pf`, so only the collapsed matrix is solved.  Without it the
    automaton is built and both matrices are solved.
    """
    if previous is not None and previous.core_after is not core:
        raise PreconditionError("the previous step did not end at this core")
    # a core with no cut vertex raises here, before any automaton is built
    phi, cd = choose_automorphism(core)
    aut = build_automaton(core) if previous is None else previous.aut_after
    s = SStateSet.from_collapse(aut, cd)
    m = make_nse(aut, s)
    m1 = derive_m1(m)

    collapsed = collapse_automaton(aut, s)
    m1_direct = ose(collapsed)
    if m1.states != m1_direct.states or m1.rows != m1_direct.rows:
        raise CogrowthError(
            "row-transformed matrix disagrees with the collapsed automaton"
        )
    gens_after = tuple(cyclic_reduce(apply_whitehead(phi, w))[0] for w in gens)
    core_after = build_core(list(gens_after), core.alphabet)
    aut_after = build_automaton(core_after)
    contracted = collapse_core(core, cd)
    core_map = rooted_map(
        contracted.root, contracted.neighbours, core_after.root, core_after.neighbours
    )
    if core_map is None or len(core_map) != core_after.n_vertices:
        raise CogrowthError("contracted core disagrees with the core of the images")
    _check_collapsed(collapsed, core_map, aut_after)

    if previous is None:
        pf = pf_eigen(m, tol=tol)
    else:
        # M is the previous M1 with its states renamed: the eigenpair
        # keeps its bracket
        position = {
            (previous.core_map[v], letter): i
            for i, (v, letter) in enumerate(previous.m1.states)
        }
        vector = previous.pf1.eigenvector
        pf = replace(
            previous.pf1, eigenvector=[vector[position[q]] for q in m.states]
        )
    pf1 = pf_eigen(m1, tol=tol)
    certificate = certify_inequality(m, pf1, u_choice=u_choice, tol=tol)
    return StepReport(
        gens_before=tuple(gens),
        gens_after=gens_after,
        phi=phi,
        collapse=cd,
        core_before=core,
        core_after=core_after,
        core_map=core_map,
        aut_before=aut,
        aut_after=aut_after,
        m=m,
        m1=m1,
        pf=pf,
        pf1=pf1,
        certificate=certificate,
    )


def _check_collapsed(collapsed: Automaton, core_map: dict[int, int], aut: Automaton):
    """Rename `collapsed` through the vertex map `core_map` and require its
    states (one-to-one), transitions, initial set and alphabet to be
    those of `aut`; raises CogrowthError otherwise.  Renaming keeps the
    letters, so each row carried over must be `aut`'s row exactly."""
    position = [aut.index.get((core_map[v], l)) for v, l in collapsed.states]
    rename = position.__getitem__
    if (
        collapsed.alphabet != aut.alphabet
        or None in position
        or sorted(position) != list(range(aut.n_states))
        or [tuple(map(rename, row)) for row in collapsed.rows]
        != list(map(aut.rows.__getitem__, position))
        or {(core_map[v], letter) for v, letter in collapsed.initial} != aut.initial
    ):
        raise CogrowthError(
            "collapsed automaton disagrees with the automaton of the core of the images"
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
    step = None
    while core.n_vertices > 1:
        try:
            step = reduce_step(core, gens, u_choice=u_choice, tol=tol, previous=step)
        except NoCutVertexError:
            return ReductionTrace(tuple(steps), "no_cut_vertex", gens)
        steps.append(step)
        gens, core = step.gens_after, step.core_after
    return ReductionTrace(tuple(steps), "single_vertex_core", gens)
