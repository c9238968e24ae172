"""One reduction step, and the full iterated reduction.

A step derives the next core, automaton and matrix as the paper does: it
contracts the collapse edges of the core (Ascari) under `build_core`'s
ids, builds that core's automaton, and derives the collapsed matrix M1
from the NSE matrix M by the row transform; it then solves both
Perron-Frobenius eigenpairs and certifies the strict gap.  The next
generators are the images conjugated by the one word c that the root's
case of the trichotomy gives (`reduce_step`).  The second route, which
folds the images, collapses the automaton and reads M1 off it, is
`check_step`: `cogrowth verify` and the tests run it, a step does not.

`reduce_full` hands each step the previous step's core, automaton and
collapsed eigenpair, the last reordered through `StepReport.core_map`,
so each artifact is computed once and k steps solve k + 1 eigenpairs;
the core shrinks until it has a single vertex or no cut vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .automaton import Automaton, SStateSet, build_automaton, collapse_automaton, isomorphic
from .core_graph import CollapseData, CoreGraph, build_core, collapse_core, renumber, rooted_map
from .errors import CogrowthError, NoCutVertexError, PreconditionError
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
from .words import (
    Alphabet,
    WhiteheadAutomorphism,
    Word,
    apply_whitehead,
    free_reduce,
    inverse_word,
)


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
    # the automata built from core_before and core_after
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

    The next generators are c^-1 phi(g) c, with c = a when every label at
    the root lies in A + {a} (cases 2 and 3 of the trichotomy), where each
    generator leaves the root by a letter l in A + {a}, so phi(l) starts
    with a, and returns by a letter m with m^-1 in A + {a}, so phi(m)
    ends with a^-1; c is empty otherwise.  CogrowthError is raised unless
    M1, renamed through `core_map`, is the matrix of the next core's
    automaton, and unless the next generators read closed paths at the
    next root.  They then generate c^-1 phi(H) c inside the conjugate of
    phi(H) that the next core carries (Ascari), and an ascending chain
    of conjugates of bounded rank is stationary (Takahasi), so the two
    are equal.

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
    core_after, core_map = renumber(collapse_core(core, cd))
    aut_after = build_automaton(core_after)
    renamed = [(core_map[v], l) for v, l in m1.states]
    if set(renamed) != aut_after.index.keys() or adjacency(aut_after, renamed).rows != m1.rows:
        raise CogrowthError("row-transformed matrix disagrees with the collapsed automaton")
    c = (phi.a,) if core.neighbours(core.root).keys() <= phi.members | {phi.a} else ()
    # phi fixes a, so phi(c^-1 g c) = c^-1 phi(g) c, freely reduced
    gens_after = tuple([apply_whitehead(phi, (*inverse_word(c), *w, *c)) for w in gens])
    if not all(map(core_after.reads_loop, gens_after)):
        raise CogrowthError("contracted core disagrees with the core of the images")

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
        pf = replace(previous.pf1, eigenvector=[vector[position[q]] for q in m.states])
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


def check_step(step: StepReport) -> tuple[bool, bool, bool]:
    """Rebuild by the second route what `reduce_step` derived, and say
    whether each rebuild equals the step's: M1 the OSE matrix of the
    automaton collapsed from `aut_before`, that automaton `aut_after` up
    to isomorphism, and `core_after` the core folded from `gens_after`,
    matched to the contracted core by `core_map`."""
    collapsed = collapse_automaton(step.aut_before, step.m.collapse)
    contracted = collapse_core(step.core_before, step.collapse)
    after = build_core(list(step.gens_after), step.core_after.alphabet)
    return (
        ose(collapsed) == step.m1,
        isomorphic(collapsed, step.aut_after),
        after == step.core_after
        and rooted_map(contracted.root, contracted.neighbours, after.root, after.neighbours)
        == step.core_map,
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
    # each step's images are freely reduced, and so are the words it starts from
    gens = tuple(map(free_reduce, gens))
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
