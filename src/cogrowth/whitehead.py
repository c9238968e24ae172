"""Whitehead graphs, cut vertices, the choice of collapse automorphism,
and seeded random Whitehead automorphisms and free factors.

The Whitehead graph of a labeled graph is the union of complete graphs
on the per-vertex label sets.  A cut vertex in it drives one reduction
step: it determines the automorphism (A, a) and, through the per-vertex
trichotomy, the set of core edges to collapse.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .core_graph import CollapseData, CoreGraph, build_core, label_sets
from .errors import (
    CyclicOrTrivialSubgroupError,
    NoCutVertexError,
    NoValidAutomorphismError,
    PreconditionError,
    TrichotomyFailure,
)
from .words import (
    Alphabet,
    Letter,
    WhiteheadAutomorphism,
    Word,
    apply_whitehead,
    is_cyclically_reduced,
    letter_key,
    sigma,
)


class WhiteheadGraph:
    """Undirected graph on the 2m letters, with edge multiplicities.

    Connectivity analysis uses the simple graph; multiplicities are kept
    as metadata only.
    """

    def __init__(self, rank: int, edge_multiplicity: dict):
        self.rank = rank
        self.vertices = sigma(rank)
        self.multiplicity = dict(edge_multiplicity)
        adj: dict[Letter, set[Letter]] = {v: set() for v in self.vertices}
        for (u, v) in self.multiplicity:
            adj[u].add(v)
            adj[v].add(u)
        self.adjacency = adj

    @property
    def n_edges_simple(self) -> int:
        return len(self.multiplicity)

    @property
    def n_edges_multiset(self) -> int:
        return sum(self.multiplicity.values())

    def is_isolated(self, letter: Letter) -> bool:
        return not self.adjacency[letter]

    def sorted_edges(self) -> list[tuple[Letter, Letter, int]]:
        """(u, v, multiplicity) in the global letter order."""
        return sorted(
            ((u, v, mult) for (u, v), mult in self.multiplicity.items()),
            key=lambda e: (letter_key(e[0]), letter_key(e[1])),
        )

    def component(self, letter: Letter, removed: Letter | None = None) -> frozenset:
        """Connected component of `letter` in the simple graph, optionally
        with one vertex deleted."""
        seen = {letter}
        stack = [letter]
        while stack:
            u = stack.pop()
            for v in self.adjacency[u]:
                if v != removed and v not in seen:
                    seen.add(v)
                    stack.append(v)
        return frozenset(seen)

    def components_after_removal(self, letter: Letter) -> list[frozenset]:
        """Components of `letter`'s component once `letter` is deleted."""
        remaining = self.component(letter) - {letter}
        out = []
        seen: set[Letter] = set()
        for start in sorted(remaining, key=letter_key):
            if start in seen:
                continue
            comp = self.component(start, removed=letter)
            seen |= comp
            out.append(comp)
        return out

    def to_dot(self, alphabet: Alphabet) -> str:
        lines = ["graph whitehead {"]
        for v in self.vertices:
            lines.append(f'  "{alphabet.spell_caret(v)}";')
        for u, v, mult in self.sorted_edges():
            attr = f' [label="{mult}"]' if mult > 1 else ""
            lines.append(
                f'  "{alphabet.spell_caret(u)}" -- "{alphabet.spell_caret(v)}"{attr};'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"


def _edge(u: Letter, v: Letter) -> tuple[Letter, Letter]:
    return (u, v) if letter_key(u) <= letter_key(v) else (v, u)


def whitehead_graph_of_core(ls: dict[int, frozenset], rank: int) -> WhiteheadGraph:
    """Union of complete graphs on each label set."""
    mult: dict[tuple[Letter, Letter], int] = {}
    for v in sorted(ls):
        letters = sorted(ls[v], key=letter_key)
        for i, u in enumerate(letters):
            for w in letters[i + 1 :]:
                e = _edge(u, w)
                mult[e] = mult.get(e, 0) + 1
    return WhiteheadGraph(rank, mult)


@dataclass(frozen=True)
class CutVertexReport:
    """A non-isolated letter whose removal separates its component, or
    whose component misses its inverse (configuration 1 before 2)."""

    letter: Letter
    configuration: int
    witness: tuple[tuple[Letter, ...], ...]

    def to_json(self, alphabet: Alphabet) -> str:
        return json.dumps(
            {
                "letter": alphabet.spell_caret(self.letter),
                "configuration": self.configuration,
                "witness": [
                    [alphabet.spell_caret(l) for l in comp] for comp in self.witness
                ],
            }
        )


def find_cut_vertices(wg: WhiteheadGraph) -> list[CutVertexReport]:
    """All cut vertices, in the global letter order."""
    reports = []
    for a in wg.vertices:
        if wg.is_isolated(a):
            continue
        comp = wg.component(a)
        pieces = wg.components_after_removal(a)
        witness = tuple(tuple(sorted(p, key=letter_key)) for p in pieces)
        if -a not in comp:
            reports.append(CutVertexReport(a, 1, witness))
        elif len(pieces) > 1:
            reports.append(CutVertexReport(a, 2, witness))
    return reports


def _collapse_candidate(
    graph: CoreGraph, ls: dict[int, frozenset], wg: WhiteheadGraph, a: Letter
) -> tuple[WhiteheadAutomorphism, CollapseData]:
    """Try to build (A, a) and its collapse data; raises TrichotomyFailure."""
    pieces = [p for p in wg.components_after_removal(a) if -a not in p]
    members = frozenset().union(*pieces) if pieces else frozenset()
    if not members:
        raise TrichotomyFailure(f"letter {a}: empty side")
    phi = WhiteheadAutomorphism(a, members)

    s_o = []
    for v in graph.vertices:
        lv = ls[v]
        case1 = not (lv & members)
        case2 = lv <= members
        case3 = a in lv and lv <= members | {a}
        if case1 + case2 + case3 != 1:
            raise TrichotomyFailure(
                f"letter {a}: vertex {v} matches {case1 + case2 + case3} cases"
            )
        if case3:
            s_o.append(v)
    if not s_o:
        raise TrichotomyFailure(f"letter {a}: no vertex in the collapse case")

    e_o, s_t = [], []
    for v in s_o:
        t = graph.step(v, a)
        if a in ls[v] and -a in ls[v]:
            raise TrichotomyFailure(f"letter {a}: vertex {v} carries both a and a^-1")
        # the endpoint label sets may share the collapse letter itself
        # (an a-chain, where t has its own outgoing a-edge) but nothing else
        if (ls[v] & ls[t]) - {a}:
            raise TrichotomyFailure(
                f"letter {a}: label sets of {v} and {t} overlap beyond the letter"
            )
        e_o.append((v, a, t))
        s_t.append(t)
    if set(s_o) & set(s_t):
        raise TrichotomyFailure(f"letter {a}: origin and terminus sets overlap")
    cd = CollapseData(
        a=a,
        s_o=tuple(s_o),
        e_o=tuple(e_o),
        s_t=tuple(s_t),
        e_t=tuple((t, -a, v) for v, _, t in e_o),
    )
    return phi, cd


def choose_automorphism(
    graph: CoreGraph,
) -> tuple[WhiteheadAutomorphism, CollapseData]:
    """Pick the first cut vertex (global letter order) whose side set
    passes the trichotomy at every vertex.

    Raises NoCutVertexError when the Whitehead graph has no cut vertex,
    which certifies the subgroup is not a free factor.  Raises
    NoValidAutomorphismError when cut vertices exist but none passes;
    nothing is asserted about the subgroup then.
    """
    if graph.n_vertices <= 1:
        raise PreconditionError("core already has a single vertex")
    ls = label_sets(graph)
    wg = whitehead_graph_of_core(ls, graph.alphabet.rank)
    cuts = find_cut_vertices(wg)
    if not cuts:
        raise NoCutVertexError(
            "no cut vertex in the Whitehead graph: the subgroup is not a free factor"
        )
    failures = []
    for report in cuts:
        try:
            return _collapse_candidate(graph, ls, wg, report.letter)
        except TrichotomyFailure as exc:
            failures.append(str(exc))
    raise NoValidAutomorphismError(
        "every cut vertex failed the trichotomy: " + "; ".join(failures)
    )


def random_whitehead(rng, rank: int) -> WhiteheadAutomorphism:
    letters = sigma(rank)
    a = letters[rng.randrange(len(letters))]
    rest = [l for l in letters if abs(l) != abs(a)]
    return WhiteheadAutomorphism(a, frozenset(l for l in rest if rng.random() < 0.5))


def random_free_factor(rng, rank: int, max_len: int = 12) -> tuple[Word, ...]:
    """Image of a proper partial basis of F_rank (alphabet "xyzt"[:rank])
    under a random chain of Whitehead moves; the tests, the sweep script
    and the benchmark draw their corpora from it.

    Resampled until every image is cyclically reduced as produced (so the
    tuple is an exact automorphic image, hence a genuine free factor) and
    the core has several vertices.  Needs rank >= 3: the only non-cyclic
    free factor of a rank-2 group is the whole group, whose core is a
    single vertex.
    """
    alphabet = Alphabet(tuple("xyzt"[:rank]))
    while True:
        k = rng.randint(2, rank - 1)
        words = [(i + 1,) for i in range(k)]
        for _ in range(rng.randint(1, 7)):
            phi = random_whitehead(rng, rank)
            words = [apply_whitehead(phi, w) for w in words]
        if not all(w and is_cyclically_reduced(w) for w in words):
            continue
        if max(len(w) for w in words) > max_len:
            continue
        try:
            graph = build_core(list(words), alphabet)
        except CyclicOrTrivialSubgroupError:
            continue
        if graph.n_vertices >= 2:
            return tuple(words)

