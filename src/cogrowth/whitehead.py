"""Whitehead graphs, cut vertices, the choice of collapse automorphism,
and seeded random Whitehead automorphisms and free factors.

The Whitehead graph of a labeled graph is the union of complete graphs
on the per-vertex label sets.  A cut vertex in it drives one reduction
step: it determines the automorphism (A, a) and, through the per-vertex
trichotomy, the set of core edges to collapse.

A letter a is a cut vertex in configuration 1 (its component comp(a)
misses a^-1) or 2 (comp(a) contains a^-1 and comp(a) - a has at least 2
pieces).  The first cut vertex always gives a collapse when every
vertex of the core, the root included, has degree at least 2: exactly
one case of the trichotomy holds at each vertex, some vertex is an
origin, and merging the origins into their termini makes no label
clash, keeps every degree at least 2 and shrinks the core.  The proof
is in README.md, "Why the first cut vertex always collapses".

So `reduce` decides free factors: a single-vertex core is a wedge of
basis loops, and a core with several vertices whose Whitehead graph has
no cut vertex is not a free factor (Whitehead 1936; Stallings,
"Whitehead graphs on handlebodies", 1999).  Ascari's fine property
(ascari2021fine) is the free-factor half.  `CollapseData` and
`collapse_core` still check the collapse (its edges, no label clash, a
smaller graph) and `renumber` that the contracted graph is a core:
internal checks that only a broken invariant trips.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from .core_graph import CollapseData, CoreGraph, build_core, label_sets
from .errors import CyclicOrTrivialSubgroupError, NoCutVertexError, PreconditionError
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
        """Components of `letter`'s component once `letter` is deleted,
        sorted by their least letter: one search from each neighbour not
        yet reached.  An isolated letter has none."""
        out = []
        seen: set[Letter] = set()
        for start in self.adjacency[letter]:
            if start in seen:
                continue
            comp = self.component(start, removed=letter)
            seen |= comp
            out.append(comp)
        return sorted(out, key=lambda comp: min(map(letter_key, comp)))


def whitehead_graph_of_core(ls: dict[int, frozenset], rank: int) -> WhiteheadGraph:
    """Union of complete graphs on each label set.

    Vertices that share a label set add the same pairs, so each distinct
    label set is expanded once and adds its number of vertices to the
    multiplicity of each of its pairs.  A pair is stored with its letters
    in the global order.
    """
    mult: dict[tuple[Letter, Letter], int] = {}
    for labels, count in Counter(ls.values()).items():
        letters = sorted(labels, key=letter_key)
        for i, u in enumerate(letters):
            for w in letters[i + 1 :]:
                mult[u, w] = mult.get((u, w), 0) + count
    return WhiteheadGraph(rank, mult)


class CutVertexReport(namedtuple("CutVertexReport", "letter configuration witness")):
    """A non-isolated letter whose removal separates its component, or
    whose component misses its inverse (configuration 1 before 2); the
    witness is the pieces of its component without it, each a tuple of
    letters."""

    __slots__ = ()


def find_cut_vertices(wg: WhiteheadGraph) -> list[CutVertexReport]:
    """All cut vertices, in the global letter order."""
    return list(_cut_vertices(wg))


def _cut_vertices(wg: WhiteheadGraph):
    """The cut vertices in the global letter order, each found only when
    the search reaches it."""
    for a in wg.vertices:
        pieces = wg.components_after_removal(a)
        if not pieces:  # isolated
            continue
        witness = tuple(tuple(sorted(p, key=letter_key)) for p in pieces)
        if not any(-a in p for p in pieces):
            yield CutVertexReport(a, 1, witness)
        elif len(pieces) > 1:
            yield CutVertexReport(a, 2, witness)


def collapse_for_cut(
    graph: CoreGraph, ls: dict[int, frozenset], cut: CutVertexReport
) -> tuple[WhiteheadAutomorphism, CollapseData]:
    """The automorphism (A, a) of a cut vertex and the edges it collapses.

    A is the union of the witness pieces that miss a^-1; each vertex in
    case 3 of the trichotomy collapses along its a-edge.
    """
    a = cut.letter
    members = frozenset(l for piece in cut.witness if -a not in piece for l in piece)
    side = members | {a}
    e_o = tuple(
        (v, a, graph.step(v, a)) for v in graph.vertices if a in ls[v] and ls[v] <= side
    )
    return WhiteheadAutomorphism(a, members), CollapseData(a, e_o)


def choose_automorphism(
    graph: CoreGraph,
) -> tuple[WhiteheadAutomorphism, CollapseData]:
    """The collapse of the first cut vertex in the global letter order;
    README.md, "Why the first cut vertex always collapses", proves that
    it always succeeds.  The search stops at that vertex: the letters
    after it are not examined.

    Raises NoCutVertexError when the Whitehead graph has no cut vertex,
    which certifies the subgroup is not a free factor.
    """
    if graph.n_vertices <= 1:
        raise PreconditionError("core already has a single vertex")
    ls = label_sets(graph)
    cut = next(_cut_vertices(whitehead_graph_of_core(ls, graph.alphabet.rank)), None)
    if cut is None:
        raise NoCutVertexError(
            "no cut vertex in the Whitehead graph: the subgroup is not a free factor"
        )
    return collapse_for_cut(graph, ls, cut)


def random_whitehead(rng, rank: int) -> WhiteheadAutomorphism:
    letters = sigma(rank)
    a = letters[rng.randrange(len(letters))]
    rest = [l for l in letters if abs(l) != abs(a)]
    return WhiteheadAutomorphism(a, frozenset(l for l in rest if rng.random() < 0.5))


def random_free_factor(rng, rank: int) -> tuple[Word, ...]:
    """Image of a proper partial basis of F_rank (alphabet "xyzt"[:rank])
    under a random chain of Whitehead moves; the tests, the sweep script
    and the benchmark draw their corpora from it.

    Resampled until every image is cyclically reduced as produced (so the
    tuple is an exact automorphic image, hence a genuine free factor), no
    image is longer than 12 letters, and the core has several vertices.
    Needs rank >= 3: the only non-cyclic free factor of a rank-2 group is
    the whole group, whose core is a single vertex.
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
        if max(len(w) for w in words) > 12:
            continue
        try:
            graph = build_core(list(words), alphabet)
        except CyclicOrTrivialSubgroupError:
            continue
        if graph.n_vertices >= 2:
            return tuple(words)

