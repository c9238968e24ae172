"""Whitehead graphs, cut vertices and the choice of collapse automorphism.

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

The graph is held as bitmasks over `sigma(rank)`: bit i stands for the
i-th letter in the global order, so the inverse of bit i is bit i ^ 1.
A label set is the mask of its letters and the graph one adjacency mask
per letter.  `find_cut_vertices`, which `cogrowth whitehead` prints, and
`choose_automorphism`, which every step calls, share the one search
`_cut_vertices` on these masks.  A step forms the masks from the
distinct label sets of its core only, counts no multiplicities, and
decides the trichotomy once per distinct label set.

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
from itertools import compress

from .core_graph import CollapseData, CoreGraph
from .errors import NoCutVertexError, PreconditionError
from .words import Letter, WhiteheadAutomorphism, letter_key, sigma

# the global letter order as bit positions, and each letter's bit
_LETTERS = sigma(26)
_BIT = {letter: 1 << letter_key(letter) for letter in _LETTERS}


class WhiteheadGraph:
    """Undirected graph on the 2m letters, with edge multiplicities.

    The search reads the simple graph as `adjacency`, one mask per letter
    of `vertices`; multiplicities are kept as metadata only.
    """

    def __init__(self, rank: int, edge_multiplicity: dict):
        self.rank = rank
        self.vertices = sigma(rank)
        self.multiplicity = dict(edge_multiplicity)
        self.adjacency = _adjacency((_BIT[u] | _BIT[v] for u, v in self.multiplicity), rank)

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


def _bits(mask: int):
    """The positions of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _adjacency(cliques, rank: int) -> list[int]:
    """One mask per letter of `sigma(rank)`: the union of the clique masks
    that hold it, less the letter itself."""
    adjacency = [0] * (2 * rank)
    for clique in cliques:
        for i in _bits(clique):
            adjacency[i] |= clique
    return [near & ~(1 << i) for i, near in enumerate(adjacency)]


def _reach(adjacency: list[int], start: int, allowed: int) -> int:
    """The letters joined to the mask `start` by paths inside `allowed`."""
    seen = frontier = start
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = adjacency[low.bit_length() - 1] & allowed & ~seen
        seen |= new
        frontier |= new
    return seen


def _lowest_bit(mask: int) -> int:
    return mask & -mask


def _cut_vertices(adjacency: list[int]):
    """Each cut vertex in the global letter order, found only when the
    search reaches it, as (bit, configuration, pieces): the pieces of its
    component without it, as masks sorted by their least letter.  Each
    piece is one search from the least neighbour not yet reached."""
    full = (1 << len(adjacency)) - 1
    for i, near in enumerate(adjacency):
        if not near:  # isolated
            continue
        allowed = full ^ (1 << i)
        rest = 0  # comp(a) - a
        pieces = []
        while near:
            piece = _reach(adjacency, near & -near, allowed)
            pieces.append(piece)
            rest |= piece
            near &= ~piece
        if not rest >> (i ^ 1) & 1:
            yield i, 1, sorted(pieces, key=_lowest_bit)
        elif len(pieces) > 1:
            yield i, 2, sorted(pieces, key=_lowest_bit)


class CutVertexReport(namedtuple("CutVertexReport", "letter configuration witness")):
    """A non-isolated letter whose removal separates its component, or
    whose component misses its inverse (configuration 1 before 2); the
    witness is the pieces of its component without it, each a tuple of
    letters."""

    __slots__ = ()


def find_cut_vertices(wg: WhiteheadGraph) -> list[CutVertexReport]:
    """All cut vertices, in the global letter order."""
    return [
        CutVertexReport(
            _LETTERS[i],
            configuration,
            tuple(tuple(_LETTERS[j] for j in _bits(piece)) for piece in pieces),
        )
        for i, configuration, pieces in _cut_vertices(wg.adjacency)
    ]


def choose_automorphism(
    graph: CoreGraph,
) -> tuple[WhiteheadAutomorphism, CollapseData]:
    """The collapse of the first cut vertex a in the global letter order;
    README.md, "Why the first cut vertex always collapses", proves that
    it always succeeds.  The search stops at that vertex: the letters
    after it are not examined.

    A is the union of the pieces that miss a^-1.  A vertex is in case 3
    of the trichotomy, and collapses along its a-edge, when a lies in
    its label set and the set lies in A + {a}; that is decided once per
    distinct label set, each read as the keys of a neighbour map.

    Raises NoCutVertexError when the Whitehead graph has no cut vertex,
    which certifies the subgroup is not a free factor.
    """
    if graph.n_vertices <= 1:
        raise PreconditionError("core already has a single vertex")
    keys = list(map(tuple, map(graph.neighbours, graph.vertices)))
    masks = {key: sum(map(_BIT.__getitem__, key)) for key in set(keys)}
    cut = next(_cut_vertices(_adjacency(masks.values(), graph.alphabet.rank)), None)
    if cut is None:
        raise NoCutVertexError(
            "no cut vertex in the Whitehead graph: the subgroup is not a free factor"
        )
    i, _, pieces = cut
    members = 0
    for piece in pieces:
        if not piece >> (i ^ 1) & 1:
            members |= piece
    outside = ~(members | (1 << i))
    origin = {key for key, mask in masks.items() if mask >> i & 1 and not mask & outside}
    a = _LETTERS[i]
    e_o = tuple(
        (v, a, graph.step(v, a))
        for v in compress(graph.vertices, map(origin.__contains__, keys))
    )
    phi = WhiteheadAutomorphism(a, frozenset(_LETTERS[j] for j in _bits(members)))
    return phi, CollapseData(a, e_o)
