"""Core graph of a finitely generated subgroup, built by folding.

The core is a rooted directed graph whose edges carry positive generator
labels; the extended view doubles every edge with a reverse edge
carrying the inverse label.  Reduced root-to-root loops in the extended
view spell exactly the elements of the subgroup.

Vertex ids are assigned by depth-first discovery order from the root
along the global letter order, which makes the output independent of
generator order and fold order and reproduces the conventional
enumeration (root is 1).  Collapsed graphs keep the surviving ids of
their parent until `renumber`; `rooted_map` matches any numberings.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import (
    CyclicOrTrivialSubgroupError,
    EmptyGeneratorError,
    FoldingViolationError,
    PreconditionError,
)
from .words import Alphabet, Letter, Word, letter_key


class CoreGraph:
    """Folded, connected, rooted labeled graph; immutable after build.

    `nbr` maps each vertex, in ascending order, to its extended edges'
    labels, in the global letter order, and their endpoints; every edge
    is in the maps of both its ends.  The maps are trusted as given:
    `build_core` and `collapse_core` make them, and `_discover`, which
    numbers a core, checks that it is connected with every degree >= 2.
    """

    def __init__(self, alphabet: Alphabet, root: int, nbr: dict[int, dict[Letter, int]]):
        self.alphabet, self.root, self._nbr = alphabet, root, nbr
        self.vertices = tuple(nbr)

    # -- basic queries ------------------------------------------------

    def step(self, vertex: int, letter: Letter):
        """Endpoint of the extended edge labeled `letter` at `vertex`, or None."""
        return self._nbr.get(vertex, {}).get(letter)

    def reads_loop(self, word: Word) -> bool:
        """Whether `word` reads a closed path at the root."""
        nbr, v = self._nbr, self.root
        try:
            for letter in word:
                v = nbr[v][letter]
        except KeyError:
            return False
        return v == self.root

    def neighbours(self, vertex: int) -> dict[Letter, int]:
        """The extended edges leaving `vertex`, label -> endpoint, in the
        global letter order; not to be modified."""
        return self._nbr[vertex]

    def degree(self, vertex: int) -> int:
        return len(self._nbr[vertex])

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def edges(self) -> tuple[tuple[int, Letter, int], ...]:
        """The positive half of the extended edges as (origin, label,
        terminus): vertices ascending and labels in letter order, so sorted."""
        return tuple(
            (v, l, w) for v, out in self._nbr.items() for l, w in out.items() if l > 0
        )

    @property
    def n_edges(self) -> int:
        return sum(map(len, self._nbr.values())) // 2

    @property
    def subgroup_rank(self) -> int:
        return self.n_edges - self.n_vertices + 1

    def __eq__(self, other):
        return (
            isinstance(other, CoreGraph)
            and self.alphabet == other.alphabet
            and self.root == other.root
            and self._nbr == other._nbr
        )

    def __repr__(self):
        return f"CoreGraph(root={self.root}, vertices={self.n_vertices}, edges={self.n_edges})"


class CollapseData(namedtuple("CollapseData", "a e_o")):
    """Edges to contract for one Whitehead reduction step.

    ``e_o`` are the extended edges (origin, a, terminus), at least one
    and one per origin; the origin set ``s_o`` and terminus set ``s_t``
    are read off them, and must be disjoint.
    """

    __slots__ = ()

    def __new__(cls, a: Letter, e_o: tuple[tuple[int, Letter, int], ...]):
        self = super().__new__(cls, a, e_o)
        if not e_o:
            raise PreconditionError("collapse needs at least one edge")
        if any(letter != a for _, letter, _ in e_o):
            raise PreconditionError("collapse edge not labeled a")
        origins = set(self.s_o)
        if len(origins) < len(e_o):
            raise PreconditionError("two collapse edges at one origin")
        if origins & set(self.s_t):
            raise PreconditionError("origin and terminus sets overlap")
        return self

    @property
    def s_o(self) -> tuple[int, ...]:
        return tuple(o for o, _, _ in self.e_o)

    @property
    def s_t(self) -> tuple[int, ...]:
        return tuple(t for _, _, t in self.e_o)

    def merge_map(self) -> dict[int, int]:
        return {o: t for o, _, t in self.e_o}


def build_core(gens: list[Word], alphabet: Alphabet) -> CoreGraph:
    """Fold a wedge of generator loops into the core graph.

    Every generator must be nonempty, and the fold must be a core: every
    vertex, the root included, of degree >= 2.  The generated subgroup
    must be non-trivial and non-cyclic.

    Folding runs off a worklist (Kapovich-Myasnikov, "Stallings
    foldings and subgroups of free groups", J. Algebra 2002; Touikan,
    "A fast algorithm for Stallings' folding process", IJAC 2006).  Each
    vertex of the wedge maps its extended labels to neighbours; a label
    that already maps to another vertex pushes the pair to be merged.
    A merge moves the smaller map into the larger and pushes every label
    that collides there.  Neighbours are left stale and resolved to
    their representatives when read.  With n letters over rank m there
    are fewer than n merges of at most 2m labels each, so the fold costs
    O(n m log n) instead of one rescan of the edge list per merge.

    One depth-first pass (`_discover`) then gives the canonical ids and
    each vertex's letter order, hence the neighbour maps of the core,
    and checks that every representative is reached, with degree >= 2.
    """
    for w in gens:
        if not w:
            raise EmptyGeneratorError("generators must be nonempty")
        for l in w:
            if abs(l) > alphabet.rank:
                raise PreconditionError("generator uses letters outside the alphabet")

    # wedge of loops at vertex 0: nbr[v] maps each extended label at v to
    # a neighbour; pending holds pairs of vertices still to be merged
    nbr: list[dict[Letter, int] | None] = [{}]
    pending: list[tuple[int, int]] = []
    for w in gens:
        prev = 0
        last = len(w) - 1
        for i, letter in enumerate(w):
            if i == last:
                nxt = 0
            else:
                nxt = len(nbr)
                nbr.append({})
            t = nbr[prev].setdefault(letter, nxt)
            if t != nxt:
                pending.append((t, nxt))
            t = nbr[nxt].setdefault(-letter, prev)
            if t != prev:
                pending.append((t, prev))
            prev = nxt

    rep = list(range(len(nbr)))  # rep[v] == v for representatives
    while pending:
        u, v = pending.pop()
        while rep[u] != u:
            rep[u] = u = rep[rep[u]]
        while rep[v] != v:
            rep[v] = v = rep[rep[v]]
        if u == v:
            continue
        if len(nbr[u]) < len(nbr[v]):
            u, v = v, u
        rep[v] = u
        keep = nbr[u]
        for letter, t in nbr[v].items():
            s = keep.setdefault(letter, t)
            if s != t:
                pending.append((s, t))
        nbr[v] = None
    for v in range(len(rep)):
        r = v
        while rep[r] != r:
            r = rep[r]
        rep[v] = r

    # the rank, edges - vertices + 1 over the representatives, comes
    # first: a conjugate of a cyclic subgroup folds to a cycle with a hair
    n_vertices = len(nbr) - nbr.count(None)
    if sum(map(len, filter(None, nbr))) // 2 - n_vertices + 1 < 2:
        raise CyclicOrTrivialSubgroupError(
            "subgroup is trivial or cyclic; the core has no branching"
        )
    # the precondition on the words: the fold must be a core (a wedge of
    # loops is connected, so only "vertex i has degree < 2" can fire)
    ids, adjacency = _discover(rep[0], nbr, rep, n_vertices)
    return CoreGraph(alphabet, 1, adjacency)


def _discover(root: int, nbr, rep, n_vertices: int):
    """Depth-first discovery from `root` along the global letter order:
    the ids 1, 2, ... of the vertices reached, and their neighbour maps
    under those ids, labels sorted.  `rep` maps the neighbours in
    `nbr[v]` to vertices.  The one check that a graph is a core: raises
    PreconditionError unless all `n_vertices` are reached, each of
    degree >= 2 (the root too, for whitehead's trichotomy)."""
    ids: dict[int, int] = {}
    found: list[tuple[int, list[Letter]]] = []
    stack = [root]
    while stack:
        v = stack.pop()
        if v in ids:
            continue
        ids[v] = len(found) + 1
        out = nbr[v]
        letters = sorted(out, key=letter_key)
        found.append((v, letters))
        stack.extend([rep[out[l]] for l in reversed(letters)])
    if len(found) != n_vertices:
        raise PreconditionError("graph is not connected")
    adjacency: dict[int, dict[Letter, int]] = {}
    for v, letters in found:
        if len(letters) < 2:
            raise PreconditionError(f"vertex {ids[v]} has degree < 2")
        out = nbr[v]
        adjacency[ids[v]] = {l: ids[rep[out[l]]] for l in letters}
    return ids, adjacency


def renumber(graph: CoreGraph) -> tuple[CoreGraph, dict[int, int]]:
    """`graph` under the ids `build_core` gives any basis of its subgroup,
    and the map from its ids to them; raises PreconditionError if
    `graph` is not a core (connected, every degree >= 2)."""
    identity = range(max(graph.vertices) + 1)
    ids, adjacency = _discover(graph.root, graph._nbr, identity, graph.n_vertices)
    return CoreGraph(graph.alphabet, 1, adjacency), ids


def label_sets(graph: CoreGraph) -> dict[int, frozenset[Letter]]:
    """Per-vertex sets of labels of outgoing extended edges."""
    return {v: frozenset(out) for v, out in graph._nbr.items()}


def collapse_core(graph: CoreGraph, cd: CollapseData) -> CoreGraph:
    """Contract every collapse edge, identifying origins into termini.

    The other vertices keep their ids and neighbour maps, with the
    targets renamed; each origin's map, less a, joins its terminus's,
    less a^-1.  Raises FoldingViolationError if a label is at both ends
    (the trichotomy was not actually satisfied).  `graph` is trusted to
    be a core, as `CoreGraph` trusts its maps; the result then is one
    (ascari2021fine), and `renumber` re-checks it on every step.
    """
    for o, letter, t in cd.e_o:
        if graph.step(o, letter) != t:
            raise PreconditionError(f"collapse edge ({o},{letter},{t}) not in graph")
    merge = cd.merge_map()
    nbr = {v: {l: merge.get(w, w) for l, w in out.items()} for v, out in graph._nbr.items()}
    for o, a, t in cd.e_o:
        moved, kept = nbr.pop(o), nbr[t]
        del moved[a], kept[-a]
        clash = sorted(moved.keys() & kept.keys(), key=letter_key)
        if clash:
            raise FoldingViolationError(
                f"two edges labeled {graph.alphabet.spell(clash[0])} at vertex {t}"
            )
        kept.update(moved)
        nbr[t] = {l: kept[l] for l in sorted(kept, key=letter_key)}
    result = CoreGraph(graph.alphabet, merge.get(graph.root, graph.root), nbr)
    if not (result.n_vertices < graph.n_vertices and result.n_edges < graph.n_edges):
        raise FoldingViolationError("contraction did not shrink the graph")
    return result


def rooted_map(root1, out1, root2, out2):
    """Follow two deterministic labelled graphs from their roots along
    equal labels; `out(node)` is a node's dict label -> target.  Returns
    the one-to-one map of the nodes reached, or None when two matched
    nodes have different label sets or the map is not consistent or not
    one-to-one.  On connected graphs it is the rooted isomorphism."""
    image = {root1: root2}
    stack = [root1]
    while stack:
        u = stack.pop()
        here, there = out1(u), out2(image[u])
        if here.keys() != there.keys():
            return None
        for label, v in here.items():
            if v not in image:
                image[v] = there[label]
                stack.append(v)
            elif image[v] != there[label]:
                return None
    return image if len(set(image.values())) == len(image) else None
