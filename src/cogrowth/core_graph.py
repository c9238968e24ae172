"""Core graph of a finitely generated subgroup, built by folding.

The core is a rooted directed graph whose edges carry positive generator
labels; the extended view doubles every edge with a reverse edge
carrying the inverse label.  Reduced root-to-root loops in the extended
view spell exactly the elements of the subgroup.

Vertex ids are assigned by depth-first discovery order from the root
along the global letter order, which makes the output independent of
generator order and fold order and reproduces the conventional
enumeration (root is 1).  Collapsed graphs keep the surviving ids of
their parent instead of renumbering.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import (
    CyclicOrTrivialSubgroupError,
    EmptyGeneratorError,
    FoldingViolationError,
    NotCyclicallyReducedError,
    PreconditionError,
)
from .words import Alphabet, Letter, Word, is_cyclically_reduced, letter_key


class CoreGraph:
    """Folded, connected, rooted labeled graph; immutable after build."""

    def __init__(self, alphabet: Alphabet, root: int, edges):
        self.alphabet = alphabet
        self.root = root
        self.edges = tuple(sorted(set(edges)))
        verts = {root}
        ext: dict[tuple[int, Letter], int] = {}
        rank = alphabet.rank
        for o, g, t in self.edges:
            if not 1 <= g <= rank:
                raise ValueError(f"edge label {g} outside alphabet")
            verts.add(o)
            verts.add(t)
            for key, target in (((o, g), t), ((t, -g), o)):
                if ext.setdefault(key, target) != target:
                    raise FoldingViolationError(
                        f"two edges labeled {alphabet.spell(key[1])} at vertex {key[0]}"
                    )
        self.vertices = tuple(sorted(verts))
        self._ext = ext
        out: dict[int, list[Letter]] = {v: [] for v in self.vertices}
        for (v, letter) in ext:
            out[v].append(letter)
        self._out_letters = {
            v: tuple(sorted(ls, key=letter_key)) for v, ls in out.items()
        }

    # -- basic queries ------------------------------------------------

    def step(self, vertex: int, letter: Letter):
        """Endpoint of the extended edge labeled `letter` at `vertex`, or None."""
        return self._ext.get((vertex, letter))

    def out_letters(self, vertex: int) -> tuple[Letter, ...]:
        """Labels of extended edges leaving `vertex`, in the global order."""
        return self._out_letters[vertex]

    def degree(self, vertex: int) -> int:
        return len(self._out_letters[vertex])

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def subgroup_rank(self) -> int:
        return self.n_edges - self.n_vertices + 1

    def __eq__(self, other):
        return (
            isinstance(other, CoreGraph)
            and self.alphabet == other.alphabet
            and self.root == other.root
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.alphabet, self.root, self.edges))

    def __repr__(self):
        return f"CoreGraph(root={self.root}, vertices={self.n_vertices}, edges={self.n_edges})"

    def validate(self):
        """Check the core invariants; raises PreconditionError."""
        seen = {self.root}
        stack = [self.root]
        while stack:
            v = stack.pop()
            for letter in self._out_letters[v]:
                w = self._ext[(v, letter)]
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if seen != set(self.vertices):
            raise PreconditionError("graph is not connected")
        # the root too: a label set of one letter breaks the trichotomy
        # that whitehead.choose_automorphism relies on
        for v in self.vertices:
            if self.degree(v) < 2:
                raise PreconditionError(f"vertex {v} has degree < 2")

    # -- serialization ------------------------------------------------

    def to_json(self) -> str:
        data = {
            "alphabet": list(self.alphabet.names),
            "root": self.root,
            "vertices": list(self.vertices),
            "edges": [
                {"o": o, "label": self.alphabet.names[g - 1], "t": t}
                for o, g, t in self.edges
            ],
        }
        return json.dumps(data, indent=2)

    def to_dot(self, extended: bool = False) -> str:
        lines = ["digraph core {", "  rankdir=LR;"]
        for v in self.vertices:
            shape = "doublecircle" if v == self.root else "circle"
            lines.append(f'  v{v} [shape={shape}, label="{v}"];')
        for o, g, t in self.edges:
            lines.append(f'  v{o} -> v{t} [label="{self.alphabet.spell(g)}"];')
            if extended:
                lines.append(
                    f'  v{t} -> v{o} [label="{self.alphabet.spell(-g)}", style=dashed];'
                )
        lines.append("}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CollapseData:
    """Edges to contract for one Whitehead reduction step.

    ``e_o`` are the extended edges (origin, a, terminus), at least one
    and one per origin; the origin set ``s_o`` and terminus set ``s_t``
    are read off them, and must be disjoint.
    """

    a: Letter
    e_o: tuple[tuple[int, Letter, int], ...]

    def __post_init__(self):
        if not self.e_o:
            raise PreconditionError("collapse needs at least one edge")
        if any(letter != self.a for _, letter, _ in self.e_o):
            raise PreconditionError("collapse edge not labeled a")
        if set(self.s_o) & set(self.s_t):
            raise PreconditionError("origin and terminus sets overlap")

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

    Every generator must be nonempty and cyclically reduced; the
    generated subgroup must be non-trivial and non-cyclic.

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
    """
    for w in gens:
        if not w:
            raise EmptyGeneratorError("generators must be nonempty")
        if not is_cyclically_reduced(w):
            raise NotCyclicallyReducedError(
                "generators must be cyclically reduced"
            )
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

    # folding cyclically reduced loops leaves no hanging vertex (validate checks)
    reps = [v for v, out in enumerate(nbr) if out is not None]
    folded = [(v, g, rep[t]) for v in reps for g, t in nbr[v].items() if g > 0]
    if len(folded) - len(reps) + 1 < 2:
        raise CyclicOrTrivialSubgroupError(
            "subgroup is trivial or cyclic; the core has no branching"
        )

    ids = _dfs_renumber(
        rep[0], lambda v: [rep[nbr[v][l]] for l in sorted(nbr[v], key=letter_key)]
    )
    graph = CoreGraph(alphabet, 1, [(ids[o], g, ids[t]) for o, g, t in folded])
    graph.validate()
    return graph


def _dfs_renumber(root: int, neighbours) -> dict[int, int]:
    """Depth-first discovery ids (1-based) from `root`; `neighbours(v)`
    lists the ends of v's extended edges in the global letter order."""
    ids: dict[int, int] = {}
    stack = [root]
    while stack:
        v = stack.pop()
        if v in ids:
            continue
        ids[v] = len(ids) + 1
        stack.extend(reversed(neighbours(v)))
    return ids


def label_sets(graph: CoreGraph) -> dict[int, frozenset[Letter]]:
    """Per-vertex sets of labels of outgoing extended edges."""
    return {v: frozenset(graph.out_letters(v)) for v in graph.vertices}


def collapse_core(graph: CoreGraph, cd: CollapseData) -> CoreGraph:
    """Contract every collapse edge, identifying origins into termini.

    Surviving vertices keep their ids; the merged vertex keeps the
    terminus id.  Raises FoldingViolationError if the contraction would
    create a label clash (the trichotomy was not actually satisfied).
    """
    for o, letter, t in cd.e_o:
        if graph.step(o, letter) != t:
            raise PreconditionError(f"collapse edge ({o},{letter},{t}) not in graph")
    merge = cd.merge_map()

    collapsed_positive = set()
    for o, letter, t in cd.e_o:
        collapsed_positive.add((o, letter, t) if letter > 0 else (t, -letter, o))
    new_edges = []
    for o, g, t in graph.edges:
        if (o, g, t) in collapsed_positive:
            continue
        new_edges.append((merge.get(o, o), g, merge.get(t, t)))
    if len(new_edges) != len(set(new_edges)):
        raise FoldingViolationError("contraction identified two parallel edges")

    result = CoreGraph(graph.alphabet, merge.get(graph.root, graph.root), new_edges)
    if not (
        result.n_vertices < graph.n_vertices and result.n_edges < graph.n_edges
    ):
        raise FoldingViolationError("contraction did not shrink the graph")
    result.validate()
    return result


def canonical(graph: CoreGraph):
    """Depth-first discovery ids from the root, and the edges renumbered
    by them, sorted: equal forms = rooted isomorphic, and then the ids are
    the isomorphism onto the form.  `build_core` numbers by the same
    discovery, so its edges are their own form."""
    ids = _dfs_renumber(
        graph.root, lambda v: [graph.step(v, l) for l in graph.out_letters(v)]
    )
    return ids, tuple(sorted((ids[o], g, ids[t]) for o, g, t in graph.edges))
