"""The ergodic automaton recognizing the reduced words of a subgroup.

States are (vertex, incoming letter) pairs of the extended core; a
transition consumes a letter that is not the inverse of the letter the
state was entered by.  Initial and final states coincide (the states at
the root), the transition diagram is strongly connected, and every
accepted nonempty word has exactly |I| - 1 accepting paths.
"""

from __future__ import annotations

from collections import namedtuple
from operator import ge

from .core_graph import CollapseData, CoreGraph, rooted_map
from .errors import (
    CogrowthError,
    DeterminismViolationError,
    NonIntegerCensusError,
    PreconditionError,
)
from .words import Letter, Word, letter_key

State = tuple[int, Letter]


def state_key(state: State):
    return (state[0], letter_key(state[1]))


class Automaton:
    """Deterministic acceptor with I = F; immutable after construction.

    ``states`` are in the OSE order (by vertex, then entry letter), and
    ``rows[i]`` lists state i's successors' indices in letter order; a
    transition's letter is its target's entry letter, so the rows are the
    whole transition function.  The constructor trusts both orders, as
    `build_automaton` and `collapse_automaton` produce them.
    """

    def __init__(self, alphabet, states, rows, initial):
        self.alphabet = alphabet
        self.states = tuple(states)
        self.rows = tuple(rows)
        self.initial = self.final = frozenset(initial)
        self.index = dict(zip(self.states, range(len(self.states))))

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def ambiguity(self) -> int:
        return len(self.initial) - 1

    def validate(self):
        """No transition undoes its state's entry letter, and the diagram
        is strongly connected; raises PreconditionError otherwise."""
        entry = [letter for _, letter in self.states]
        for row, letter in zip(self.rows, entry):
            for j in row:
                if entry[j] == -letter:
                    raise PreconditionError(
                        "transition labeled with the inverse of the entry letter"
                    )
        if not strongly_connected(self.rows):
            raise PreconditionError("transition diagram is not strongly connected")


def strongly_connected(rows) -> bool:
    """Whether the digraph whose node i has the successors `rows[i]` is
    nonempty and strongly connected."""
    if not rows:
        return False
    back: list[list[int]] = [[] for _ in rows]
    for i, row in enumerate(rows):
        for j in row:
            back[j].append(i)
    for graph in (rows, back):
        seen = [True] + [False] * (len(rows) - 1)
        stack = [0]
        while stack:
            for j in graph[stack.pop()]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        if not all(seen):
            return False
    return True


def build_automaton(graph: CoreGraph) -> Automaton:
    """States, transitions and initial set read off the extended core.

    The states at v are entered by the inverses of its labels, and the
    one entered by l^-1 moves on every label of v but l: each state's row
    is the list of the states v's labels lead to, less one entry.  The
    order of v's states is worked out once per label set.
    """
    first: dict[int, int] = {}  # vertex -> index of its first state
    slot: dict[int, dict[Letter, int]] = {}  # vertex -> entry letter -> offset
    layouts: dict[tuple[Letter, ...], dict[Letter, int]] = {}
    n = 0
    for v in graph.vertices:
        labels = tuple(graph.neighbours(v))
        if labels not in layouts:
            entries = sorted([-l for l in labels], key=letter_key)
            layouts[labels] = dict(zip(entries, range(len(entries))))
        first[v], slot[v] = n, layouts[labels]
        n += len(labels)
    states = [(v, e) for v in graph.vertices for e in slot[v]]
    rows: list = [None] * n
    for v in graph.vertices:
        out = graph.neighbours(v)
        targets = [first[w] + slot[w][l] for l, w in out.items()]
        here, base = slot[v], first[v]
        for k, l in enumerate(out):
            rows[base + here[-l]] = (*targets[:k], *targets[k + 1 :])
    root = first[graph.root]
    aut = Automaton(graph.alphabet, states, rows, states[root : root + graph.degree(graph.root)])
    aut.validate()
    return aut


def accepts(aut: Automaton, word: Word) -> int:
    """Number of admissible paths labeled by the word.

    The empty word counts as accepted once; a nonempty accepted word has
    exactly |I| - 1 paths (the start whose entry letter is the inverse
    of the first letter cannot fire).
    """
    if not word:
        return 1
    count = 0
    for q in aut.initial:
        i = aut.index[q]
        for letter in word:
            i = next((j for j in aut.rows[i] if aut.states[j][1] == letter), None)
            if i is None:
                break
        else:
            count += aut.states[i] in aut.final
    return count


class SStateSet(namedtuple("SStateSet", "elements merge survivors")):
    """States removed by one collapse step, and the vertex merge.

    ``elements`` fixes the order the matrix work uses: per collapse edge
    (origin id order), first (terminus, a), then (origin, a^-1).
    ``merge`` renames collapsed origin vertices to their termini, and
    ``survivors`` lists the automaton's other states, by index, in the
    collapsed OSE order, which is the NSE lead block.  Who feeds a
    collapse state, and whom it feeds, is read off the automaton
    (`collapse_automaton`) or off the NSE matrix (`spectral.derive_m1`).
    """

    __slots__ = ()

    @classmethod
    def from_collapse(cls, aut: Automaton, cd: CollapseData) -> "SStateSet":
        elements = []
        for o, a, t in sorted(cd.e_o):
            elements.extend([(t, a), (o, -a)])
        missing = [s for s in elements if s not in aut.index]
        if missing:
            raise PreconditionError(f"collapse states {missing} not in the automaton")
        # every arc between two collapse states leaves one of them
        inside = {aut.index[s] for s in elements}
        if any(not inside.isdisjoint(aut.rows[i]) for i in inside):
            raise DeterminismViolationError("collapse states are adjacent to each other")
        merge = cd.merge_map()
        vertex, letter = zip(*aut.states)
        key = list(zip(map(merge.get, vertex, vertex), map(letter_key, letter)))
        # the index's own ints 0, 1, ...: a step keeps no new object per state
        survivors = sorted((i for i in aut.index.values() if i not in inside), key=key.__getitem__)
        return cls(tuple(elements), merge, tuple(survivors))

    def rename(self, states) -> tuple[State, ...]:
        """The states with their vertices merged, in the same order."""
        get = self.merge.get
        return tuple([(get(v, v), letter) for v, letter in states])


def collapse_automaton(aut: Automaton, s: SStateSet) -> Automaton:
    """Replace each two-step path through a collapse state by one
    transition and drop the collapse states; an initial collapse state
    hands its place in the initial set to the origins of its incoming
    transitions.

    The merge must not identify two surviving states, and no state may
    gain two moves on one letter ("collapse doubly defines delta").
    Once the first check passes, the second cannot fail for a set from
    `SStateSet.from_collapse` on edges o -a-> t of the core.  A state
    feeding (t, a) sits at o and one feeding (o, a^-1) at t; either keeps
    its own moves, on labels of its vertex, and gains those of the
    collapse state, on labels of the other one.  A clash needs a label
    l != a, a^-1 at both o and t, and then the surviving states
    (o, l^-1) and (t, l^-1) merge.  The check stays for other sets.

    Not validated: a step builds the next automaton from the contracted
    core instead, and `pipeline.check_step` checks this one against it."""
    states, rows, index, order = aut.states, aut.rows, aut.index, s.survivors
    new_states = s.rename([states[i] for i in order])
    if len(set(new_states)) != len(new_states):
        raise DeterminismViolationError("vertex merge identified two states")
    # the OSE order, checked on state_key, not on the key from_collapse sorts by
    keys = list(map(state_key, new_states))
    if any(map(ge, keys, keys[1:])):
        raise CogrowthError("collapsed states are not in the OSE order")
    new = dict(zip(order, range(len(order))))  # old index -> new index
    gone = {index[q] for q in s.elements}
    initial = set(s.rename(q for q in aut.initial if index[q] not in gone))
    new_rows = []
    for i, name in zip(order, new_states):
        row = rows[i]
        if gone.isdisjoint(row):
            new_rows.append(tuple([new[j] for j in row]))
            continue
        by_letter = {states[j][1]: new[j] for j in row if j not in gone}
        for j in gone.intersection(row):  # a single one, for a checked set
            for t in rows[j]:
                if by_letter.setdefault(states[t][1], new[t]) != new[t]:
                    raise DeterminismViolationError(
                        f"collapse doubly defines delta at {(name, states[t][1])}"
                    )
            if states[j] in aut.initial:
                initial.add(name)
        new_rows.append(tuple(by_letter[l] for l in sorted(by_letter, key=letter_key)))
    return Automaton(aut.alphabet, new_states, new_rows, initial)


def isomorphic(a1: Automaton, a2: Automaton) -> bool:
    """State bijection preserving transitions, labels, initial and final
    sets: a walk from an initial state of each (`core_graph.rooted_map`)
    that reaches every state and matches initial states to initial ones."""
    if a1.alphabet.rank != a2.alphabet.rank or a1.n_states != a2.n_states:
        return False
    if not a1.states:
        return True
    out1, out2 = ([{aut.states[j][1]: j for j in row} for row in aut.rows] for aut in (a1, a2))
    seed = a1.index[min(a1.initial, key=state_key)] if a1.initial else 0
    for q in a2.initial if a1.initial else a2.states:
        image = rooted_map(seed, out1.__getitem__, a2.index[q], out2.__getitem__)
        if image is not None and len(image) == a1.n_states and all(
            (a1.states[i] in a1.initial) == (a2.states[j] in a2.initial)
            for i, j in image.items()
        ):
            return True
    return False


def word_census(aut: Automaton, n_max: int) -> list[int]:
    """Number of accepted words of each length 1..n_max, computed by
    path counting divided by the ambiguity degree (exact integers)."""
    k = aut.ambiguity
    if k < 1:
        raise PreconditionError("census needs ambiguity >= 1")
    final = [aut.index[q] for q in aut.final]
    vec = [int(q in aut.initial) for q in aut.states]
    counts = []
    for n in range(1, n_max + 1):
        nxt = [0] * len(vec)
        for row, paths in zip(aut.rows, vec):
            for j in row:
                nxt[j] += paths
        vec = nxt
        paths = sum(vec[i] for i in final)
        if paths % k:
            raise NonIntegerCensusError(
                f"{paths} paths of length {n} not divisible by ambiguity {k}"
            )
        counts.append(paths // k)
    return counts


def sample_accepted_word(aut: Automaton, rng, target_len: int) -> Word:
    """Random accepted word of length >= target_len: a random admissible
    walk, steered to the nearest final state once long enough."""
    states, rows = aut.states, aut.rows
    back: list[list[int]] = [[] for _ in rows]
    for i, row in enumerate(rows):
        for j in row:
            back[j].append(i)
    frontier = [aut.index[q] for q in aut.final]
    dist = dict.fromkeys(frontier, 0)
    while frontier:
        nxt = []
        for j in frontier:
            for i in back[j]:
                if i not in dist:
                    dist[i] = dist[j] + 1
                    nxt.append(i)
        frontier = nxt
    i = aut.index[rng.choice(sorted(aut.initial, key=state_key))]
    word = []
    while len(word) < target_len or states[i] not in aut.final:
        if len(word) < target_len:
            i = rows[i][rng.randrange(len(rows[i]))]
        else:
            i = min(rows[i], key=lambda j: (dist[j], letter_key(states[j][1])))
        word.append(states[i][1])
    return tuple(word)
