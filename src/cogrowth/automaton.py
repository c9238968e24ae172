"""The ergodic automaton recognizing the reduced words of a subgroup.

States are (vertex, incoming letter) pairs of the extended core; a
transition consumes a letter that is not the inverse of the letter the
state was entered by.  Initial and final states coincide (the states at
the root), the transition diagram is strongly connected, and every
accepted nonempty word has exactly |I| - 1 accepting paths.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .core_graph import CollapseData, CoreGraph
from .errors import (
    DeterminismViolationError,
    NonIntegerCensusError,
    PreconditionError,
)
from .words import Alphabet, Letter, Word, letter_key

State = tuple[int, Letter]


def state_key(state: State):
    return (state[0], letter_key(state[1]))


def format_state(state: State, alphabet: Alphabet) -> str:
    return f"({state[0]},{alphabet.spell_caret(state[1])})"


class Automaton:
    """Deterministic acceptor with I = F; immutable after construction."""

    def __init__(self, alphabet, states, transitions, initial):
        self.alphabet = alphabet
        self.states = tuple(sorted(states, key=state_key))
        self.transitions = dict(transitions)
        self.initial = self.final = frozenset(initial)
        out: dict[State, list[tuple[Letter, State]]] = {q: [] for q in self.states}
        for (q, letter), target in self.transitions.items():
            out[q].append((letter, target))
        self._out = {
            q: tuple(sorted(pairs, key=lambda p: letter_key(p[0])))
            for q, pairs in out.items()
        }

    def successors(self, state: State) -> tuple[tuple[Letter, State], ...]:
        return self._out[state]

    def step(self, state: State, letter: Letter):
        return self.transitions.get((state, letter))

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def ambiguity(self) -> int:
        return len(self.initial) - 1

    def validate(self):
        for (q, letter), target in self.transitions.items():
            if target[1] != letter:
                raise PreconditionError("transition label differs from target letter")
            if letter == -q[1]:
                raise PreconditionError(
                    "transition labeled with the inverse of the entry letter"
                )
        arcs = ((q, target) for (q, _), target in self.transitions.items())
        if not strongly_connected(self.states, arcs):
            raise PreconditionError("transition diagram is not strongly connected")

    def to_json(self) -> str:
        spell = lambda q: format_state(q, self.alphabet)
        data = {
            "states": [spell(q) for q in self.states],
            "transitions": [
                {
                    "from": spell(q),
                    "label": self.alphabet.spell_caret(letter),
                    "to": spell(t),
                }
                for q in self.states
                for letter, t in self.successors(q)
            ],
            "initial": sorted(spell(q) for q in self.initial),
            "final": sorted(spell(q) for q in self.final),
        }
        return json.dumps(data, indent=2)

    def to_dot(self, dashed_into=frozenset()) -> str:
        """DOT rendering; transitions into `dashed_into` states are dashed
        (the edges a collapse would remove)."""
        spell = lambda q: format_state(q, self.alphabet)
        lines = ["digraph automaton {", "  rankdir=LR;"]
        for q in self.states:
            shape = "doublecircle" if q in self.initial else "circle"
            lines.append(f'  "{spell(q)}" [shape={shape}];')
        for q in self.states:
            for letter, t in self.successors(q):
                style = ", style=dashed" if t in dashed_into else ""
                lines.append(
                    f'  "{spell(q)}" -> "{spell(t)}" [label="{self.alphabet.spell(letter)}"{style}];'
                )
        lines.append("}")
        return "\n".join(lines) + "\n"


def predecessors(aut: Automaton, states) -> dict[State, list[State]]:
    """Origins of the transitions into each of `states`, in one pass over
    the transitions."""
    back: dict[State, list[State]] = {q: [] for q in states}
    for (q, _), t in aut.transitions.items():
        if t in back:
            back[t].append(q)
    return back


def strongly_connected(nodes, arcs) -> bool:
    """Whether the digraph on `nodes` with (source, target) `arcs` is
    nonempty and strongly connected."""
    fwd: dict = {q: [] for q in nodes}
    bwd: dict = {q: [] for q in nodes}
    for p, q in arcs:
        fwd[p].append(q)
        bwd[q].append(p)
    if not fwd:
        return False
    start = next(iter(fwd))
    for graph in (fwd, bwd):
        seen = {start}
        stack = [start]
        while stack:
            for w in graph[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(fwd):
            return False
    return True


def build_automaton(graph: CoreGraph) -> Automaton:
    """States, transitions and initial set read off the extended core."""
    states = []
    for v in graph.vertices:
        for letter in graph.out_letters(v):
            # an edge labeled l leaves v iff one labeled -l enters v
            states.append((v, -letter))
    transitions = {}
    for (v, entry) in states:
        for letter in graph.out_letters(v):
            if letter == -entry:
                continue
            transitions[((v, entry), letter)] = (graph.step(v, letter), letter)
    initial = {q for q in states if q[0] == graph.root}
    aut = Automaton(graph.alphabet, states, transitions, initial)
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
        for letter in word:
            q = aut.step(q, letter)
            if q is None:
                break
        else:
            count += q in aut.final
    return count


@dataclass(frozen=True)
class SStateSet:
    """States removed by one collapse step, and the vertex merge.

    ``elements`` fixes the order the matrix work uses: per collapse edge
    (origin id order), first (terminus, a), then (origin, a^-1).
    ``merge`` renames collapsed origin vertices to their termini.  Who
    feeds a collapse state, and whom it feeds, is read off the automaton
    (`collapse_automaton`) or off the NSE matrix (`spectral.derive_m1`).
    """

    elements: tuple[State, ...]
    merge: dict[int, int]

    @classmethod
    def from_collapse(cls, aut: Automaton, cd: CollapseData) -> "SStateSet":
        elements = []
        for o, a, t in sorted(cd.e_o):
            elements.extend([(t, a), (o, -a)])
        state_set = set(aut.states)
        missing = [s for s in elements if s not in state_set]
        if missing:
            raise PreconditionError(f"collapse states {missing} not in the automaton")
        # every arc between two collapse states leaves one of them
        sset = set(elements)
        if any(t in sset for s in elements for _, t in aut.successors(s)):
            raise DeterminismViolationError("collapse states are adjacent to each other")
        return cls(tuple(elements), cd.merge_map())

    def rename(self, state: State) -> State:
        return (self.merge.get(state[0], state[0]), state[1])


def collapse_automaton(aut: Automaton, s: SStateSet) -> Automaton:
    """Replace each two-step path through a collapse state by one
    transition and drop the collapse states; an initial collapse state
    hands its place in the initial set to the origins of its incoming
    transitions.

    The result is not validated: `pipeline.reduce_step` checks it
    against the automaton built, and validated, from the next core."""
    sset = set(s.elements)
    merge = s.merge
    rename = {
        q: (merge.get(q[0], q[0]), q[1]) for q in aut.states if q not in sset
    }
    if len(set(rename.values())) != len(rename):
        raise DeterminismViolationError("vertex merge identified two states")
    # one-to-one on the surviving states, the merge keeps their arcs apart
    transitions = {
        (rename[q], letter): rename[target]
        for (q, letter), target in aut.transitions.items()
        if q in rename and target in rename
    }
    # the arcs into collapse states, from states that survive (no collapse
    # state feeds another), in state order: a clash is reported at the
    # first origin that makes it
    into = sorted(
        ((q, target) for (q, _), target in aut.transitions.items() if target in sset),
        key=lambda arc: state_key(arc[0]),
    )
    initial = {q for q in aut.initial if q not in sset}
    for origin, removed in into:
        for letter, target in aut.successors(removed):
            key = (rename[origin], letter)
            new_target = rename[target]
            if transitions.get(key, new_target) != new_target:
                raise DeterminismViolationError(
                    f"collapse doubly defines delta at {key}"
                )
            transitions[key] = new_target
        if removed in aut.initial:
            initial.add(origin)
    initial = {rename[q] for q in initial}
    return Automaton(aut.alphabet, rename.values(), transitions, initial)


def _signature(aut: Automaton, seed: State):
    """Canonical encoding of the reachable part, relabeled breadth-first
    from the seed along the global letter order."""
    ids = {seed: 0}
    order = [seed]
    i = 0
    while i < len(order):
        for letter, target in aut.successors(order[i]):
            if target not in ids:
                ids[target] = len(ids)
                order.append(target)
        i += 1
    rows = []
    for q in order:
        rows.append(
            (
                tuple((letter, ids[t]) for letter, t in aut.successors(q)),
                q in aut.initial,
                q in aut.final,
            )
        )
    return tuple(rows)


def isomorphic(a1: Automaton, a2: Automaton) -> bool:
    """State bijection preserving transitions, labels, initial and final
    sets; decided by canonical breadth-first relabeling."""
    if (
        a1.alphabet.rank != a2.alphabet.rank
        or a1.n_states != a2.n_states
        or len(a1.initial) != len(a2.initial)
        or len(a1.transitions) != len(a2.transitions)
    ):
        return False
    if not a1.states:
        return True
    seed = min(a1.initial, key=state_key) if a1.initial else a1.states[0]
    sig = _signature(a1, seed)
    candidates = a2.initial if a1.initial else a2.states
    return any(_signature(a2, q) == sig for q in candidates)


def word_census(aut: Automaton, n_max: int) -> list[int]:
    """Number of accepted words of each length 1..n_max, computed by
    path counting divided by the ambiguity degree (exact integers)."""
    k = aut.ambiguity
    if k < 1:
        raise PreconditionError("census needs ambiguity >= 1")
    index = {q: i for i, q in enumerate(aut.states)}
    arrows = [(index[q], index[t]) for (q, _), t in aut.transitions.items()]
    final = [index[q] for q in aut.final]
    vec = [0] * len(aut.states)
    for q in aut.initial:
        vec[index[q]] = 1
    counts = []
    for n in range(1, n_max + 1):
        nxt = [0] * len(vec)
        for src, dst in arrows:
            nxt[dst] += vec[src]
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
    dist = {q: 0 for q in aut.final}
    frontier = list(aut.final)
    back = predecessors(aut, aut.states)
    while frontier:
        nxt = []
        for q in frontier:
            for p in back[q]:
                if p not in dist:
                    dist[p] = dist[q] + 1
                    nxt.append(p)
        frontier = nxt
    q = rng.choice(sorted(aut.initial, key=state_key))
    word = []
    while len(word) < target_len or q not in aut.final:
        if len(word) < target_len:
            options = aut.successors(q)
            letter, q = options[rng.randrange(len(options))]
        else:
            letter, q = min(
                aut.successors(q), key=lambda p: (dist[p[1]], letter_key(p[0]))
            )
        word.append(letter)
    return tuple(word)
