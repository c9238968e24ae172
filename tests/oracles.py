"""Independent oracles the tests check the library against.

Each oracle deliberately avoids the code path it validates: folding is
redone by whole-edge-set rewriting (no per-vertex worklist), word counts by
enumerating every reduced word and tracing it through the graph (no
automaton path counting), the automaton by its definition on the edge
list (no neighbour maps, no successor rows), the top eigenvalue by exact
characteristic-polynomial bisection (no power iteration) or by the
Ihara-Bass pencil of the core (no transition matrix), Noda's iteration
state by state (no index arrays, no shared solver), the row transform
on dense arrays (no successor lists), cut vertices and the collapse of
the first one by searches and subset tests on sets (no bitmasks), and
the free-factor verdict by greedy Whitehead descent (no Whitehead
graph).

The last section holds helpers that only the tests use: membership by
tracing, an automaton's transition function as a dict, its successors
and predecessors by state, an automaton built from such a dict, a
matrix read from a dense array, a core built from its edge list (the
input checked, the maps filled by a pass of its own) and read back from
JSON, the Whitehead graph of a word, the conventional numbering of a core by a
depth-first search of its own (no neighbour maps, no letter-order
table), rooted isomorphism with a fixed and with a free root, every
small core graph, and an exhaustive Whitehead search.
"""

import itertools
import json
import math
import numbers
from fractions import Fraction

import numpy as np

from cogrowth.automaton import Automaton, state_key
from cogrowth.core_graph import CollapseData, CoreGraph
from cogrowth.errors import (
    ConvergenceFailureError,
    FoldingViolationError,
    PreconditionError,
)
from cogrowth.spectral import AdjacencyMatrix, PFResult
from cogrowth.whitehead import WhiteheadGraph
from cogrowth.words import (
    Alphabet,
    WhiteheadAutomorphism,
    apply_whitehead,
    cyclic_reduce,
    is_cyclically_reduced,
    letter_key,
    sigma,
)


# -- folding by whole-edge-set rewriting -----------------------------------


def naive_fold(gens, rank, cyclic=False):
    """Fold a wedge of loops by repeatedly rewriting the full edge set.

    Returns (root, edges) with positively labeled edges.  With `cyclic`,
    hanging trees are trimmed at the root as well, which leaves the core
    of the conjugacy class.
    """
    edges = set()
    fresh = 1
    for w in gens:
        prev = 0
        for i, letter in enumerate(w):
            nxt = 0 if i == len(w) - 1 else fresh
            if i < len(w) - 1:
                fresh += 1
            if letter > 0:
                edges.add((prev, letter, nxt, len(edges)))
            else:
                edges.add((nxt, -letter, prev, len(edges)))
            prev = nxt

    def merge(edge_set, keep, drop):
        return {
            (keep if o == drop else o, g, keep if t == drop else t, i)
            for o, g, t, i in edge_set
        }

    while True:
        clash = None
        seen_out, seen_in = {}, {}
        for o, g, t, i in sorted(edges):
            if (o, g) in seen_out and seen_out[(o, g)] != t:
                clash = (seen_out[(o, g)], t)
                break
            seen_out[(o, g)] = t
            if (t, g) in seen_in and seen_in[(t, g)] != o:
                clash = (seen_in[(t, g)], o)
                break
            seen_in[(t, g)] = o
        if clash is None:
            break
        edges = merge(edges, min(clash), max(clash))
    deduped = {(o, g, t) for o, g, t, _ in edges}
    while True:
        degree = {}
        for o, g, t in deduped:
            degree[o] = degree.get(o, 0) + 1
            degree[t] = degree.get(t, 0) + 1
        hanging = {v for v, d in degree.items() if d < 2 and (cyclic or v != 0)}
        if not hanging:
            break
        deduped = {
            (o, g, t) for o, g, t in deduped if o not in hanging and t not in hanging
        }
    return 0, deduped


def naive_membership(root, edges, word):
    step = {}
    for o, g, t in edges:
        step[(o, g)] = t
        step[(t, -g)] = o
    v = root
    for letter in word:
        v = step.get((v, letter))
        if v is None:
            return False
    return v == root


# -- exhaustive census by per-word tracing --------------------------------


def _trace_tables(graph):
    """Letter-indexed step tables over vertex codes; the last code is a
    dead sink."""
    letters = sigma(graph.alphabet.rank)
    v_index = {v: i for i, v in enumerate(graph.vertices)}
    dead = len(graph.vertices)
    table = np.full((len(letters), dead + 1), dead, dtype=np.int16)
    for li, letter in enumerate(letters):
        for v, vi in v_index.items():
            w = graph.step(v, letter)
            if w is not None:
                table[li, vi] = v_index[w]
    return letters, table, v_index[graph.root], dead


def brute_census(graph, n_max):
    """a_1..a_n_max by enumerating every reduced word over the alphabet
    that reads a path from the root, one array slot per word.  A word
    that leaves the core never comes back, so after each letter the
    words at the dead sink are dropped rather than extended."""
    letters, table, root, dead = _trace_tables(graph)
    n_letters = len(letters)
    inverse_of = np.array(
        [letters.index(-l) for l in letters], dtype=np.int16
    )
    last = np.arange(n_letters, dtype=np.int16)
    vert = table[last, np.full(n_letters, root, dtype=np.int16)]
    counts = [int((vert == root).sum())]
    for _ in range(1, n_max):
        alive = vert != dead
        last, vert = last[alive], vert[alive]
        child = np.tile(np.arange(n_letters, dtype=np.int16), len(last))
        parent_last = np.repeat(last, n_letters)
        keep = child != inverse_of[parent_last]
        last = child[keep]
        vert = table[last, np.repeat(vert, n_letters)[keep]]
        counts.append(int((vert == root).sum()))
    return counts


def brute_language_vectors(aut, rank, n_max):
    """Acceptance indicator of every reduced word of each length 1..n_max,
    as boolean arrays in enumeration order (comparable across automata)."""
    letters = sigma(rank)
    n_letters = len(letters)
    states = list(aut.states)
    index = {q: i for i, q in enumerate(states)}
    delta = transitions(aut)
    dead = len(states)
    table = np.full((n_letters, dead + 1), dead, dtype=np.int16)
    for li, letter in enumerate(letters):
        for q, qi in index.items():
            target = delta.get((q, letter))
            if target is not None:
                table[li, qi] = index[target]
    finals = np.zeros(dead + 1, dtype=bool)
    for q in aut.final:
        finals[index[q]] = True
    inverse_of = np.array([letters.index(-l) for l in letters], dtype=np.int16)

    starts = sorted(index[q] for q in aut.initial)
    last = np.arange(n_letters, dtype=np.int16)
    tracks = [table[last, np.full(n_letters, s, dtype=np.int16)] for s in starts]
    out = []
    accepted = np.zeros(n_letters, dtype=bool)
    for tr in tracks:
        accepted |= finals[tr]
    out.append(accepted)
    for _ in range(1, n_max):
        child = np.tile(np.arange(n_letters, dtype=np.int16), len(last))
        keep = child != inverse_of[np.repeat(last, n_letters)]
        last = child[keep]
        tracks = [table[last, np.repeat(tr, n_letters)[keep]] for tr in tracks]
        accepted = np.zeros(len(last), dtype=bool)
        for tr in tracks:
            accepted |= finals[tr]
        out.append(accepted)
    return out


# -- the automaton read off its definition ----------------------------------


def automaton_by_definition(graph: CoreGraph):
    """The automaton of a core from the edge list alone (no neighbour
    maps, no rows): a state (v, l) for each extended edge that enters v
    with label l, and from it a transition on every label l' != l^-1
    that leaves v, to (the end of that edge, l').

    Returns the states sorted by vertex, then letter (x1, x1^-1, x2,
    ...), each state's successors in the same letter order, and the
    states at the root, the initial set.
    """
    key = lambda l: (abs(l), l < 0)
    leaving = {}
    for o, g, t in graph.edges:
        leaving.setdefault(o, {})[g] = t
        leaving.setdefault(t, {})[-g] = o
    states = sorted(
        ((w, l) for v in leaving for l, w in leaving[v].items()),
        key=lambda q: (q[0], key(q[1])),
    )
    successors = {
        (v, l): [
            (leaving[v][m], m) for m in sorted(leaving[v], key=key) if m != -l
        ]
        for v, l in states
    }
    return states, successors, {q for q in states if q[0] == graph.root}


# -- Perron-Frobenius value by characteristic polynomial -------------------


def charpoly(mat) -> list[int]:
    """Coefficients of det(xI - A), leading first, exact integers
    (Faddeev-LeVerrier)."""
    n = len(mat)
    a = [[Fraction(int(x)) for x in row] for row in mat]

    def matmul(p, q):
        return [
            [sum(p[i][k] * q[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]

    coeffs = [Fraction(1)]
    m = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        if k > 1:
            m = matmul(a, m)
            for i in range(n):
                m[i][i] += coeffs[k - 1]
        am = matmul(a, m)
        ck = -sum(am[i][i] for i in range(n)) / k
        coeffs.append(ck)
    assert all(c.denominator == 1 for c in coeffs)
    return [int(c) for c in coeffs]


def _eval(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * x + c
    return acc


def charpoly_pf(mat, precision=Fraction(1, 10**12)) -> float:
    """Largest real root of the characteristic polynomial, bracketed by a
    downward scan from above the max row sum and refined by bisection."""
    coeffs = charpoly(mat)
    hi = Fraction(int(max(sum(int(x) for x in row) for row in mat)) + 1)
    grid = Fraction(1, 1024)
    lo = None
    x = hi
    while x > 0:
        x -= grid
        if _eval(coeffs, x) <= 0:
            lo = x
            break
    assert lo is not None, "no sign change found above zero"
    hi = lo + grid
    while hi - lo > precision:
        mid = (lo + hi) / 2
        if _eval(coeffs, mid) <= 0:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def ihara_bass_pf(core: CoreGraph, precision: float = 1e-14) -> float:
    """Perron root of the core's transition matrix by the Ihara-Bass
    formula (Bass 1992; Kotani-Sunada 2000), with no transition matrix.

    The states are the core's directed edges and a transition is a
    non-backtracking continuation, so det(I - uM) = (1 - u^2)^(E - V)
    det(I - uA + u^2 (D - I)) on the V x V adjacency A and degrees D,
    where a loop counts 2 in both.  The pencil is positive definite at
    u = 0 and first turns singular at u = 1/lambda; bisection on (0, 1)
    with a Cholesky test finds that point.
    """
    index = {v: i for i, v in enumerate(core.vertices)}
    n = len(index)
    adj = np.zeros((n, n))
    degree = np.zeros(n)
    for o, _, t in core.edges:
        adj[index[o], index[t]] += 1
        adj[index[t], index[o]] += 1
        degree[index[o]] += 1
        degree[index[t]] += 1
    lo, hi = 0.0, 1.0
    while hi - lo > precision:
        u = (lo + hi) / 2
        try:
            np.linalg.cholesky(np.eye(n) - u * adj + u * u * np.diag(degree - 1))
            lo = u
        except np.linalg.LinAlgError:
            hi = u
    return 2 / (lo + hi)


def noda_reference(m: AdjacencyMatrix, tol: float) -> PFResult:
    """Noda's iteration from the all-ones vector, written out state by
    state: the chains of forced states eliminated as `spectral.pf_eigen`
    eliminates them, but with per-state loops, the chain-ending factor c
    kept per state, and a Gaussian elimination of its own that updates
    every column.  It has no kernel start, so it checks `pf_eigen` by
    agreement: both brackets are at most tol wide around the Perron root.

    Raises ConvergenceFailureError where the iteration stalls, meets a
    zero pivot or loses positivity; the messages are not those of
    `pf_eigen`.
    """
    rows = m.rows
    n = len(rows)
    # the forced chains: a state whose row is one entry other than itself
    # is forced; walks from each state in turn, and a walk that closes a
    # cycle of forced states leaves its last state in the kernel
    succ = []
    for q in range(n):
        if len(rows[q]) == 1 and rows[q][0] != q:
            succ.append(rows[q][0])
        else:
            succ.append(q)
    end, depth, state = list(range(n)), [0] * n, ["unseen"] * n
    for start in range(n):
        walk, q = [], start
        while state[q] == "unseen" and succ[q] != q:
            state[q] = "walking"
            walk.append(q)
            q = succ[q]
        if state[q] == "walking":
            succ[q] = q
        for p in reversed(walk):
            if succ[p] != p:
                end[p] = end[succ[p]]
                depth[p] = depth[succ[p]] + 1
            state[p] = "done"
    kernel = [q for q in range(n) if depth[q] == 0]
    forced = sorted([q for q in range(n) if depth[q] > 0], key=lambda q: depth[q])
    k = len(kernel)
    slot = {q: i for i, q in enumerate(kernel)}

    v = [1.0] * n
    previous = math.inf
    iteration = 0
    while True:
        iteration += 1
        ratios = []
        for q in range(n):
            ratios.append(sum(v[j] for j in rows[q]) / v[q])
        lo, hi = min(ratios), max(ratios)
        width = hi - lo
        if width <= tol:
            return PFResult((lo + hi) / 2, v, iteration, width)
        if not width < previous:
            raise ConvergenceFailureError("stalled")
        previous = width
        a, c = [0.0] * n, [1.0] * n
        for q in forced:
            a[q] = (v[q] + a[succ[q]]) / hi
            c[q] = c[succ[q]] / hi
        system = [[0.0] * k for _ in range(k)]
        rhs = [v[q] for q in kernel]
        for i, q in enumerate(kernel):
            system[i][i] = hi
            for j in rows[q]:
                system[i][slot[end[j]]] -= c[j]
                rhs[i] += a[j]
        # elimination with partial pivoting, the first largest pivot
        for col in range(k):
            pivot = col
            for r in range(col + 1, k):
                if abs(system[r][col]) > abs(system[pivot][col]):
                    pivot = r
            if system[pivot][col] == 0:
                raise ConvergenceFailureError("singular")
            system[col], system[pivot] = system[pivot], system[col]
            rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
            for r in range(col + 1, k):
                f = system[r][col] / system[col][col]
                if f != 0:
                    for j in range(col + 1, k):
                        system[r][j] -= f * system[col][j]
                    rhs[r] -= f * rhs[col]
        # back substitution by columns
        for j in reversed(range(k)):
            rhs[j] /= system[j][j]
            for i in range(j):
                rhs[i] -= rhs[j] * system[i][j]
        w = [0.0] * n
        for i, q in enumerate(kernel):
            w[q] = rhs[i]
        for q in forced:
            w[q] = (v[q] + w[succ[q]]) / hi
        top = max(w)
        for x in w:
            if not x > 0:
                raise ConvergenceFailureError("lost positivity")
        if not min(w) / top > 0:
            raise ConvergenceFailureError("lost positivity")
        v = []
        for x in w:
            v.append(x / top)


# -- the row transform on dense arrays -------------------------------------


def dense_row_transform(mat, boundary: int) -> np.ndarray:
    """The NSE row transform on a dense array: add each collapse row (from
    `boundary` on) into every row with an entry in its column, then drop
    the collapse rows and columns."""
    work = np.array(mat, dtype=np.int64)
    for col in range(boundary, len(work)):
        for i in np.nonzero(work[:, col])[0]:
            work[i, :] += work[col, :]
    return work[:boundary, :boundary]


# -- cut vertices by plain searches ---------------------------------------


def cut_vertices(edges, rank):
    """(letter, configuration, witness) of every cut vertex of the simple
    graph on the letters x1, x1^-1, x2, ... with `edges` (pairs of
    letters), in that order; the witness lists the pieces of comp(a) - a
    by their least letter, each piece sorted.

    Sets throughout: the pieces are the components left once a is
    removed, one search from each neighbour of a not yet reached.
    """
    key = lambda l: (abs(l), l < 0)
    letters = [s * g for g in range(1, rank + 1) for s in (1, -1)]
    adjacent = {l: set() for l in letters}
    for u, v in edges:
        adjacent[u].add(v)
        adjacent[v].add(u)

    def component(start, removed):
        seen, stack = {start}, [start]
        while stack:
            for w in adjacent[stack.pop()] - seen - {removed}:
                seen.add(w)
                stack.append(w)
        return frozenset(seen)

    out = []
    for a in letters:
        pieces, seen = [], set()
        for start in adjacent[a]:
            if start not in seen:
                pieces.append(component(start, a))
                seen |= pieces[-1]
        if not pieces:  # isolated
            continue
        witness = tuple(
            sorted((tuple(sorted(p, key=key)) for p in pieces), key=lambda p: key(p[0]))
        )
        if not any(-a in p for p in pieces):
            out.append((a, 1, witness))
        elif len(pieces) > 1:
            out.append((a, 2, witness))
    return out


def clique_edges(label_sets):
    """The edges of the Whitehead graph of `label_sets`: each pair of
    letters that share a label set."""
    return {(u, v) for labels in label_sets.values() for u in labels for v in labels if u != v}


def collapse_for_cut(graph, label_sets, a, witness):
    """The automorphism (A, a) of the cut vertex a whose pieces are
    `witness`, and its collapse edges: A is the union of the pieces that
    miss a^-1, and each vertex in case 3 of the trichotomy (a in L_v and
    L_v within A + {a}, a frozenset test per vertex) collapses along its
    a-edge, in vertex order."""
    members = frozenset(l for piece in witness if -a not in piece for l in piece)
    side = members | {a}
    e_o = tuple(
        (v, a, graph.step(v, a))
        for v in graph.vertices
        if a in label_sets[v] and label_sets[v] <= side
    )
    return WhiteheadAutomorphism(a, members), CollapseData(a, e_o)


def first_cut_collapse(graph):
    """The collapse of the first cut vertex of `graph`'s Whitehead graph,
    by the searches above, or None when it has no cut vertex."""
    label_sets = {v: frozenset(graph.neighbours(v)) for v in graph.vertices}
    cuts = cut_vertices(clique_edges(label_sets), graph.alphabet.rank)
    if not cuts:
        return None
    a, _, witness = cuts[0]
    return collapse_for_cut(graph, label_sets, a, witness)


# -- free factors by greedy Whitehead descent ------------------------------


def spanning_tree_basis(root, edges):
    """A basis of the subgroup a folded graph carries at `root`: for each
    edge (o, g, t) off a breadth-first spanning tree, the tree path to o,
    then g, then the tree path from t back to the root."""
    edges = sorted(edges)
    path, tree, queue = {root: ()}, set(), [root]
    for v in queue:
        for o, g, t in edges:
            for here, there, letter in ((o, t, g), (t, o, -g)):
                if here == v and there not in path:
                    path[there] = path[v] + (letter,)
                    tree.add((o, g, t))
                    queue.append(there)
    return [
        path[o] + (g,) + tuple(-l for l in reversed(path[t]))
        for o, g, t in edges
        if (o, g, t) not in tree
    ]


def whitehead_descent(edges, rank):
    """Greedy peak reduction for subgroups (Gersten 1984): apply the
    first Whitehead automorphism that shrinks the core of the conjugacy
    class, read a basis off the image, and repeat until none shrinks it.
    Returns the final core's edges; it has a single vertex exactly when
    the subgroup is a free factor."""
    core = set(edges)
    while True:
        root = min(o for o, _, _ in core)
        basis = spanning_tree_basis(root, core)
        for phi in all_whitehead_automorphisms(rank):
            images = [apply_whitehead(phi, w) for w in basis]
            _, image = naive_fold(images, rank, cyclic=True)
            if len(image) < len(core):
                core = image
                break
        else:
            return core


# -- test-only helpers ---------------------------------------------------


def membership(graph: CoreGraph, word) -> bool:
    """True iff the reduced word labels a root-to-root extended path."""
    v = graph.root
    for letter in word:
        v = graph.step(v, letter)
        if v is None:
            return False
    return v == graph.root


def transitions(aut: Automaton) -> dict:
    """The transition function, (state, letter) -> target, read off the
    automaton's rows: a transition's letter is its target's."""
    return {
        (aut.states[i], aut.states[j][1]): aut.states[j]
        for i, row in enumerate(aut.rows)
        for j in row
    }


def successors(aut: Automaton, state) -> list:
    """(letter, target) of each transition leaving `state`, in the
    global letter order."""
    return [(aut.states[j][1], aut.states[j]) for j in aut.rows[aut.index[state]]]


def predecessors(aut: Automaton, states) -> dict:
    """Origins of the transitions into each of `states`."""
    back = {q: [] for q in states}
    for (q, _), t in transitions(aut).items():
        if t in back:
            back[t].append(q)
    return back


def automaton_from_transitions(alphabet, states, delta, initial) -> Automaton:
    """The automaton with the transition function `delta`, a dict
    (state, letter) -> target whose letter is the target's."""
    states = sorted(states, key=state_key)
    index = {q: i for i, q in enumerate(states)}
    rows = [[] for _ in states]
    for (q, letter), t in sorted(delta.items(), key=lambda item: letter_key(item[0][1])):
        if t[1] != letter:
            raise ValueError("transition label differs from target letter")
        rows[index[q]].append(index[t])
    return Automaton(alphabet, states, [tuple(row) for row in rows], initial)


def from_array(array, states, collapse=None) -> AdjacencyMatrix:
    """The matrix of a square, nonnegative, integral array: a nested
    sequence of rows, such as a list of lists or a numpy array, indexed
    by `states` (an NSE's when `collapse` is its SStateSet)."""
    try:
        dense = [list(row) for row in array]
    except TypeError:
        raise ValueError("matrix must be square") from None
    if any(len(row) != len(dense) for row in dense):
        raise ValueError("matrix must be square")
    if not all(
        isinstance(x, numbers.Real) and x >= 0 and x % 1 == 0
        for row in dense
        for x in row
    ):
        raise ValueError("matrix must be nonnegative and integral")
    rows = tuple(
        tuple(j for j, x in enumerate(row) for _ in range(int(x))) for row in dense
    )
    return AdjacencyMatrix(rows, tuple(states), collapse)


def core_from_edges(alphabet: Alphabet, root: int, edges) -> CoreGraph:
    """The graph of the positive edges (origin, label, terminus) rooted
    at `root`, its neighbour maps filled one letter at a time in the
    global order.  Raises ValueError for a label outside the alphabet
    and FoldingViolationError for two edges with one label at a vertex."""
    edges = sorted(set(edges))
    by_label: dict[int, list] = {g: [] for g in range(1, alphabet.rank + 1)}
    for o, g, t in edges:
        if g not in by_label:
            raise ValueError(f"edge label {g} outside alphabet")
        by_label[g].append((o, t))
    nbr = {v: {} for v in sorted({root, *(v for o, _, t in edges for v in (o, t))})}
    for letter in sigma(alphabet.rank):
        for o, t in by_label[abs(letter)]:
            v, w = (o, t) if letter > 0 else (t, o)
            if nbr[v].setdefault(letter, w) != w:
                raise FoldingViolationError(
                    f"two edges labeled {alphabet.spell(letter)} at vertex {v}"
                )
    return CoreGraph(alphabet, root, nbr)


def core_from_json(text: str) -> CoreGraph:
    """Inverse of `cli.core_json`."""
    data = json.loads(text)
    alphabet = Alphabet(tuple(data["alphabet"]))
    edges = [(e["o"], alphabet.index(e["label"]), e["t"]) for e in data["edges"]]
    return core_from_edges(alphabet, data["root"], edges)


def whitehead_graph_of_word(word, rank: int) -> WhiteheadGraph:
    """One edge per consecutive pair (inverse of first to second), plus
    the wrap-around edge; the multiset has exactly |word| edges."""
    if not word or not is_cyclically_reduced(word):
        raise PreconditionError("Whitehead graph needs a nonempty cyclically reduced word")
    mult = {}
    for i in range(len(word)):
        u, v = -word[i], word[(i + 1) % len(word)]
        e = (u, v) if letter_key(u) <= letter_key(v) else (v, u)
        mult[e] = mult.get(e, 0) + 1
    return WhiteheadGraph(rank, mult)


def canonical_numbering(root, edges):
    """Ids 1, 2, ... in depth-first preorder from `root`, each vertex's
    extended edges taken in the order x, X, y, Y, ..., and the edges
    renumbered by them, sorted.  Two folded connected graphs have equal
    forms iff they are rooted isomorphic, and then the ids map each onto
    the form; `build_core` numbers its cores by this preorder."""
    out = {}
    for o, g, t in edges:  # x, X, y, Y, ... rank 1, 2, 3, 4, ...
        out.setdefault(o, []).append((2 * g - 1, t))
        out.setdefault(t, []).append((2 * g, o))
    ids = {root: 1}
    path = [iter(sorted(out.get(root, ())))]
    while path:
        for _, w in path[-1]:
            if w not in ids:
                ids[w] = len(ids) + 1
                path.append(iter(sorted(out[w])))
                break
        else:
            path.pop()
    return ids, tuple(sorted((ids[o], g, ids[t]) for o, g, t in edges))


def rooted_isomorphism(g1: CoreGraph, g2: CoreGraph) -> dict[int, int] | None:
    """The vertex map of the rooted isomorphism from `g1` onto `g2`, or
    None when there is none.  A folded connected graph has no nontrivial
    rooted automorphism, so the map is unique when it exists."""
    if g1.alphabet != g2.alphabet:
        return None
    ids1, form1 = canonical_numbering(g1.root, g1.edges)
    ids2, form2 = canonical_numbering(g2.root, g2.edges)
    if form1 != form2:
        return None
    vertex = {i: v for v, i in ids2.items()}
    return {v: vertex[i] for v, i in ids1.items()}


def isomorphic_any_root(g1: CoreGraph, g2: CoreGraph) -> bool:
    """Rooted isomorphism after searching g2's root over all candidates."""
    if g1.alphabet != g2.alphabet:
        return False
    form = canonical_numbering(g1.root, g1.edges)[1]
    return any(canonical_numbering(v, g2.edges)[1] == form for v in g2.vertices)


def _partial_injections(n: int):
    """Every injective partial map of 1..n to itself, as a tuple of
    (source, target) pairs."""
    for targets in itertools.product(range(n + 1), repeat=n):
        image = [t for t in targets if t]
        if len(image) == len(set(image)):
            yield tuple((v, t) for v, t in enumerate(targets, start=1) if t)


def all_small_cores(alphabet: Alphabet, n_vertices: int):
    """Every core on the vertices 1..n_vertices with root 1: each letter
    acts as a partial injection, the graph is connected, every vertex
    has degree >= 2 (a loop counts twice) and the rank is >= 2.

    Labelled: every numbering of a core with its root at 1 appears.
    """
    maps = list(_partial_injections(n_vertices))
    for letter_maps in itertools.product(maps, repeat=alphabet.rank):
        edges = [
            (v, g, t) for g, pairs in enumerate(letter_maps, start=1) for v, t in pairs
        ]
        if len(edges) - n_vertices + 1 < 2:
            continue
        degree = dict.fromkeys(range(1, n_vertices + 1), 0)
        adjacent = {v: set() for v in degree}
        for v, _, t in edges:
            degree[v] += 1
            degree[t] += 1
            adjacent[v].add(t)
            adjacent[t].add(v)
        if min(degree.values()) < 2:
            continue
        seen, stack = {1}, [1]
        while stack:
            for t in adjacent[stack.pop()] - seen:
                seen.add(t)
                stack.append(t)
        if len(seen) == n_vertices:
            yield core_from_edges(alphabet, 1, edges)


def cyclically_reduced_images(phi, gens):
    """The next generators by the per-image route: each image under
    `phi` cyclically reduced on its own, or None when their conjugators
    differ.  Where `gens` are cyclically reduced, a step's one
    conjugator must give the same words."""
    split = [cyclic_reduce(apply_whitehead(phi, w)) for w in gens]
    if len({c for _, c in split}) > 1:
        return None
    return tuple(w for w, _ in split)


def cyclic_length(word) -> int:
    core, _ = cyclic_reduce(word)
    return len(core)


def all_whitehead_automorphisms(rank: int):
    """Every (A, a) over the rank-m alphabet, in deterministic order:
    2m * 2^(2m-2) candidates."""
    letters = sigma(rank)
    for a in letters:
        rest = [l for l in letters if abs(l) != abs(a)]
        for mask in range(1 << len(rest)):
            members = frozenset(
                l for i, l in enumerate(rest) if mask >> i & 1
            )
            yield WhiteheadAutomorphism(a, members)


def reduce_primitive_word(word, rank: int):
    """Exhaustively search for an automorphism strictly shrinking the
    cyclic length; returns (phi, image), or None when no candidate
    shrinks it."""
    if not is_cyclically_reduced(word) or not word:
        raise PreconditionError("word must be nonempty and cyclically reduced")
    if len(word) == 1:
        raise PreconditionError("single letters are already minimal")
    base = len(word)
    for phi in all_whitehead_automorphisms(rank):
        image, _ = cyclic_reduce(apply_whitehead(phi, word))
        if len(image) < base:
            return phi, image
    return None
