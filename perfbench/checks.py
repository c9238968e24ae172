"""Checks on the program's outputs, made apart from the program.

Folding is redone here by merging vertices off a worklist (the program
rescans an edge list under union-find), cores are compared by a
canonical depth-first numbering written here, word counts come from
enumerating the reduced words readable from the root, and eigenvalues
are bracketed by Collatz-Wielandt ratios and, for small matrices,
compared with `numpy.linalg.eigvals`.  Nothing here calls into
`cogrowth`; the program's results are only read.

Every check raises CheckError with a reason, and returns nothing when it
passes.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict

import numpy as np

# The program's power iteration stops at residual 1e-10; the brackets of
# its eigenvectors are at most 4e-10 wide on every workload.
BRACKET_WIDTH = 1e-8
# Matrices up to this order are also solved with numpy.linalg.eigvals.
SMALL_ORDER = 64
EIGVALS_RTOL = 1e-8
# Counts in the census are checked by enumeration up to this length.
CENSUS_ENUMERATED = 6


class CheckError(Exception):
    pass


def require(ok: bool, reason: str):
    if not ok:
        raise CheckError(reason)


# -- folding and graphs ----------------------------------------------------


def fold(gens):
    """Stallings folding of a wedge of loops at vertex 0.

    Returns (root, edges) with edges (origin, positive label, terminus).
    """
    adj = defaultdict(lambda: defaultdict(set))  # vertex -> letter -> targets
    fresh = 1
    for w in gens:
        prev = 0
        for i, letter in enumerate(w):
            nxt = 0 if i == len(w) - 1 else fresh
            fresh += nxt != 0
            adj[prev][letter].add(nxt)
            adj[nxt][-letter].add(prev)
            prev = nxt
    root = 0
    work = list(adj)
    while work:
        v = work.pop()
        if v not in adj:
            continue
        clash = next((ts for ts in adj[v].values() if len(ts) > 1), None)
        if clash is None:
            continue
        keep, drop = sorted(clash)[:2]
        for letter, targets in list(adj.pop(drop).items()):
            for t in list(targets):
                t = keep if t == drop else t
                adj[t][-letter].discard(drop)
                adj[t][-letter].add(keep)
                adj[keep][letter].add(t)
        root = keep if root == drop else root
        work += [keep, v]
    while True:  # trim vertices of degree < 2 other than the root
        hanging = [
            v for v, by in adj.items()
            if v != root and sum(len(ts) for ts in by.values()) < 2
        ]
        if not hanging:
            break
        for v in hanging:
            for letter, targets in adj.pop(v).items():
                for t in targets:
                    if t in adj:
                        adj[t][-letter].discard(v)
    edges = frozenset(
        (v, letter, t)
        for v, by in adj.items()
        for letter, targets in by.items()
        if letter > 0
        for t in targets
    )
    return root, edges


def vertices(root, edges) -> set:
    return {root} | {v for o, _, t in edges for v in (o, t)}


def step_map(edges) -> dict:
    out = {}
    for o, g, t in edges:
        out[(o, g)] = t
        out[(t, -g)] = o
    return out


def trace_word(root, edges, word):
    """End vertex of the path spelling `word` from the root, or None."""
    step = step_map(edges)
    v = root
    for letter in word:
        v = step.get((v, letter))
        if v is None:
            return None
    return v


def canonical(root, edges):
    """Edges renumbered by depth-first discovery along letters 1, -1, 2,
    -2, ...; equal for two folded graphs iff they are rooted isomorphic."""
    step = step_map(edges)
    letters = sorted({g for _, g, _ in edges} | {-g for _, g, _ in edges},
                     key=lambda l: (abs(l), l < 0))
    ids = {}
    stack = [root]
    while stack:
        v = stack.pop()
        if v in ids:
            continue
        ids[v] = len(ids)
        stack += [step[(v, l)] for l in reversed(letters) if (v, l) in step]
    if len(ids) != len(vertices(root, edges)):
        raise CheckError("graph is not connected")
    return tuple(sorted((ids[o], g, ids[t]) for o, g, t in edges))


def isomorphic(g1, g2) -> bool:
    """Isomorphic as labelled graphs, the root of g2 free to move."""
    (r1, e1), (r2, e2) = g1, g2
    if len(e1) != len(e2) or len(vertices(r1, e1)) != len(vertices(r2, e2)):
        return False
    target = canonical(r1, e1)
    return canonical(r2, e2) == target or any(
        canonical(v, e2) == target for v in vertices(r2, e2)
    )


def graph_of(core):
    """(root, edges) of a program CoreGraph."""
    return core.root, frozenset(core.edges)


def degrees(root, edges) -> dict:
    deg = {v: 0 for v in vertices(root, edges)}
    for o, _, t in edges:
        deg[o] += 1
        deg[t] += 1
    return deg


# -- eigenvalues -----------------------------------------------------------


def dense_pf(matrix) -> float:
    return float(max(np.linalg.eigvals(np.asarray(matrix, dtype=float)).real))


def check_pf(matrix, eigenvalue, eigenvector, what: str):
    """The eigenvalue lies in the Collatz-Wielandt bracket of its vector,
    the bracket is narrow, and small matrices agree with eigvals."""
    m = np.asarray(matrix, dtype=float)
    v = np.asarray(eigenvector, dtype=float)
    lam = float(eigenvalue)
    require(v.shape == (m.shape[0],) and (v > 0).all(),
            f"{what}: eigenvector is not positive")
    ratios = (m @ v) / v
    lo, hi = float(ratios.min()), float(ratios.max())
    slack = 1e-12 * max(1.0, lam)
    require(lo - slack <= lam <= hi + slack,
            f"{what}: eigenvalue {lam!r} outside its bracket [{lo!r}, {hi!r}]")
    require(hi - lo <= BRACKET_WIDTH,
            f"{what}: bracket [{lo!r}, {hi!r}] wider than {BRACKET_WIDTH}")
    if m.shape[0] <= SMALL_ORDER:
        rho = dense_pf(m)
        require(abs(rho - lam) <= EIGVALS_RTOL * rho,
                f"{what}: eigenvalue {lam!r}, eigvals gives {rho!r}")


# -- library workloads -----------------------------------------------------


def check_step(step, where: str):
    before = fold(step.gens_before)
    require(canonical(*graph_of(step.core_before)) == canonical(*before),
            f"{where}: core differs from the independent fold")
    after = fold(step.gens_after)
    require(isomorphic(graph_of(step.core_after), after),
            f"{where}: collapsed core is not the core folded from gens_after")
    require(len(vertices(*after)) < len(vertices(*before)),
            f"{where}: core did not shrink")
    require(step.pf.eigenvalue < step.pf1.eigenvalue,
            f"{where}: lambda {step.pf.eigenvalue!r} not below lambda1 {step.pf1.eigenvalue!r}")
    check_pf(step.m.matrix, step.pf.eigenvalue, step.pf.eigenvector, f"{where} lambda")
    check_pf(step.m1.matrix, step.pf1.eigenvalue, step.pf1.eigenvector, f"{where} lambda1")


def check_reduction(inst, trace):
    """Terminal status, every step, and the final rose."""
    expected = "no_cut_vertex" if inst.expect_no_cut_vertex else "single_vertex_core"
    require(trace.status == expected,
            f"{inst.label}: status {trace.status}, expected {expected}")
    gens = tuple(inst.gens)
    for i, step in enumerate(trace.steps, start=1):
        require(tuple(step.gens_before) == gens,
                f"{inst.label} step {i}: does not start from the previous step's images")
        check_step(step, f"{inst.label} step {i}")
        gens = tuple(step.gens_after)
    require(tuple(trace.final_gens) == gens, f"{inst.label}: final gens are not the last images")
    if expected == "single_vertex_core":
        k = len(inst.gens)
        root, edges = fold(trace.final_gens)
        require(vertices(root, edges) == {root} and len(edges) == k,
                f"{inst.label}: final core is not a rose of rank {k}")
        if trace.steps:
            lam1 = trace.steps[-1].pf1.eigenvalue
            require(abs(lam1 - (2 * k - 1)) <= 1e-8 * (2 * k - 1),
                    f"{inst.label}: last lambda1 {lam1!r}, expected {2 * k - 1}")


def check_fold(inst, n: int, r):
    """Closed form of x^n y x^-n z, x^n z x^-n t, and collapse = rebuild."""
    core = graph_of(r.core)
    v, e = len(vertices(*core)), len(core[1])
    require((v, e) == (3 * n + 3, 3 * n + 4),
            f"{inst.label}: core has {v} vertices and {e} edges, "
            f"expected {3 * n + 3} and {3 * n + 4}")
    require(r.core.n_vertices == v and r.core.n_edges == e and r.core.subgroup_rank == 2,
            f"{inst.label}: core reports {r.core.n_vertices} vertices, "
            f"{r.core.n_edges} edges, rank {r.core.subgroup_rank}")
    require(r.aut.n_states == 6 * n + 8,
            f"{inst.label}: {r.aut.n_states} automaton states, expected {6 * n + 8}")
    require(canonical(*core) == canonical(*fold(inst.gens)),
            f"{inst.label}: core differs from the independent fold")
    for w in inst.gens:
        require(trace_word(*core, w) == core[0],
                f"{inst.label}: a generator does not trace root to root")
    rebuilt = fold(r.images)
    require(isomorphic(graph_of(r.core_after), rebuilt),
            f"{inst.label}: collapsed core is not the core folded from the images")
    require(canonical(*graph_of(r.rebuilt)) == canonical(*rebuilt),
            f"{inst.label}: rebuilt core differs from the independent fold")
    require(r.collapsed.n_states == 2 * r.core_after.n_edges,
            f"{inst.label}: collapsed automaton has {r.collapsed.n_states} states, "
            f"expected {2 * r.core_after.n_edges}")


# -- cli -------------------------------------------------------------------


def parse_gens(spec: str, alphabet: str):
    return tuple(
        tuple(alphabet.index(c) + 1 if c.islower() else -(alphabet.index(c.lower()) + 1)
              for c in w)
        for w in spec.split(",")
    )


def census_by_enumeration(root, edges, n_max: int) -> list[int]:
    """a_1..a_n_max: reduced words readable from the root that end there,
    enumerated one word at a time."""
    out = defaultdict(list)
    for (v, letter), t in step_map(edges).items():
        out[v].append((letter, t))
    counts = [0] * (n_max + 1)
    stack = [(root, 0, 0)]
    while stack:
        v, last, n = stack.pop()
        if n and v == root:
            counts[n] += 1
        if n < n_max:
            stack += [(t, l, n + 1) for l, t in out[v] if l != -last]
    return counts[1:]


def _six(x) -> str:
    return f"{float(x):.6g}"


def _match(pattern: str, text: str, what: str):
    m = re.search(pattern, text, re.MULTILINE)
    require(m is not None, f"{what}: output does not match {pattern!r}")
    return m


def _json(text: str, what: str):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise CheckError(f"{what}: output is not JSON ({exc})") from None


def _option(argv, name):
    return argv[argv.index(name) + 1]


def check_cli(name: str, commands: dict, results: dict):
    """Check the output of one command.

    `commands` maps each command name to its argv and `results` to its
    CliResult: some outputs are checked against others (an eigenvalue
    against the matrix printed for the same generators).
    """
    argv = commands[name]
    res = results[name]
    require(res.code == 0, f"{name}: exit code {res.code}")
    out = res.stdout
    alphabet = _option(argv, "--alphabet")
    gens = parse_gens(_option(argv, "--gens"), alphabet)
    root, edges = fold(gens)
    deg = degrees(root, edges)
    command = argv[0]

    def matrix_pf():
        printed = [n for n, a in commands.items()
                   if a[0] == "matrix" and a[1:5] == argv[1:5] and n in results]
        require(bool(printed), f"{name}: no matrix printed for these generators")
        return dense_pf(_json(results[printed[0]].stdout, printed[0])["matrix"])

    if command == "core":
        m = _match(r"^core: (\d+) vertices, (\d+) edges, root \d+, subgroup rank (\d+)$",
                   out, name)
        found = tuple(int(x) for x in m.groups())
        expected = (len(deg), len(edges), len(edges) - len(deg) + 1)
        require(found == expected, f"{name}: reports {found}, expected {expected}")
    elif command == "whitehead":
        # every input here is a free factor
        require("not a free factor" not in out, f"{name}: calls a free factor not a free factor")
        if len(deg) > 1:  # Whitehead's lemma: a cut vertex exists
            _match(r"^cut vertices:\n  \S", out, name)
    elif command == "automaton":
        m = _match(r"^automaton: (\d+) states, (\d+) transitions, ambiguity (\d+)$", out, name)
        found = tuple(int(x) for x in m.groups())
        expected = (2 * len(edges), sum(d * (d - 1) for d in deg.values()), deg[root] - 1)
        require(found == expected, f"{name}: reports {found}, expected {expected}")
    elif command == "matrix":
        mat = np.asarray(_json(out, name)["matrix"])
        require(mat.shape == (2 * len(edges),) * 2 and set(np.unique(mat)) <= {0, 1},
                f"{name}: not a 0/1 matrix of order {2 * len(edges)}")
        expected = sorted(d - 1 for d in deg.values() for _ in range(d))
        require(sorted(mat.sum(axis=1).tolist()) == expected,
                f"{name}: row sums differ from the vertex degrees")
    elif command == "eigen":
        shown = _match(r"^eigenvalue = (\S+) ", out, name).group(1)
        rho = matrix_pf()
        require(shown == _six(rho), f"{name}: prints {shown}, eigvals gives {_six(rho)}")
    elif command == "reduce-step":
        data = _json(out, name)
        _check_json_step(data, name)
        require(data["core"]["vertices_before"] == len(deg),
                f"{name}: core has {data['core']['vertices_before']} vertices, expected {len(deg)}")
    elif command == "reduce":
        data = _json(out, name)
        require(data["status"] == "single_vertex_core", f"{name}: status {data['status']}")
        for i, step in enumerate(data["steps"], start=1):
            _check_json_step(step, f"{name} step {i}")
        k = len(gens)
        r, e = fold(parse_gens(",".join(data["final_gens"]), alphabet))
        require(vertices(r, e) == {r} and len(e) == k, f"{name}: final core is not a rose")
        require(_six(data["steps"][-1]["lambda_1"]) == _six(2 * k - 1),
                f"{name}: last lambda1 is not {2 * k - 1}")
    elif command == "census":
        n_max = int(_option(argv, "--n-max")) if "--n-max" in argv else 20
        rows = re.findall(r"^ *(\d+) +(\d+) +\S+$", out, re.MULTILINE)
        require([int(n) for n, _ in rows] == list(range(1, n_max + 1)),
                f"{name}: rows are not n = 1..{n_max}")
        counts = [int(a) for _, a in rows[:CENSUS_ENUMERATED]]
        expected = census_by_enumeration(root, edges, CENSUS_ENUMERATED)
        require(counts == expected, f"{name}: counts {counts}, enumeration gives {expected}")
        shown = _match(r"^cogrowth alpha = (\S+) ", out, name).group(1)
        rho = matrix_pf()
        require(shown == _six(rho), f"{name}: alpha {shown}, eigvals gives {_six(rho)}")
    elif command == "verify":
        lines = out.splitlines()
        require(lines and all(line.startswith("ok ") for line in lines),
                f"{name}: not every line reads ok")
    else:
        raise CheckError(f"{name}: no check for command {command}")


def _check_json_step(step: dict, where: str):
    for key, matrix in (("lambda", "matrix"), ("lambda_1", "matrix_1")):
        rho = dense_pf(step[matrix])
        require(_six(step[key]) == _six(rho),
                f"{where}: {key} {step[key]!r}, eigvals gives {rho!r}")
    require(step["lambda"] < step["lambda_1"], f"{where}: lambda not below lambda1")
    require(step["certificate"]["strict_rows"], f"{where}: certificate has no strict row")
    require(step["core"]["vertices_after"] < step["core"]["vertices_before"],
            f"{where}: core did not shrink")


# -- determinism between passes --------------------------------------------


def fingerprint(out):
    """What must repeat exactly when an operation is run again."""
    if isinstance(out, BaseException):
        return ("raised", type(out).__name__, str(out))
    if hasattr(out, "status"):  # a reduction trace
        return (out.status, tuple(out.final_gens),
                tuple((s.pf.eigenvalue, s.pf1.eigenvalue) for s in out.steps))
    if hasattr(out, "rebuilt"):  # a fold result
        return (out.core.edges, out.images, out.rebuilt.edges, out.collapsed.n_states)
    return (out.code, out.stdout)
