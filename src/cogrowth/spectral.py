"""Adjacency matrices under the OSE and an NSE, the row-transformation
derivation of the collapsed matrix, Perron-Frobenius eigenpairs, and the
strict spectral-gap certificate.

A matrix is held as its states and its rows of column indices: the
automaton's successor rows, sorted, under the OSE, and permuted under an
NSE (at most 2m - 1 entries, most rows one), whose matrix also carries
its collapse.  The row transform, the block check, the certificate and
the eigenpair solve all work on those rows; the dense matrix is built
only where it is printed or read whole (`.matrix`).
All arithmetic is plain Python: the only dense system, that of each
Newton or Noda step on the branch states, has order at most 6(r - 1)
for a core of rank r, and no module of the package imports numpy.

Eigenpairs come from Newton's method on the branch states, whose
solution starts Noda's inverse iteration; each reported eigenvalue
lies in a Collatz-Wielandt bracket [min(Mv/v), max(Mv/v)] at most `tol`
wide, which also contains the exact Perron root.  Both eliminate the
states with a single successor along their chains, so only a dense
system on the branch states remains.  Irreducibility is
established where each automaton is built (`Automaton.validate`), not
by the solver; `pipeline.reduce_step` requires the row-transformed
matrix, renamed to the next core's ids, to be that of the validated
automaton of the next core before it solves it (`check_step` rebuilds it).

The old state enumeration (OSE) sorts states by (vertex, letter).  The
new enumeration (NSE) used for one collapse step moves the collapse
states to the tail; the leading block is ordered exactly like the OSE of
the collapsed automaton, so removing a tail state's row/column after
adding it into the rows that feed it yields the collapsed adjacency
matrix positionally.  The matrix itself says who feeds whom: a lead
row feeds the tail state of its last column, when that column is in
the tail.  `derive_m1` checks the blocks once per step (`decompose`),
and `certify_inequality` reads the feeder rows off the same rows.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import add, eq, lt, mul, sub, truediv

from .automaton import Automaton, SStateSet, State
from .errors import (
    CertificateFailureError,
    ConvergenceFailureError,
    DecompositionViolationError,
    EntryOverflowError,
    PreconditionError,
)


@dataclass(frozen=True)
class AdjacencyMatrix:
    """Transition-count matrix of an automaton, with the states that
    index its rows and columns.

    ``rows[i]`` lists the columns of row i's entries in increasing order,
    a column once per unit of its entry: an automaton's rows are its
    states' successors.  ``collapse`` is set on an NSE matrix only: the
    collapse whose states the NSE moves to the tail.
    """

    rows: tuple[tuple[int, ...], ...]
    states: tuple[State, ...]
    collapse: SStateSet | None = None

    @property
    def size(self) -> int:
        return len(self.rows)

    @property
    def boundary(self) -> int | None:
        """The index of the first collapse state, on an NSE only."""
        s = self.collapse
        return None if s is None else len(self.states) - len(s.elements)

    @property
    def matrix(self) -> list[list[int]]:
        """The dense matrix as a list of rows, built on each call: for
        printing and for reading the matrix whole."""
        dense = [[0] * self.size for _ in self.rows]
        for line, row in zip(dense, self.rows):
            for j in row:
                line[j] += 1
        return dense


def adjacency(aut: Automaton, states: Sequence[State]) -> AdjacencyMatrix:
    """The matrix of `aut` with rows and columns in the order of
    `states`: each state's successors at their positions in the list,
    sorted.  The OSE keeps the automaton's own indices; an NSE permutes
    them."""
    states, rows = tuple(states), aut.rows
    if states != aut.states:
        order = [aut.index.get(q) for q in states]
        if len(order) != len(rows) or None in order or len(set(order)) != len(order):
            raise PreconditionError("ordering does not cover the automaton's states")
        position = sorted(range(len(order)), key=order.__getitem__)  # inverse
        rows = [tuple(map(position.__getitem__, rows[q])) for q in order]
    rows = [tuple(sorted(row)) for row in rows]
    return AdjacencyMatrix(tuple(rows), states)


def ose(aut: Automaton) -> AdjacencyMatrix:
    """The matrix of `aut` under its OSE, the automaton's own order."""
    return adjacency(aut, aut.states)


def make_nse(aut: Automaton, s: SStateSet) -> AdjacencyMatrix:
    """The matrix of `aut` under the NSE of `s`: non-collapse states
    ordered by their post-merge (vertex, letter) keys but keeping their
    original names, then the collapse states."""
    lead = tuple([aut.states[i] for i in s.survivors])
    m = adjacency(aut, lead + s.elements)
    return AdjacencyMatrix(m.rows, m.states, s)


def decompose(m: AdjacencyMatrix) -> None:
    """Check the blocks (M', U, Z, O) of an NSE matrix: O is zero and each
    row of U has at most a single 1, or the upstream construction is
    broken.  `derive_m1` runs it, once per step.  Nothing is returned:
    M's rows already say which lead rows feed which collapse state."""
    b = m.boundary
    if b is None:
        raise PreconditionError("matrix must be indexed by the NSE")
    if m.states[b:] != m.collapse.elements:
        raise PreconditionError("NSE tail does not match the collapse states")
    # a row's columns increase, so its entries in U or O come last
    if any(row and row[-1] >= b for row in m.rows[b:]):
        raise DecompositionViolationError("collapse block O is not zero")
    if any(len(row) > 1 and row[-2] >= b for row in m.rows[:b]):
        raise DecompositionViolationError("a row of U has more than one entry")


def derive_m1(m: AdjacencyMatrix) -> AdjacencyMatrix:
    """Put each collapse state's row in place of its column in the rows
    feeding it, then drop the collapse rows.

    The result is indexed by the collapsed automaton's OSE (the NSE lead
    block with merged vertex names).  `decompose` checks the blocks
    first: with O zero every feeder is a lead row and a collapse row has
    no collapse column, so one substitution per lead row leaves the lead
    block only.
    """
    decompose(m)
    b = m.boundary
    rows = []
    for row in m.rows[:b]:
        if row and row[-1] >= b:
            row = tuple(sorted(row[:-1] + m.rows[row[-1]]))
        # an entry above 1 is a column repeated in the sorted row
        if any(map(eq, row, row[1:])):
            raise EntryOverflowError("row transformation produced an entry above 1")
        rows.append(row)
    return AdjacencyMatrix(tuple(rows), m.collapse.rename(m.states[:b]))


@dataclass(frozen=True)
class PFResult:
    """Perron-Frobenius eigenpair; the eigenvector has max entry 1.

    ``residual`` holds the width of the final Collatz-Wielandt bracket,
    which contains both the eigenvalue and the exact Perron root, so it
    bounds their distance.  With max entry 1, max|Mv - lambda v| is at
    most half of it plus the rounding of the ratios Mv/v and of their
    midpoint, a few units in the last place of lambda: the width alone
    is no bound once the bracket is only a few units wide.
    ``iterations`` counts the Newton steps on the kernel and the
    brackets computed on M (`pf_eigen`).
    """

    eigenvalue: float
    eigenvector: list[float]
    iterations: int
    residual: float


# only a bound: the stall check ends a solve that stops narrowing long before
MAX_ITER = 10**6


def _forced_chains(rows) -> tuple[list[int], list[int], list[int]]:
    """(succ, end, depth) per state.

    A state is forced when its row has a single entry other than itself,
    its successor succ.  Every other state is a kernel state, and so is
    one state cut from each cycle of forced states; there succ and end
    are the state itself and depth is 0.  Following succ from a forced
    state reaches the kernel state `end` after `depth` steps.
    """
    n = len(rows)
    succ = [row[0] if len(row) == 1 and row[0] != q else q for q, row in enumerate(rows)]
    end, depth = list(range(n)), [0] * n
    seen = [0] * n  # 0 unseen, 1 on the current walk, 2 resolved
    for start in range(n):
        if seen[start] or succ[start] == start:  # resolved, or a kernel state
            continue
        walk, q = [], start
        while not seen[q] and succ[q] != q:
            seen[q] = 1
            walk.append(q)
            q = succ[q]
        if seen[q] == 1:  # the walk closed a cycle of forced states
            succ[q] = q
        for p in reversed(walk):
            if succ[p] != p:
                end[p], depth[p] = end[succ[p]], depth[succ[p]] + 1
            seen[p] = 2
    return succ, end, depth


def _solve(a: list[list[float]], b: list[float]) -> list[float]:
    """The solution x of a x = b, by Gaussian elimination with partial
    pivoting and back substitution by columns, as LAPACK's dgesv orders
    them; the rows of `a` and the list `b`, which becomes x, are
    overwritten.  Raises ConvergenceFailureError at a zero pivot: `a` is
    singular."""
    n = len(b)
    for col in range(n):
        column = [abs(row[col]) for row in a[col:]]
        pivot = col + column.index(max(column))
        head = a[pivot]
        if not head[col]:
            raise ConvergenceFailureError(
                f"singular system: no nonzero pivot in column {col + 1}"
            )
        a[col], a[pivot] = head, a[col]
        b[col], b[pivot] = b[pivot], b[col]
        # a row operation changes only the columns where the pivot row
        # is nonzero: the kernel system starts sparse
        nonzero = [j for j in range(col + 1, n) if head[j]]
        for row_index in range(col + 1, n):
            row = a[row_index]
            f = row[col] / head[col]
            if f:
                for j in nonzero:
                    row[j] -= f * head[j]
                b[row_index] -= f * b[col]
    for j in reversed(range(n)):
        b[j] /= a[j][j]
        for i in range(j):
            b[i] -= b[j] * a[i][j]
    return b


def _powers(u: float, top: int) -> list[float]:
    """[1, u, ..., u^top] by repeated multiplication: unlike pow, which
    libm computes, the same floats on every platform."""
    return list(accumulate(repeat(u, top), mul, initial=1.0))


def _kernel_start(
    k: int, k_entries, forced: bool, lo: float, hi: float, tol: float
) -> tuple[list[float], float, int]:
    """The kernel's Perron pair (x, u), x of max entry 1 and u = 1/lambda,
    and the number of Newton steps solved.

    `k_entries` lists the kernel entries as `pf_eigen` builds them,
    `forced` says whether any state is forced, and [lo, hi] is the
    all-ones bracket, with lo > 0.  Newton's method on B(u) x = x, with
    x_0 pinned: each step solves [B(u) - I | B'(u) x] (dx, du) = x - B(u) x.
    It starts at x = 1 and at the root of sum_ie B(u)_ie = k.  The bracket
    it watches is the Collatz-Wielandt bracket of M that (x, u) gives:
    the ratios B(u)x / x of the kernel rows, and 1 for the forced rows,
    all divided by u.  It stops once that bracket is at most tol / 2
    wide, and keeps the last (x, u) before a step that does not narrow
    it, makes x non-positive, takes u out of [1/hi, 1/lo] or meets a
    singular system.
    """
    cells = [(i, col) for i, _, _, col in k_entries]
    exps = [d + 1 for _, _, d, _ in k_entries]
    top = max(exps)

    def terms(x, u):
        """u^e per entry, B(u) x and u B'(u) x, and the bracket's width."""
        powers = list(map(_powers(u, top).__getitem__, exps))
        bx, dbx = [0.0] * k, [0.0] * k
        for (i, col), e, p in zip(cells, exps, powers):
            t = p * x[col]
            bx[i] += t
            dbx[i] += e * t
        ratios = list(map(truediv, bx, x))
        if forced:
            ratios.append(1.0)
        return powers, bx, dbx, (max(ratios) - min(ratios)) / u

    # the start: sum_j u^e_j = k by Newton's method in log u, where the
    # sum is convex and increasing, from u = 1, where it is at least k:
    # the steps fall onto the root from above, and dividing u by 1 + step
    # in place of multiplying it by exp(-step) only shortens them
    u = 1.0
    while True:
        powers = list(map(_powers(u, top).__getitem__, exps))
        step = (math.fsum(powers) - k) / math.fsum(map(mul, exps, powers))
        u /= 1 + step
        if not step > 1e-3:
            break
    x, u = [1.0] * k, min(max(u, 1 / hi), 1 / lo)
    powers, bx, dbx, width = terms(x, u)
    steps = 0
    while not width <= tol / 2:
        # x_0 stays: column 0 of B(u) - I gives way to that of du
        a = [[0.0] * k for _ in range(k)]
        for (i, col), p in zip(cells, powers):
            a[i][col] += p
        for i, row in enumerate(a):
            row[i] -= 1.0
            row[0] = dbx[i] / u
        steps += 1
        try:
            du, *dx = _solve(a, list(map(sub, x, bx)))
        except ConvergenceFailureError:
            break
        x_next, u_next = [x[0], *map(add, x[1:], dx)], u + du
        if not (min(x_next) > 0 and 1 / hi <= u_next <= 1 / lo):
            break
        after = terms(x_next, u_next)
        if not after[3] < width:
            break
        x, u = x_next, u_next
        powers, bx, dbx, width = after
    largest = max(x)
    return [t / largest for t in x], u, steps


def pf_eigen(m: AdjacencyMatrix, tol: float = 1e-10) -> PFResult:
    """Noda's inverse iteration (Numer. Math. 17, 1971), stopped on the
    Collatz-Wielandt bracket, from a start solved on the kernel.

    For a positive iterate v the Perron root lies in [min(Mv/v),
    max(Mv/v)].  The iteration stops once that bracket is at most `tol`
    wide and reports its midpoint.  Otherwise it solves (hi I - M) w = v
    with hi the upper end: hi exceeds the root unless v is already the
    eigenvector, so hi I - M is a nonsingular M-matrix and w > 0.  The
    bracket narrows quadratically for a nonnegative irreducible matrix
    (Elsner, Linear Algebra Appl. 15, 1976).

    The forced states (`_forced_chains`) carry the eigenvector along
    their chains: a forced state q has the one entry succ(q) off the
    diagonal, so v_q = u v_succ(q) with u = 1/lambda, and v_q = u^depth(q)
    v_end(q).  Put into the kernel rows, this leaves the equation B(u) x
    = x on the kernel states alone, where B(u)_ie sums u^(depth(j) + 1)
    over the entries j of kernel row i whose chain ends at e: for the
    automaton of a core of rank r, at most the 6(r - 1) states at
    vertices of degree 3 or more (Kotani-Sunada, 2000).  Its Perron pair
    is found by Newton's method (`_kernel_start`), expanded along the
    chains once, and handed to the iteration as its start; its first
    bracket, on every row of M, is then usually within `tol`.  The start
    is all ones when the all-ones bracket is within `tol` already (the
    iteration then ends at once), when its lower end is 0, and when an
    entry of the expansion underflows.

    Each Noda step eliminates the forced states the same way.  Run back
    from each chain's end, w_q = (v_q + w_succ(q)) / hi gives w_q = a_q +
    c_q w_end(q), with c_q = hi^-depth(q) and a_q the chain's sum for w =
    0 on the kernel, which leaves a dense system on the kernel, solved by
    Gaussian elimination with partial pivoting (`_solve`), a zero pivot
    reported as a singular solve.  Its solution is expanded along the
    chains by the same recurrence.  The bracket is still computed from M
    and v on every row, so it holds the root whatever the rounding of
    the start and of the solve; rounding can only end the narrowing,
    which the stall check reports.

    Irreducibility is not checked here.  Without it the result is still
    sound: for any nonnegative M and positive v the bracket contains the
    spectral radius, and with hi above it (hi I - M)^-1 is nonnegative,
    so a reducible input returns a bracket at most `tol` wide around the
    spectral radius or ends in ConvergenceFailureError (a stall, a
    singular solve or a lost positivity).  A matrix with no states has no
    eigenpair and raises PreconditionError.
    """
    n = m.size
    if not n:
        raise PreconditionError("the matrix has no states")
    rows = m.rows
    counts = list(map(len, rows))
    lo, hi = min(counts), max(counts)
    if hi - lo <= tol:  # the all-ones vector is within tol
        return PFResult((lo + hi) / 2, [1.0] * n, 1, float(hi - lo))
    succ, end, depth = _forced_chains(rows)
    kernel = [q for q in range(n) if not depth[q]]
    k = len(kernel)
    slot = {q: i for i, q in enumerate(kernel)}
    # each entry of a kernel row: its row, its state, the depth of its
    # state, and its column in the kernel system, that of the end of its
    # chain
    k_entries = [
        (i, j, depth[j], slot[end[j]]) for i, q in enumerate(kernel) for j in rows[q]
    ]
    top_depth = max(depth)
    v, iteration = [1.0] * n, 0
    if lo:  # every row has an entry: so does the kernel
        x, u, iteration = _kernel_start(k, k_entries, k < n, lo, hi, tol)
        x_end = [0.0] * n
        for q, t in zip(kernel, x):
            x_end[q] = t
        powers = _powers(u, top_depth)
        start = list(map(mul, map(powers.__getitem__, depth), map(x_end.__getitem__, end)))
        if min(start) > 0:  # no entry underflowed
            v = start
    # the rows with one entry, then the others: the ratios of the former
    # are quotients of two entries of the iterate
    single = [q for q, row in enumerate(rows) if len(row) == 1]
    single_to = [rows[q][0] for q in single]
    other = [(q, row) for q, row in enumerate(rows) if len(row) != 1]
    chains = None

    previous = math.inf
    while iteration < MAX_ITER:
        iteration += 1
        get = v.__getitem__
        ratios = list(map(truediv, map(get, single_to), map(get, single)))
        ratios += [sum(map(get, row)) / get(q) for q, row in other]
        lo, hi = min(ratios), max(ratios)
        width = hi - lo
        if width <= tol:
            return PFResult((lo + hi) / 2, v, iteration, width)
        # rounding ends the narrowing: no later bracket is tighter
        if not width < previous:
            raise ConvergenceFailureError(
                f"Noda iteration stalled at bracket width {width:.3g} after "
                f"{iteration} iterations, above tol {tol}"
            )
        previous = width
        if chains is None:
            # (forced state, its successor) in depth order: a forced
            # successor's pair comes first
            forced = sorted((q for q in range(n) if depth[q]), key=depth.__getitem__)
            chains = [(q, succ[q]) for q in forced]
        # a forced state has a positive ratio, so hi > 0 where one is
        # divided; c[d] is hi^-d, by as many divisions
        a, c = [0.0] * n, [1.0]
        for _ in range(top_depth):
            c.append(c[-1] / hi)
        for q, p in chains:
            a[q] = (v[q] + a[p]) / hi
        shifted, rhs = [[0.0] * k for _ in kernel], [v[q] for q in kernel]
        for i, row in enumerate(shifted):
            row[i] = hi
        for i, j, d, col in k_entries:
            shifted[i][col] -= c[d]
            rhs[i] += a[j]
        try:
            w_kernel = _solve(shifted, rhs)
        except ConvergenceFailureError as exc:
            # at a bracket a few units in the last place wide, hi is the
            # root to working precision: rounding has ended the narrowing
            if width <= 16 * math.ulp(hi):
                raise ConvergenceFailureError(
                    f"Noda iteration stalled at bracket width {width:.3g} after "
                    f"{iteration} iterations, above tol {tol}: hi is the root to rounding"
                ) from exc
            raise ConvergenceFailureError(
                f"Noda iteration: hi*I - M is singular at hi = {hi!r} "
                f"after {iteration} iterations"
            ) from exc
        w = [0.0] * n
        for q, x in zip(kernel, w_kernel):
            w[q] = x
        for q, p in chains:
            w[q] = (v[q] + w[p]) / hi
        top = max(w)
        # min(w) / top is the least entry of the next iterate, which must
        # not underflow to zero either
        if not (all(map(lt, repeat(0.0), w)) and min(w) / top > 0):
            raise ConvergenceFailureError(
                f"Noda iteration stalled at bracket width {width:.3g} after "
                f"{iteration} iterations: rounding broke the iterate's positivity"
            )
        v = [x / top for x in w]
    raise ConvergenceFailureError(
        f"Noda iteration did not reach bracket width {tol} in {MAX_ITER} iterations"
    )


@dataclass(frozen=True)
class InequalityCertificate:
    """Witness for the strict spectral gap.

    ``u`` extends the collapsed matrix's eigenvector over the full NSE;
    ``strict_rows`` are the 1-based NSE rows with strict slack; per
    collapse state the chosen value and its admissible open interval are
    recorded.
    """

    lam1: float
    u: list[float]
    strict_rows: tuple[int, ...]
    s_values: dict[State, tuple[float, float, float]]
    u_choice: int | None


def certify_inequality(
    m: AdjacencyMatrix,
    pf1: PFResult,
    u_choice: int = 3,
    u_override: float | None = None,
    tol: float = 1e-10,
) -> InequalityCertificate:
    """Build the comparison vector from `pf1`, the eigenpair of the
    collapsed matrix `derive_m1(m)` solved to `tol`, and verify (M u)_j
    <= lam1 u_j everywhere, strictly where the chosen construction
    guarantees it.  By the Perron-Frobenius comparison theorem this
    certifies that M's eigenvalue is strictly below lam1.

    Choice 1 takes each collapse entry at its lower bound (strict rows:
    the feeder rows), choice 2 at its upper bound (strict rows: the
    collapse rows), choice 3 at the midpoint (strict rows: both).  A
    scalar override replaces every collapse entry; its strict rows are
    whatever the verification finds.

    `m` is the NSE matrix that `derive_m1` checked and collapsed; the
    feeder rows and the collapse states are read off it, and its blocks
    are not checked again.  The certificate does not rest on them: the
    inequality is verified on every row of M.

    The comparison vector is the collapsed eigenvector scaled so its
    smallest entry is 1; override values and the reported bounds are
    expressed in that scale.  A row's slack must exceed 10 * tol times
    the vector's largest entry: for `pf1`'s eigenvector v of max entry 1,
    max|M1 v - lam1 v| is at most half its bracket width, itself at most
    tol, plus the rounding of the ratios M1 v / v (see `PFResult`), and
    the bound rescales with the vector.  An eigenvalue, or an eigenvector
    entry, that is not positive and finite raises PreconditionError:
    neither belongs to a Perron eigenpair.
    """
    b = m.boundary
    if b is None:
        raise PreconditionError("matrix must be indexed by the NSE")
    if u_choice not in (1, 2, 3):
        raise PreconditionError("u_choice must be 1, 2 or 3")
    if len(pf1.eigenvector) != b:
        raise PreconditionError("eigenpair does not belong to the collapsed matrix")

    lam1 = pf1.eigenvalue
    if not (lam1 > 0 and math.isfinite(lam1)):
        raise PreconditionError(f"collapsed eigenvalue {lam1!r} is not positive and finite")
    low = min(pf1.eigenvector)
    if not (low > 0 and all(map(math.isfinite, pf1.eigenvector))):
        raise PreconditionError("collapsed eigenvector is not positive and finite")
    n = m.size
    u = [x / low for x in pf1.eigenvector] + [0.0] * (n - b)

    expected_strict: set[int] = set()
    if u_override is None:
        if u_choice in (1, 3):
            # the feeder rows: a row's columns increase, so a lead row
            # feeds a collapse state when its last column is in the tail
            expected_strict.update(
                i for i, row in enumerate(m.rows[:b]) if row and row[-1] >= b
            )
        if u_choice in (2, 3):
            expected_strict.update(range(b, n))
    get = u.__getitem__
    s_values: dict[State, tuple[float, float, float]] = {}
    for row, state in enumerate(m.states[b:], start=b):
        bound = sum(map(get, m.rows[row]))  # O is zero: lead columns only
        lower, upper = bound / lam1, bound
        if u_override is not None:
            value = float(u_override)
        elif u_choice == 1:
            value = lower
        elif u_choice == 2:
            value = upper
        else:
            value = (lower + upper) / 2
        u[row] = value
        s_values[state] = (value, lower, upper)

    if not all(map(lt, repeat(0.0), u)):
        raise CertificateFailureError("comparison vector is not strictly positive")
    row_tol = 10 * tol * max(u)
    strict = []
    for j, (row, x) in enumerate(zip(m.rows, u)):
        mu, y = sum(map(get, row)), lam1 * x
        if mu > y + row_tol:
            raise CertificateFailureError(f"(Mu) exceeds lam1*u at NSE row {j + 1}")
        if mu < y - row_tol:
            strict.append(j)
    missing = expected_strict - set(strict)
    if missing:
        raise CertificateFailureError(
            f"expected strict slack missing at NSE rows {sorted(i + 1 for i in missing)}"
        )
    if not strict:
        raise CertificateFailureError("no row has strict slack")
    return InequalityCertificate(
        lam1=lam1,
        u=u,
        strict_rows=tuple(j + 1 for j in strict),
        s_values=s_values,
        u_choice=None if u_override is not None else u_choice,
    )
