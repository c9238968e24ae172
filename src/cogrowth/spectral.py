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
Newton step on the branch states, has order at most 6(r - 1) for a
core of rank r, and no module of the package imports numpy.

Eigenpairs come from Newton's method on the branch states: the states
with a single successor are eliminated along their chains, so only a
dense system on the branch states remains.  Each reported eigenvalue
lies in a Collatz-Wielandt bracket [min(Mv/v), max(Mv/v)], computed on
every row of M and at most `tol` wide, which also contains the exact
Perron root.  Irreducibility is
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
import sys
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
    ``iterations`` counts the Newton steps on the kernel and the one
    bracket computed on M (`pf_eigen`).
    """

    eigenvalue: float
    eigenvector: list[float]
    iterations: int
    residual: float


# a rejected Newton step is retried at t = 1/2, 1/4, ... of its length, at
# most this many times.  A power of two scales the step exactly, so the
# trial points are the same floats on every platform.  The step matrices
# of the acceptance corpus need at most 3 halvings; at 2^-30 of its
# length a step moves the bracket by less than the rounding of its
# ratios, so a step still rejected there is stopped by rounding
HALVINGS = 30


def _forced_chains(rows) -> tuple[list[int], list[int]]:
    """(end, depth) per state.

    A state is forced when its row has a single entry other than itself,
    its successor.  Every other state is a kernel state, and so is one
    state cut from each cycle of forced states; there end is the state
    itself and depth is 0.  Following the successors from a forced state
    reaches the kernel state `end` after `depth` steps.
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
    return end, depth


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


def _kernel_pair(
    k: int, cells, exps, forced: bool, lo: float, hi: float, tol: float
) -> tuple[list[float], float, int]:
    """The kernel's Perron pair (x, u), x of max entry 1 and u = 1/lambda,
    and the number of Newton steps solved.

    B(u) has the entry u^exps[j] in the cell cells[j] = (row, column),
    summed over j; `forced` says whether any state is forced, and [lo,
    hi] is the all-ones bracket, with lo > 0.  Newton's method on B(u) x
    = x, with x_0 pinned: each step solves [B(u) - I | B'(u) x] (dx, du)
    = x - B(u) x.  It starts at x = 1 and at the root of sum_ie B(u)_ie =
    k.  The bracket it watches is the Collatz-Wielandt bracket of M that
    (x, u) gives: the ratios B(u)x / x of the kernel rows, and 1 for the
    forced rows, all divided by u.  A step is taken at the largest
    length t = 1, 1/2, ..., 2^-HALVINGS of the solved one that keeps x
    positive and u in [1/hi, 1/lo] and narrows that bracket (a
    backtracking Newton step: Dennis and Schnabel, Numerical Methods for
    Unconstrained Optimization and Nonlinear Equations, 1983, 6.3).  It
    stops once the bracket is at most tol / 2 wide, and keeps the last
    (x, u) when no length is taken or the system is singular.
    """
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
        t = 1.0
        for _ in range(HALVINGS + 1):
            x_next = [x[0], *(s + t * d for s, d in zip(x[1:], dx))]
            u_next = u + t * du
            if min(x_next) > 0 and 1 / hi <= u_next <= 1 / lo:
                after = terms(x_next, u_next)
                if after[3] < width:
                    break
            t /= 2
        else:  # no length is taken
            break
        x, u = x_next, u_next
        powers, bx, dbx, width = after
    largest = max(x)
    return [t / largest for t in x], u, steps


def _out_of_range(depths: list[int], u: float, what: str) -> ConvergenceFailureError:
    """The error that names the first of `depths`, the chain depths whose
    eigenvector entries u^depth x_end leave the double range."""
    d = min(depths)
    return ConvergenceFailureError(
        f"eigenvector entry u^{d} x_end {what} at chain depth {d}, "
        f"u = {u:.6g}: the Perron vector leaves the double range"
    )


def pf_eigen(m: AdjacencyMatrix, tol: float = 1e-10) -> PFResult:
    """The Perron eigenpair of M by Newton's method on its kernel,
    accepted on the Collatz-Wielandt bracket of M.

    For a positive vector v the Perron root lies in [min(Mv/v),
    max(Mv/v)].  `pf_eigen` computes that bracket once, on every row of
    M, for the vector it solves, reports its midpoint when it is at most
    `tol` wide, and raises ConvergenceFailureError otherwise.  As the
    bracket is computed from M and v, it holds the root whatever the
    rounding of the solve; rounding can only widen it past `tol`.

    The forced states (`_forced_chains`) carry the eigenvector along
    their chains: a forced state q has one entry off the diagonal, its
    successor s, so v_q = u v_s with u = 1/lambda, and v_q = u^depth(q)
    v_end(q).  Put into the kernel rows, this leaves the equation B(u) x
    = x on the kernel states alone, where B(u)_ie sums u^(depth(j) + 1)
    over the entries j of kernel row i whose chain ends at e: for the
    automaton of a core of rank r, at most the 6(r - 1) states at
    vertices of degree 3 or more (Kotani-Sunada, 2000).  Its Perron pair
    is found by Newton's method (`_kernel_pair`), each step a dense
    system of order k solved by Gaussian elimination with partial
    pivoting (`_solve`), and expanded along the chains once.  An entry
    u^depth x_end that underflows to 0 leaves no positive vector to
    bracket with, and raises ConvergenceFailureError; so does a bracket
    wider than `tol` on a vector with a subnormal entry, whose lost
    digits, not the solve, widen it.  When the row lengths are all
    within `tol` of each other, the all-ones vector is returned at once.

    Irreducibility is not checked here.  Without it the result is still
    sound: for any nonnegative M and positive v the bracket contains the
    spectral radius, so a reducible input returns a bracket at most `tol`
    wide around the spectral radius or ends in ConvergenceFailureError.
    A matrix with no states, or with a row with no entries, which no
    automaton of a core has, raises PreconditionError.
    """
    n = m.size
    if not n:
        raise PreconditionError("the matrix has no states")
    rows = m.rows
    counts = list(map(len, rows))
    lo, hi = min(counts), max(counts)
    if not lo:
        raise PreconditionError(f"row {counts.index(0) + 1} of the matrix has no entries")
    if hi - lo <= tol:  # the all-ones vector is within tol
        return PFResult((lo + hi) / 2, [1.0] * n, 1, float(hi - lo))
    end, depth = _forced_chains(rows)
    kernel = [q for q in range(n) if not depth[q]]
    slot = {q: i for i, q in enumerate(kernel)}
    # each entry j of a kernel row i: the cell of B(u) it adds u^(depth(j)
    # + 1) to, in the column of the end of its chain
    cells = [(i, slot[end[j]]) for i, q in enumerate(kernel) for j in rows[q]]
    exps = [depth[j] + 1 for q in kernel for j in rows[q]]
    x, u, steps = _kernel_pair(len(kernel), cells, exps, len(kernel) < n, lo, hi, tol)
    x_end = [0.0] * n
    for q, t in zip(kernel, x):
        x_end[q] = t
    powers = _powers(u, max(depth))
    v = list(map(mul, map(powers.__getitem__, depth), map(x_end.__getitem__, end)))
    if not min(v) > 0:
        raise _out_of_range([d for d, t in zip(depth, v) if not t > 0], u, "underflows to 0")
    # the rows with one entry, then the others: the ratio of the former
    # is one quotient of two entries of v, with no sum to take
    get = v.__getitem__
    ratios = [get(row[0]) / get(q) for q, row in enumerate(rows) if len(row) == 1]
    ratios += [sum(map(get, row)) / get(q) for q, row in enumerate(rows) if len(row) != 1]
    lo, hi = min(ratios), max(ratios)
    width = hi - lo
    if not width <= tol:
        subnormal = [d for d, t in zip(depth, v) if t < sys.float_info.min]
        if subnormal:
            raise _out_of_range(subnormal, u, "is subnormal")
        raise ConvergenceFailureError(
            f"Newton's method on the kernel stalled at bracket width {width:.3g} "
            f"on M after {steps} steps, above tol {tol}"
        )
    return PFResult((lo + hi) / 2, v, steps + 1, width)


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
