"""State orderings, adjacency matrices, the row-transformation derivation
of the collapsed matrix, Perron-Frobenius eigenpairs, and the strict
spectral-gap certificate.

Eigenpairs come from Noda's inverse iteration; each reported eigenvalue
lies in a Collatz-Wielandt bracket [min(Mv/v), max(Mv/v)] at most `tol`
wide, which also contains the exact Perron root.  Irreducibility is
established where each automaton is built (`Automaton.validate`), not
by the solver; `pipeline.reduce_step` requires the row-transformed
matrix to equal that of the validated collapsed automaton.

The old state enumeration (OSE) sorts states by (vertex, letter).  The
new enumeration (NSE) used for one collapse step moves the collapse
states to the tail; the leading block is ordered exactly like the OSE of
the collapsed automaton, so removing a tail state's row/column after
adding it into the rows that feed it yields the collapsed adjacency
matrix positionally.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .automaton import Automaton, SStateSet, State, format_state
from .errors import (
    CertificateFailureError,
    ConvergenceFailureError,
    DecompositionViolationError,
    EntryOverflowError,
    PreconditionError,
)
from .words import letter_key


@dataclass(frozen=True)
class StateOrdering:
    """A fixed listing of automaton states; `boundary` (NSE only) is the
    index of the first collapse state."""

    states: tuple[State, ...]
    kind: str
    boundary: int | None = None

    def render(self, alphabet) -> list[str]:
        return [format_state(q, alphabet) for q in self.states]


def ose(aut: Automaton) -> StateOrdering:
    return StateOrdering(aut.states, "OSE")


def make_nse(aut: Automaton, s: SStateSet) -> StateOrdering:
    """NSE: non-collapse states ordered by their post-merge (vertex,
    letter) keys but keeping their original names, then the collapse
    states."""
    sset = set(s.elements)
    lead = sorted(
        (q for q in aut.states if q not in sset),
        key=lambda q: (s.merge.get(q[0], q[0]), letter_key(q[1])),
    )
    return StateOrdering(tuple(lead) + s.elements, "NSE", boundary=len(lead))


@dataclass(frozen=True)
class AdjacencyMatrix:
    """0/1 transition-count matrix of an automaton under a fixed ordering."""

    matrix: np.ndarray
    ordering: StateOrdering

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def to_csv(self, alphabet) -> str:
        names = self.ordering.render(alphabet)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([""] + names)
        for name, row in zip(names, self.matrix):
            writer.writerow([name] + [int(x) for x in row])
        return buf.getvalue()

    def to_text(self, alphabet) -> str:
        """Aligned layout with a vertical separator before the collapse
        block and a rule above the collapse rows (NSE only)."""
        names = self.ordering.render(alphabet)
        width = max(len(n) for n in names)
        boundary = self.ordering.boundary
        lines = [
            "# rows/columns: "
            + " ".join(f"{i + 1}={n}" for i, n in enumerate(names))
        ]
        header = " " * (width + 1)
        for j in range(self.size):
            if boundary is not None and j == boundary:
                header += " |"
            header += f"{j + 1:>3d}"
        lines.append(header)
        for i, (name, row) in enumerate(zip(names, self.matrix)):
            if boundary is not None and i == boundary:
                lines.append("-" * len(header))
            text = f"{name:>{width}} "
            for j, x in enumerate(row):
                if boundary is not None and j == boundary:
                    text += " |"
                text += f"{int(x):>3d}"
            lines.append(text)
        return "\n".join(lines) + "\n"


def adjacency(aut: Automaton, ordering: StateOrdering) -> AdjacencyMatrix:
    if set(ordering.states) != set(aut.states) or len(ordering.states) != len(
        aut.states
    ):
        raise PreconditionError("ordering does not cover the automaton's states")
    index = {q: i for i, q in enumerate(ordering.states)}
    mat = np.zeros((len(index), len(index)), dtype=np.int64)
    for (q, _), target in aut.transitions.items():
        mat[index[q], index[target]] = 1
    return AdjacencyMatrix(mat, ordering)


def _check_nse(m: AdjacencyMatrix, s: SStateSet):
    if m.ordering.kind != "NSE" or m.ordering.boundary is None:
        raise PreconditionError("matrix must be indexed by the NSE")
    if m.ordering.states[m.ordering.boundary :] != s.elements:
        raise PreconditionError("NSE tail does not match the collapse states")


def decompose(m: AdjacencyMatrix, s: SStateSet):
    """Blocks (M', U, Z, O) under the NSE; U rows carry at most a single
    1 and O is zero, or the upstream construction is broken."""
    _check_nse(m, s)
    b = m.ordering.boundary
    mp, u = m.matrix[:b, :b], m.matrix[:b, b:]
    z, o = m.matrix[b:, :b], m.matrix[b:, b:]
    if o.any():
        raise DecompositionViolationError("collapse block O is not zero")
    if (u.sum(axis=1) > 1).any() or not set(np.unique(u)) <= {0, 1}:
        raise DecompositionViolationError("a row of U has more than one entry")
    return mp, u, z, o


def derive_m1(m: AdjacencyMatrix, s: SStateSet) -> AdjacencyMatrix:
    """Add each collapse state's row into the rows feeding it, then drop
    the collapse rows and columns.

    The result is indexed by the collapsed automaton's OSE (the NSE lead
    block with merged vertex names).  `decompose` checks the blocks
    first: with O zero every feeder is a lead row, so a collapse row is
    never rewritten and adds no entry to another collapse column.
    """
    decompose(m, s)
    b = m.ordering.boundary
    work = m.matrix.astype(np.int64)
    for offset in range(len(s.elements)):
        col = b + offset
        for i in np.nonzero(work[:, col])[0]:
            work[i, :] += work[col, :]
    result = work[:b, :b]
    if (result > 1).any():
        raise EntryOverflowError("row transformation produced an entry above 1")
    lead = tuple(s.rename(q) for q in m.ordering.states[:b])
    return AdjacencyMatrix(result, StateOrdering(lead, "OSE"))


@dataclass(frozen=True)
class PFResult:
    """Perron-Frobenius eigenpair; the eigenvector has max entry 1.

    ``residual`` holds the width of the final Collatz-Wielandt bracket,
    which contains both the eigenvalue and the exact Perron root, so it
    bounds their distance; with max entry 1 it is also an upper bound on
    max|Mv - lambda v|.
    """

    eigenvalue: float
    eigenvector: np.ndarray
    iterations: int
    residual: float

    def to_json(self, states, alphabet) -> str:
        return json.dumps(
            {
                "eigenvalue": float(self.eigenvalue),
                "eigenvector": [float(x) for x in self.eigenvector],
                "iterations": self.iterations,
                "residual": float(self.residual),
                "states": [format_state(q, alphabet) for q in states],
            },
            indent=2,
        )


# only a bound: the stall check ends a solve that stops narrowing long before
MAX_ITER = 10**6


def pf_eigen(m: AdjacencyMatrix, tol: float = 1e-10) -> PFResult:
    """Noda's inverse iteration (Numer. Math. 17, 1971), stopped on the
    Collatz-Wielandt bracket.

    For a positive iterate v the Perron root lies in [min(Mv/v),
    max(Mv/v)].  The iteration stops once that bracket is at most `tol`
    wide and reports its midpoint.  Otherwise it solves (hi I - M) w = v
    with hi the upper end: hi exceeds the root unless v is already the
    eigenvector, so hi I - M is a nonsingular M-matrix and w > 0.  The
    bracket narrows quadratically for a nonnegative irreducible matrix
    (Elsner, Linear Algebra Appl. 15, 1976).

    Irreducibility is not checked here.  Without it the result is still
    sound: for any nonnegative M and positive v the bracket contains the
    spectral radius, and with hi above it (hi I - M)^-1 is nonnegative,
    so a reducible input returns a bracket at most `tol` wide around the
    spectral radius or ends in ConvergenceFailureError (a stall, a
    singular solve or a lost positivity).
    """
    mat = np.asarray(m.matrix, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    if (mat < 0).any() or (mat != np.round(mat)).any():
        raise ValueError("matrix must be nonnegative and integral")
    diagonal = np.diag_indices(mat.shape[0])
    shifted = -mat
    v = np.ones(mat.shape[0])
    previous = math.inf
    for iteration in range(1, MAX_ITER + 1):
        ratios = (mat @ v) / v
        lo, hi = float(ratios.min()), float(ratios.max())
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
        shifted[diagonal] = hi - mat[diagonal]
        try:
            w = np.linalg.solve(shifted, v)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailureError(
                f"Noda iteration: hi*I - M is singular at hi = {hi!r} "
                f"after {iteration} iterations"
            ) from exc
        if not (w > 0).all():
            raise ConvergenceFailureError(
                f"Noda iteration stalled at bracket width {width:.3g} after "
                f"{iteration} iterations: rounding broke the iterate's positivity"
            )
        v = w / w.max()
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
    u: np.ndarray
    strict_rows: tuple[int, ...]
    s_values: dict[State, tuple[float, float, float]]
    u_choice: int | None

    def to_dict(self, ordering: StateOrdering, alphabet) -> dict:
        """The certificate as the JSON object `reduce-step` prints, its
        rows named by `ordering`, the NSE."""
        return {
            "lambda_1": float(self.lam1),
            "u": [float(x) for x in self.u],
            "rows": ordering.render(alphabet),
            "strict_rows": list(self.strict_rows),
            "choice": self.u_choice,
            "s_entries": {
                format_state(q, alphabet): {
                    "value": val,
                    "lower": lo,
                    "upper": hi,
                }
                for q, (val, lo, hi) in self.s_values.items()
            },
        }


def certify_inequality(
    m: AdjacencyMatrix,
    m1: AdjacencyMatrix,
    s: SStateSet,
    pf1: PFResult,
    u_choice: int = 3,
    u_override: float | None = None,
    tol: float = 1e-10,
) -> InequalityCertificate:
    """Build the comparison vector from `pf1`, the eigenpair of `m1`
    solved to `tol`, and verify (M u)_j <= lam1 u_j everywhere, strictly
    where the chosen construction guarantees it.  By the Perron-Frobenius
    comparison theorem this certifies that M's eigenvalue is strictly
    below lam1.

    Choice 1 takes each collapse entry at its lower bound (strict rows:
    the feeder rows), choice 2 at its upper bound (strict rows: the
    collapse rows), choice 3 at the midpoint (strict rows: both).  A
    scalar override replaces every collapse entry; its strict rows are
    whatever the verification finds.

    The comparison vector is the collapsed eigenvector scaled so its
    smallest entry is 1; override values and the reported bounds are
    expressed in that scale.  A row's slack must exceed 10 * tol times
    the vector's largest entry: `pf1`'s bracket width, at most tol, bounds
    max|M1 v - lam1 v| for its eigenvector v of max entry 1, and rescales
    with the vector.
    """
    _check_nse(m, s)
    b = m.ordering.boundary
    if tuple(s.rename(q) for q in m.ordering.states[:b]) != m1.ordering.states:
        raise PreconditionError("collapsed matrix does not match the NSE lead block")
    if u_choice not in (1, 2, 3):
        raise PreconditionError("u_choice must be 1, 2 or 3")
    if pf1.eigenvector.shape != (m1.size,):
        raise PreconditionError("eigenpair does not belong to the collapsed matrix")

    lam1 = pf1.eigenvalue
    n = m.size
    u = np.zeros(n)
    u[:b] = pf1.eigenvector / pf1.eigenvector.min()

    expected_strict: set[int] = set()
    s_values: dict[State, tuple[float, float, float]] = {}
    for offset, state in enumerate(s.elements):
        row = b + offset
        bound = float(m.matrix[row, :b] @ u[:b])  # the collapse row over the lead block
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
        feeders = np.nonzero(m.matrix[:, row])[0]
        if u_override is None:
            if u_choice in (1, 3):
                expected_strict.update(int(i) for i in feeders)
            if u_choice in (2, 3):
                expected_strict.add(row)

    if u.min() <= 0:
        raise CertificateFailureError("comparison vector is not strictly positive")
    mu = m.matrix @ u
    lu = lam1 * u
    row_tol = 10 * tol * float(u.max())
    strict = []
    for j in range(n):
        if mu[j] > lu[j] + row_tol:
            raise CertificateFailureError(
                f"(Mu) exceeds lam1*u at NSE row {j + 1}", row=j + 1
            )
        if mu[j] < lu[j] - row_tol:
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
