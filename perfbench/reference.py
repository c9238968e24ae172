"""Reference computations timed between a run's operations.

The host is shared, and its speed drifts: over ten 25-second runs of
the same code, a workload's timings in seconds spread by 0.10 to 0.50 of
their median (interquartile range).  The drift moves a fixed computation
of the same kind as the program's work alike, so each workload times
one of these, written here and never calling the program, between its
operations, and reports its times as multiples of it.  Divided so, the
same runs' timings spread by 0.02 to 0.09.

Each reference matches what sets the time of its workloads (`ladder`
times ``dense`` and then ``small`` as one reference):

- ``small``: many small problems (`corpus`, `fold`): the independent
  fold of `checks` over fixed generators, which is dict-and-set work in
  the interpreter, and power iteration on small matrices, where each
  numpy call costs more than its arithmetic;
- ``dense``: power iteration on matrices of order 100 to 400, as
  `pf_eigen` on the larger cores (`ladder`), each matrix copied afresh as
  the program builds its own, so that no one placement in memory sets
  the time;
- ``process``: a fresh interpreter that imports numpy (`cli`).
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np

import checks

# small: orders of the small matrices and iterations on each
SMALL_ORDERS = range(6, 40, 2)
SMALL_ITERATIONS = 25
# dense: orders of the matrices and iterations on each
DENSE_ORDERS = (100, 200, 300, 400)
DENSE_ITERATIONS = 125


def _matrix(rng, order: int, density: float) -> np.ndarray:
    """A fixed 0/1 matrix plus the identity."""
    return (rng.random((order, order)) < density) + np.eye(order)


def _power_iteration(m: np.ndarray, iterations: int):
    """The arithmetic of one `pf_eigen` solve, for a fixed number of steps."""
    v = np.ones(len(m))
    for _ in range(iterations):
        y = m @ v
        mv = y - v
        float(v @ mv) / float(v @ v)
        float(np.max(np.abs(mv)))
        v = y / y.max()


def small_reference(gens: list) -> callable:
    """Folds `gens`, fixed generator tuples, with the benchmark's own
    worklist fold; then power iteration on small matrices."""
    rng = np.random.default_rng(0)
    mats = [_matrix(rng, n, 0.2) for n in SMALL_ORDERS]

    def run():
        for g in gens:
            checks.fold(g)
        for m in mats:
            _power_iteration(m, SMALL_ITERATIONS)
    return run


def dense_reference() -> callable:
    m = _matrix(np.random.default_rng(0), max(DENSE_ORDERS), 0.01)

    def run():
        for n in DENSE_ORDERS:
            _power_iteration(m[:n, :n].copy(), DENSE_ITERATIONS)
    return run


def process_reference(env: dict, cwd) -> callable:
    """A fresh interpreter that imports numpy and exits."""
    def run():
        subprocess.run([sys.executable, "-c", "import numpy"], env=env, cwd=cwd, check=True)
    return run
