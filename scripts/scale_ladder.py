#!/usr/bin/env python3
"""Reduce the free factors D(N) and report how long each takes and how
much memory.

D(N) is the image of <x, y, z> <= F4 under Whitehead moves drawn by
`random_whitehead` (scripts/corpus_sweep.py) from random.Random(11).  A
move is kept when every image stays cyclically reduced and the total
length does not fall; the moves stop once the total length reaches N.

Usage: python scripts/scale_ladder.py [N ...]   (default: 2000 6000 50000)

Each N runs in a fresh worker process, so the peak RSS it reports is its
own.  The wall time covers `reduce_full` alone, not drawing the moves.
Every D(N) is a free factor, so the exit status is 1 when a reduction
ends in any status but `single_vertex_core`.
"""

import argparse
import multiprocessing
import random
import resource
import sys
import time

from cogrowth import Alphabet, build_core, reduce_full
from cogrowth.words import apply_whitehead, is_cyclically_reduced
from corpus_sweep import random_whitehead

ALPHABET = Alphabet(tuple("xyzt"))


def free_factor(n: int) -> tuple:
    rng = random.Random(11)
    gens = ((1,), (2,), (3,))
    while sum(map(len, gens)) < n:
        phi = random_whitehead(rng, 4)
        image = tuple(apply_whitehead(phi, w) for w in gens)
        if all(map(is_cyclically_reduced, image)) and sum(map(len, image)) >= sum(
            map(len, gens)
        ):
            gens = image
    return gens


def measure(n: int) -> tuple[str, bool]:
    gens = free_factor(n)
    vertices = build_core(list(gens), ALPHABET).n_vertices
    start = time.perf_counter()
    trace = reduce_full(gens, ALPHABET)
    wall = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    largest = max((step.m.size for step in trace.steps), default=0)
    first = repr(trace.steps[0].pf.eigenvalue) if trace.steps else "-"
    line = (
        f"D({n}): {sum(map(len, gens))} letters, {vertices} vertices, "
        f"{len(trace.steps)} steps, largest order {largest}, {trace.status}, "
        f"{wall:.3f} s, peak RSS {peak_mb:.0f} MB, first lambda {first}"
    )
    return line, trace.status == "single_vertex_core"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("sizes", nargs="*", type=int, default=[2000, 6000, 50000])
    args = parser.parse_args()
    reduced = True
    with multiprocessing.get_context("spawn").Pool(1, maxtasksperchild=1) as pool:
        for line, ok in pool.imap(measure, args.sizes):
            print(line, flush=True)
            reduced = reduced and ok
    return 0 if reduced else 1


if __name__ == "__main__":
    sys.exit(main())
