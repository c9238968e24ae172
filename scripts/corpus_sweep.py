#!/usr/bin/env python3
"""Run the full reduction pipeline over random free factors and report
spectral gaps, step counts and terminal statuses.

Usage: python scripts/corpus_sweep.py [--count N] [--seed S]
"""

import argparse
import random
import statistics

from cogrowth import Alphabet, build_core, format_word, reduce_full
from cogrowth.errors import CyclicOrTrivialSubgroupError
from cogrowth.words import (
    WhiteheadAutomorphism,
    Word,
    apply_whitehead,
    is_cyclically_reduced,
    sigma,
)


# The tests, scripts/scale_ladder.py and perfbench/workloads.py (which
# loads this script by path) draw their inputs with these two.
def random_whitehead(rng, rank: int) -> WhiteheadAutomorphism:
    letters = sigma(rank)
    a = letters[rng.randrange(len(letters))]
    rest = [l for l in letters if abs(l) != abs(a)]
    return WhiteheadAutomorphism(a, frozenset(l for l in rest if rng.random() < 0.5))


def random_free_factor(rng, rank: int) -> tuple[Word, ...]:
    """Image of a proper partial basis of F_rank (alphabet "xyzt"[:rank])
    under a random chain of Whitehead moves; the tests, the sweep script
    and the benchmark draw their corpora from it.

    Resampled until every image is cyclically reduced as produced (so the
    tuple is an exact automorphic image, hence a genuine free factor), no
    image is longer than 12 letters, and the core has several vertices.
    Needs rank >= 3: the only non-cyclic free factor of a rank-2 group is
    the whole group, whose core is a single vertex.
    """
    alphabet = Alphabet(tuple("xyzt"[:rank]))
    while True:
        k = rng.randint(2, rank - 1)
        words = [(i + 1,) for i in range(k)]
        for _ in range(rng.randint(1, 7)):
            phi = random_whitehead(rng, rank)
            words = [apply_whitehead(phi, w) for w in words]
        if not all(w and is_cyclically_reduced(w) for w in words):
            continue
        if max(len(w) for w in words) > 12:
            continue
        try:
            graph = build_core(list(words), alphabet)
        except CyclicOrTrivialSubgroupError:
            continue
        if graph.n_vertices >= 2:
            return tuple(words)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    statuses = {}
    gaps = []
    steps_taken = []
    for i in range(args.count):
        rank = rng.choice([3, 4])
        ab = Alphabet(tuple("xyzt"[:rank]))
        gens = random_free_factor(rng, rank)
        trace = reduce_full(gens, ab)
        statuses[trace.status] = statuses.get(trace.status, 0) + 1
        steps_taken.append(len(trace.steps))
        for st in trace.steps:
            gaps.append(st.pf1.eigenvalue - st.pf.eigenvalue)
        if i < 5:
            print(
                f"[{i}] rank {rank}: {', '.join(format_word(w, ab) for w in gens)}"
                f" -> {trace.status} in {len(trace.steps)} steps"
            )

    print(f"\n{args.count} subgroups, {sum(steps_taken)} reduction steps")
    print("terminal statuses:", statuses)
    print(
        f"steps per subgroup: mean {statistics.mean(steps_taken):.2f}, "
        f"max {max(steps_taken)}"
    )
    if gaps:
        print(
            f"spectral gap per step: min {min(gaps):.4f}, "
            f"median {statistics.median(gaps):.4f}, max {max(gaps):.4f}"
        )


if __name__ == "__main__":
    main()
