#!/usr/bin/env python3
"""Run the full reduction pipeline over random free factors and report
spectral gaps, step counts and terminal statuses.

Usage: python scripts/corpus_sweep.py [--count N] [--seed S]
"""

import argparse
import random
import statistics

from cogrowth import Alphabet, format_word, reduce_full
# perfbench/workloads.py loads this script by path and draws with both names
from cogrowth.whitehead import random_free_factor, random_whitehead  # noqa: F401


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
