#!/usr/bin/env python3
"""Walk the worked F_4 example end to end and print every artifact.

Usage: python scripts/worked_example.py [--dot-dir DIR]

With --dot-dir, also writes core.dot, whitehead.dot and automaton.dot.
"""

import argparse
import os

from cogrowth import (
    Alphabet,
    certify_inequality,
    format_word,
    label_sets,
    parse_word,
    reduce_full,
)
from cogrowth.cli import automaton_dot, core_dot, matrix_text, state_names, whitehead_dot
from cogrowth.whitehead import find_cut_vertices, whitehead_graph_of_core
from cogrowth.words import letter_key


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--dot-dir", default=None)
    args = parser.parse_args()

    ab = Alphabet.from_spec("xyzt")
    gens = [parse_word("yX", ab), parse_word("yzYzt", ab)]
    print("subgroup generators:", ", ".join(format_word(w, ab) for w in gens))

    # every artifact below is read off this one reduction
    trace = reduce_full(gens, ab)
    step = trace.steps[0]
    core = step.core_before
    print(f"\ncore: {core.n_vertices} vertices, {core.n_edges} edges")
    ls = label_sets(core)
    for v in core.vertices:
        labels = ", ".join(
            ab.spell_caret(l) for l in sorted(ls[v], key=letter_key)
        )
        print(f"  L_{v} = {{{labels}}}")

    wg = whitehead_graph_of_core(ls, ab.rank)
    cuts = find_cut_vertices(wg)
    print("\ncut vertices:", ", ".join(ab.spell_caret(r.letter) for r in cuts))

    print("\nchosen automorphism:", step.phi.format(ab))
    print("collapse origin/terminus sets:", step.collapse.s_o, step.collapse.s_t)
    print("OSE:", ", ".join(state_names(step.aut_before.states, ab)))
    print("NSE:", ", ".join(state_names(step.m.states, ab)))
    print("\ntransition matrix under the NSE:")
    print(matrix_text(step.m, ab))
    print("collapsed matrix (OSE of the image automaton):")
    print(matrix_text(step.m1, ab))
    print(f"lambda  = {step.pf.eigenvalue:.6f}")
    print(f"lambda1 = {step.pf1.eigenvalue:.6f}")
    vec = [x / step.pf1.eigenvector[5] for x in step.pf1.eigenvector]
    print("eigenvector (6th entry 1):", [round(x, 4) for x in vec])

    cert = certify_inequality(step.m, step.pf1, u_override=3.0)
    print("\ncertificate with both tail entries set to 3:")
    print("  strict slack at NSE rows:", cert.strict_rows)
    for state, (value, lo, hi) in cert.s_values.items():
        print(f"  tail entry {state}: {value} in ({lo:.4f}, {hi:.4f})")

    print(f"\nfull reduction ({trace.status}):")
    for i, st in enumerate(trace.steps, 1):
        print(
            f"  step {i}: {st.phi.format(ab)}, "
            f"gens -> {', '.join(format_word(w, ab) for w in st.gens_after)}, "
            f"lambda {st.pf.eigenvalue:.4f} -> {st.pf1.eigenvalue:.4f}"
        )
    print("final generators:", ", ".join(format_word(w, ab) for w in trace.final_gens))

    if args.dot_dir:
        os.makedirs(args.dot_dir, exist_ok=True)
        dashed = set(step.m.collapse.elements)
        for name, text in [
            ("core.dot", core_dot(core, extended=True)),
            ("whitehead.dot", whitehead_dot(wg, ab)),
            ("automaton.dot", automaton_dot(step.aut_before, dashed_into=dashed)),
        ]:
            path = os.path.join(args.dot_dir, name)
            with open(path, "w") as fh:
                fh.write(text)
            print("wrote", path)


if __name__ == "__main__":
    main()
