"""Command-line front end.

Subcommands expose each pipeline stage separately: core, whitehead,
automaton, matrix, eigen, reduce-step, reduce, census, verify.  Output
is deterministic (identical inputs give byte-identical output); floats
are printed to 6 significant digits.

Exit codes: 0 success, 2 parse error, 3 precondition violation,
4 no cut vertex (certified not a free factor), 5 no valid automorphism,
6 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from dataclasses import dataclass

import numpy as np

from . import pipeline
from .automaton import (
    accepts,
    build_automaton,
    format_state,
    isomorphic,
    sample_accepted_word,
    word_census,
)
from .core_graph import build_core, collapse_core, label_sets, rooted_isomorphic
from .errors import (
    CogrowthError,
    NoCutVertexError,
    NoValidAutomorphismError,
    NumericalError,
    PreconditionError,
    WordParseError,
)
from .spectral import adjacency, certify_inequality, ose, pf_eigen
from .whitehead import find_cut_vertices, whitehead_graph_of_core
from .words import Alphabet, format_word, letter_key, parse_word

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_NO_CUT_VERTEX = 4
EXIT_NO_AUTOMORPHISM = 5
EXIT_NUMERICAL = 6

# what an error prints and exits with; the first matching type wins
EXIT_CODES = (
    (WordParseError, "parse error", EXIT_PARSE),
    (PreconditionError, "precondition violation", EXIT_PRECONDITION),
    (NoCutVertexError, "no cut vertex", EXIT_NO_CUT_VERTEX),
    (NoValidAutomorphismError, "no valid automorphism", EXIT_NO_AUTOMORPHISM),
    (NumericalError, "numerical failure", EXIT_NUMERICAL),
    (CogrowthError, "error", 1),
)


@dataclass
class PipelineConfig:
    alphabet: Alphabet
    gens: list
    fmt: str
    out: str | None
    u_choice: int
    tol: float
    n_max: int


def _config(args) -> PipelineConfig:
    alphabet = Alphabet.from_spec(args.alphabet)
    gens = [parse_word(part, alphabet) for part in args.gens.split(",")]
    return PipelineConfig(
        alphabet=alphabet,
        gens=gens,
        fmt=getattr(args, "format", "text"),
        out=args.out,
        u_choice=getattr(args, "u_choice", 3),
        tol=args.tol,
        n_max=getattr(args, "n_max", 0),
    )


def _emit(text: str, cfg: PipelineConfig):
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _f(x: float) -> str:
    return f"{x:.6g}"


def cmd_core(args) -> int:
    cfg = _config(args)
    graph = build_core(cfg.gens, cfg.alphabet)
    if cfg.fmt == "dot":
        out = graph.to_dot(extended=args.extended)
    elif cfg.fmt == "json":
        out = graph.to_json() + "\n"
    else:
        ls = label_sets(graph)
        lines = [
            f"core: {graph.n_vertices} vertices, {graph.n_edges} edges, "
            f"root {graph.root}, subgroup rank {graph.subgroup_rank}"
        ]
        for v in graph.vertices:
            names = ", ".join(
                cfg.alphabet.spell_caret(l)
                for l in sorted(ls.of(v), key=letter_key)
            )
            lines.append(f"L_{v} = {{{names}}}")
        lines.append("edges:")
        for o, g, t in graph.edges:
            lines.append(f"  {o} -{cfg.alphabet.spell(g)}-> {t}")
        out = "\n".join(lines) + "\n"
    _emit(out, cfg)
    return EXIT_OK


def cmd_whitehead(args) -> int:
    cfg = _config(args)
    graph = build_core(cfg.gens, cfg.alphabet)
    wg = whitehead_graph_of_core(label_sets(graph), cfg.alphabet.rank)
    cuts = find_cut_vertices(wg)
    spell = cfg.alphabet.spell_caret
    edges = [[spell(u), spell(v), mult] for u, v, mult in wg.sorted_edges()]
    if cfg.fmt == "dot":
        out = wg.to_dot(cfg.alphabet)
    elif cfg.fmt == "json":
        out = (
            json.dumps(
                {
                    "edges": edges,
                    "cut_vertices": [json.loads(r.to_json(cfg.alphabet)) for r in cuts],
                },
                indent=2,
            )
            + "\n"
        )
    else:
        lines = [f"whitehead graph: {wg.n_edges_simple} edges "
                 f"({wg.n_edges_multiset} with multiplicity)"]
        for u, v, mult in edges:
            extra = f"  (x{mult})" if mult > 1 else ""
            lines.append(f"  {u} -- {v}{extra}")
        if cuts:
            lines.append("cut vertices:")
            for r in cuts:
                lines.append(
                    f"  {cfg.alphabet.spell_caret(r.letter)} (configuration {r.configuration})"
                )
        elif graph.n_vertices == 1:
            lines.append("cut vertices: none (the core is a rose: a free factor)")
        else:
            lines.append("cut vertices: none (not a free factor)")
        out = "\n".join(lines) + "\n"
    _emit(out, cfg)
    return EXIT_OK


def cmd_automaton(args) -> int:
    cfg = _config(args)
    aut = build_automaton(build_core(cfg.gens, cfg.alphabet))
    if cfg.fmt == "dot":
        out = aut.to_dot()
    elif cfg.fmt == "json":
        out = aut.to_json() + "\n"
    else:
        order = ose(aut)
        lines = [
            f"automaton: {aut.n_states} states, {len(aut.transitions)} transitions, "
            f"ambiguity {aut.ambiguity}",
            "OSE: " + ", ".join(order.render(cfg.alphabet)),
            "initial = final: "
            + ", ".join(
                format_state(q, cfg.alphabet)
                for q in sorted(aut.initial, key=lambda q: (q[0], letter_key(q[1])))
            ),
        ]
        out = "\n".join(lines) + "\n"
    _emit(out, cfg)
    return EXIT_OK


def cmd_matrix(args) -> int:
    cfg = _config(args)
    if args.ordering == "nse":
        mat = pipeline.step_head(build_core(cfg.gens, cfg.alphabet))[-1]
    else:
        aut = build_automaton(build_core(cfg.gens, cfg.alphabet))
        mat = adjacency(aut, ose(aut))
    if cfg.fmt == "csv":
        out = mat.to_csv(cfg.alphabet)
    elif cfg.fmt == "json":
        out = (
            json.dumps(
                {
                    "ordering": mat.ordering.render(cfg.alphabet),
                    "kind": mat.ordering.kind,
                    "matrix": [[int(x) for x in row] for row in mat.matrix],
                },
                indent=2,
            )
            + "\n"
        )
    else:
        out = mat.to_text(cfg.alphabet)
    _emit(out, cfg)
    return EXIT_OK


def cmd_eigen(args) -> int:
    cfg = _config(args)
    aut = build_automaton(build_core(cfg.gens, cfg.alphabet))
    mat = adjacency(aut, ose(aut))
    pf = pf_eigen(mat, tol=cfg.tol)
    if cfg.fmt == "json":
        out = pf.to_json(states=mat.ordering.states, alphabet=cfg.alphabet) + "\n"
    else:
        vec = ", ".join(_f(x) for x in pf.eigenvector)
        out = (
            f"eigenvalue = {_f(pf.eigenvalue)}  (residual {_f(pf.residual)}, "
            f"tol {_f(cfg.tol)}, {pf.iterations} iterations)\n"
            f"cogrowth = {_f(pf.eigenvalue)}, entropy = {_f(math.log(pf.eigenvalue))}\n"
            f"eigenvector = [{vec}]\n"
        )
    _emit(out, cfg)
    return EXIT_OK


def _step_json(step: pipeline.StepReport) -> dict:
    ab = step.alphabet
    cert = step.certificate
    return {
        "phi": step.phi.format(ab),
        "collapse": {
            "a": ab.spell_caret(step.collapse.a),
            "S_o": list(step.collapse.s_o),
            "S_t": list(step.collapse.s_t),
            "E_o": [[o, ab.spell_caret(l), t] for o, l, t in step.collapse.e_o],
        },
        "core": {
            "vertices_before": step.core_before.n_vertices,
            "edges_before": step.core_before.n_edges,
            "vertices_after": step.core_after.n_vertices,
            "edges_after": step.core_after.n_edges,
        },
        "states_before": step.aut_before.n_states,
        "states_after": step.aut_after.n_states,
        "ose": step.ose_before.render(ab),
        "nse": step.nse.render(ab),
        "ose_after": step.ose_after.render(ab),
        "matrix": [[int(x) for x in row] for row in step.m.matrix],
        "matrix_1": [[int(x) for x in row] for row in step.m1.matrix],
        "lambda": float(step.pf.eigenvalue),
        "lambda_1": float(step.pf1.eigenvalue),
        "eigenvector_1": [float(x) for x in step.pf1.eigenvector],
        "certificate": json.loads(cert.to_json(step.nse, ab)),
        "gens_before": [format_word(w, ab) for w in step.gens_before],
        "gens_after": [format_word(w, ab) for w in step.gens_after],
    }


def _step_text(step: pipeline.StepReport, tol: float) -> list[str]:
    ab = step.alphabet
    cert = step.certificate
    return [
        f"phi = {step.phi.format(ab)}",
        f"collapse: a = {ab.spell_caret(step.collapse.a)}, "
        f"S_o = {{{','.join(map(str, step.collapse.s_o))}}}, "
        f"S_t = {{{','.join(map(str, step.collapse.s_t))}}}, "
        f"|E_o| = {len(step.collapse.e_o)}",
        f"core: {step.core_before.n_vertices} vertices, {step.core_before.n_edges} edges"
        f" -> {step.core_after.n_vertices} vertices, {step.core_after.n_edges} edges",
        f"automaton: {step.aut_before.n_states} states -> {step.aut_after.n_states} states",
        "OSE: " + ", ".join(step.ose_before.render(ab)),
        "NSE: " + ", ".join(step.nse.render(ab)),
        "OSE after collapse: " + ", ".join(step.ose_after.render(ab)),
        f"lambda  = {_f(step.pf.eigenvalue)}  (tol {_f(tol)})",
        f"lambda1 = {_f(step.pf1.eigenvalue)}",
        "certificate: strict slack at NSE rows "
        + ",".join(map(str, cert.strict_rows)),
        "gens after: " + ", ".join(format_word(w, ab) for w in step.gens_after),
    ]


def cmd_reduce_step(args) -> int:
    cfg = _config(args)
    graph = build_core(cfg.gens, cfg.alphabet)
    if graph.n_vertices == 1:
        _emit("already reduced: the core has a single vertex\n", cfg)
        return EXIT_OK
    step = pipeline.reduce_step(graph, cfg.gens, u_choice=cfg.u_choice, tol=cfg.tol)
    if cfg.fmt == "json":
        out = json.dumps(_step_json(step), indent=2) + "\n"
    else:
        out = "\n".join(_step_text(step, cfg.tol)) + "\n"
    _emit(out, cfg)
    return EXIT_OK


def cmd_reduce(args) -> int:
    cfg = _config(args)
    trace = pipeline.reduce_full(
        cfg.gens, cfg.alphabet, u_choice=cfg.u_choice, tol=cfg.tol
    )
    ab = cfg.alphabet
    if cfg.fmt == "json":
        out = (
            json.dumps(
                {
                    "status": trace.status,
                    "steps": [_step_json(s) for s in trace.steps],
                    "final_gens": [format_word(w, ab) for w in trace.final_gens],
                },
                indent=2,
            )
            + "\n"
        )
    else:
        lines = []
        for i, step in enumerate(trace.steps, start=1):
            lines.append(
                f"step {i}: phi = {step.phi.format(ab)}, "
                f"core {step.core_before.n_vertices}->{step.core_after.n_vertices} vertices, "
                f"lambda {_f(step.pf.eigenvalue)} -> {_f(step.pf1.eigenvalue)}, "
                f"gens: {', '.join(format_word(w, ab) for w in step.gens_after)}"
            )
        if not trace.steps:
            lines.append("no reduction step applies")
        lines.append(f"status: {trace.status}")
        lines.append(
            "final gens: " + ", ".join(format_word(w, ab) for w in trace.final_gens)
        )
        out = "\n".join(lines) + "\n"
    _emit(out, cfg)
    if not trace.steps and trace.status == "no_cut_vertex":
        return EXIT_NO_CUT_VERTEX
    if not trace.steps and trace.status == "no_valid_automorphism":
        return EXIT_NO_AUTOMORPHISM
    return EXIT_OK


def cmd_census(args) -> int:
    cfg = _config(args)
    aut = build_automaton(build_core(cfg.gens, cfg.alphabet))
    counts = word_census(aut, cfg.n_max)
    alpha = pf_eigen(adjacency(aut, ose(aut)), tol=cfg.tol).eigenvalue
    rows = [
        (n, a, a ** (1.0 / n) if a else 0.0)
        for n, a in enumerate(counts, start=1)
    ]
    if cfg.fmt == "csv":
        lines = ["n,a_n,a_n^(1/n)"]
        lines += [f"{n},{a},{_f(est)}" for n, a, est in rows]
        out = "\n".join(lines) + "\n"
    else:
        lines = [f"{'n':>4} {'a_n':>12} {'a_n^(1/n)':>10}"]
        lines += [f"{n:>4} {a:>12} {_f(est):>10}" for n, a, est in rows]
        lines.append(f"cogrowth alpha = {_f(alpha)} (tol {_f(cfg.tol)})")
        out = "\n".join(lines) + "\n"
    _emit(out, cfg)
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _config(args)
    lines = []
    ok = True

    def check(name, fn):
        """The check fails when `fn` raises or returns False."""
        nonlocal ok
        try:
            if fn() is False:
                raise AssertionError()
            lines.append(f"ok   {name}")
        except Exception as exc:  # report and keep going
            ok = False
            lines.append(f"FAIL {name}: {exc}")

    graph = build_core(cfg.gens, cfg.alphabet)
    check("core invariants", graph.validate)
    aut = build_automaton(graph)
    check("automaton deterministic/ergodic/I=F", aut.validate)

    def ambiguity_check():
        rng = random.Random(0)
        for _ in range(50):
            w = sample_accepted_word(aut, rng, rng.randint(1, 12))
            count = accepts(aut, w)
            assert count == aut.ambiguity, f"word has {count} paths"

    check("homogeneous ambiguity on 50 sampled words", ambiguity_check)

    try:
        step = pipeline.reduce_step(graph, cfg.gens, u_choice=cfg.u_choice, tol=cfg.tol)
    except (NoCutVertexError, NoValidAutomorphismError) as exc:
        lines.append(f"note {exc}")
        _emit("\n".join(lines) + "\n", cfg)
        raise

    collapsed = step.aut_after
    check(
        "row-transformed matrix equals collapsed adjacency",
        lambda: np.array_equal(step.m1.matrix, adjacency(collapsed, ose(collapsed)).matrix),
    )
    check(
        "collapsed automaton isomorphic to rebuilt automaton",
        lambda: isomorphic(collapsed, build_automaton(step.core_after)),
    )
    check(
        "collapsed core matches rebuilt core",
        lambda: rooted_isomorphic(collapse_core(graph, step.collapse), step.core_after),
    )
    check("strict spectral gap", lambda: step.pf.eigenvalue < step.pf1.eigenvalue - 1e-8)
    for choice in (1, 2, 3):
        check(
            f"inequality certificate, choice {choice}",
            lambda c=choice: certify_inequality(
                step.m, step.m1, step.s_states, step.pf1, u_choice=c, tol=cfg.tol
            ),
        )
    _emit("\n".join(lines) + "\n", cfg)
    return EXIT_OK if ok else 1


def _out_path(path: str) -> str:
    folder = os.path.dirname(path)
    if folder and not os.path.isdir(folder):
        raise argparse.ArgumentTypeError(f"no such directory: {folder}")
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"is a directory: {path}")
    return path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cogrowth",
        description="Core graphs, subgroup automata, Whitehead collapse and "
        "cogrowth certificates over free groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, formats, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--gens", required=True, help="comma-separated generator words")
        p.add_argument(
            "--alphabet", required=True, help='generator names, e.g. "xyzt" or "x,y,z,t"'
        )
        p.add_argument(
            "--out", type=_out_path, default=None, help="output file (default stdout)"
        )
        p.add_argument(
            "--tol", type=float, default=1e-10, help="eigen residual tolerance"
        )
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0])
        p.set_defaults(fn=fn)
        return p

    p = add("core", cmd_core, ["text", "json", "dot"], help="build the core graph")
    p.add_argument("--extended", action="store_true", help="dot: include reverse edges")
    add("whitehead", cmd_whitehead, ["text", "json", "dot"],
        help="Whitehead graph and cut vertices")
    add("automaton", cmd_automaton, ["text", "json", "dot"],
        help="the subgroup-language automaton")
    p = add("matrix", cmd_matrix, ["text", "csv", "json"], help="adjacency matrix")
    p.add_argument("--ordering", choices=["nse", "ose"], default="nse")
    add("eigen", cmd_eigen, ["text", "json"], help="Perron-Frobenius eigenpair")
    p = add("reduce-step", cmd_reduce_step, ["text", "json"],
            help="one collapse step with matrices and certificate")
    p.add_argument("--u-choice", type=int, choices=[1, 2, 3], default=3)
    p = add("reduce", cmd_reduce, ["text", "json"], help="iterate steps to a terminal")
    p.add_argument("--u-choice", type=int, choices=[1, 2, 3], default=3)
    p = add("census", cmd_census, ["text", "csv"], help="accepted words per length")
    p.add_argument("--n-max", type=int, default=20)
    p = add("verify", cmd_verify, ["text"], help="self-check battery on one input")
    p.add_argument("--u-choice", type=int, choices=[1, 2, 3], default=3)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CogrowthError as exc:
        prefix, code = next((p, c) for kind, p, c in EXIT_CODES if isinstance(exc, kind))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
