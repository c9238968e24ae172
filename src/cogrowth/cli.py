"""Command-line front end, and every output format of the package.

Subcommands expose each pipeline stage separately: core, whitehead,
automaton, matrix, eigen, reduce-step, reduce, census, verify.  Output
is deterministic (identical inputs give byte-identical output); floats
are printed to 6 significant digits.  The library returns data; the
text, JSON, DOT and CSV layouts of its objects are all here (`core_json`,
`core_dot`, `automaton_json`, `automaton_dot`, `whitehead_dot`,
`matrix_csv`, `matrix_text`, ...), and no other module of the package
imports json or csv.

Importing this module loads only `errors` and `words` of the package.
Each subcommand imports the library modules it runs when it runs, and
each format imports json or csv when it writes: `core` loads
`core_graph`, `whitehead` adds `whitehead`, `automaton` adds `automaton`;
`eigen` and `census` load `core_graph`, `automaton` and `spectral`
(`census --format csv` solves no eigenpair and leaves `spectral` out),
and `matrix` adds `whitehead` to those three.  Only `reduce-step`,
`reduce` and `verify` load `pipeline`, and with it every module.

Every subcommand is a `cmd_*(alphabet, gens, args)` that returns its
text (`reduce` and `verify` also return their exit code); `main` parses
the input, writes the text and maps errors to exit codes.  Each
subcommand declares only the options it reads: `--tol` on those that
solve an eigenpair (eigen, reduce-step, reduce, census, verify),
`--u-choice` on reduce-step and reduce, which print one certificate,
and `--format` on all but verify, which checks every choice.

No subcommand imports numpy: the eigenpairs are solved in plain Python
(see the spectral module).

Exit codes: 0 success, 2 parse error, 3 precondition violation,
4 no cut vertex (certified not a free factor), 6 numerical failure.
Exit code 5 is retired: it meant that cut vertices existed but none
gave a collapse, which cannot happen (see the whitehead module).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .errors import (
    CogrowthError,
    NoCutVertexError,
    NumericalError,
    PreconditionError,
    WordParseError,
)
from .words import Alphabet, format_word, letter_key, parse_word

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_NO_CUT_VERTEX = 4
EXIT_NUMERICAL = 6

ALREADY_REDUCED = "already reduced: the core has a single vertex"

# what an error prints and exits with; the first matching type wins
EXIT_CODES = (
    (WordParseError, "parse error", EXIT_PARSE),
    (PreconditionError, "precondition violation", EXIT_PRECONDITION),
    (NoCutVertexError, "no cut vertex", EXIT_NO_CUT_VERTEX),
    (NumericalError, "numerical failure", EXIT_NUMERICAL),
    (CogrowthError, "error", 1),
)


def _f(x: float) -> str:
    return f"{x:.6g}"


def _json(data) -> str:
    import json

    return json.dumps(data, indent=2) + "\n"


def _text(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def format_state(state, alphabet) -> str:
    """A state (vertex, entry letter) as "(v,letter)"."""
    return f"({state[0]},{alphabet.spell_caret(state[1])})"


def state_names(states, alphabet) -> list[str]:
    return [format_state(q, alphabet) for q in states]


def core_json(graph) -> str:
    names = graph.alphabet.names
    return _json({
        "alphabet": list(names),
        "root": graph.root,
        "vertices": list(graph.vertices),
        "edges": [{"o": o, "label": names[g - 1], "t": t} for o, g, t in graph.edges],
    })


def core_dot(graph, extended: bool = False) -> str:
    """DOT rendering; `extended` adds each edge's reverse, dashed."""
    spell = graph.alphabet.spell
    lines = ["digraph core {", "  rankdir=LR;"]
    for v in graph.vertices:
        shape = "doublecircle" if v == graph.root else "circle"
        lines.append(f'  v{v} [shape={shape}, label="{v}"];')
    for o, g, t in graph.edges:
        lines.append(f'  v{o} -> v{t} [label="{spell(g)}"];')
        if extended:
            lines.append(f'  v{t} -> v{o} [label="{spell(-g)}", style=dashed];')
    return _text(lines + ["}"])


def automaton_json(aut) -> str:
    ab = aut.alphabet
    names = state_names(aut.states, ab)
    return _json({
        "states": names,
        "transitions": [
            {"from": names[i], "label": ab.spell_caret(aut.states[j][1]), "to": names[j]}
            for i, row in enumerate(aut.rows)
            for j in row
        ],
        "initial": sorted(state_names(aut.initial, ab)),
        "final": sorted(state_names(aut.final, ab)),
    })


def automaton_dot(aut, dashed_into=frozenset()) -> str:
    """DOT rendering; transitions into `dashed_into` states are dashed
    (the edges a collapse would remove)."""
    names = state_names(aut.states, aut.alphabet)
    lines = ["digraph automaton {", "  rankdir=LR;"]
    for q, name in zip(aut.states, names):
        shape = "doublecircle" if q in aut.initial else "circle"
        lines.append(f'  "{name}" [shape={shape}];')
    for i, row in enumerate(aut.rows):
        for j in row:
            t = aut.states[j]
            style = ", style=dashed" if t in dashed_into else ""
            label = aut.alphabet.spell(t[1])
            lines.append(f'  "{names[i]}" -> "{names[j]}" [label="{label}"{style}];')
    return _text(lines + ["}"])


def whitehead_dot(wg, alphabet) -> str:
    spell = alphabet.spell_caret
    lines = ["graph whitehead {"]
    lines += [f'  "{spell(v)}";' for v in wg.vertices]
    for u, v, mult in wg.sorted_edges():
        attr = f' [label="{mult}"]' if mult > 1 else ""
        lines.append(f'  "{spell(u)}" -- "{spell(v)}"{attr};')
    return _text(lines + ["}"])


def cut_vertex_dict(report, alphabet) -> dict:
    """A cut vertex as the JSON object `cogrowth whitehead` prints."""
    spell = alphabet.spell_caret
    return {
        "letter": spell(report.letter),
        "configuration": report.configuration,
        "witness": [[spell(l) for l in comp] for comp in report.witness],
    }


def matrix_csv(mat, alphabet) -> str:
    import csv
    import io

    names = state_names(mat.states, alphabet)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([""] + names)
    for name, row in zip(names, mat.matrix):
        writer.writerow([name] + row)
    return buf.getvalue()


def matrix_text(mat, alphabet) -> str:
    """Aligned layout with a vertical separator before the collapse
    block and a rule above the collapse rows (NSE only)."""
    names = state_names(mat.states, alphabet)
    width = max(len(n) for n in names)
    # one blank at least between neighbouring columns, at every order
    field = max(3, len(str(mat.size)) + 1)
    boundary = mat.boundary
    lines = ["# rows/columns: " + " ".join(f"{i + 1}={n}" for i, n in enumerate(names))]
    header = " " * (width + 1)
    for j in range(mat.size):
        if boundary is not None and j == boundary:
            header += " |"
        header += f"{j + 1:>{field}d}"
    lines.append(header)
    for i, (name, row) in enumerate(zip(names, mat.matrix)):
        if boundary is not None and i == boundary:
            lines.append("-" * len(header))
        text = f"{name:>{width}} "
        for j, x in enumerate(row):
            if boundary is not None and j == boundary:
                text += " |"
            text += f"{x:>{field}d}"
        lines.append(text)
    return _text(lines)


def cmd_core(alphabet, gens, args) -> str:
    from .core_graph import build_core, label_sets

    graph = build_core(gens, alphabet)
    if args.format == "dot":
        return core_dot(graph, extended=args.extended)
    if args.format == "json":
        return core_json(graph)
    ls = label_sets(graph)
    lines = [
        f"core: {graph.n_vertices} vertices, {graph.n_edges} edges, "
        f"root {graph.root}, subgroup rank {graph.subgroup_rank}"
    ]
    for v in graph.vertices:
        names = ", ".join(alphabet.spell_caret(l) for l in sorted(ls[v], key=letter_key))
        lines.append(f"L_{v} = {{{names}}}")
    lines.append("edges:")
    lines += [f"  {o} -{alphabet.spell(g)}-> {t}" for o, g, t in graph.edges]
    return _text(lines)


def cmd_whitehead(alphabet, gens, args) -> str:
    from .core_graph import build_core, label_sets
    from .whitehead import find_cut_vertices, whitehead_graph_of_core

    graph = build_core(gens, alphabet)
    wg = whitehead_graph_of_core(label_sets(graph), alphabet.rank)
    cuts = find_cut_vertices(wg)
    spell = alphabet.spell_caret
    edges = [[spell(u), spell(v), mult] for u, v, mult in wg.sorted_edges()]
    if args.format == "dot":
        return whitehead_dot(wg, alphabet)
    if args.format == "json":
        cut_vertices = [cut_vertex_dict(r, alphabet) for r in cuts]
        return _json({"edges": edges, "cut_vertices": cut_vertices})
    lines = [f"whitehead graph: {wg.n_edges_simple} edges "
             f"({wg.n_edges_multiset} with multiplicity)"]
    for u, v, mult in edges:
        extra = f"  (x{mult})" if mult > 1 else ""
        lines.append(f"  {u} -- {v}{extra}")
    if cuts:
        lines.append("cut vertices:")
        lines += [f"  {spell(r.letter)} (configuration {r.configuration})" for r in cuts]
    elif graph.n_vertices == 1:
        lines.append("cut vertices: none (the core is a rose: a free factor)")
    else:
        lines.append("cut vertices: none (not a free factor)")
    return _text(lines)


def cmd_automaton(alphabet, gens, args) -> str:
    from .automaton import build_automaton, state_key
    from .core_graph import build_core

    aut = build_automaton(build_core(gens, alphabet))
    if args.format == "dot":
        return automaton_dot(aut)
    if args.format == "json":
        return automaton_json(aut)
    initial = sorted(aut.initial, key=state_key)
    return _text([
        f"automaton: {aut.n_states} states, {sum(map(len, aut.rows))} transitions, "
        f"ambiguity {aut.ambiguity}",
        "OSE: " + ", ".join(state_names(aut.states, alphabet)),
        "initial = final: " + ", ".join(state_names(initial, alphabet)),
    ])


def cmd_matrix(alphabet, gens, args) -> str:
    from .automaton import SStateSet, build_automaton
    from .core_graph import build_core
    from .spectral import make_nse, ose
    from .whitehead import choose_automorphism

    graph = build_core(gens, alphabet)
    # a core with no cut vertex raises before its automaton is built
    cd = choose_automorphism(graph)[1] if args.ordering == "nse" else None
    aut = build_automaton(graph)
    mat = ose(aut) if cd is None else make_nse(aut, SStateSet.from_collapse(aut, cd))
    if args.format == "csv":
        return matrix_csv(mat, alphabet)
    if args.format == "json":
        return _json({
            "ordering": state_names(mat.states, alphabet),
            "kind": args.ordering.upper(),
            "matrix": mat.matrix,
        })
    return matrix_text(mat, alphabet)


def cmd_eigen(alphabet, gens, args) -> str:
    from .automaton import build_automaton
    from .core_graph import build_core
    from .spectral import ose, pf_eigen

    aut = build_automaton(build_core(gens, alphabet))
    pf = pf_eigen(ose(aut), tol=args.tol)
    if args.format == "json":
        return _json({
            "eigenvalue": pf.eigenvalue,
            "eigenvector": pf.eigenvector,
            "iterations": pf.iterations,
            "residual": pf.residual,
            "states": state_names(aut.states, alphabet),
        })
    vec = ", ".join(_f(x) for x in pf.eigenvector)
    return (
        f"eigenvalue = {_f(pf.eigenvalue)}  (bracket {_f(pf.residual)}, "
        f"tol {_f(args.tol)}, {pf.iterations} iterations)\n"
        f"cogrowth = {_f(pf.eigenvalue)}, entropy = {_f(math.log(pf.eigenvalue))}\n"
        f"eigenvector = [{vec}]\n"
    )


def _step_json(step) -> dict:
    """A `pipeline.StepReport` as the JSON object `reduce-step` and
    `reduce` print."""
    ab = step.core_before.alphabet
    cert, nse = step.certificate, state_names(step.m.states, ab)
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
        "ose": state_names(step.aut_before.states, ab),
        "nse": nse,
        "ose_after": state_names(step.m1.states, ab),
        "matrix": step.m.matrix,
        "matrix_1": step.m1.matrix,
        "lambda": step.pf.eigenvalue,
        "lambda_1": step.pf1.eigenvalue,
        "eigenvector_1": step.pf1.eigenvector,
        "certificate": {
            "lambda_1": cert.lam1,
            "u": cert.u,
            "rows": nse,
            "strict_rows": list(cert.strict_rows),
            "choice": cert.u_choice,
            "s_entries": {
                format_state(q, ab): {"value": val, "lower": lo, "upper": hi}
                for q, (val, lo, hi) in cert.s_values.items()
            },
        },
        "gens_before": [format_word(w, ab) for w in step.gens_before],
        "gens_after": [format_word(w, ab) for w in step.gens_after],
    }


def _step_text(step, tol: float) -> list[str]:
    """A `pipeline.StepReport` as the lines `reduce-step` prints."""
    ab = step.core_before.alphabet
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
        "OSE: " + ", ".join(state_names(step.aut_before.states, ab)),
        "NSE: " + ", ".join(state_names(step.m.states, ab)),
        "OSE after collapse: " + ", ".join(state_names(step.m1.states, ab)),
        f"lambda  = {_f(step.pf.eigenvalue)}  (tol {_f(tol)})",
        f"lambda1 = {_f(step.pf1.eigenvalue)}",
        "certificate: strict slack at NSE rows "
        + ",".join(map(str, cert.strict_rows)),
        "gens after: " + ", ".join(format_word(w, ab) for w in step.gens_after),
    ]


def cmd_reduce_step(alphabet, gens, args) -> str:
    from .core_graph import build_core
    from .pipeline import reduce_step

    graph = build_core(gens, alphabet)
    if graph.n_vertices == 1:
        if args.format == "json":
            # the status word `reduce` ends with on the same input
            return _json({"status": "single_vertex_core"})
        return f"{ALREADY_REDUCED}\n"
    step = reduce_step(graph, gens, u_choice=args.u_choice, tol=args.tol)
    if args.format == "json":
        return _json(_step_json(step))
    return _text(_step_text(step, args.tol))


def cmd_reduce(ab, gens, args) -> tuple[str, int]:
    """`reduce` prints its trace whatever the terminal status, and exits 4
    on `no_cut_vertex` however many steps ran first."""
    from .pipeline import reduce_full

    trace = reduce_full(gens, ab, u_choice=args.u_choice, tol=args.tol)
    code = EXIT_NO_CUT_VERTEX if trace.status == "no_cut_vertex" else EXIT_OK
    final_gens = [format_word(w, ab) for w in trace.final_gens]
    if args.format == "json":
        return _json({
            "status": trace.status,
            "steps": [_step_json(s) for s in trace.steps],
            "final_gens": final_gens,
        }), code
    lines = [
        f"step {i}: phi = {step.phi.format(ab)}, "
        f"core {step.core_before.n_vertices}->{step.core_after.n_vertices} vertices, "
        f"lambda {_f(step.pf.eigenvalue)} -> {_f(step.pf1.eigenvalue)}, "
        f"gens: {', '.join(format_word(w, ab) for w in step.gens_after)}"
        for i, step in enumerate(trace.steps, start=1)
    ]
    if not trace.steps:
        lines.append("no reduction step applies")
    lines.append(f"status: {trace.status}")
    lines.append("final gens: " + ", ".join(final_gens))
    return _text(lines), code


def cmd_census(alphabet, gens, args) -> str:
    from .automaton import build_automaton, word_census
    from .core_graph import build_core

    aut = build_automaton(build_core(gens, alphabet))
    counts = word_census(aut, args.n_max)
    # math.log takes an int of any size exactly; a ** (1 / n) overflows
    # once a passes the float range
    rows = [
        (n, a, math.exp(math.log(a) / n) if a else 0.0)
        for n, a in enumerate(counts, start=1)
    ]
    if args.format == "csv":
        return _text(["n,a_n,a_n^(1/n)"] + [f"{n},{a},{_f(est)}" for n, a, est in rows])
    from .spectral import ose, pf_eigen

    alpha = pf_eigen(ose(aut), tol=args.tol).eigenvalue
    lines = [f"{'n':>4} {'a_n':>12} {'a_n^(1/n)':>10}"]
    lines += [f"{n:>4} {a:>12} {_f(est):>10}" for n, a, est in rows]
    lines.append(f"cogrowth alpha = {_f(alpha)} (tol {_f(args.tol)})")
    return _text(lines)


def cmd_verify(alphabet, gens, args) -> tuple[str, int | CogrowthError]:
    """Every check of the battery, certificate choices 1, 2 and 3
    included; exits 1 when one fails.  A core with no cut vertex ends the
    battery early: its lines are written, then the error is reported."""
    import random

    from .automaton import accepts, build_automaton, sample_accepted_word
    from .core_graph import build_core
    from .pipeline import check_step, reduce_step
    from .spectral import certify_inequality

    graph = build_core(gens, alphabet)
    step = stop = None
    if graph.n_vertices > 1:
        try:
            step = reduce_step(graph, gens, tol=args.tol)
        except NoCutVertexError as exc:
            stop = exc
    aut = step.aut_before if step else build_automaton(graph)
    # build_core and build_automaton validate what they build: those
    # lines report results
    lines = ["ok   core invariants", "ok   automaton deterministic/ergodic/I=F"]
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
            lines.append(f"FAIL {name}: {exc}" if str(exc) else f"FAIL {name}")

    def ambiguity_check():
        rng = random.Random(0)
        for _ in range(50):
            w = sample_accepted_word(aut, rng, rng.randint(1, 12))
            count = accepts(aut, w)
            assert count == aut.ambiguity, f"word has {count} paths"

    check("homogeneous ambiguity on 50 sampled words", ambiguity_check)
    if step is None:
        lines.append(f"note {stop or ALREADY_REDUCED}")
        return _text(lines), stop or EXIT_OK

    # check_step rebuilds M1, the automaton and the core the step derived
    rebuilt = ("row-transformed matrix equals collapsed adjacency",
               "collapsed automaton isomorphic to rebuilt automaton",
               "collapsed core matches rebuilt core")
    for name, same in zip(rebuilt, check_step(step)):
        check(name, lambda same=same: same)
    # each eigenvalue is the midpoint of a bracket, `residual` wide, that
    # holds the exact root
    check(
        "strict spectral gap",
        lambda: step.pf1.eigenvalue - step.pf.eigenvalue
        > (step.pf.residual + step.pf1.residual) / 2,
    )
    for choice in (1, 2):
        check(
            f"inequality certificate, choice {choice}",
            lambda c=choice: certify_inequality(step.m, step.pf1, u_choice=c, tol=args.tol),
        )
    # reduce_step built and checked choice 3 as the step's certificate
    lines.append("ok   inequality certificate, choice 3")
    return _text(lines), EXIT_OK if ok else 1


def _out_path(path: str) -> str:
    if not path:
        raise argparse.ArgumentTypeError("empty path")
    folder = os.path.dirname(path)
    if folder and not os.path.isdir(folder):
        raise argparse.ArgumentTypeError(f"no such directory: {folder}")
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"is a directory: {path}")
    return path


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def _tol(text: str) -> float:
    """A bracket width: 0 and inf are widths, nan and negatives are not."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative number: {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cogrowth",
        description="Core graphs, subgroup automata, Whitehead collapse and "
        "cogrowth certificates over free groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, formats=(), tol=False, u_choice=False, **kwargs):
        """--gens, --alphabet and --out, and the shared options `fn` reads."""
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--gens", required=True, help="comma-separated generator words")
        p.add_argument(
            "--alphabet", required=True, help='generator names, e.g. "xyzt" or "x,y,z,t"'
        )
        p.add_argument(
            "--out", type=_out_path, default=None, help="output file (default stdout)"
        )
        if tol:
            p.add_argument("--tol", type=_tol, default=1e-10,
                           help="width of the Collatz-Wielandt bracket on the eigenvalue")
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0])
        if u_choice:
            p.add_argument("--u-choice", type=int, choices=[1, 2, 3], default=3,
                           help="how the printed certificate fills the collapse states")
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
    add("eigen", cmd_eigen, ["text", "json"], tol=True, help="Perron-Frobenius eigenpair")
    add("reduce-step", cmd_reduce_step, ["text", "json"], tol=True, u_choice=True,
        help="one collapse step with matrices and certificate")
    add("reduce", cmd_reduce, ["text", "json"], tol=True, u_choice=True,
        help="iterate steps to a terminal")
    p = add("census", cmd_census, ["text", "csv"], tol=True,
            help="accepted words per length")
    p.add_argument("--n-max", type=_nonnegative_int, default=20)
    add("verify", cmd_verify, tol=True,
        help="self-check battery on one input, every certificate choice")
    return parser


def main(argv=None) -> int:
    """Parse the input once, run the subcommand, write its text once (to
    stdout or --out) and map its error, if any, to an exit code."""
    args = _build_parser().parse_args(argv)
    try:
        alphabet = Alphabet.from_spec(args.alphabet)
        gens = [parse_word(part, alphabet) for part in args.gens.split(",")]
        result = args.fn(alphabet, gens, args)
    except CogrowthError as exc:
        result = None, exc
    text, outcome = result if isinstance(result, tuple) else (result, EXIT_OK)
    if text is not None:
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    if not isinstance(outcome, CogrowthError):
        return outcome
    prefix, code = next((p, c) for kind, p, c in EXIT_CODES if isinstance(outcome, kind))
    print(f"{prefix}: {outcome}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
