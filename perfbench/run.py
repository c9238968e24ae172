"""Benchmark of the cogrowth reduction pipeline.

    python3 perfbench/run.py --workload {corpus,ladder,fold,cli,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Runs one workload for S seconds in closed loop (one operation at a time,
whole passes over the workload's inputs), with a fixed reference
computation timed between the operations, checks every output apart from
the program, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics, or with --trace 1 the per-layer metrics of
a separate traced run.  `--workload all` runs each workload in a process
of its own and prints every metric as a table.  See perfbench/README.md.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here: imports included

import argparse
import bisect
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus", "ladder", "fold", "cli")
DEFAULT_SEED = 20240811
# set-up is repeated in this many fresh processes besides the run's own
SETUP_REPEATS = 6
# The highest percentile with at least ten invocations beyond it at the
# default run length; with fewer than forty invocations, the median.  On
# corpus the invocations beyond p99 repeat only three subgroups, and p95 is
# the highest percentile with ten distinct subgroups beyond it.
TAIL_PERCENTILE = {"corpus": 95, "cli": 75, "fold": 90, "ladder": 50}
# fresh-interpreter timings in the traced run are medians of this many
FRESH_REPEATS = 5
# after each operation the reference is timed until its time adds up to
# this share of the operations' time so far
REF_SHARE = 0.15
# each operation's time is divided by the median of this many reference
# times, those taken nearest to it
REF_NEIGHBOURS = 8
# the reference computations each workload is measured against, run in
# turn as one reference; ladder's passes hold both small and dense work
REFERENCE = {"corpus": ("small",), "fold": ("small",), "ladder": ("dense", "small"),
             "cli": ("process",)}


class Workload:
    """Inputs drawn from the seed, the operation run on each, and the
    checks on a pass's outputs."""

    def __init__(self, name: str, seed: int, in_process_cli: bool = False):
        import checks
        import reference
        import workloads

        self.name = name
        self.checks = checks
        self.workloads = workloads
        env = workloads.cli_env()
        make = {
            "small": lambda: reference.small_reference(
                [i.gens for i in workloads.acceptance_corpus()]),
            "dense": reference.dense_reference,
            "process": lambda: reference.process_reference(env, ROOT),
        }
        parts = [make[kind]() for kind in REFERENCE[name]]
        self.reference = lambda: [run() for run in parts]
        if name == "cli":
            self.inputs = workloads.cli_inputs(seed)
            if in_process_cli:
                self.op = workloads.run_cli_in_process
            else:
                self.op = lambda cmd: workloads.cli_op(cmd, env)
            self.largest = self.inputs.index(workloads.LARGEST_COMMAND)
        else:
            self.inputs = {
                "corpus": workloads.corpus_inputs,
                "ladder": workloads.ladder_inputs,
                "fold": workloads.fold_inputs,
            }[name](seed)
            self.op = workloads.fold_op if name == "fold" else workloads.reduce_op
            # the most core vertices, then the most letters
            self.largest = max(range(len(self.inputs)), key=lambda i: self._size(self.inputs[i]))

    def _size(self, inst):
        core = self.checks.fold(inst.gens)
        return len(self.checks.vertices(*core)), sum(map(len, inst.gens)), inst.label

    def run(self, x):
        try:
            return self.op(x)
        except Exception as exc:  # a failed operation; reported by the checks
            return exc

    def errors(self, outs) -> list:
        """Per input, why its output is wrong, or None."""
        checks = self.checks
        results = dict(zip(self.inputs, outs)) if self.name == "cli" else None
        out = []
        for x, o in zip(self.inputs, outs):
            try:
                if isinstance(o, BaseException):
                    raise checks.CheckError(f"raised {type(o).__name__}: {o}")
                if self.name == "cli":
                    checks.check_cli(x, self.workloads.CLI_COMMANDS, results)
                elif self.name == "fold":
                    checks.check_fold(x, int(x.label.split("-")[1]), o)
                else:
                    checks.check_reduction(x, o)
                out.append(None)
            except checks.CheckError as exc:
                out.append(str(exc))
        return out

    def known_fault(self, x) -> bool:
        return self.name == "cli" and x in self.workloads.KNOWN_FAULTS


def measure(wl: Workload, seconds: float):
    """Whole passes until `seconds` have gone by (at least one).

    Between operations the reference is timed, so that it takes REF_SHARE
    of the operations' time, spread over the run.  The first pass's
    outputs are checked before the second pass, outside the measured time.
    Returns per input its (time, when) in each pass, and the reference's
    (time, when) samples, `when` being the middle of the interval timed.
    """
    op_s = [[] for _ in wl.inputs]
    ref_s = [timed(wl.reference)[1]]
    total_ref_s, total_op_s = ref_s[0][0], 0.0
    errors, prints, changed = None, None, set()
    max_child_rss_kb = 0
    start = time.perf_counter()
    while True:
        outs = []
        for i, x in enumerate(wl.inputs):
            out, op = timed(lambda: wl.run(x))
            outs.append(out)
            op_s[i].append(op)
            total_op_s += op[0]
            while total_ref_s < REF_SHARE * total_op_s:
                ref_s.append(timed(wl.reference)[1])
                total_ref_s += ref_s[-1][0]
        max_child_rss_kb = max([max_child_rss_kb] + [getattr(o, "max_rss_kb", 0) for o in outs])
        if errors is None:
            # checked now and let go: outputs held through the run would
            # make every later pass slower than the first
            c0 = time.perf_counter()
            errors = wl.errors(outs)
            prints = [wl.checks.fingerprint(o) for o in outs]
            start += time.perf_counter() - c0
        else:
            changed |= {i for i, o in enumerate(outs) if wl.checks.fingerprint(o) != prints[i]}
        if time.perf_counter() - start >= seconds:
            break
    return op_s, ref_s, errors, changed, max_child_rss_kb


def timed(fn):
    """(fn's result, (seconds it took, the middle of that interval))."""
    t0 = time.perf_counter()
    out = fn()
    t1 = time.perf_counter()
    return out, (t1 - t0, (t0 + t1) / 2)


def local_reference(ref_s, ref_when, when: float) -> float:
    """The median of the REF_NEIGHBOURS reference times nearest `when`;
    `ref_when` lists when each of `ref_s` was taken, in order."""
    j = bisect.bisect(ref_when, when)
    lo = max(0, min(j - REF_NEIGHBOURS // 2, len(ref_s) - REF_NEIGHBOURS))
    return statistics.median(t for t, _ in ref_s[lo:lo + REF_NEIGHBOURS])


def verdict(wl: Workload, errors, changed, n_passes: int):
    """(correct, failed) over the run, from `wl.errors` of the first pass;
    prints each fault to stderr."""
    for i in changed:
        errors[i] = errors[i] or "output changed between passes"
    correct, failed = True, 0
    for x, err in zip(wl.inputs, errors):
        if err is None:
            continue
        if wl.known_fault(x):
            failed += n_passes
            print(f"known fault: {err}", file=sys.stderr)
        else:
            correct = False
            print(f"WRONG: {err}", file=sys.stderr)
    return correct, failed


def percentile(values, p: int) -> float:
    if p == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100)[p - 1]


def setup_in_fresh_process(args) -> float:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, check=True, cwd=ROOT,
    )
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def timed_run(wl: Workload, args, setup_s: float) -> dict:
    setups = [setup_s] + [setup_in_fresh_process(args) for _ in range(SETUP_REPEATS)]
    op_s, ref_s, errors, changed, child_rss_kb = measure(wl, args.seconds)
    rss_kb = child_rss_kb if wl.name == "cli" else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    n_passes = len(op_s[0])
    correct, failed = verdict(wl, errors, changed, n_passes)
    tail = TAIL_PERCENTILE[wl.name]
    # each operation against the reference times taken nearest to it
    ref_when = [w for _, w in ref_s]
    op_ref = [[t / local_reference(ref_s, ref_when, w) for t, w in ts] for ts in op_s]
    op_s = [[t for t, _ in ts] for ts in op_s]

    def summary(per_op):
        every_op = [t for ts in per_op for t in ts]
        return {
            "pass": statistics.median(sum(ts[p] for ts in per_op) for p in range(n_passes)),
            "op_p50": statistics.median(every_op),
            "op_tail": percentile(every_op, tail),
            "largest_op": statistics.median(per_op[wl.largest]),
        }

    seconds, refs = summary(op_s), summary(op_ref)
    print(f"{wl.name}: {n_passes} passes; reference {statistics.median(t for t, _ in ref_s):.6f} s "
          f"(median of {len(ref_s)}); in seconds: "
          + ", ".join(f"{k} {v:.6f}" for k, v in seconds.items()) + f" (tail: p{tail})")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pass_ref": (refs["pass"], "ref"),
        "op_ref_p50": (refs["op_p50"], "ref"),
        "op_ref_tail": (refs["op_tail"], "ref"),
        "largest_op_ref": (refs["largest_op"], "ref"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    return {
        "correct": correct,
        "attempted": len(wl.inputs) * n_passes,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


SELF_TIMED = (
    "core_graph.build_core", "core_graph.collapse_core", "whitehead.choose_automorphism",
    "automaton.build_automaton", "automaton.collapse_automaton",
    "automaton.SStateSet.from_collapse", "spectral.pf_eigen", "spectral.adjacency",
    "spectral.derive_m1", "spectral.certify_inequality", "pipeline.reduce_step",
    "pipeline.reduce_full", "words.apply_whitehead", "cli.main",
)
COUNTED = (
    "core_graph.letters_folded", "automaton.states_built", "spectral.pf_eigen.iterations",
    "spectral.pf_eigen.order", "pipeline.steps",
)


def traced_run(args) -> dict:
    """Untraced and traced passes in turn, so that drift in the machine's
    speed falls on both sides of the overhead alike.

    The cli workload runs `cogrowth.cli.main` in this process here, since
    a wrapper cannot see into a child process.
    """
    import tracing

    wl = Workload(args.workload, args.seed, in_process_cli=True)
    tracer = tracing.Tracer()
    plain_s, traced_s, self_s, counts, first = [], [], [], None, None
    start = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        for x in wl.inputs:
            wl.run(x)
        plain_s.append(time.perf_counter() - p0)
        tracer.reset()
        tracer.install()
        try:
            p0 = time.perf_counter()
            outs = [wl.run(x) for x in wl.inputs]
            traced_s.append(time.perf_counter() - p0)
        finally:
            tracer.uninstall()
        self_s.append(tracer.self_times())
        if first is None:
            first, counts = outs, tracer.counts + tracer.calls()
        if time.perf_counter() - start >= args.seconds:
            break
    correct, failed = verdict(wl, wl.errors(first), set(), len(traced_s))

    def self_time(name):
        return statistics.median(s.get(name, 0.0) for s in self_s)

    steps = counts["pipeline.steps"]
    metrics = {f"{n}.self_s": (self_time(n), "s") for n in SELF_TIMED}
    metrics["core_graph.build_core.calls"] = (counts["core_graph.build_core"], "count")
    metrics["spectral.pf_eigen.calls"] = (counts["spectral.pf_eigen"], "count")
    metrics.update({n: (counts[n], "count") for n in COUNTED})
    metrics["pipeline.build_core_per_step"] = (
        counts["core_graph.build_core"] / steps if steps else 0.0, "ratio")
    metrics["pipeline.pf_eigen_per_step"] = (
        counts["spectral.pf_eigen"] / steps if steps else 0.0, "ratio")

    env = wl.workloads.cli_env()
    timing = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"
    fresh = wl.workloads.fresh_interpreter_s
    metrics["cli.import_s"] = (statistics.median(
        fresh(timing.format("cogrowth.cli"), env) for _ in range(FRESH_REPEATS)), "s")
    metrics["cli.numpy_import_s"] = (statistics.median(
        fresh(timing.format("numpy"), env) for _ in range(FRESH_REPEATS)), "s")
    metrics["cli.interpreter_s"] = (statistics.median(
        wl.workloads.interpreter_start_s(env) for _ in range(FRESH_REPEATS)), "s")
    traced, plain = statistics.median(traced_s), statistics.median(plain_s)
    metrics["trace.overhead_pct"] = (100 * (traced / plain - 1), "%")

    modules = {}
    for name in set().union(*self_s):
        module = name.split(".")[0]
        modules[module] = modules.get(module, 0.0) + self_time(name)
    shares = ", ".join(f"{m} {100 * t / traced:.1f}%" for m, t in
                       sorted(modules.items(), key=lambda kv: -kv[1]))
    print(f"{wl.name}: traced pass {traced:.4f} s, untraced {plain:.4f} s; "
          f"self time by module: {shares}")
    return {
        "correct": correct,
        "attempted": len(wl.inputs) * len(traced_s),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload in a process of its own; a table of its metrics."""
    results = {}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            print(f"{name}: exit code {out.returncode}")
            return 1
        *notes, last = out.stdout.splitlines()
        for line in notes:
            print(line)
        results[name] = res = json.loads(last)
        print(f"{name}: correct {res['correct']}, attempted {res['attempted']}, "
              f"failed {res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:40s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cogrowth" / "__init__.py").is_file():
        print(f"perfbench: no cogrowth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    if args.trace:
        result = traced_run(args)
    else:
        wl = Workload(args.workload, args.seed)
        wl.run(wl.inputs[0])  # warm-up
        wl.reference()
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = timed_run(wl, args, setup_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
