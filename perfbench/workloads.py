"""Seeded inputs for the four workloads and the operation each one times.

Every operation is called through its module (``pipeline.reduce_full``,
not a name bound at import), so the traced run can swap in wrappers.

The subgroups of ``corpus`` and ``ladder`` and the family of ``fold`` are
fixed; the seed draws their presentation (which generator comes first,
each generator or its inverse and the order of the inputs; for ``fold``,
a signed relabelling of the letters).  Two random corpora of the same
size differ in cost by up to 57% and two random ladders by 4x, so drawing
the subgroups themselves from the seed would swamp every bound; a new
presentation changes the words the program reads but not the work its
reduction does.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from cogrowth import automaton, core_graph, pipeline, whitehead, words

ROOT = Path(__file__).resolve().parent.parent


def _load_corpus_sweep():
    spec = importlib.util.spec_from_file_location(
        "corpus_sweep", ROOT / "scripts" / "corpus_sweep.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


corpus_sweep = _load_corpus_sweep()

ALPHABETS = {m: words.Alphabet(tuple("xyzt"[:m])) for m in (2, 3, 4)}


@dataclass(frozen=True)
class Instance:
    label: str
    alphabet: words.Alphabet
    gens: tuple
    expect_no_cut_vertex: bool = False


# -- corpus ---------------------------------------------------------------

CORPUS_SEED = 20240811
CORPUS_RANDOM = 200

# (label, rank, generators, expect_no_cut_vertex), as in tests/conftest.py
HAND_WRITTEN = (
    ("worked-example", 4, "yX,yzYzt", False),
    ("collapsed-example", 4, "X,zYzt", False),
    ("squares-f2", 2, "xx,yy", True),
    ("squares-f3", 3, "xx,yy,zz", True),
    ("even-f2", 2, "xx,yy,xy", True),
    ("mixed-square", 2, "x,yy", True),
    ("full-basis-f2", 2, "x,y", False),
)


def acceptance_corpus() -> list[Instance]:
    """The acceptance corpus: the hand-written instances, then 200 random
    free factors drawn exactly as the acceptance tests draw them."""
    out = [
        Instance(
            label,
            ALPHABETS[rank],
            tuple(words.parse_word(w, ALPHABETS[rank]) for w in spec.split(",")),
            expect,
        )
        for label, rank, spec, expect in HAND_WRITTEN
    ]
    rng = random.Random(CORPUS_SEED)
    for i in range(CORPUS_RANDOM):
        rank = rng.choice([3, 4])
        gens = corpus_sweep.random_free_factor(rng, rank)
        out.append(Instance(f"random-{i}", ALPHABETS[rank], gens))
    return out


def _present(rng: random.Random, gens: tuple) -> tuple:
    """The same subgroup, generators reordered and each possibly inverted."""
    gens = [words.inverse_word(w) if rng.random() < 0.5 else w for w in gens]
    rng.shuffle(gens)
    return tuple(gens)


def _presented(instances: list[Instance], seed: int) -> list[Instance]:
    rng = random.Random(seed)
    out = [
        Instance(i.label, i.alphabet, _present(rng, i.gens), i.expect_no_cut_vertex)
        for i in instances
    ]
    rng.shuffle(out)
    return out


def corpus_inputs(seed: int) -> list[Instance]:
    """The acceptance corpus itself for the default seed, otherwise the same
    subgroups in a presentation drawn from the seed."""
    corpus = acceptance_corpus()
    return corpus if seed == CORPUS_SEED else _presented(corpus, seed)


# -- ladder ---------------------------------------------------------------

LADDER_SEED = 1
LADDER_RUNGS = (12, 24, 48, 96, 192)
LADDER_GROWTH = 1.35


def ladder_subgroups() -> list[Instance]:
    """Images of the partial basis {x, y} of F4 under one random chain of
    Whitehead moves, snapshotted when the core first reaches each rung.

    A move is kept only when the images stay cyclically reduced (so each
    snapshot is an exact automorphic image, a free factor) and the core
    grows by at most LADDER_GROWTH, so each rung lands near its target.
    """
    ab = ALPHABETS[4]
    rng = random.Random(LADDER_SEED)
    gens, size = ((1,), (2,)), 1
    out = []
    for target in LADDER_RUNGS:
        while size < target:
            phi = corpus_sweep.random_whitehead(rng, 4)
            image = tuple(words.apply_whitehead(phi, w) for w in gens)
            if not all(words.is_cyclically_reduced(w) for w in image):
                continue
            n = core_graph.build_core(list(image), ab).n_vertices
            if size < n <= max(LADDER_GROWTH * size, size + 4):
                gens, size = image, n
        out.append(Instance(f"rung-{target}", ab, gens))
    return out


def ladder_inputs(seed: int) -> list[Instance]:
    rng = random.Random(seed)
    return [
        Instance(i.label, i.alphabet, _present(rng, i.gens))
        for i in ladder_subgroups()
    ]


# -- fold -----------------------------------------------------------------

# Up to 400: at n = 800 a 20-second run holds only five to seven passes,
# and the run-to-run spread of the largest operation reached 0.21.
FOLD_NS = (25, 50, 100, 200, 400)


def fold_family(n: int) -> tuple:
    """x^n y x^-n z, x^n z x^-n t."""
    x, y, z, t = 1, 2, 3, 4
    return ((x,) * n + (y,) + (-x,) * n + (z,), (x,) * n + (z,) + (-x,) * n + (t,))


def fold_inputs(seed: int) -> list[Instance]:
    """The family for each n, under one signed relabelling of the letters
    (an automorphism that keeps the closed form) drawn from the seed.

    The generators keep their order and orientation: reordering or
    inverting them changes what `build_core` costs by up to 35% at
    n = 400, since its rescans depend on the order of the edge list.
    """
    rng = random.Random(seed)
    image = list(range(1, 5))
    rng.shuffle(image)
    image = [g if rng.random() < 0.5 else -g for g in image]

    def relabel(w):
        return tuple(image[abs(l) - 1] * (1 if l > 0 else -1) for l in w)

    return [
        Instance(f"n-{n}", ALPHABETS[4], tuple(relabel(w) for w in fold_family(n)))
        for n in FOLD_NS
    ]


@dataclass(frozen=True)
class FoldResult:
    core: core_graph.CoreGraph
    aut: automaton.Automaton
    collapsed: automaton.Automaton
    core_after: core_graph.CoreGraph
    images: tuple
    rebuilt: core_graph.CoreGraph


def fold_op(inst: Instance) -> FoldResult:
    """The structural half of one reduction step: no matrices, no PF."""
    core = core_graph.build_core(list(inst.gens), inst.alphabet)
    phi, cd = whitehead.choose_automorphism(core)
    aut = automaton.build_automaton(core)
    s = automaton.SStateSet.from_collapse(aut, cd)
    collapsed = automaton.collapse_automaton(aut, s)
    core_after = core_graph.collapse_core(core, cd)
    images = tuple(
        words.cyclic_reduce(words.apply_whitehead(phi, w))[0] for w in inst.gens
    )
    rebuilt = core_graph.build_core(list(images), inst.alphabet)
    return FoldResult(core, aut, collapsed, core_after, images, rebuilt)


def reduce_op(inst: Instance) -> pipeline.ReductionTrace:
    return pipeline.reduce_full(inst.gens, inst.alphabet)


# -- cli ------------------------------------------------------------------

EXAMPLE = ("--gens", "yX,yzYzt", "--alphabet", "xyzt")

# name -> argv; "whitehead-rose" asks about <x,y> <= F3, a free factor
CLI_COMMANDS = {
    "core": ("core", *EXAMPLE),
    "whitehead": ("whitehead", *EXAMPLE),
    "automaton": ("automaton", *EXAMPLE),
    "matrix": ("matrix", *EXAMPLE, "--format", "json"),
    "eigen": ("eigen", *EXAMPLE),
    "reduce-step": ("reduce-step", *EXAMPLE, "--format", "json"),
    "reduce": ("reduce", *EXAMPLE, "--format", "json"),
    "census": ("census", *EXAMPLE),
    "verify": ("verify", *EXAMPLE),
    "whitehead-rose": ("whitehead", "--gens", "x,y", "--alphabet", "xyz"),
}

# every command reads the same generators; this one does the most work
LARGEST_COMMAND = "verify"

# Operations that fail on every run because of a known fault in the
# program: `whitehead` calls the free factor <x,y> <= F3 "not a free
# factor" (its core is a rose, whose Whitehead graph has no cut vertex).
KNOWN_FAULTS = frozenset({"whitehead-rose"})

# what the `cogrowth` console script runs
ENTRY = "import sys; from cogrowth.cli import main; sys.exit(main())"


def cli_inputs(seed: int) -> list[str]:
    names = list(CLI_COMMANDS)
    random.Random(seed).shuffle(names)
    return names


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    max_rss_kb: int


def cli_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_op(name: str, env: dict) -> CliResult:
    """One fresh `cogrowth` process; its peak RSS comes from wait4."""
    proc = subprocess.Popen(
        [sys.executable, "-c", ENTRY, *CLI_COMMANDS[name]],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        cwd=ROOT,
        env=env,
    )
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliResult(proc.returncode, out.decode(), usage.ru_maxrss)


def run_cli_in_process(name: str) -> CliResult:
    """`cogrowth.cli.main` in this process, stdout captured (traced run)."""
    from cogrowth import cli  # imported here: the timed runs start it in a child

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(CLI_COMMANDS[name]))
    return CliResult(code, buf.getvalue(), 0)


def fresh_interpreter_s(code: str, env: dict) -> float:
    """Seconds a fresh interpreter reports for running `code`, which
    prints its own timing."""
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, env=env, cwd=ROOT, check=True
    )
    return float(out.stdout)


def interpreter_start_s(env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0
