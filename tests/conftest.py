import random
from dataclasses import dataclass

import pytest

from cogrowth import Alphabet, parse_word
from cogrowth.core_graph import build_core
from cogrowth.pipeline import reduce_full
from corpus_sweep import random_free_factor

CORPUS_SEED = 20240811
ALPHABETS = {m: Alphabet(tuple("xyzt"[:m])) for m in (2, 3, 4)}

ACCEPTANCE_LINES = []


def record_acceptance(line):
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def example_alphabet():
    return ALPHABETS[4]


@pytest.fixture(scope="session")
def example_gens(example_alphabet):
    return [parse_word("yX", example_alphabet), parse_word("yzYzt", example_alphabet)]


@pytest.fixture(scope="session")
def example_core(example_gens, example_alphabet):
    return build_core(example_gens, example_alphabet)


@dataclass(frozen=True)
class Instance:
    label: str
    alphabet: Alphabet
    gens: tuple
    expect_no_cut_vertex: bool = False


def build_corpus(n_random=200):
    rng = random.Random(CORPUS_SEED)
    instances = [
        Instance("worked-example", ALPHABETS[4],
                 (parse_word("yX", ALPHABETS[4]), parse_word("yzYzt", ALPHABETS[4]))),
        Instance("collapsed-example", ALPHABETS[4],
                 (parse_word("X", ALPHABETS[4]), parse_word("zYzt", ALPHABETS[4]))),
        Instance("squares-f2", ALPHABETS[2],
                 (parse_word("xx", ALPHABETS[2]), parse_word("yy", ALPHABETS[2])),
                 expect_no_cut_vertex=True),
        Instance("squares-f3", ALPHABETS[3],
                 tuple(parse_word(w, ALPHABETS[3]) for w in ("xx", "yy", "zz")),
                 expect_no_cut_vertex=True),
        Instance("even-f2", ALPHABETS[2],
                 tuple(parse_word(w, ALPHABETS[2]) for w in ("xx", "yy", "xy")),
                 expect_no_cut_vertex=True),
        Instance("mixed-square", ALPHABETS[2],
                 (parse_word("x", ALPHABETS[2]), parse_word("yy", ALPHABETS[2])),
                 expect_no_cut_vertex=True),
        Instance("full-basis-f2", ALPHABETS[2],
                 (parse_word("x", ALPHABETS[2]), parse_word("y", ALPHABETS[2]))),
    ]
    for i in range(n_random):
        rank = rng.choice([3, 4])
        gens = random_free_factor(rng, rank)
        instances.append(Instance(f"random-{i}", ALPHABETS[rank], gens))
    return instances


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


@pytest.fixture(scope="session")
def ladder():
    """The benchmark's ladder: free factors of F4 whose cores grow from 12
    to 243 vertices (`perfbench/workloads.py`)."""
    import importlib.util
    import sys
    from pathlib import Path

    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.ladder_subgroups()


@pytest.fixture(scope="session")
def corpus_traces(corpus):
    """`reduce_full` at its defaults on every corpus instance."""
    return [reduce_full(list(inst.gens), inst.alphabet) for inst in corpus]


@pytest.fixture(scope="session")
def ladder_traces(ladder):
    """`reduce_full` at its defaults on every ladder rung."""
    return [reduce_full(list(inst.gens), inst.alphabet) for inst in ladder]
