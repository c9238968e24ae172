"""The benchmark's checks pass on the program's outputs and reject
corrupted ones; its default corpus is the acceptance corpus.

    python3 -m pytest perfbench
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402


@pytest.fixture(scope="module")
def example():
    inst = workloads.acceptance_corpus()[0]
    assert inst.label == "worked-example"
    return inst, workloads.reduce_op(inst)


@pytest.fixture(scope="module")
def fold25():
    inst = workloads.fold_inputs(7)[0]
    return inst, workloads.fold_op(inst)


@pytest.fixture(scope="module")
def cli_results():
    return {name: workloads.run_cli_in_process(name) for name in workloads.CLI_COMMANDS}


def test_outputs_of_the_program_pass(example, fold25):
    checks.check_reduction(*example)
    checks.check_fold(fold25[0], 25, fold25[1])
    for inst in workloads.ladder_inputs(3)[:2]:
        checks.check_reduction(inst, workloads.reduce_op(inst))


def test_cli_outputs_pass_except_the_known_fault(cli_results):
    for name in workloads.CLI_COMMANDS:
        if name in workloads.KNOWN_FAULTS:
            continue
        checks.check_cli(name, workloads.CLI_COMMANDS, cli_results)


def _replace_pf(step, which, **changes):
    pf = getattr(step, which)
    return dataclasses.replace(step, **{which: dataclasses.replace(pf, **changes)})


@pytest.mark.parametrize("which", ["pf", "pf1"])
def test_shifted_eigenvalue_is_rejected(example, which):
    step = example[1].steps[0]
    lam = getattr(step, which).eigenvalue
    with pytest.raises(CheckError):
        checks.check_step(_replace_pf(step, which, eigenvalue=lam + 1e-6), "shifted")


@pytest.mark.parametrize("which", ["pf", "pf1"])
def test_perturbed_eigenvector_is_rejected(example, which):
    step = example[1].steps[0]
    v = getattr(step, which).eigenvector.copy()
    v[len(v) // 2] *= 1 + 1e-6
    with pytest.raises(CheckError):
        checks.check_step(_replace_pf(step, which, eigenvector=v), "perturbed")


def test_wrong_status_is_rejected(example):
    inst, trace = example
    with pytest.raises(CheckError):
        checks.check_reduction(inst, dataclasses.replace(trace, status="no_cut_vertex"))
    squares = workloads.acceptance_corpus()[2]
    assert squares.expect_no_cut_vertex
    wrong = workloads.reduce_op(squares)
    with pytest.raises(CheckError):
        checks.check_reduction(squares, dataclasses.replace(wrong, status="single_vertex_core"))


def test_wrong_vertex_count_is_rejected(example, fold25):
    step = example[1].steps[0]
    with pytest.raises(CheckError):
        checks.check_step(dataclasses.replace(step, core_after=step.core_before), "unshrunk")
    inst, result = fold25
    bigger = workloads.fold_op(workloads.fold_inputs(7)[1])
    with pytest.raises(CheckError):
        checks.check_fold(inst, 25, dataclasses.replace(result, core=bigger.core))
    with pytest.raises(CheckError):
        checks.check_fold(inst, 25, dataclasses.replace(result, core_after=bigger.core_after))


@pytest.mark.parametrize(
    "name, old, new",
    [
        ("core", "5 vertices", "6 vertices"),
        ("whitehead", "cut vertices:\n", "cut vertices: none (not a free factor)\n#"),
        ("automaton", "12 states", "11 states"),
        ("matrix", '"matrix": [\n    [\n      0', '"matrix": [\n    [\n      1'),
        ("eigen", "eigenvalue = 1.45109", "eigenvalue = 1.45108"),
        ("reduce-step", '"lambda": 1.45', '"lambda": 1.46'),
        ("reduce", '"status": "single_vertex_core"', '"status": "no_cut_vertex"'),
        ("census", "   2            2", "   2            3"),
        ("census", "alpha = 1.45109", "alpha = 1.4511"),
        ("verify", "ok   strict spectral gap", "FAIL strict spectral gap"),
    ],
)
def test_altered_cli_stdout_is_rejected(cli_results, name, old, new):
    res = cli_results[name]
    assert old in res.stdout
    altered = dict(cli_results)
    altered[name] = dataclasses.replace(res, stdout=res.stdout.replace(old, new, 1))
    with pytest.raises(CheckError):
        checks.check_cli(name, workloads.CLI_COMMANDS, altered)


def test_nonzero_exit_is_rejected(cli_results):
    altered = dict(cli_results)
    altered["core"] = dataclasses.replace(cli_results["core"], code=3)
    with pytest.raises(CheckError):
        checks.check_cli("core", workloads.CLI_COMMANDS, altered)


def test_independent_fold_matches_the_program_on_the_corpus():
    for inst in workloads.acceptance_corpus():
        ours = checks.fold(inst.gens)
        core = workloads.core_graph.build_core(list(inst.gens), inst.alphabet)
        assert checks.canonical(*ours) == checks.canonical(*checks.graph_of(core))


def test_census_enumeration_counts_reduced_loops():
    # the rose on two letters: every reduced word of length n is a loop
    root, edges = checks.fold([(1,), (2,)])
    assert checks.census_by_enumeration(root, edges, 4) == [4 * 3 ** (n - 1) for n in range(1, 5)]


def _acceptance_corpus_of_the_tests():
    spec = importlib.util.spec_from_file_location(
        "acceptance_conftest", HERE.parent / "tests" / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build_corpus()


def test_default_seed_reproduces_the_acceptance_corpus():
    ours = workloads.corpus_inputs(workloads.CORPUS_SEED)
    theirs = _acceptance_corpus_of_the_tests()
    assert [(i.label, i.alphabet, i.gens, i.expect_no_cut_vertex) for i in ours] == [
        (i.label, i.alphabet, i.gens, i.expect_no_cut_vertex) for i in theirs
    ]


def test_other_seeds_present_the_same_subgroups():
    reference = {i.label: checks.canonical(*checks.fold(i.gens))
                 for i in workloads.acceptance_corpus()}
    presented = workloads.corpus_inputs(5)
    assert [i.label for i in presented] != list(reference)
    for inst in presented:
        assert checks.canonical(*checks.fold(inst.gens)) == reference[inst.label]
    assert workloads.corpus_inputs(5) == presented


def test_fold_inputs_keep_the_family_shape():
    for seed in (1, 2):
        for inst, n in zip(workloads.fold_inputs(seed), workloads.FOLD_NS):
            root, edges = checks.fold(inst.gens)
            assert (len(checks.vertices(root, edges)), len(edges)) == (3 * n + 3, 3 * n + 4)
    assert workloads.fold_inputs(1)[0].gens != workloads.fold_inputs(2)[0].gens
