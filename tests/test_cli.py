import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cogrowth.cli import core_json, main
from cogrowth.words import format_word
from conftest import build_corpus
from golden_table import EXAMPLE, GOLDEN, GOLDEN_COMMANDS
from oracles import core_from_json

# the golden files that test_text_output_matches_golden_file checks
TEXT_GOLDEN = ("reduce", "reduce-step", "verify")
# the `cogrowth` lines of the golden table, each without the program name
CLI_GOLDEN = {
    name: argv for name, (program, *argv) in GOLDEN_COMMANDS.items() if program == "cogrowth"
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_core_text(capsys):
    code, out, _ = run(capsys, "core", *EXAMPLE)
    assert code == 0
    assert "5 vertices, 6 edges" in out
    assert "L_1 = {x, y, t^-1}" in out
    assert "L_5 = {z^-1, t}" in out


def test_core_dot_has_double_circled_root(capsys):
    code, out, _ = run(capsys, "core", *EXAMPLE, "--format", "dot")
    assert code == 0
    assert "doublecircle" in out
    assert out.count("->") == 6


def test_core_json_roundtrip(capsys):
    code, out, _ = run(capsys, "core", *EXAMPLE, "--format", "json")
    assert code == 0
    graph = core_from_json(out)
    assert graph.n_vertices == 5
    assert core_json(graph) == out


def test_outputs_are_deterministic(capsys):
    seen = {}
    for cmd, extra in [
        ("core", []),
        ("whitehead", []),
        ("automaton", []),
        ("matrix", []),
        ("eigen", []),
        ("reduce-step", []),
        ("reduce", []),
        ("census", ["--n-max", "10"]),
    ]:
        _, first, _ = run(capsys, cmd, *EXAMPLE, *extra)
        _, second, _ = run(capsys, cmd, *EXAMPLE, *extra)
        assert first == second, f"{cmd} output is not deterministic"
        seen[cmd] = first
    assert seen["core"]


def test_parse_error_exit_code(capsys):
    code, out, err = run(capsys, "core", "--gens", "xx^-", "--alphabet", "xy")
    assert code == 2
    assert not out
    assert "parse error" in err


def test_huge_exponent_is_a_parse_error(capsys):
    code, out, err = run(capsys, "core", "--gens", "x^99999999999,y", "--alphabet", "xy")
    assert code == 2
    assert not out
    assert "parse error" in err


def test_out_into_a_missing_directory_fails_at_parsing(capsys, tmp_path):
    target = tmp_path / "missing" / "core.json"
    with pytest.raises(SystemExit) as exc:
        main(["core", *EXAMPLE, "--out", str(target)])
    assert exc.value.code == 2
    assert "no such directory" in capsys.readouterr().err
    assert not target.parent.exists()


def test_out_onto_a_directory_fails_at_parsing(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["core", *EXAMPLE, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "is a directory" in capsys.readouterr().err


def test_empty_out_path_fails_at_parsing(capsys):
    # not "no --out": nothing is written to stdout
    with pytest.raises(SystemExit) as exc:
        main(["core", *EXAMPLE, "--out", ""])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "empty path" in captured.err
    assert not captured.out


def test_precondition_exit_code(capsys):
    code, _, err = run(capsys, "core", "--gens", "x", "--alphabet", "xy")
    assert code == 3
    # a fold with a hair: the root sees only the x of xyX and xzX
    code, _, err = run(capsys, "core", "--gens", "xyX,xzX", "--alphabet", "xyz")
    assert code == 3
    assert "vertex 1 has degree < 2" in err


@pytest.mark.parametrize("gens", ["xyX", "xyX,xyyX"])
def test_a_conjugate_of_a_cyclic_subgroup_is_reported_as_cyclic(capsys, gens):
    # the fold is a loop y with a hair x at the root
    code, _, err = run(capsys, "core", "--gens", gens, "--alphabet", "xyz")
    assert code == 3
    assert err == (
        "precondition violation: subgroup is trivial or cyclic; the core has no branching\n"
    )


def test_reduce_prints_freely_reduced_gens_when_no_step_runs(capsys):
    # x and x x^-1 y fold to the rose of <x,y>
    code, out, err = run(capsys, "reduce", "--gens", "x,xXy", "--alphabet", "xyz")
    assert (code, err) == (0, "")
    assert out.endswith("status: single_vertex_core\nfinal gens: x, y\n")


def test_reduce_decides_a_conjugated_free_factor(capsys):
    # neither generator is cyclically reduced, yet the fold is a core
    gens = ("--gens", "zxz,ZXXzyxzxz", "--alphabet", "xyz")
    code, out, _ = run(capsys, "reduce", *gens)
    assert code == 0
    assert "status: single_vertex_core" in out
    code, out, _ = run(capsys, "verify", *gens)
    assert code == 0
    assert "FAIL" not in out


def test_no_cut_vertex_exit_code_and_no_artifacts(capsys, tmp_path):
    target = tmp_path / "step.json"
    code, out, err = run(
        capsys,
        "reduce-step",
        "--gens", "xx,yy",
        "--alphabet", "xy",
        "--format", "json",
        "--out", str(target),
    )
    assert code == 4
    assert "not a free factor" in err
    assert not out
    assert not target.exists()


def test_numerical_failure_exit_code(capsys):
    code, _, err = run(capsys, "eigen", *EXAMPLE, "--tol", "0")
    assert code == 6
    assert "numerical failure" in err


@pytest.mark.parametrize("command", ["eigen", "reduce"])
def test_an_eigenvector_below_the_double_range_is_named(capsys, command):
    # C(700) = <x, y, z t^700>: along the arc the eigenvector falls as
    # 3^-depth, below the smallest positive double past depth 679
    code, out, err = run(capsys, command, "--gens", "x,y,z t^700", "--alphabet", "xyzt")
    assert code == 6
    assert not out
    assert "underflows to 0 at chain depth 679, u = 0.333333" in err


def test_reduce_step_text(capsys):
    code, out, _ = run(capsys, "reduce-step", *EXAMPLE)
    assert code == 0
    assert "phi = ({x,T}, y)" in out
    assert "lambda  = 1.45109" in out
    assert "lambda1 = 1.64059" in out
    assert "S_o = {1}" in out and "S_t = {2}" in out
    assert "gens after: X, zYzt" in out


def test_reduce_step_json(capsys):
    code, out, _ = run(capsys, "reduce-step", *EXAMPLE, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["lambda"] == pytest.approx(1.45, abs=0.005)
    assert data["lambda_1"] == pytest.approx(1.64, abs=0.005)
    assert data["certificate"]["strict_rows"] == [1, 2, 3, 4, 11, 12]
    assert data["nse"][0] == "(2,x)"
    assert len(data["matrix"]) == 12 and len(data["matrix_1"]) == 10


def test_reduce_step_json_on_a_single_vertex_core(capsys):
    code, out, _ = run(capsys, "reduce-step", "--gens", "x,y,z", "--alphabet", "xyz",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == {"status": "single_vertex_core"}


def test_reduce_trace(capsys):
    code, out, _ = run(capsys, "reduce", *EXAMPLE, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "single_vertex_core"
    assert len(data["steps"]) == 4
    lams = [s["lambda"] for s in data["steps"]] + [data["steps"][-1]["lambda_1"]]
    assert all(b > a for a, b in zip(lams, lams[1:]))
    vertices = [s["core"]["vertices_before"] for s in data["steps"]]
    assert vertices == sorted(vertices, reverse=True)


def test_reduce_already_single_vertex(capsys):
    code, out, _ = run(capsys, "reduce", "--gens", "x,y", "--alphabet", "xy",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "single_vertex_core"
    assert data["steps"] == []


def test_reduce_no_cut_vertex_exit(capsys):
    code, out, _ = run(capsys, "reduce", "--gens", "xx,yy", "--alphabet", "xy")
    assert code == 4


def test_reduce_no_cut_vertex_after_steps_exit(capsys):
    # a Whitehead image of <x^2,y> in F3, not a free factor: one step,
    # then no cut vertex
    code, out, err = run(capsys, "reduce", "--gens", "xzxz,yzxz", "--alphabet", "xyz")
    assert code == 4
    assert not err
    assert out.startswith("step 1: ")
    assert "status: no_cut_vertex\n" in out


def test_census_table(capsys):
    code, out, _ = run(capsys, "census", *EXAMPLE, "--n-max", "8", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,a_n,a_n^(1/n)"
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    assert counts == [0, 2, 0, 2, 4, 2, 12, 2]


def test_census_empty_table(capsys):
    code, out, _ = run(capsys, "census", *EXAMPLE, "--n-max", "0", "--format", "csv")
    assert code == 0
    assert out.strip() == "n,a_n,a_n^(1/n)"


def test_census_csv_needs_no_eigenvalue(capsys):
    # the csv table prints no eigenvalue, so no tol can fail it
    code, out, err = run(capsys, "census", *EXAMPLE, "--format", "csv", "--tol", "0")
    assert (code, err) == (0, "")
    assert out == run(capsys, "census", *EXAMPLE, "--format", "csv")[1]


def test_census_counts_beyond_the_float_range(capsys):
    # F4 itself: a_n = 8 * 7^(n-1), past the float range from n = 365
    code, out, err = run(capsys, "census", "--gens", "x,y,z,t", "--alphabet", "xyzt",
                         "--n-max", "400", "--format", "csv")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == f"400,{8 * 7**399},7.00234"
    code, out, err = run(capsys, "census", *EXAMPLE, "--n-max", "2000")
    assert (code, err) == (0, "")
    n, count, root = out.splitlines()[-2].split()
    assert (n, root) == ("2000", "1.45052") and int(count) > 10**308


def test_census_rejects_a_negative_length(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census", *EXAMPLE, "--n-max", "-3"])
    assert exc.value.code == 2
    assert "must not be negative" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_tol_rejects_nan_and_negative_values(capsys, tol):
    # a usage error, not a numerical failure: --tol 0 keeps exit 6
    with pytest.raises(SystemExit) as exc:
        main(["eigen", *EXAMPLE, "--tol", tol])
    assert exc.value.code == 2
    assert "must be a nonnegative number" in capsys.readouterr().err


def test_eigen_reports_a_bracket_that_bounds_the_error(capsys):
    # [min Mv/v, max Mv/v] = [1, 2] after one iteration: it encloses the
    # Perron root 1.45109, so any tol above 1 returns its midpoint
    code, out, _ = run(capsys, "eigen", *EXAMPLE, "--tol", "1e9")
    assert code == 0
    assert out.startswith("eigenvalue = 1.5  (bracket 1, tol 1e+09, 1 iterations)\n")
    code, out, _ = run(capsys, "eigen", *EXAMPLE)
    assert code == 0
    assert out.startswith("eigenvalue = 1.45109  (bracket ")


def test_matrix_csv_header(capsys):
    code, out, _ = run(capsys, "matrix", *EXAMPLE, "--format", "csv")
    assert code == 0
    header = out.split("\n", 1)[0]
    assert '"(2,x)"' in header and '"(1,y^-1)"' in header


def test_matrix_ose_ordering(capsys):
    code, out, _ = run(capsys, "matrix", *EXAMPLE, "--format", "json",
                       "--ordering", "ose")
    data = json.loads(out)
    assert data["kind"] == "OSE"
    assert data["ordering"][0] == "(1,x^-1)"


def test_matrix_on_a_single_vertex_core_needs_the_ose(capsys):
    # the NSE needs a collapse step, which a single-vertex core has not
    rose = ["--gens", "x,y", "--alphabet", "xyz"]
    code, out, err = run(capsys, "matrix", *rose)
    assert (code, out) == (3, "")
    assert err == "precondition violation: core already has a single vertex\n"
    code, out, err = run(capsys, "matrix", *rose, "--ordering", "ose", "--format", "json")
    assert (code, err) == (0, "")
    assert len(json.loads(out)["matrix"]) == 4


def test_verify_battery(capsys):
    code, out, _ = run(capsys, "verify", *EXAMPLE)
    assert code == 0
    assert "FAIL" not in out
    assert out.count("ok ") >= 8


def test_verify_fails_on_a_rebuild_that_differs(capsys, monkeypatch):
    # the rebuild lines are checks: a fold of the images that differs
    # from the contracted core fails its line, and verify exits 1
    from cogrowth import core_graph, pipeline

    def rose(gens, alphabet):
        return core_graph.build_core([(g,) for g in range(1, alphabet.rank + 1)], alphabet)

    monkeypatch.setattr(pipeline, "build_core", rose)
    code, out, _ = run(capsys, "verify", *EXAMPLE)
    assert code == 1
    assert "ok   collapsed automaton isomorphic to rebuilt automaton\n" in out
    assert "FAIL collapsed core matches rebuilt core\n" in out


def free_factor_c(length):
    """C(L) = <x, y, z t^L> <= F4: a free factor whose first step has a
    spectral gap lambda1 - lambda of about 3^-L."""
    return ["--gens", f"x,y,z t^{length}", "--alphabet", "xyzt"]


@pytest.mark.parametrize(
    "argv",
    [
        ["core", "--tol", "1e-8"],
        ["whitehead", "--tol", "1e-8"],
        ["automaton", "--tol", "1e-8"],
        ["matrix", "--tol", "1e-8"],
        ["verify", "--u-choice", "1"],
        ["verify", "--format", "text"],
    ],
)
def test_a_subcommand_rejects_an_option_it_does_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], *EXAMPLE, *argv[1:]])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_and_reduce_step_agree_on_a_vanishing_gap(capsys):
    # C(20): verify runs the step as reduce-step does, with the default
    # certificate choice, so both end alike whether that step fails
    # (exit 6 today) or succeeds
    verify_code, _, verify_err = run(capsys, "verify", *free_factor_c(20))
    step_code, _, step_err = run(capsys, "reduce-step", *free_factor_c(20))
    assert (verify_code, verify_err) == (step_code, step_err)


def test_verify_accepts_a_proven_gap_below_1e_8(capsys):
    # C(19): lambda1 - lambda = 4.6e-9, each eigenvalue the midpoint of
    # a bracket at most tol = 1e-10 wide around the exact root
    code, out, _ = run(capsys, "verify", *free_factor_c(19))
    assert code == 0
    assert "ok   strict spectral gap\n" in out
    assert "FAIL" not in out


ROADMAP_ITEM_1 = "ROADMAP item 1: a float certificate cannot resolve a gap this small"


@pytest.mark.parametrize(
    "length",
    [
        10,
        19,
        # exits 6: "expected strict slack missing at NSE rows [7]"
        pytest.param(20, marks=pytest.mark.xfail(strict=True, reason=ROADMAP_ITEM_1)),
        # exits 6: "expected strict slack missing at NSE rows [7, 105]"
        pytest.param(50, marks=pytest.mark.xfail(strict=True, reason=ROADMAP_ITEM_1)),
    ],
)
def test_reduce_decides_a_free_factor_with_a_small_gap(capsys, length):
    code, out, err = run(capsys, "reduce", *free_factor_c(length))
    assert (code, err) == (0, "")
    assert "status: single_vertex_core\n" in out


def test_verify_on_a_rose_is_already_reduced(capsys):
    # <x,y> is a free factor of F3 whose core is a single vertex
    code, out, err = run(capsys, "verify", "--gens", "x,y", "--alphabet", "xyz")
    assert code == 0
    assert not err
    assert out == (
        "ok   core invariants\n"
        "ok   automaton deterministic/ergodic/I=F\n"
        "ok   homogeneous ambiguity on 50 sampled words\n"
        "note already reduced: the core has a single vertex\n"
    )


def test_verify_without_a_cut_vertex_writes_its_lines_then_the_error(capsys):
    code, out, err = run(capsys, "verify", "--gens", "xx,yy", "--alphabet", "xy")
    verdict = "no cut vertex in the Whitehead graph: the subgroup is not a free factor"
    assert code == 4
    assert out == (
        "ok   core invariants\n"
        "ok   automaton deterministic/ergodic/I=F\n"
        "ok   homogeneous ambiguity on 50 sampled words\n"
        f"note {verdict}\n"
    )
    assert err == f"no cut vertex: {verdict}\n"


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "core.json"
    code, out, _ = run(capsys, "core", *EXAMPLE, "--format", "json",
                       "--out", str(target))
    assert code == 0
    assert not out
    assert json.loads(target.read_text())["root"] == 1


def test_whitehead_text(capsys):
    code, out, _ = run(capsys, "whitehead", *EXAMPLE)
    assert code == 0
    assert "cut vertices:" in out
    assert "y (configuration" in out


def test_whitehead_calls_a_rose_a_free_factor(capsys):
    # <x,y> is a free factor of F3; its core has a single vertex
    code, out, _ = run(capsys, "whitehead", "--gens", "x,y", "--alphabet", "xyz")
    assert code == 0
    assert "not a free factor" not in out
    assert "cut vertices: none (the core is a rose: a free factor)" in out


@pytest.mark.parametrize("command", TEXT_GOLDEN)
def test_text_output_matches_golden_file(capsys, command):
    code, out, err = run(capsys, *CLI_GOLDEN[f"{command}.txt"])
    assert code == 0
    assert not err
    assert out.encode() == (GOLDEN / f"{command}.txt").read_bytes()


@pytest.mark.parametrize("name", sorted(set(CLI_GOLDEN) - {f"{c}.txt" for c in TEXT_GOLDEN}))
def test_output_matches_golden_file(capsys, name):
    code, out, _ = run(capsys, *CLI_GOLDEN[name])
    assert code == 0
    assert out.encode() == (GOLDEN / name).read_bytes()


def test_golden_table_covers_every_golden_file():
    # corpus-reduce.txt is checked below, and by the tests only
    names = {p.name for p in GOLDEN.iterdir()}
    assert names == set(GOLDEN_COMMANDS) | {"corpus-reduce.txt"}


def corpus_reduce_text(capsys):
    """`reduce` text output on every corpus instance, one block each."""
    blocks = []
    for inst in build_corpus():
        ab = inst.alphabet
        gens = ",".join(format_word(w, ab) for w in inst.gens)
        code, out, err = run(capsys, "reduce", "--gens", gens, "--alphabet", "".join(ab.names))
        blocks.append(f"== {inst.label}: --gens {gens} --alphabet {''.join(ab.names)}"
                      f" (exit {code})\n{err}{out}")
    return "".join(blocks)


def test_corpus_reduce_output_matches_golden_file(capsys):
    out = corpus_reduce_text(capsys)
    assert out.encode() == (GOLDEN / "corpus-reduce.txt").read_bytes()


# Runs in a fresh interpreter, since the test process has numpy loaded.
# With sys.modules["numpy"] = None any import of numpy raises
# ImportError.  Prints what it saw as JSON.
IMPORT_BOUNDARY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
import cogrowth
from cogrowth.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
seen = {"numpy": sys.modules["numpy"] is not None, "codes": codes}
seen["unresolved"] = [n for n in cogrowth.__all__ if not hasattr(cogrowth, n)]
try:
    getattr(cogrowth, "no_such_name")
    seen["no_such_name"] = "resolved"
except AttributeError:
    seen["no_such_name"] = "AttributeError"
print(json.dumps(seen))
"""


def test_no_subcommand_imports_numpy():
    commands = list(CLI_GOLDEN.values()) + [
        [command, *EXAMPLE, "--format", "json"] for command in ("reduce", "reduce-step")
    ]
    src = Path(__file__).parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", IMPORT_BOUNDARY, json.dumps(commands)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert json.loads(proc.stdout) == {
        "numpy": False,
        "codes": [0] * len(commands),
        "unresolved": [],
        "no_such_name": "AttributeError",
    }


def test_importing_the_library_loads_no_output_format():
    # every output format is the CLI's: json and csv come in with cogrowth.cli
    src = Path(__file__).parents[1] / "src"
    probe = "import sys, cogrowth; print(sorted({'json', 'csv'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert proc.stdout == "[]\n"


# the modules a light command does without: the output formats it was
# not asked for, and the dataclass machinery
WATCHED = {"csv", "dataclasses", "inspect", "json", "typing"}
CLI_MODULES = {"cogrowth", "cogrowth.cli", "cogrowth.errors", "cogrowth.words"}
STEP_MODULES = {"cogrowth.core_graph", "cogrowth.whitehead", "cogrowth.automaton",
                "cogrowth.spectral", "cogrowth.pipeline"}
# the library modules each subcommand loads beyond CLI_MODULES
COMMAND_MODULES = {
    "core": {"cogrowth.core_graph"},
    "whitehead": {"cogrowth.core_graph", "cogrowth.whitehead"},
    "automaton": {"cogrowth.core_graph", "cogrowth.automaton"},
    "matrix": {"cogrowth.core_graph", "cogrowth.whitehead", "cogrowth.automaton",
               "cogrowth.spectral"},
    "eigen": {"cogrowth.core_graph", "cogrowth.automaton", "cogrowth.spectral"},
    "census": {"cogrowth.core_graph", "cogrowth.automaton", "cogrowth.spectral"},
    "reduce-step": STEP_MODULES,
    "reduce": STEP_MODULES,
    "verify": STEP_MODULES,
}


def modules_loaded(tmp_path, module, *argv):
    """What a fresh interpreter without site (so without start-up hooks)
    has loaded after importing `module` and, given argv, running the
    command with its output sent to a file."""
    probe = (f"import sys, {module}\n"
             "if sys.argv[1:]:\n"
             "    assert cogrowth.cli.main(sys.argv[1:]) == 0\n"
             "print(*sys.modules)")
    if argv:
        argv = (*argv, "--out", str(tmp_path / "out"))
    src = Path(__file__).parents[1] / "src"
    proc = subprocess.run([sys.executable, "-S", "-c", probe, *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    return set(proc.stdout.split())


def package_modules(loaded):
    return {name for name in loaded if name.split(".")[0] == "cogrowth"}


def test_importing_the_package_loads_no_submodule(tmp_path):
    assert package_modules(modules_loaded(tmp_path, "cogrowth")) == {"cogrowth"}


def test_importing_the_cli_loads_only_errors_and_words(tmp_path):
    loaded = modules_loaded(tmp_path, "cogrowth.cli")
    assert package_modules(loaded) == CLI_MODULES
    assert loaded.isdisjoint(WATCHED)


@pytest.mark.parametrize("command", COMMAND_MODULES)
def test_a_subcommand_loads_only_the_modules_it_runs(tmp_path, command):
    loaded = modules_loaded(tmp_path, "cogrowth.cli", command, *EXAMPLE)
    assert package_modules(loaded) == CLI_MODULES | COMMAND_MODULES[command]
    if command in ("core", "whitehead", "automaton"):
        assert loaded.isdisjoint(WATCHED)


@pytest.mark.parametrize("argv, used, unused", [
    (["matrix", "--format", "csv"], "csv", "json"),
    (["eigen", "--format", "json"], "json", "csv"),
])
def test_an_output_format_loads_its_module(tmp_path, argv, used, unused):
    loaded = modules_loaded(tmp_path, "cogrowth.cli", *argv, *EXAMPLE)
    assert used in loaded and unused not in loaded
