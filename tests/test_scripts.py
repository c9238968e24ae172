"""The scripts under scripts/, each run as a fresh process."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def run_script(name, *argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *argv],
                          capture_output=True, env=env, cwd=ROOT)


def test_worked_example_matches_golden_file():
    proc = run_script("worked_example.py")
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (ROOT / "tests" / "golden" / "worked-example.txt").read_bytes()


def test_worked_example_writes_dot_files(tmp_path):
    proc = run_script("worked_example.py", "--dot-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr.decode()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "automaton.dot", "core.dot", "whitehead.dot"
    ]
    # the collapse states of step 1 have their incoming edges dashed
    assert "dashed" in (tmp_path / "automaton.dot").read_text()


def test_corpus_sweep_runs():
    proc = run_script("corpus_sweep.py", "--count", "5", "--seed", "0")
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout


def test_scale_ladder_reduces_a_small_rung():
    proc = run_script("scale_ladder.py", "300")
    assert proc.returncode == 0, proc.stderr.decode()
    (line,) = proc.stdout.decode().splitlines()
    assert line.startswith("D(300): ") and "single_vertex_core" in line


def fake_checkout(root, bench_exit, ladder_exit):
    """A checkout whose run.py and scale_ladder.py print as the real ones
    do and exit with the given codes."""
    (root / "perfbench").mkdir(parents=True)
    (root / "scripts").mkdir()
    (root / "perfbench" / "run.py").write_text(
        "import json, sys\n"
        "print('corpus: correct True')\n"
        "print(json.dumps({'corpus': {'correct': True, 'metrics': {}}}))\n"
        f"sys.exit({bench_exit})\n"
    )
    (root / "scripts" / "scale_ladder.py").write_text(
        "import sys\n"
        "print('D(300): 354 letters, 141 vertices, 14 steps, largest order 286, "
        "single_vertex_core, 0.024 s, peak RSS 19 MB, first lambda 1.04')\n"
        f"sys.exit({ladder_exit})\n"
    )
    return root


def test_bench_records_both_runs_and_fails_when_either_fails(tmp_path):
    for bench_exit, ladder_exit in ((0, 0), (1, 0), (0, 1)):
        checkout = fake_checkout(tmp_path / f"c{bench_exit}{ladder_exit}", bench_exit, ladder_exit)
        proc = run_script("bench.py", "--checkout", str(checkout), "--label", "t",
                          "--out", str(checkout / "out"), "300")
        assert proc.returncode == (1 if bench_exit or ladder_exit else 0), proc.stderr.decode()
        record = json.loads((checkout / "out" / "BENCH_t.json").read_text())
        assert record["perfbench"] == {
            "exit_code": bench_exit,
            "workloads": {"corpus": {"correct": True, "metrics": {}}},
        }
        assert record["scale_ladder"] == {"exit_code": ladder_exit, "runs": [{
            "n": 300, "letters": 354, "vertices": 141, "steps": 14, "largest_order": 286,
            "peak_rss_mb": 19, "status": "single_vertex_core", "wall_s": 0.024,
        }]}
        assert record["cpu_count"] == os.cpu_count() and record["python"]
