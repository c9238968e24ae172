"""The scripts under scripts/, each run as a fresh process."""

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
