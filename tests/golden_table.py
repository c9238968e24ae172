"""Every golden file of tests/golden/ but corpus-reduce.txt, and the
command line that prints it; each exits 0.

`tests/test_cli.py` runs the `cogrowth` lines in process and checks that
the table covers tests/golden/.  Run as a script, this module runs every
line in a fresh process, the `cogrowth` ones with the executable it is
given and the `python` ones with the interpreter that runs it, and
compares each output with its golden file byte for byte:

    python tests/golden_table.py path/to/bin/cogrowth

It imports neither pytest nor numpy, so it runs against an install
without the test extras.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]
GOLDEN = ROOT / "tests" / "golden"
EXAMPLE = ["--gens", "yX,yzYzt", "--alphabet", "xyzt"]

GOLDEN_COMMANDS = {
    "core.txt": ["cogrowth", "core", *EXAMPLE],
    "core.json": ["cogrowth", "core", *EXAMPLE, "--format", "json"],
    "core.dot": ["cogrowth", "core", *EXAMPLE, "--format", "dot"],
    "whitehead.txt": ["cogrowth", "whitehead", *EXAMPLE],
    "whitehead.json": ["cogrowth", "whitehead", *EXAMPLE, "--format", "json"],
    "whitehead.dot": ["cogrowth", "whitehead", *EXAMPLE, "--format", "dot"],
    "whitehead-rose.txt": ["cogrowth", "whitehead", "--gens", "x,y", "--alphabet", "xyz"],
    "automaton.txt": ["cogrowth", "automaton", *EXAMPLE],
    "automaton.json": ["cogrowth", "automaton", *EXAMPLE, "--format", "json"],
    "automaton.dot": ["cogrowth", "automaton", *EXAMPLE, "--format", "dot"],
    "matrix-nse.txt": ["cogrowth", "matrix", *EXAMPLE],
    "matrix-nse.csv": ["cogrowth", "matrix", *EXAMPLE, "--format", "csv"],
    "matrix-nse.json": ["cogrowth", "matrix", *EXAMPLE, "--format", "json"],
    "matrix-ose.txt": ["cogrowth", "matrix", *EXAMPLE, "--ordering", "ose"],
    "matrix-ose.csv": ["cogrowth", "matrix", *EXAMPLE, "--ordering", "ose", "--format", "csv"],
    "matrix-ose.json": ["cogrowth", "matrix", *EXAMPLE, "--ordering", "ose", "--format", "json"],
    "eigen.txt": ["cogrowth", "eigen", *EXAMPLE],
    "eigen.json": ["cogrowth", "eigen", *EXAMPLE, "--format", "json"],
    "reduce-step.txt": ["cogrowth", "reduce-step", *EXAMPLE],
    "reduce-step.json": ["cogrowth", "reduce-step", *EXAMPLE, "--format", "json"],
    "reduce.txt": ["cogrowth", "reduce", *EXAMPLE],
    "reduce.json": ["cogrowth", "reduce", *EXAMPLE, "--format", "json"],
    "census.txt": ["cogrowth", "census", *EXAMPLE],
    "census.csv": ["cogrowth", "census", *EXAMPLE, "--format", "csv"],
    "verify.txt": ["cogrowth", "verify", *EXAMPLE],
    # reduce_full as a script runs it, every step's checks included
    "worked-example.txt": ["python", "scripts/worked_example.py"],
}


def main(cogrowth: str) -> int:
    programs = {"cogrowth": cogrowth, "python": sys.executable}
    failed = 0
    for name, (program, *argv) in GOLDEN_COMMANDS.items():
        proc = subprocess.run([programs[program], *argv], capture_output=True, cwd=ROOT)
        same = proc.stdout == (GOLDEN / name).read_bytes()
        if proc.returncode or not same:
            failed += 1
            print(f"FAIL {name}: exit {proc.returncode}" + ("" if same else ", output differs"))
            sys.stdout.write(proc.stderr.decode())
    print(f"{len(GOLDEN_COMMANDS) - failed} of {len(GOLDEN_COMMANDS)} golden files reproduced")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
