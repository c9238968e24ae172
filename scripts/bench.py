#!/usr/bin/env python3
"""Run the benchmark and the scale ladder of one checkout and write
BENCH_<label>.json.

Usage: python scripts/bench.py [--seconds S] [--label L] [--out DIR]
                               [--checkout DIR] [N ...]

Runs `perfbench/run.py --workload all --seconds S` and
`scripts/scale_ladder.py N ...` (default 2000 6000 50000) of the
checkout (default: the one holding this script), each in a fresh
process, and writes `BENCH_<label>.json` in DIR (default: the current
directory).  The file holds the checkout's commit and whether its
tracked files differ from it, the Python version, the CPU count, each
workload's metrics (the last line `run.py` prints: `correct`,
`attempted`, `failed` and `metrics`) and, for each D(N), its size, its
terminal status, the wall time of `reduce_full` and the peak RSS.

Exits 1 when either run fails: `run.py` exits nonzero (a workload's
outputs fail the benchmark's checks) or `scale_ladder.py` does (a D(N)
does not reduce to a single vertex).  The file is written either way.
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

LADDER_LINE = re.compile(
    r"D\((?P<n>\d+)\): (?P<letters>\d+) letters, (?P<vertices>\d+) vertices, "
    r"(?P<steps>\d+) steps, largest order (?P<largest_order>\d+), (?P<status>\w+), "
    r"(?P<wall_s>[\d.]+) s, peak RSS (?P<peak_rss_mb>\d+) MB"
)


def git(checkout: Path, *args: str) -> str | None:
    proc = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run(argv: list[str], checkout: Path) -> tuple[int, list[str]]:
    """Exit code and stdout lines of a fresh Python process in `checkout`,
    its output passed through."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    proc = subprocess.run([sys.executable, *argv], cwd=checkout, env=env,
                          capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.splitlines()


def ladder_entry(line: str) -> dict:
    match = LADDER_LINE.match(line)
    if match is None:
        return {"line": line}
    entry = {k: int(v) for k, v in match.groupdict().items() if k not in ("status", "wall_s")}
    entry["status"] = match["status"]
    entry["wall_s"] = float(match["wall_s"])
    return entry


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sizes", nargs="*", type=int, default=[2000, 6000, 50000])
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--label", default=None, help="default: the checkout's short commit")
    parser.add_argument("--out", type=Path, default=Path("."))
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args()
    checkout = args.checkout.resolve()

    commit = git(checkout, "rev-parse", "HEAD")
    dirty = git(checkout, "status", "--porcelain", "--untracked-files=no")
    label = args.label or (commit[:12] if commit else "unknown")

    bench_code, bench_out = run(
        ["perfbench/run.py", "--workload", "all", "--seconds", str(args.seconds)], checkout
    )
    try:
        workloads = json.loads(bench_out[-1])
    except (IndexError, json.JSONDecodeError):
        workloads = None
    ladder_code, ladder_out = run(
        ["scripts/scale_ladder.py", *map(str, args.sizes)], checkout
    )

    record = {
        "label": label,
        "commit": commit,
        "dirty": bool(dirty),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "seconds": args.seconds,
        "perfbench": {"exit_code": bench_code, "workloads": workloads},
        "scale_ladder": {"exit_code": ladder_code,
                         "runs": [ladder_entry(line) for line in ladder_out]},
    }
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"BENCH_{label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")
    failed = [name for name, code in (("perfbench/run.py", bench_code),
                                      ("scripts/scale_ladder.py", ladder_code)) if code]
    if failed:
        print("failed: " + ", ".join(failed), file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
