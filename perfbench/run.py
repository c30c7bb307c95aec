#!/usr/bin/env python3
"""Build and run the Loki campaign benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload ring-events --seed 1 --seconds 10 --trace 0

Builds the `loki-perfbench` package next to this file (release profile,
offline) into `$CARGO_TARGET_DIR`, or `.bench_build` when it is unset, then
runs it with the given arguments. The benchmark prints human-readable lines
and, as its last line, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Exits non-zero, printing no result,
when the build or the run fails.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run measures for --seconds plus a few seconds of set-up and checks; this
# caps a wedged run well inside the three minutes a run may take.
RUN_TIMEOUT_S = 170


def main() -> int:
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            str(HERE / "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = target / "release" / "loki-perfbench"
    work_dir = target / "perfbench-work"
    try:
        run = subprocess.run(
            [str(exe), *sys.argv[1:], "--work-dir", str(work_dir)],
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
