#!/usr/bin/env python3
"""Build the CB-GMRES benchmark from source and run one workload.

Usage (from the repository root):

    python3 cbgmres_bench/run.py --workload solve_cached --seed 1 --seconds 20 --trace 0

The harness is a Cargo package of its own (``cbgmres_bench/Cargo.toml``)
with path dependencies on the repository crates; it is built offline in
release mode into ``$CARGO_TARGET_DIR`` (default ``.bench_build``), then
run with the arguments given here. Build output goes to standard error,
so the last line of standard output is the harness's JSON result. The
exit code is the harness's, or 1 when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end well inside three minutes; the build has its own budget.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"error: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("error: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "cbgmres_bench")
    try:
        return subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
