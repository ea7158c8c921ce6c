#!/usr/bin/env python3
"""Build and run the CLARE benchmark.

Usage, from the root of a checkout:

    python3 clarebench/run.py --workload {batch_cold|wire_hot} \
        --seed N [--seconds 1..60] [--trace 0|1]

The first run configures and builds clarebench/ (the repository's src/
libraries plus the benchmark program) under .bench_build/clarebench;
later runs only re-check the build.  Build output goes to stderr, so
the last line of stdout is the program's JSON result.  The arguments
are passed to the program unchanged, which rejects anything it does not
know with its usage text.  Exits non-zero when the build or the run
fails.
"""

import fcntl
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "clarebench"
BINARY = BUILD / "clarebench"
RUN_TIMEOUT_S = 175


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD.parent / "clarebench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "Makefile").exists():
            subprocess.run(
                ["cmake", "-S", str(ROOT / "clarebench"), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                stdout=sys.stderr, check=True)
        subprocess.run(
            ["cmake", "--build", str(BUILD), "--target", "clarebench",
             "-j", "4"],
            stdout=sys.stderr, check=True)


def remove_scratch(pid):
    """Remove what a crashed run left in .bench_scratch/<pid>-*."""
    scratch = ROOT / ".bench_scratch"
    if scratch.is_dir():
        for entry in scratch.glob(f"{pid}-*"):
            shutil.rmtree(entry, ignore_errors=True)


def main():
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as exc:
        print(f"clarebench: build failed: {exc}", file=sys.stderr)
        return 1

    child = subprocess.Popen([str(BINARY)] + sys.argv[1:], cwd=ROOT)

    def stop(signum, _frame):
        child.terminate()
        child.wait()
        remove_scratch(child.pid)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print("clarebench: run exceeded its time limit", file=sys.stderr)
        code = 1
    remove_scratch(child.pid)
    return code


if __name__ == "__main__":
    sys.exit(main())
