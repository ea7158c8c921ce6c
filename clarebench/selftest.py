#!/usr/bin/env python3
"""Schema self-test of the CLARE benchmark.

Usage, from the root of a checkout:

    python3 clarebench/selftest.py [--seconds N]

Runs every workload that BENCHMARK.json declares, once untraced and
once traced, for a few seconds each, and checks the result line: its
keys, `correct`, `attempted`, and that every declared end-to-end
(untraced) or per-layer (traced) metric is printed with its declared
unit.  It also checks that the two runs of one seed print the same
answer digest, and that malformed arguments exit with code 2 and the
usage text.  Timing is never checked.  Exits non-zero on the first
failure.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "clarebench" / "run.py")]


def fail(message):
    print(f"selftest: FAIL {message}")
    sys.exit(1)


def run(args):
    return subprocess.run(RUN + args, cwd=ROOT, capture_output=True,
                          text=True, timeout=400)


def check_result(proc, declared, label):
    if proc.returncode != 0:
        fail(f"{label}: exit code {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True:
        fail(f"{label}: correct is {result['correct']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(f"{label}: attempted {result['attempted']}")
    if not isinstance(result["failed"], int):
        fail(f"{label}: failed {result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        fail(f"{label}: printed {sorted(set(metrics) ^ set(declared))} "
             "differently from BENCHMARK.json")
    for name, unit in declared.items():
        value = metrics[name]
        if value.get("unit") != unit or not isinstance(
                value.get("value"), (int, float)):
            fail(f"{label}: metric {name} printed as {value}, "
                 f"declared unit {unit}")
    digest = [l for l in lines if l.startswith("digest ")]
    if len(digest) != 1:
        fail(f"{label}: expected one digest line, got {digest}")
    return digest[0]


def main():
    parser = argparse.ArgumentParser(allow_abbrev=False)
    parser.add_argument("--seconds", type=int, default=2)
    opts = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for bad in (["--workload", "batch_cold", "--seed", "1", "--bogus", "1"],
                ["--workload", "batch_cold", "--seed", "1",
                 "--seconds", "0"],
                ["--workload", "batch_cold", "--seed", "1",
                 "--seconds", "61"],
                ["--workload", "batch_cold", "--seed", "-1"],
                ["--workload", "nope", "--seed", "1"],
                ["--workload", "batch_cold", "--seed", "1", "--trace", "2"],
                ["--seed", "1"]):
        proc = run(bad)
        if proc.returncode != 2 or "usage:" not in proc.stderr:
            fail(f"arguments {bad} gave exit {proc.returncode}, "
                 f"stderr {proc.stderr!r}")
    print("selftest: argument errors rejected with usage text")

    for workload in (w["name"] for w in spec["workloads"]):
        common = ["--workload", workload, "--seed", "7",
                  "--seconds", str(opts.seconds)]
        plain = check_result(run(common + ["--trace", "0"]), end_to_end,
                             f"{workload} untraced")
        traced = check_result(run(common + ["--trace", "1"]), per_layer,
                              f"{workload} traced")
        if plain != traced:
            fail(f"{workload}: digest differs between runs of one seed: "
                 f"{plain!r} vs {traced!r}")
        print(f"selftest: {workload} ok ({plain})")
    print("selftest: PASS")


if __name__ == "__main__":
    main()
