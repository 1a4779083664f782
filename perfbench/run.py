#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`). The benchmark binary prints one JSON result line
last on standard output; this script checks that the line carries exactly
the metrics BENCHMARK.json declares for the chosen --trace mode, and exits
nonzero if the build, the run or that check fails.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The benchmark binary must end well within the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def main(argv):
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}")

    binary = os.path.join(target, "release", "sawl-perfbench")
    try:
        run = subprocess.run([binary, *argv], cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines:
        fail(f"no result line (exit code {run.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        fail(f"last line is not a JSON result (exit code {run.returncode})")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    traced = "--trace" in argv and argv[argv.index("--trace") + 1] == "1"
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    print(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        units = sorted(k for k in set(got) & set(declared) if got[k] != declared[k])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, unit {units}")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main(sys.argv[1:])
