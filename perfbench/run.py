#!/usr/bin/env python3
"""Builds and runs the SummaGen wall-clock benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --list

Run from the repository root. The benchmark is built from source with
cargo (into $CARGO_TARGET_DIR, default `.bench_build`), then its workload
and metric names are checked against BENCHMARK.json before any run: a
mismatch is an error. The last line of standard output is the result as
one JSON object; build output goes to standard error.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.exit(f"run.py: build failed with exit code {done.returncode}")
    return os.path.join(target, "release", "summagen-perfbench")


def manifest_listing():
    """The `--list` lines BENCHMARK.json implies."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    lines = [f"workload {w['name']} {w['why']}" for w in manifest["workloads"]]
    for kind in ("end_to_end", "per_layer"):
        lines += [f"{kind} {m['name']} {m['unit']} {m['better']}" for m in manifest[kind]]
    return lines


def main():
    args = sys.argv[1:]
    binary = build()
    listing = subprocess.run([binary, "--list"], capture_output=True, text=True,
                             check=True, timeout=RUN_TIMEOUT_S).stdout.splitlines()
    expected = manifest_listing()
    if listing != expected:
        missing = [l for l in expected if l not in listing]
        extra = [l for l in listing if l not in expected]
        sys.exit("run.py: benchmark names differ from BENCHMARK.json\n"
                 f"  only in BENCHMARK.json: {missing}\n  only in the benchmark: {extra}")
    if "--list" in args:
        print("\n".join(listing))
        return 0
    return subprocess.run([binary] + args, timeout=RUN_TIMEOUT_S).returncode


if __name__ == "__main__":
    sys.exit(main())
