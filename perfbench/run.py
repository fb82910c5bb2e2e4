#!/usr/bin/env python3
"""Build the benchmark and the qpdo_serve daemon from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Both builds go to $CARGO_TARGET_DIR
(default: .bench_build), scratch files to .bench_work. The last line of
standard output is the result as one JSON object; the exit code is 0 only
when every op was correct. See perfbench/README.md for the metrics.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("sc17_stack", "surface_d13", "surface_d5", "serve_small")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 unsigned bits")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path"]
    builds = [
        cargo + [os.path.join(root, "perfbench", "Cargo.toml")],
        cargo + [os.path.join(root, "Cargo.toml"), "-p", "qpdo-serve", "--bin", "qpdo_serve"],
    ]
    for build in builds:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(build, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print("error: build failed", file=sys.stderr)
            return 2

    release = os.path.join(target, "release")
    bench = [
        os.path.join(release, "qpdo-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--serve-bin", os.path.join(release, "qpdo_serve"),
        "--work-dir", os.path.join(root, ".bench_work"),
    ]
    return subprocess.run(bench, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
