#!/usr/bin/env python3
"""Build and run the HARMONY benchmark.

    python3 perfbench/run.py [--workload eval_day|engine_10k|harmonyd|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Builds `harmonyd` from the repository workspace and the benchmark
package in this directory (both in release mode, into
$CARGO_TARGET_DIR, default `.bench_build`), then runs the benchmark
from the repository root with the given arguments. Build output goes to
stderr; the benchmark's report and its final JSON line go to stdout.
See perfbench/README.md for the workloads and metrics.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cargo_build(args, env):
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", *args],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    return done.returncode == 0


def main():
    if not (
        os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
        and os.path.isdir(os.path.join(ROOT, "crates"))
    ):
        print(f"perfbench: {ROOT} is not a HARMONY checkout", file=sys.stderr)
        return 1
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    builds = [
        ["--manifest-path", "Cargo.toml", "-p", "harmony-server", "--bin", "harmonyd"],
        ["--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for args in builds:
        if not cargo_build(args, env):
            print("perfbench: build failed", file=sys.stderr)
            return 1
    sys.stdout.flush()
    bench = os.path.join(target, "release", "harmony-perfbench")
    harmonyd = os.path.join(target, "release", "harmonyd")
    done = subprocess.run([bench, "--harmonyd", harmonyd, *sys.argv[1:]], cwd=ROOT, env=env)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
