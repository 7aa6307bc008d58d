#!/usr/bin/env python3
"""Builds the partita benchmark and the `serviced` daemon from source, then
runs one workload.

    python3 perfbench/run.py --workload explore|scale|daemon --seed N \\
        --seconds S --trace 0|1

Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
(default `.bench_build` under the repository root); traced runs write their
spans to `<target>/perfbench/`. The last line on stdout is the result
object; the readable report goes to stderr. Exits non-zero, printing no
result, when the build or the run fails.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # glibc raises its mmap threshold after freeing a large block and then
    # keeps freed heap resident, so peak RSS would depend on the allocation
    # history (83 or 114 MB on the same `scale` input). Pinning the
    # threshold at its 128 KiB default makes peak_rss_mb follow the live
    # memory; the measured latencies did not move.
    bench_env = dict(env, MALLOC_MMAP_THRESHOLD_="131072")
    cargo = ["cargo", "build", "--release", "--offline", "-q", "--manifest-path"]
    builds = [
        cargo + [os.path.join(root, "Cargo.toml"), "-p", "partita-service", "--bin", "serviced"],
        cargo + [os.path.join(here, "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, cwd=root, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    bench = [
        os.path.join(release, "perfbench"),
        "--serviced", os.path.join(release, "serviced"),
        "--out", os.path.join(target, "perfbench"),
        *sys.argv[1:],
    ]
    return subprocess.run(bench, cwd=root, env=bench_env).returncode


if __name__ == "__main__":
    sys.exit(main())
