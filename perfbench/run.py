#!/usr/bin/env python3
"""Build and run the two-clock benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench/` (its own Cargo workspace, depending on the
repository's crates by path) in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs one workload. The binary prints a
per-slice log and the metrics, and its last line is the result object.
Host spans of a traced run go to `<target dir>/perfbench/`.

Exits non-zero without a result line if the build fails or the run
overruns its time limit. A run that fails its correctness gate prints
`"correct": false` and exits 1.
"""

import os
import signal
import subprocess
import sys

# A run must end well inside the 180 s a benchmark run is allowed.
RUN_TIMEOUT_S = 170


def main() -> int:
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps the
    # child it is waiting on before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(here, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "qb-perfbench")
    cmd = [exe, *sys.argv[1:], "--out", os.path.join(target, "perfbench")]
    try:
        run = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
