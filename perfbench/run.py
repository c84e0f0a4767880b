#!/usr/bin/env python3
"""Build and run one workload of the benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload serve-decode --seed 1 --seconds 30 --trace 0

It builds the `perfbench` package (release, offline) into
`$CARGO_TARGET_DIR`, or `.bench_build` when that is unset, runs the
binary once with the same arguments and passes its output through. The
last line of standard output is the result object
`{"correct", "attempted", "failed", "metrics"}`; the exit code is the
binary's. If the build fails, nothing is printed on standard output and
the exit code is not 0.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("serve-decode", "serve-prefill", "collectives")
# The longest --seconds accepted: the binary starts no repetition after
# that, and RUN_TIMEOUT_S is the backstop.
MAX_SECONDS = 120
RUN_TIMEOUT_S = 175


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if not 1 <= args.seconds <= MAX_SECONDS:
        ap.error(f"--seconds must be within 1..{MAX_SECONDS}")

    package = Path(__file__).resolve().parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(package / "Cargo.toml")],
        env=env, stdout=sys.stderr, stderr=sys.stderr, check=False,
    )
    if build.returncode != 0:
        print(f"perfbench: build failed ({build.returncode})", file=sys.stderr)
        return 1

    # On collectives, buffers of 1 MB and more are mapped directly, so the
    # zeroed staging FIFOs that a 64-rank MSCCL communicator allocates
    # stay untouched until used, whatever state the heap is in. The
    # serving workloads run under the default allocator.
    if args.workload == "collectives":
        env["MALLOC_MMAP_THRESHOLD_"] = str(1 << 20)
    cmd = [str(target / "release" / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
