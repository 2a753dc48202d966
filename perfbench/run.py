#!/usr/bin/env python3
"""Build and run the BBAL host-clock benchmark (perfbench).

Run from the root of a checkout:

    python3 perfbench/run.py --workload decode_long --seed 2024 --seconds 20 --trace 0

The first call configures and builds perfbench/ (the library sources from
src/ plus the benchmark program) into .bench_build/perfbench, or into
$CARGO_TARGET_DIR/perfbench when that is set; later calls rebuild only what
changed. The benchmark's human-readable report goes to stderr and the last
line of stdout is its JSON result. The exit code is non-zero, and no result
is printed, when the build or the run fails.

    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

runs every workload in turn and prints one JSON line per workload.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["decode_long", "prefill_shared", "table2_sweep"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure and build the benchmark binary; returns its path."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, *generator,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, "perfbench")


def run(binary, workload, seed, seconds, trace):
    """Run one workload; returns its JSON result line."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: perfbench exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: perfbench printed no result")
    json.loads(lines[-1])  # raises ValueError on a malformed result
    return lines[-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    try:
        binary = build()
        for workload in WORKLOADS if args.all else [args.workload]:
            print(run(binary, workload, args.seed, args.seconds, args.trace),
                  flush=True)
    except (subprocess.SubprocessError, RuntimeError, OSError,
            ValueError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
