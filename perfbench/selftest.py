#!/usr/bin/env python3
"""Self-test of the host-clock benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

For each workload it runs the benchmark untraced and traced at the default
seed, and untraced at a second seed, and asserts that

  * every metric BENCHMARK.json names (end_to_end untraced, per_layer
    traced) is printed, with its unit, and nothing else;
  * the run is correct: no failed operation, outputs match the reference;
  * the traced run reproduces the untraced outputs (same output digest);
  * a different seed changes the serve workloads' outputs but not the
    metric set (the sweep's rows are pinned, so its digest must not move).

Exits non-zero on the first failed assertion.
"""
import json
import math
import os
import re
import subprocess
import sys

sys.dont_write_bytecode = True
import run as bench  # noqa: E402  (the sibling perfbench/run.py)

SEEDS = (2024, 7)


def tiny_run(binary, workload, seed, trace):
    """Run one tiny workload; returns (result JSON, output digest)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", "0.1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=bench.ROOT, capture_output=True, text=True,
                          timeout=bench.RUN_TIMEOUT_S)
    assert proc.returncode == 0, f"{cmd} exited {proc.returncode}:\n{proc.stderr}"
    found = re.search(r"output digest ([0-9a-f]+)", proc.stderr)
    assert found, f"{workload}: no output digest in\n{proc.stderr}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), found.group(1)


def check_result(result, expected, label):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, f"{label}: not correct"
    assert result["failed"] == 0, f"{label}: {result['failed']} failed"
    assert result["attempted"] >= 1, f"{label}: nothing attempted"
    metrics = result["metrics"]
    assert set(metrics) == set(expected), (
        f"{label}: metric set differs: missing {set(expected) - set(metrics)}, "
        f"extra {set(metrics) - set(expected)}")
    for name, unit in expected.items():
        assert metrics[name]["unit"] == unit, f"{label}: {name} unit"
        assert math.isfinite(metrics[name]["value"]), f"{label}: {name} value"


def main():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    binary = bench.build()
    for workload in bench.WORKLOADS:
        plain, digest = tiny_run(binary, workload, SEEDS[0], trace=0)
        check_result(plain, end_to_end, f"{workload} trace 0")
        traced, traced_digest = tiny_run(binary, workload, SEEDS[0], trace=1)
        check_result(traced, per_layer, f"{workload} trace 1")
        assert traced_digest == digest, f"{workload}: traced outputs differ"
        other, other_digest = tiny_run(binary, workload, SEEDS[1], trace=0)
        check_result(other, end_to_end, f"{workload} seed {SEEDS[1]}")
        if workload == "table2_sweep":
            assert other_digest == digest, f"{workload}: rows moved with seed"
        else:
            assert other_digest != digest, f"{workload}: seed changed nothing"
        print(f"selftest: {workload} ok", file=sys.stderr)
    print("selftest: all workloads ok", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
