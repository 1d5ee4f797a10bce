"""Smoke test of the benchmark itself (about three minutes on two cores).

    python3 perfbench/smoke.py

Runs every workload at minimal length, untraced and traced, and asserts that
each prints every metric named in BENCHMARK.json with its unit, plus
``fail_frac`` and ``op_tail_ms`` in its details.  It then feeds perturbed
results through the op loop and checks that the checker counts them as
failures, and checks that the benchmark refuses to run without the library.
Exits non-zero on the first failed assertion.
"""

import json
import math
import os
import random
import shutil
import subprocess
import sys

import run
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def bench(*args, cwd=run.ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def check_metrics(got: dict, declared: list, where: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    assert set(got) == set(want), f"{where}: metrics {sorted(got)} != {sorted(want)}"
    for name, unit in want.items():
        assert got[name]["unit"] == unit, f"{where}: {name} unit {got[name]['unit']}"
        assert math.isfinite(got[name]["value"]), f"{where}: {name} not finite"


def check_workload(name: str, spec: dict) -> None:
    for trace in (0, 1):
        proc = bench("--workload", name, "--seed", "1", "--seconds", "1",
                     "--trace", str(trace))
        where = f"{name} --trace {trace}"
        assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
        lines = proc.stdout.strip().splitlines()
        result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
        assert result["correct"] and result["failed"] == 0, f"{where}: {detail['failures']}"
        assert result["attempted"] >= 1, where
        check_metrics(result["metrics"], spec["per_layer" if trace else "end_to_end"], where)
        assert detail["fail_frac"] == {"value": 0.0, "unit": "ratio"}, where
        assert "op_tail_ms" in detail, where
        print(f"ok  {where}: {result['attempted']} ops")


def check_perturbed_results_fail() -> None:
    """Wrong log P values pass through run_op and the airy-gap checker."""
    lib = run.load_library(run.ROOT)
    workload = workloads.AiryGap(lib, seed=7, tmp="")
    rng = random.Random(7)
    exact, perturbed = [], []
    for m in workloads.NODES:
        one = workloads.draw_one_time(rng, m)
        truth = math.log(lib.painleve.tracy_widom_f2(one["windows"][0][0]))
        exact.append(run.run_op(workload.query_op("exact", one, lambda: truth), None))
        perturbed.append(run.run_op(
            workload.query_op("shifted", one, lambda: truth + 1e-3), None))
        two = workloads.draw_two_time(rng, m)
        perturbed.append(run.run_op(workload.query_op("above-1", two, lambda: 0.1), None))
    assert all(r.failure is None for r in exact), [r.failure for r in exact]
    frac = run.fail_frac(perturbed)
    assert frac["value"] == 1.0, [r.failure for r in perturbed]
    print(f"ok  perturbed results: fail_frac {frac['value']} over {len(perturbed)} ops")


def check_refuses_without_library() -> None:
    tmp = workloads.make_tmp(run.ROOT)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "airy-gap", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp)
    finally:
        shutil.rmtree(tmp)
    assert proc.returncode != 0, "ran without the library"
    assert "metrics" not in proc.stdout, "printed a result without the library"
    print(f"ok  refuses to run without src/: exit {proc.returncode}")


def check_tail_latency() -> None:
    assert run.tail_latency([0.001] * 9) is None
    tail = run.tail_latency([i / 1000.0 for i in range(1, 101)])
    assert tail["percentile"] == 90.0 and tail["samples"] == 100, tail
    assert abs(tail["value"] - 90.0) < 1e-9, tail
    print("ok  tail latency percentile choice")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_tail_latency()
    check_perturbed_results_fail()
    check_refuses_without_library()
    for workload in spec["workloads"]:
        check_workload(workload["name"], spec)
    leftovers = os.listdir(os.path.join(run.ROOT, ".perfbench-tmp")) \
        if os.path.isdir(os.path.join(run.ROOT, ".perfbench-tmp")) else []
    assert not leftovers, f"temporary directories left behind: {leftovers}"
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
