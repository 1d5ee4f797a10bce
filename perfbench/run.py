"""pearceygap benchmark: one workload per run, closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the library is imported from ``src/`` next to this
directory.  The loop runs whole cycles of the workload's ops until another
cycle would pass ``--seconds``; every op's output is checked untimed.  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: end-to-end metrics with ``--trace 0``, per-layer
metrics from an outside-in traced loop with ``--trace 1``.  The line before
it holds the run's details (failures, tail latency, machine facts).  See
README.md in this directory.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from collections import namedtuple  # noqa: E402

import mpmath  # noqa: E402
import numpy  # noqa: E402
import scipy  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYERS = ("specfun", "airy_process", "pearcey_process", "fredholm", "cache",
          "analysis", "cli", "painleve", "exceptions")
# tail percentiles tried from the top; the first with >= 10 ops beyond it wins
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10

Result = namedtuple("Result", "label latency failure")


def load_library(root: str):
    """Import pearceygap from ``root/src`` and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "pearceygap", "__init__.py")):
        raise SystemExit(f"perfbench: no pearceygap package under {src}")
    sys.path.insert(0, src)
    lib = types.SimpleNamespace(
        **{name: importlib.import_module(f"pearceygap.{name}") for name in LAYERS})
    here = os.path.realpath(lib.cli.__file__)
    if not here.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"perfbench: imported pearceygap from {here}, not {src}")
    return lib


def dir_bytes(path: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def run_op(op, tracer) -> Result:
    if op.prepare:
        op.prepare()
    bench = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    before = dir_bytes(op.cache_root) if tracer and op.cache_root else 0
    failure = None
    with bench("bench.op") as rec:
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a raising op is a counted failure
            failure = f"{op.label}: raised {type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
    if tracer and op.cache_root:
        rec[4]["bytes_written"] = dir_bytes(op.cache_root) - before
    if failure is None:
        with bench("bench.check"):
            try:
                failure = op.check(out)
            except Exception as exc:  # a check that cannot run is a failure too
                failure = f"{op.label}: check raised {type(exc).__name__}: {exc}"
    if op.cleanup:
        op.cleanup()
    return Result(op.label, latency, failure)


def run_loop(workload, seconds: float, tracer=None):
    """Whole cycles until the next one would end past ``seconds``."""
    results, cycles = [], 0
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        results += [run_op(op, tracer) for op in workload.cycle(cycles)]
        cycles += 1
        now = time.perf_counter()
        if (now - start) + (now - began) > seconds:
            return results, cycles


def tail_latency(latencies):
    """Nearest-rank latency at the highest ladder percentile that leaves at
    least TAIL_BEYOND ops above it, or None when the run is too short."""
    n = len(latencies)
    ordered = sorted(latencies)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100.0 * n - 1e-9)
        if rank >= 1 and n - rank >= TAIL_BEYOND:
            return {"value": ordered[rank - 1] * 1e3, "unit": "ms",
                    "percentile": p, "samples": n}
    return None


def fail_frac(results) -> dict:
    failed = sum(r.failure is not None for r in results)
    return {"value": failed / len(results), "unit": "ratio"}


def end_to_end(results, setup_s: float) -> dict:
    latencies = [r.latency for r in results]
    done = sum(r.failure is None for r in results)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": done / sum(latencies), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


# ---------------------------------------------------------------------------
# machine facts


def git_commit(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def tree_digest(path: str) -> str:
    """SHA-256 over the relative names and bytes of the .py files under path."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(path)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                full = os.path.join(dirpath, name)
                h.update(os.path.relpath(full, path).encode())
                with open(full, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_runtime():
    """Loaded OpenBLAS builds and their thread counts, read through ctypes."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                found.append({"library": os.path.basename(path), "threads": fn()})
                break
    return found


def machine_facts(root: str) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    runtime = blas_runtime()
    nproc = len(os.sched_getaffinity(0))
    threads_ok = all(lib["threads"] <= nproc for lib in runtime)
    if not threads_ok:
        print(f"perfbench: BLAS thread count exceeds nproc={nproc}: {runtime}",
              file=sys.stderr)
    return {
        "commit": git_commit(root),
        "src_sha256": tree_digest(os.path.join(root, "src")),
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "runtime": runtime, "threads_within_nproc": threads_ok},
    }


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("PEARCEYGAP_CACHE", None)
    lib = load_library(ROOT)
    tmp = workloads.make_tmp(ROOT)
    tracer = tracing.Tracer() if args.trace else None
    try:
        workload = workloads.WORKLOADS[args.workload](lib, args.seed, tmp)
        workload.setup()
        setup_s = time.perf_counter() - _STARTED
        if tracer:
            cost = tracing.wrapper_cost()
            tracer.install(lib)
        try:
            results, cycles = run_loop(workload, args.seconds, tracer)
        finally:
            if tracer:
                tracer.uninstall()
    finally:
        shutil.rmtree(tmp)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(tmp))

    failed = sum(r.failure is not None for r in results)
    by_label = {}
    for r in results:
        by_label.setdefault(r.label, []).append(r.latency * 1e3)
    metrics = end_to_end(results, setup_s)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cycles": cycles,
        "end_to_end": metrics,
        "fail_frac": fail_frac(results),
        "op_tail_ms": tail_latency([r.latency for r in results]),
        "op_p50_ms_by_label": {k: statistics.median(v) for k, v in sorted(by_label.items())},
        "failures": [r.failure for r in results if r.failure is not None][:20],
        "machine": machine_facts(ROOT),
    }
    if tracer:
        metrics = tracing.layer_metrics(tracer.spans, cycles, cost)
        out_dir = os.path.join(ROOT, ".perfbench-runs")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json")
        tracer.write(spans_path)
        detail["per_layer"] = metrics
        detail["spans_file"] = os.path.relpath(spans_path, ROOT)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
