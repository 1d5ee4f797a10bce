"""The benchmark's four workloads.

Each workload is built from a seed and exposes ``setup()`` (untimed work
before the loop: input generation, warm-up, cache pre-population) and
``cycle(k)``, the fixed list of ops the closed loop runs as one unit.  Whole
cycles keep the op mix identical from run to run, so medians compare.

An op is one gap query or one study run.  ``run`` is the timed part;
``check`` runs untimed afterwards and returns a failure reason or None;
``prepare``/``cleanup`` run untimed around it.  Every op's output is checked.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import tempfile
from dataclasses import dataclass
from typing import Callable

# A drawn one-time query must match the Painleve II oracle to this in P.
ORACLE_TOL = 1e-6
# Two-time draws keep the time gap at least this wide: below it the heat-kernel
# term is too sharp for m = 20 nodes and the m -> 2m certificate refuses.
MIN_TIME_GAP = 0.5
NODES = (20, 30, 40)


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    prepare: Callable[[], None] | None = None
    cleanup: Callable[[], None] | None = None
    cache_root: str | None = None


def draw_one_time(rng: random.Random, m: int) -> dict:
    s = rng.uniform(-4.0, 2.0)
    return {"times": (0.0,), "windows": ((s, s + 14.0),), "m": m}


def draw_two_time(rng: random.Random, m: int) -> dict:
    t1 = rng.uniform(-1.0, 1.0 - MIN_TIME_GAP)
    t2 = rng.uniform(t1 + MIN_TIME_GAP, 1.0)
    windows = tuple((rng.uniform(-3.0, 0.0), rng.uniform(2.0, 8.0)) for _ in range(2))
    return {"times": (t1, t2), "windows": windows, "m": m}


def check_probability(lib, spec: dict, log_p: float) -> str | None:
    """Output check of one Airy gap query given as a spec dict."""
    if not math.isfinite(log_p) or log_p > 0.0:
        return f"log P = {log_p!r} is not in (-inf, 0]"
    p = math.exp(log_p)
    if not p > 0.0:
        return f"P = {p!r} is not positive"
    f2 = lib.painleve.tracy_widom_f2
    lows = [w[0] for w in spec["windows"]]
    if len(lows) == 1:
        ref = f2(lows[0])
        if abs(p - ref) > ORACLE_TOL:
            return f"P = {p!r} vs Tracy-Widom F2({lows[0]!r}) = {ref!r}"
    else:
        # no points in (a, b) is implied by no points above a, so
        # P >= F2(a1) + F2(a2) - 1 (Bonferroni)
        floor = f2(lows[0]) + f2(lows[1]) - 1.0
        if p < floor - ORACLE_TOL:
            return f"P = {p!r} below the Bonferroni floor {floor!r}"
    return None


def _csv_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class AiryGap:
    """Seeded stream of certified Airy gap queries, no cache."""

    name = "airy-gap"

    def __init__(self, lib, seed: int, tmp: str):
        self.lib = lib
        self.rng = random.Random(seed)

    def setup(self) -> None:
        lib = self.lib
        # fill the oracle's per-integer-floor ODE solutions for s in [-4, 2]
        for s in range(-4, 3):
            lib.painleve.tracy_widom_f2(float(s))
        warm = lib.fredholm.GapQuery(
            family="airy", times=(0.0,), windows=((0.0, 14.0),), m=NODES[0])
        lib.fredholm.log_gap_probability(warm)

    def query_op(self, label: str, spec: dict, run=None) -> Op:
        """Op for one drawn query; ``run`` replaces the library call (the
        smoke test feeds wrong results through the checker this way)."""
        query = self.lib.fredholm.GapQuery(
            family="airy", times=spec["times"], windows=spec["windows"], m=spec["m"])
        return Op(
            label=label,
            run=run or (lambda: self.lib.fredholm.log_gap_probability(query)),
            check=lambda out: check_probability(self.lib, spec, out),
        )

    def cycle(self, k: int) -> list:
        kinds = [(kind, m) for kind in ("1t", "2t") for m in NODES]
        self.rng.shuffle(kinds)
        ops = []
        for kind, m in kinds:
            draw = draw_one_time if kind == "1t" else draw_two_time
            ops.append(self.query_op(f"{kind}-m{m}", draw(self.rng, m)))
        return ops


# warm-replay's gap studies: the seed draws their windows and times, while
# their kinds and node counts stay fixed so every seed replays the same work
WARM_GAPS = (("gap-1t-m20", draw_one_time, 20),
             ("gap-2t-m20", draw_two_time, 20),
             ("gap-2t-m30", draw_two_time, 30))
# warm-replay's pde study runs at half the default ray nodes: the replay reads
# the same 540 blocks of the same shapes, and the cold fill in set-up costs a
# quarter of the default's
WARM_PDE_NODES_PER_RAY = 192


class _Studies:
    """Shared plumbing for workloads that run studies through cli.run."""

    def __init__(self, lib, seed: int, tmp: str):
        self.lib = lib
        self.tmp = tmp
        self.reference = {}  # label -> CSV bytes every later run must repeat

    def setup(self) -> None:
        pass

    def config(self, label: str, **fields):
        return self.lib.cli.StudyConfig(
            out_csv=os.path.join(self.tmp, f"{label}.csv"),
            out_json=os.path.join(self.tmp, f"{label}.json"),
            **fields,
        )

    def check_study(self, label: str, config, out) -> str | None:
        report, code = out
        if report.verdict != "pass" or code != 0:
            return f"{label}: verdict {report.verdict} (exit code {code})"
        if config.cache_enabled and os.path.exists(
                os.path.join(config.cache_dir, "lock.pid")):
            return f"{label}: lock.pid left in the cache root"
        data = _csv_bytes(config.out_csv)
        if data != self.reference.setdefault(label, data):
            return f"{label}: CSV differs from the reference run's"
        return None

    def study_op(self, label: str, config) -> Op:
        return Op(label=label, run=lambda: self.lib.cli.run(config),
                  check=lambda out: self.check_study(label, config, out),
                  cache_root=config.cache_dir if config.cache_enabled else None)


class PdeCold(_Studies):
    """The pde study at its defaults, each op against a fresh empty cache."""

    name = "pde-cold"

    def cycle(self, k: int) -> list:
        root = os.path.join(self.tmp, f"cache-{k}")
        op = self.study_op("pde", self.config("pde", kind="pde", cache_dir=root))
        op.prepare = lambda: os.makedirs(root)
        op.cleanup = lambda: shutil.rmtree(root)
        return [op]


class TheoremNoCache(_Studies):
    """The theorem study at its defaults with the cache disabled."""

    name = "theorem-nocache"

    def cycle(self, k: int) -> list:
        return [self.study_op(
            "theorem", self.config("theorem", kind="theorem", cache_enabled=False))]


class WarmReplay(_Studies):
    """theorem, pde and seeded gap studies replayed against a cache filled
    during set-up; every replay must hit and reproduce the cold CSV."""

    name = "warm-replay"

    def __init__(self, lib, seed: int, tmp: str):
        super().__init__(lib, seed, tmp)
        self.root = os.path.join(tmp, "cache")
        rng = random.Random(seed)
        self.configs = {
            "theorem": self.config("theorem", kind="theorem", cache_dir=self.root),
            "pde": self.config("pde", kind="pde", cache_dir=self.root,
                               pde_nodes_per_ray=WARM_PDE_NODES_PER_RAY),
        }
        for label, draw, m in WARM_GAPS:
            spec = draw(rng, m)
            self.configs[label] = self.config(
                label, kind="gap", family="airy", times=spec["times"],
                windows=spec["windows"], nodes=spec["m"], cache_dir=self.root)

    def setup(self) -> None:
        """Cold runs fill the cache and write the reference CSVs.  A cold run
        that fails leaves no reference, so each replay of it fails its check."""
        os.makedirs(self.root)
        for label, config in self.configs.items():
            try:
                report, code = self.lib.cli.run(config)
            except self.lib.exceptions.PearceyGapError:
                continue
            if report.verdict == "pass" and code == 0:
                self.reference[label] = _csv_bytes(config.out_csv)

    def check_study(self, label, config, out) -> str | None:
        if label not in self.reference:
            return f"{label}: the cold run during set-up failed"
        misses = out[0].metadata["cache_misses"]
        if misses:
            return f"{label}: {misses} cache misses on the warm cache"
        return super().check_study(label, config, out)

    def cycle(self, k: int) -> list:
        return [self.study_op(label, config) for label, config in self.configs.items()]


WORKLOADS = {w.name: w for w in (AiryGap, PdeCold, TheoremNoCache, WarmReplay)}


def make_tmp(root: str) -> str:
    """Fresh temporary directory inside the checkout."""
    base = os.path.join(root, ".perfbench-tmp")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(dir=base)
