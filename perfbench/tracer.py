"""Outside-in tracer for the pearceygap layers.

The library has no instrumentation of its own, so the traced run wraps each
layer's public functions from here.  A wrapper must sit at every name a caller
reaches the function by: ``fredholm`` and ``analysis`` import the block grids
and ``log_gap_probability`` by name, and ``airy_process`` imports ``airy`` by
name, so a wrapper on the defining module alone would record nothing.
``install`` therefore replaces the function under every name in every loaded
``pearceygap`` module that holds it, and ``uninstall`` puts the originals back.

Each call records one span ``[name, start, end, parent, attrs]`` in memory;
parents are list indices, so a span's self time is its duration minus the
durations of its children (calls nest, one thread).  ``layer_metrics`` turns
the spans into the per-layer numbers; ``write`` dumps them as JSON.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

import numpy as np

# span names of the kernel-block calls, used to recognise refinement levels
_BLOCKS = (
    "airy_process.airy_block_grid",
    "pearcey_process.pearcey_block_grid",
    "pearcey_process.conjugated_block_grid",
)
_DETS = ("fredholm.log_gap_probability", "fredholm.gap_probability")


def _points(args, kwargs, out):
    return {"points": int(np.size(args[0]))}


def _rows(index):
    def attrs(args, kwargs, out):
        return {"nx": int(np.size(args[index]))}
    return attrs


def _pearcey(args, kwargs, out):
    tau_i, tau_j, xis, etas = args[:4]
    contour = args[4] if len(args) > 4 else kwargs.get("contour")
    return {
        "nx": int(np.size(xis)),
        "direct": contour is None or contour.recenter is None,
        # the ray system of each side depends on (tau, max |coordinate|)
        "x_key": (float(tau_i), float(np.max(np.abs(xis)))),
        "y_key": (float(tau_j), float(np.max(np.abs(etas)))),
    }


def _query(args, kwargs, out):
    q = args[0]
    return {
        "m": int(q.m),
        "certify": bool(q.certify),
        "windows": sum(w is not None for w in q.windows),
    }


def _dim(args, kwargs, out):
    return {"dim": int(np.shape(args[0])[0])}


def _hit(args, kwargs, out):
    return {"hit": out is not None}


def _targets(m):
    """(span name, owner, attribute, attrs function) for every traced call;
    ``m`` holds the pearceygap modules by short name."""
    return [
        ("specfun.airy", m.specfun, "airy", _points),
        ("airy_process.airy_block_grid", m.airy_process, "airy_block_grid", _rows(2)),
        ("pearcey_process.pearcey_block_grid", m.pearcey_process,
         "pearcey_block_grid", _pearcey),
        ("pearcey_process.conjugated_block_grid", m.pearcey_process,
         "conjugated_block_grid", _rows(3)),
        ("fredholm.log_gap_probability", m.fredholm, "log_gap_probability", _query),
        ("fredholm.gap_probability", m.fredholm, "gap_probability", _query),
        # scipy's balancing is imported by name into fredholm; slogdet is
        # reached as np.linalg.slogdet, so it is patched on numpy.linalg
        ("fredholm.matrix_balance", m.fredholm, "matrix_balance", _dim),
        ("fredholm.slogdet", np.linalg, "slogdet", _dim),
        ("cache.block_key", m.cache, "block_key", _rows(4)),
        ("cache.lookup", m.cache.KernelCache, "lookup", _hit),
        ("cache.store", m.cache.KernelCache, "store", None),
        ("analysis.identity_grid_study", m.analysis, "identity_grid_study", None),
        ("analysis.proposition_slope", m.analysis, "proposition_slope", None),
        ("analysis.theorem_ratio_study", m.analysis, "theorem_ratio_study", None),
        ("analysis.pde_residual", m.analysis, "pde_residual", None),
        ("cli.run", m.cli, "run", None),
        ("painleve.tracy_widom_f2", m.painleve, "tracy_widom_f2", _points),
    ]


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, attrs):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """Span around the benchmark's own code; yields the record so the
        caller can attach attributes."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, {}]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def install(self, lib) -> None:
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == "pearceygap" or name.startswith("pearceygap.")]
        for name, owner, attr, attrs in _targets(lib):
            original = vars(owner)[attr]
            traced = self._wrap(name, original, attrs)
            holders = [(owner, attr)]
            for mod in modules:
                holders += [(mod, key) for key, value in vars(mod).items()
                            if value is original and mod is not owner]
            for holder, key in holders:
                self._patches.append((holder, key, original))
                setattr(holder, key, traced)

    def uninstall(self) -> None:
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    def write(self, path) -> None:
        doc = [{"name": n, "start": s, "end": e, "parent": p, "attrs": a}
               for n, s, e, p, a in self.spans]
        with open(path, "w") as fh:
            json.dump(doc, fh, default=list)


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds one wrapper adds to a call, measured on a no-op with an attrs
    function of the usual size."""
    arr = np.zeros(4)

    def noop(x, y):
        return None

    traced = Tracer()._wrap("probe", noop, _rows(0))
    clock = time.perf_counter
    t0 = clock()
    for _ in range(calls):
        noop(arr, arr)
    t1 = clock()
    for _ in range(calls):
        traced(arr, arr)
    t2 = clock()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def _level_time(spans, children, det) -> float:
    """Time of the blocks, balancing and slogdet at the 2m level of one
    certified determinant span, recognised by node count."""
    a = spans[det][4]
    nodes, dim = 2 * a["m"], 2 * a["m"] * a["windows"]
    total, key_nodes = 0.0, None
    for c in children[det]:
        name, start, end, _, attrs = spans[c]
        attrs = attrs or {}
        if name == "cache.block_key":
            key_nodes = attrs.get("nx")
        if name in _BLOCKS or name == "cache.block_key":
            fine = attrs.get("nx") == nodes
        elif name in ("cache.lookup", "cache.store"):
            fine = key_nodes == nodes  # belongs to the key computed just before
        elif name in ("fredholm.matrix_balance", "fredholm.slogdet"):
            fine = attrs.get("dim") == dim
        else:
            fine = False
        if fine:
            total += end - start
    return total


def layer_metrics(spans, cycles: int, per_call_cost: float) -> dict:
    """Per-layer counts and seconds, per cycle of the workload's op list."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * n
    children = [[] for _ in range(n)]
    root = list(range(n))
    for i, s in enumerate(spans):
        p = s[3]
        if p >= 0:
            child_time[p] += dur[i]
            children[p].append(i)
            root[i] = root[p]
    own = [dur[i] - child_time[i] for i in range(n)]
    ops = [i for i, s in enumerate(spans) if s[0] == "bench.op"]
    in_op = [spans[root[i]][0] == "bench.op" and root[i] != i for i in range(n)]

    def select(name, pred=None):
        return [i for i, s in enumerate(spans)
                if s[0] == name and (pred is None or pred(s[4] or {}))]

    def total(idx, values):
        return sum(values[i] for i in idx)

    airy = select("specfun.airy")
    ablk = select("airy_process.airy_block_grid")
    direct = select("pearcey_process.pearcey_block_grid", lambda a: a.get("direct"))
    conj = select("pearcey_process.conjugated_block_grid")
    dets = [i for i, s in enumerate(spans) if s[0] in _DETS]
    bal = select("fredholm.matrix_balance")
    slog = select("fredholm.slogdet")
    lookups = select("cache.lookup")
    hits = select("cache.lookup", lambda a: a.get("hit"))
    stores = select("cache.store")
    analysis = [i for i, s in enumerate(spans) if s[0].startswith("analysis.")]
    f2 = select("painleve.tracy_widom_f2")

    # distinct ray systems per op and side, summed over ops
    ray_keys = len({(root[i], side, spans[i][4][side])
                    for i in direct if spans[i][4] for side in ("x_key", "y_key")})

    cert = sum(_level_time(spans, children, d) for d in dets
               if spans[d][4] and spans[d][4]["certify"])
    op_time = total(ops, dur)
    covered = total(ops, child_time)
    layer_spans = sum(in_op)
    written = sum(spans[i][4].get("bytes_written", 0) for i in ops)

    raw = {
        "specfun.airy_calls": (len(airy), "count"),
        "specfun.airy_points": (sum(spans[i][4]["points"] for i in airy if spans[i][4]), "count"),
        "specfun.airy_s": (total(airy, dur), "s"),
        "airy_process.blocks": (len(ablk), "count"),
        "airy_process.block_s": (total(ablk, dur), "s"),
        "airy_process.self_s": (total(ablk, own), "s"),
        "pearcey_process.direct_blocks": (len(direct), "count"),
        "pearcey_process.direct_block_s": (total(direct, dur), "s"),
        "pearcey_process.ray_keys": (ray_keys, "count"),
        "pearcey_process.conj_blocks": (len(conj), "count"),
        "pearcey_process.conj_block_s": (total(conj, dur), "s"),
        "fredholm.determinants": (len(slog), "count"),
        "fredholm.det_rows": (sum(spans[i][4]["dim"] for i in slog if spans[i][4]), "count"),
        "fredholm.balance_s": (total(bal, dur), "s"),
        "fredholm.slogdet_s": (total(slog, dur), "s"),
        "fredholm.self_s": (total(dets, own), "s"),
        "fredholm.certificate_s": (cert, "s"),
        "cache.lookups": (len(lookups), "count"),
        "cache.hits": (len(hits), "count"),
        "cache.lookup_s": (total(lookups, dur), "s"),
        "cache.key_s": (total(select("cache.block_key"), dur), "s"),
        "cache.stores": (len(stores), "count"),
        "cache.store_s": (total(stores, dur), "s"),
        "cache.bytes_written": (written, "bytes"),
        "analysis.self_s": (total(analysis, own), "s"),
        "cli.self_s": (total(select("cli.run"), own), "s"),
        "painleve.f2_calls": (len(f2), "count"),
        "painleve.f2_s": (total(f2, dur), "s"),
    }
    out = {name: {"value": value / cycles, "unit": unit}
           for name, (value, unit) in raw.items()}
    out["cache.hit_ratio"] = {
        "value": len(hits) / len(lookups) if lookups else 0.0, "unit": "ratio"}
    out["trace.attributed_frac"] = {
        "value": covered / op_time if op_time else 0.0, "unit": "ratio"}
    out["trace.overhead_frac"] = {
        "value": per_call_cost * layer_spans / op_time if op_time else 0.0,
        "unit": "ratio"}
    return out
