"""The benchmark's outside-in tracer (perfbench/tracer.py) against the library.

The tracer wraps the kernel block routines by name and reads their row points
by position, so a renamed routine or a moved argument must fail here, in the
tier-1 suite, and not only in the benchmark's smoke run.
"""

import importlib
import importlib.util
import os
import types

from pearceygap.fredholm import GapQuery
from pearceygap.pearcey_process import PearceyContour
from pearceygap.scaling import ScalingParams

_TRACER = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py"
)
_LAYERS = ("specfun", "airy_process", "pearcey_process", "fredholm", "cache",
           "analysis", "cli", "painleve")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_the_rows_of_every_block_routine():
    tracing = _load_tracer()
    lib = types.SimpleNamespace(
        **{name: importlib.import_module(f"pearceygap.{name}") for name in _LAYERS})
    m = 6
    p = ScalingParams.for_theorem(30.0, -0.5, 0.5)
    # a fixed ray-node count: nodes_per_ray=0 would walk the ray ladder, one
    # determinant per level
    rays = PearceyContour(nodes_per_ray=64)
    queries = [
        GapQuery(family="airy", times=(-0.5, 0.5), windows=((-1.0, 4.0),) * 2,
                 m=m, certify=False),
        GapQuery(family="pearcey", times=(3.0, 4.0), windows=((-3.0, 3.0), (-3.5, 3.5)),
                 m=m, contour=rays, certify=False),
        GapQuery(family="pearcey-conjugated", times=(p.t1, p.t2),
                 windows=((-1.0, 6.0),) * 2, m=m, z=p.z, contour=rays, certify=False),
    ]
    tracer = tracing.Tracer()
    tracer.install(lib)
    try:
        for query in queries:
            lib.fredholm.log_gap_probability(query)
    finally:
        tracer.uninstall()
    for name in tracing._BLOCKS:
        spans = [s for s in tracer.spans if s[0] == name]
        assert len(spans) == 4, name  # one 2x2 block matrix per family
        assert all(s[4]["nx"] == m for s in spans), name
