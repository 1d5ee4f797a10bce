import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from pearceygap import analysis, pearcey_process, specfun
from pearceygap.analysis import (
    PdeGrid,
    PsiOperator,
    identity1_residual,
    identity2_residual,
    identity_grid_study,
    pde_residual,
    proposition_slope,
    theorem_ratio_study,
)
from pearceygap.exceptions import AccuracyError, DomainError
from pearceygap.fredholm import log_gap_probability
from pearceygap.pearcey_process import _x_rays, _y_rays
from pearceygap.specfun import gauss_rule


def test_psi_operator_coefficients():
    op = PsiOperator(x=1.5, s=-0.7)
    c = op.coefficients()
    assert c == pytest.approx((0.0, -4.0 * (-0.7) * 1.5, 1.5 * 0.49, 4.0 * (-0.7), 0.25))
    w = 0.83
    expected = w**4 / 4.0 + 1.5 * 0.49 * w**2 - 4.0 * 0.7 * w**3 + 4.2 * w
    assert abs(op(w) - expected) < 1e-14


@pytest.mark.parametrize("s", [-0.6, 0.25, 1.0])
def test_identity1_on_grid(s):
    worst = 0.0
    for x, y in itertools.product(np.linspace(-3.0, 3.0, 5), repeat=2):
        worst = max(worst, abs(identity1_residual(float(x), float(y), s)))
    assert worst < 1e-7


@pytest.mark.parametrize("s", [-0.6, 0.25, 1.0])
def test_identity2_on_grid(s):
    worst = 0.0
    for x, y in itertools.product(np.linspace(-3.0, 3.0, 5), repeat=2):
        worst = max(worst, abs(identity2_residual(float(x), float(y), s)))
    assert worst < 1e-7


def test_identity2_odd_under_relabeling():
    a = identity2_residual(0.9, -0.4, 0.7)
    b = identity2_residual(-0.4, 0.9, -0.7)
    assert abs(a + b) < 1e-8


def test_identity_study_evaluates_each_airy_point_set_once(monkeypatch):
    # the default grid's 450 product integrals read 5 distinct x + lam sets;
    # the shared derivative arrays are read-only, so no residual can alter
    # another's, and the residuals are those of a fresh evaluation
    calls, derivs = [], analysis.airy_derivs_upto

    def counting(x, kmax):
        calls.append(float(x[0]))
        return derivs(x, kmax)

    monkeypatch.setattr(analysis, "airy_derivs_upto", counting)
    analysis._id_derivs.cache_clear()
    report = identity_grid_study()
    assert len(calls) == len(set(calls)) == 5
    assert not any(a.flags.writeable for a in analysis._id_derivs(0.5))
    x, y, s, r1, r2 = report.rows[-1]
    assert (r1, r2) == (identity1_residual(x, y, s), identity2_residual(x, y, s))


def test_identity1_nonzero_when_misassembled():
    # dropping the first-order term must leave a visible defect, so the
    # near-zero residuals above are not a trivial cancellation
    d = identity1_residual(1.2, -0.8, 0.5)
    s, x, y = 0.5, 1.2, -0.8
    from pearceygap.analysis import _ID_ORDERS, _apply_sides, _product_integrals

    ints = _product_integrals(x, y, 0.0, 0, _ID_ORDERS)
    lhs = _apply_sides(ints, PsiOperator(x, s).coefficients(), PsiOperator(y, s).coefficients())
    rhs = 0.25 * (x - y) * (x + y + 6.0 * s * s) * ints[(0, 0)]
    assert abs(d) < 1e-9
    assert abs((lhs - rhs) - d) > 1e-4  # the 4s*K term is load-bearing


def test_proposition_slope_centered_times():
    rep = proposition_slope(0.0, 0.5)
    assert rep.summary["expected_slope"] == 8.0
    assert abs(rep.summary["slope"] - 8.0) <= 0.5
    assert rep.summary["r2"] >= 0.99
    assert rep.summary["nodes_per_ray"] == 64
    assert rep.summary["ray_convergence"] <= pearcey_process._RAY_TOL
    assert rep.passed


def test_proposition_slope_evaluates_no_residual_above_its_count(monkeypatch):
    # the ray walk probes the largest, middle and smallest z, so every
    # residual is taken at a ladder level up to the settled count
    counts, kernel_residual = [], analysis._kernel_residual

    def spy(params, points, contour):
        counts.append(contour.nodes_per_ray)
        return kernel_residual(params, points, contour)

    monkeypatch.setattr(analysis, "_kernel_residual", spy)
    rep = proposition_slope(0.5, 0.3)
    assert set(counts) <= set(specfun._LADDER)
    assert max(counts) == rep.summary["nodes_per_ray"]
    assert "refine_rel_change" not in rep.summary


def test_proposition_slope_offset_times():
    rep = proposition_slope(0.5, 0.3)
    assert rep.summary["expected_slope"] == 4.0
    assert abs(rep.summary["slope"] - 4.0) <= 0.5
    assert rep.summary["r2"] >= 0.99
    assert rep.passed


def test_proposition_slope_report_table():
    z_grid = np.geomspace(0.2, 0.3, 3)
    rep = proposition_slope(0.0, 0.4, z_grid=z_grid)
    assert rep.name == "prop21"
    assert rep.columns == ("z", "residual")
    assert len(rep.rows) == 3
    zs = [r[0] for r in rep.rows]
    assert zs == sorted(zs, reverse=True)
    assert all(r[1] > 0.0 for r in rep.rows)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"t": 0.0, "s": 0.5, "z_grid": [0.2, 0.7]},
        {"t": 0.0, "s": 0.5, "z_grid": [0.2]},
        {"t": 1.5, "s": 0.5},
        {"t": 0.0, "s": 0.0},
        {"t": 0.0, "s": 0.5, "z_grid": [0.35, 0.35]},  # one point, repeated
    ],
)
def test_proposition_slope_rejects_bad_inputs(kwargs):
    with pytest.raises(DomainError):
        proposition_slope(**kwargs)


def test_theorem_two_time_rate():
    rep = theorem_ratio_study(np.geomspace(30.0, 960.0, 6))
    assert abs(rep.summary["slope"] - (-4.0 / 3.0)) <= 0.2
    assert rep.summary["r2"] >= 0.98
    assert rep.summary["ablation_detectability"] >= 5.0
    assert rep.summary["untrusted_points"] == 0
    assert rep.passed
    assert rep.columns == (
        "tau1", "tau2", "z", "ratio_dev", "ratio_dev_ablated", "certified",
    )
    assert len(rep.rows) == 6
    assert all(0.0 < abs(r[3]) < 1.0 for r in rep.rows)
    assert all(r[5] == 1 for r in rep.rows)


def test_theorem_airy_reference_computed_once_per_certify_level(monkeypatch):
    # the Airy reference does not depend on tau1: one certified, one uncertified
    families = []
    real = analysis.log_gap_probability

    def counting(query):
        families.append(query.family)
        return real(query)

    monkeypatch.setattr(analysis, "log_gap_probability", counting)
    rep = theorem_ratio_study(np.geomspace(30.0, 960.0, 6))
    assert rep.passed
    # 6 certified and 6 ablated points, plus the ray-node probe: the first and
    # the last tau1 at 32, 48 and 64 nodes per ray
    assert families.count("pearcey-conjugated") == 12 + 6
    assert families.count("airy") <= 2


def _theorem_determinants(monkeypatch, **kwargs):
    """The default theorem study's report, and every conjugated determinant it
    computed at the ray-node count it picked, as an uncertified query (a
    certified query stands for its determinants at m and at 2m)."""
    queries = []
    real = analysis.log_gap_probability

    def record(query):
        queries.append(query)
        return real(query)

    monkeypatch.setattr(analysis, "log_gap_probability", record)
    rep = theorem_ratio_study(np.geomspace(30.0, 960.0, 6), **kwargs)
    n, dets = rep.summary["nodes_per_ray"], set()
    for q in queries:
        if q.family == "pearcey-conjugated" and q.contour.nodes_per_ray == n:
            dets.add(replace(q, certify=False))
            if q.certify:
                dets.add(replace(q, m=2 * q.m, certify=False))
    return rep, dets


@pytest.mark.parametrize("single_time, count", [(False, 18), (True, 12)])
def test_theorem_ray_nodes_match_a_512_node_reference(monkeypatch, single_time, count):
    # certified points at m and 2m, and the ablated points at m: each within
    # 1e-12 in log P of the same determinant at 512 nodes per ray
    rep, dets = _theorem_determinants(monkeypatch, single_time=single_time)
    assert rep.passed
    assert rep.summary["nodes_per_ray"] == 64
    assert rep.summary["ray_convergence"] <= pearcey_process._RAY_TOL
    assert len(dets) == count
    for q in dets:
        ref = replace(q, contour=replace(q.contour, nodes_per_ray=512))
        assert abs(log_gap_probability(q) - log_gap_probability(ref)) <= 1e-12


def test_theorem_ray_nodes_that_never_settle_raise(monkeypatch):
    # log P moving by 1/n at every level never agrees within the tolerance
    monkeypatch.setattr(analysis, "log_gap_probability",
                        lambda query: 1.0 / query.contour.nodes_per_ray)
    with pytest.raises(AccuracyError, match=r"by 512 nodes per ray: log P at the "
                       r"tau1 = 30 moved by 6\.510e-04 from 384 to 512"):
        theorem_ratio_study(np.geomspace(30.0, 960.0, 6))


def test_theorem_single_time_rate():
    rep = theorem_ratio_study(np.geomspace(30.0, 960.0, 6), single_time=True)
    assert abs(rep.summary["slope"] - (-4.0 / 3.0)) <= 0.1
    assert rep.summary["r2"] >= 0.999
    assert rep.passed
    assert rep.columns == ("tau1", "tau2", "z", "ratio_dev", "certified")


def test_theorem_deviation_decreases():
    rep = theorem_ratio_study(
        np.geomspace(40.0, 640.0, 3), ablate=False, certify=False
    )
    devs = [abs(r[3]) for r in rep.rows]
    assert devs[0] > devs[1] > devs[2]


@pytest.mark.parametrize(
    "grid", [[30.0, -5.0], [60.0, 30.0], [30.0, 30.0]]
)
def test_theorem_rejects_bad_grid(grid):
    with pytest.raises(DomainError):
        theorem_ratio_study(grid)


def _pde_determinants(monkeypatch):
    """The default pde study's report, and log P of every determinant it
    computed, keyed by its query."""
    computed = {}

    def record(query):
        computed[query] = log_gap_probability(query)
        return computed[query]

    monkeypatch.setattr(analysis, "log_gap_probability", record)
    return pde_residual(PdeGrid()), computed


def _at_nodes(query, n):
    return replace(query, contour=replace(query.contour, nodes_per_ray=n))


def test_pde_residual_default_grid(monkeypatch):
    rep, computed = _pde_determinants(monkeypatch)
    s = rep.summary
    assert not s["inconclusive"]
    assert s["noise_estimate"] < s["normalized_residual"]
    assert s["normalized_residual"] < 1e-2
    assert s["normalized_residual_half_step"] < s["normalized_residual"]
    assert s["ablation_ratio"] >= 10.0
    assert rep.passed
    names = [r[0] for r in rep.rows]
    assert names == sorted(names[:-1]) + ["pde_total"]
    # the ray-node count settles at 48: 32 and 48 agree at both probe points
    assert s["nodes_per_ray"] == 48
    assert s["ray_convergence"] <= analysis._PDE_RAY_TOL
    probes = [q for q in computed if q.contour.nodes_per_ray == 32]
    assert len(probes) == 2
    for q in probes:
        at_48 = computed[_at_nodes(q, 48)]
        assert abs(at_48 - log_gap_probability(_at_nodes(q, 384))) <= analysis._PDE_RAY_TOL


def test_pde_study_determinants_match_a_384_node_reference(monkeypatch):
    # a seeded sample of the study's own determinants, each within the
    # probe's tolerance in log P of the same determinant at 384 nodes per ray
    rep, computed = _pde_determinants(monkeypatch)
    n = rep.summary["nodes_per_ray"]
    study = sorted((q for q in computed if q.contour.nodes_per_ray == n), key=repr)
    assert len(study) == 131
    for k in np.random.default_rng(1710).choice(len(study), size=8, replace=False):
        q = study[k]
        assert abs(computed[q] - log_gap_probability(_at_nodes(q, 384))) <= analysis._PDE_RAY_TOL


def _recorded_run(monkeypatch, grid, log_p=lambda query: 0.0):
    """pde_residual(grid) with each query answered by log_p instead of a
    determinant: its report and the queries it sent, in order."""
    queries = []

    def record(query):
        queries.append(query)
        return log_p(query)

    monkeypatch.setattr(analysis, "log_gap_probability", record)
    return pde_residual(grid), queries


def test_pde_study_radius_covers_every_block(monkeypatch):
    rep, queries = _recorded_run(monkeypatch, PdeGrid())
    # the probe's queries differ from the study's in nodes_per_ray only
    assert len({q.contour.radius for q in queries}) == 1
    radius = queries[0].contour.radius
    assert rep.summary["ray_radius"] == radius
    # the per-block rule (radius=None) on each side of every block
    free = replace(queries[0].contour, radius=None)
    block_radii = []
    for q in queries:
        for tau, w in zip(q.times, q.windows):
            coord = float(np.max(np.abs(gauss_rule(q.m, *w).nodes)))
            rays = _x_rays(free, tau, coord) + _y_rays(free, tau, coord)
            block_radii.extend(ray[3] for ray in rays)
    assert max(block_radii) <= radius


# every derivative the PDE study takes; each has total order >= 2, so its
# central stencil is exact on cubics
_PDE_DERIVATIVES = [
    {"dtau": 3},
    {"dxi": 2},
    {"dxi": 3},
    *({axis: 1, "dxi": 2} for axis in ("dtau", "dsigma", "deta", "dmu", "dnu")),
    {"dtau": 1, "dxi": 1},
    {"dtau": 1, "dxi": 1, "deta": 1},
]


@pytest.mark.parametrize("orders", _PDE_DERIVATIVES)
def test_derivative_exact_on_cubics(orders):
    rng = np.random.default_rng(7)
    powers = [p for p in itertools.product(range(4), repeat=6) if sum(p) <= 3]
    for _ in range(3):
        coeffs = rng.uniform(-1.0, 1.0, len(powers))

        def f(**offsets):
            x = [offsets.get(axis, 0.0) for axis in analysis._PDE_AXES]
            return sum(c * np.prod([xa**pa for xa, pa in zip(x, p)])
                       for c, p in zip(coeffs, powers))

        target = tuple(orders.get(axis, 0) for axis in analysis._PDE_AXES)
        exact = coeffs[powers.index(target)] * np.prod([math.factorial(n) for n in target])
        for h in (0.05, 0.025):
            assert analysis._derivative(f, h, **orders) == pytest.approx(exact, abs=1e-9)


@pytest.mark.parametrize("orders", [{"dtau": 1}, {"dxi": 2}, {"dtau": 3, "dxi": 1}])
def test_derivative_skips_zero_weight_points(orders):
    h = 0.1
    calls = []

    def f(**offsets):
        calls.append(tuple(round(offsets[axis] / h) for axis in orders))
        return 1.0

    analysis._derivative(f, h, **orders)
    nonzero = {1: (-1, 1), 2: (-1, 0, 1), 3: (-2, -1, 1, 2)}
    expected = set(itertools.product(*(nonzero[n] for n in orders.values())))
    assert sorted(calls) == sorted(expected)  # each once, none at zero weight


def test_pde_study_computes_each_query_once(monkeypatch):
    _, study = _recorded_run(monkeypatch, PdeGrid(nodes_per_ray=48))
    # the h and h/2 passes share the base point and +-h along tau and xi
    assert len(study) == len(set(study)) == 130
    # a constant log P settles at once, at 48 nodes per ray: the probe adds
    # the base point and the far corner at 32, and the far corner at 48
    _, queries = _recorded_run(monkeypatch, PdeGrid())
    assert len(queries) == len(set(queries)) == 133
    probe = set(queries) - set(study)
    assert sorted(q.contour.nodes_per_ray for q in probe) == [32, 32, 48]
    grid = PdeGrid()
    corner = max(probe, key=lambda q: q.times[1])
    assert corner.times == pytest.approx((grid.tau - grid.sigma,
                                          grid.tau + grid.sigma + 4.0 * grid.h))


def test_pde_fixed_ray_nodes_skip_the_probe(monkeypatch):
    _, queries = _recorded_run(monkeypatch, PdeGrid(nodes_per_ray=128))
    assert len(queries) == 130
    assert {q.contour.nodes_per_ray for q in queries} == {128}


def test_pde_ray_nodes_that_never_settle_raise(monkeypatch):
    # log P moving by 1/n at every level never agrees within the tolerance
    with pytest.raises(AccuracyError, match="far corner|base point"):
        _recorded_run(monkeypatch, PdeGrid(), lambda query: 1.0 / query.contour.nodes_per_ray)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"sigma": 0.05, "h": 0.05},
        {"mu": 0.3},
        {"nu": 0.0},
        {"h": 0.0},
        {"tau": 9.8},
        {"sigma": 3.95},
    ],
)
def test_pde_grid_validation(kwargs):
    with pytest.raises(DomainError):
        PdeGrid(**kwargs)


_NON_FINITE_CALLS = {
    "theorem-tau1": (theorem_ratio_study, ([30.0, math.nan],), {}),
    "theorem-t1": (theorem_ratio_study, ([30.0, 60.0],), {"t1": math.nan}),
    "theorem-t2": (theorem_ratio_study, ([30.0, 60.0],), {"t2": math.nan}),
    "prop21-t": (proposition_slope, (math.nan, 0.5), {}),
    "prop21-s": (proposition_slope, (0.0, math.inf), {}),
    "prop21-z": (proposition_slope, (0.0, 0.5), {"z_grid": [0.3, math.nan]}),
    "identities-tolerance": (identity_grid_study, ([0.0], [0.0], [0.3]), {"tolerance": math.nan}),
    "identities-tolerance-inf": (identity_grid_study, ([0.0], [0.0], [0.3], math.inf), {}),
    "identities-x": (identity_grid_study, ([math.nan], [0.0], [0.3]), {}),
    "identities-y": (identity_grid_study, ([0.0], [-math.inf], [0.3]), {}),
    "identities-s": (identity_grid_study, ([0.0], [0.0], [math.nan]), {}),
    **{f"pde-{name}": (PdeGrid, (), {name: math.nan})
       for name in ("tau", "sigma", "xi", "eta", "mu", "nu", "h")},
}


@pytest.mark.parametrize("case", _NON_FINITE_CALLS)
def test_studies_reject_non_finite_numbers(case):
    study, args, kwargs = _NON_FINITE_CALLS[case]
    with pytest.raises(DomainError, match="must be"):
        study(*args, **kwargs)
