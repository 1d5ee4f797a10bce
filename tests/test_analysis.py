import functools
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from pearceygap import analysis, fredholm, pearcey_process, specfun
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
from pearceygap.fredholm import GapQuery, log_gap_probability
from pearceygap.pearcey_process import _x_rays, _y_rays

from oracles import central_difference


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

    def spy(params, contour):
        counts.append(contour.nodes_per_ray)
        return kernel_residual(params, contour)

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


def test_theorem_builds_each_repeated_block_once(monkeypatch):
    # 24 determinants of 2 x 2 blocks, each with 3 u and 2 v recentred sides:
    # the walk's first and last tau1 at 32, 48 and 64 nodes per ray, the six
    # certified points at m and 2m, and the six ablated points.  With no cache
    # installed an in-memory store serves the certified loop the walk's two
    # 64-node determinants (8 blocks, 10 sides) and each ablated point its full
    # partner's (t1, t1) block and that block's own u side: 82 blocks and 104
    # sides, against 96 and 120 without it.  Every radius is a Newton root
    calls = {"roots": 0, "sides": 0, "blocks": 0}

    def counted(name, real):
        return lambda *args: calls.__setitem__(name, calls[name] + 1) or real(*args)

    monkeypatch.setattr(np, "roots", counted("roots", np.roots))
    monkeypatch.setattr(pearcey_process, "_ray_radius",
                        counted("sides", pearcey_process._ray_radius))
    monkeypatch.setattr(pearcey_process, "_recentred_grid",
                        counted("blocks", pearcey_process._recentred_grid))
    rep = theorem_ratio_study(np.geomspace(30.0, 960.0, 6))
    assert rep.passed and rep.summary["nodes_per_ray"] == 64
    assert calls == {"roots": 0, "sides": 104, "blocks": 82}
    assert fredholm.block_cache() is None  # the store lives for the run only


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
    # no certificate ran, so no row claims one
    assert [r[rep.columns.index("certified")] for r in rep.rows] == [0, 0, 0]


@pytest.mark.parametrize(
    "grid", [[30.0, -5.0], [60.0, 30.0], [30.0, 30.0]]
)
def test_theorem_rejects_bad_grid(grid):
    with pytest.raises(DomainError):
        theorem_ratio_study(grid)


def test_pde_residual_default_grid():
    rep = pde_residual(PdeGrid())
    s = rep.summary
    terms = dict(rep.rows[:-1])
    assert not s["inconclusive"]
    assert s["tolerance"] == analysis._PDE_TOL
    assert s["normalized_residual"] <= s["tolerance"]
    assert s["certificate_gap"] == max(s[f"gap_{name}"] for name in terms)
    assert s["certificate_gap"] <= s["tolerance"]
    assert s["ablation_ratio"] >= 10.0
    assert rep.passed
    names = [r[0] for r in rep.rows]
    assert names == sorted(names[:-1]) + ["pde_total"]
    assert s["term_scale"] == max(abs(v) for v in terms.values())
    # the ray-node count settles at 48: 32 and 48 agree at the base point
    assert s["nodes_per_ray"] == 48
    assert s["ray_convergence"] <= analysis._PDE_RAY_TOL


def test_pde_study_determinants_match_a_384_node_reference(monkeypatch):
    # the study's determinants at m and 2m: each is the library's log P of
    # the same query, within 1e-12 of it at 384 nodes per ray, and each
    # level's partials lie within the probe's tolerance of the same partials
    # at 384 nodes per ray
    seen, balanced = [], analysis._balanced_log_det

    def record(a):
        seen.append(balanced(a))
        return seen[-1]

    monkeypatch.setattr(analysis, "_balanced_log_det", record)
    grid = PdeGrid()
    rep = pde_residual(grid)
    n = rep.summary["nodes_per_ray"]
    assert [len(b) for b, _, _ in seen] == [2 * grid.m] * 2 + [4 * grid.m]  # 32, 48, 48 at 2m
    contour = replace(analysis._pde_contour(grid), nodes_per_ray=n)
    for factor, (_, _, log_det) in zip((1, 2), seen[1:]):
        query = GapQuery(family="pearcey", times=(3.5, 4.5), windows=((1.75, 3.75), (2.25, 4.25)),
                         m=factor * grid.m, contour=contour, certify=False)
        assert abs(log_det - log_gap_probability(query)) <= 1e-13
        assert abs(log_det - log_gap_probability(
            replace(query, contour=replace(contour, nodes_per_ray=384)))) <= 1e-12
        study = analysis._pde_partials(grid, contour, factor)
        ref = analysis._pde_partials(grid, replace(contour, nodes_per_ray=384), factor)
        scale = max(abs(v) for v in ref.values())
        for axes, value in ref.items():
            assert abs(study[axes] - value) <= analysis._PDE_RAY_TOL * scale, axes


def _recorded_run(monkeypatch, grid, fake=None):
    """pde_residual(grid) with the partials of every level it evaluates
    recorded, and answered by fake(nodes per ray) when given: its report
    and the (nodes per ray, node factor) of each level, in order."""
    levels, partials = [], analysis._pde_partials

    def record(grid, contour, factor):
        levels.append((contour.nodes_per_ray, factor))
        if fake is None:
            return partials(grid, contour, factor)
        return fake(contour.nodes_per_ray)

    monkeypatch.setattr(analysis, "_pde_partials", record)
    return pde_residual(grid), levels


def _constant_partials(n):
    return dict.fromkeys(analysis._PDE_PARTIALS, 1.0)


def test_pde_study_radius_covers_every_block(monkeypatch):
    calls, grids = [], analysis.direct_moment_grids

    def record(taus, points, contour, *sizes):
        calls.append((taus, points, contour))
        return grids(taus, points, contour, *sizes)

    monkeypatch.setattr(analysis, "direct_moment_grids", record)
    grid = PdeGrid()
    rep = pde_residual(grid)
    assert len(calls) == 3  # the probe's two levels at m, then 2m
    radius = rep.summary["ray_radius"]
    assert {contour.radius for _, _, contour in calls} == {radius}
    # the per-block rule (radius=None) on each side of every block
    free = replace(calls[0][2], radius=None)
    block_radii = []
    for taus, points, _ in calls:
        assert taus == [grid.tau - grid.sigma, grid.tau + grid.sigma]
        for tau, xs in zip(taus, points):
            coord = float(np.max(np.abs(xs)))
            rays = _x_rays(free, tau, coord) + _y_rays(free, tau, coord)
            block_radii.extend(ray[3] for ray in rays)
    assert max(block_radii) <= radius


# every derivative the PDE study takes, as central-difference orders
_PDE_DERIVATIVES = [
    {"dtau": 3},
    {"dxi": 2},
    {"dxi": 3},
    *({axis: 1, "dxi": 2} for axis in ("dtau", "dsigma", "deta", "dmu", "dnu")),
    {"dtau": 1, "dxi": 1},
    {"dtau": 1, "dxi": 1, "deta": 1},
]
_FD_AXES = ("dtau", "dsigma", "dxi", "deta", "dmu", "dnu")


@pytest.mark.parametrize("orders", _PDE_DERIVATIVES)
def test_derivative_exact_on_cubics(orders):
    # the central-difference oracle's stencils: each derivative has total
    # order >= 2, so its stencil is exact on cubics
    rng = np.random.default_rng(7)
    powers = [p for p in itertools.product(range(4), repeat=6) if sum(p) <= 3]
    for _ in range(3):
        coeffs = rng.uniform(-1.0, 1.0, len(powers))

        def f(**offsets):
            x = [offsets.get(axis, 0.0) for axis in _FD_AXES]
            return sum(c * np.prod([xa**pa for xa, pa in zip(x, p)])
                       for c, p in zip(coeffs, powers))

        target = tuple(orders.get(axis, 0) for axis in _FD_AXES)
        exact = coeffs[powers.index(target)] * np.prod([math.factorial(n) for n in target])
        for h in (0.05, 0.025):
            assert central_difference(f, h, **orders) == pytest.approx(exact, abs=1e-9)


@pytest.mark.parametrize("orders", [{"dtau": 1}, {"dxi": 2}, {"dtau": 3, "dxi": 1}])
def test_derivative_skips_zero_weight_points(orders):
    h = 0.1
    calls = []

    def f(**offsets):
        calls.append(tuple(round(offsets[axis] / h) for axis in orders))
        return 1.0

    central_difference(f, h, **orders)
    nonzero = {1: (-1, 1), 2: (-1, 0, 1), 3: (-2, -1, 1, 2)}
    expected = set(itertools.product(*(nonzero[n] for n in orders.values())))
    assert sorted(calls) == sorted(expected)  # each once, none at zero weight


@functools.cache
def _default_pde_log_p(offsets: tuple) -> float:
    """Uncertified log P at the default grid shifted by offsets (one per
    _FD_AXES), on the study's contour at 48 nodes per ray."""
    grid = PdeGrid()
    tau, sigma, xi, eta, mu, nu = (getattr(grid, axis[1:]) + off
                                   for axis, off in zip(_FD_AXES, offsets))
    return log_gap_probability(GapQuery(
        family="pearcey", times=(tau - sigma, tau + sigma),
        windows=((xi - eta + nu, xi - eta - nu), (xi + eta + mu, xi + eta - mu)), m=grid.m,
        contour=replace(analysis._pde_contour(grid), nodes_per_ray=48), certify=False))


@pytest.mark.parametrize("orders", _PDE_DERIVATIVES)
def test_pde_partials_match_central_differences(orders):
    # each exact partial of the study's log det is the limit of central
    # differences of the library's log P: the error quarters as h halves
    grid = PdeGrid(nodes_per_ray=48)
    exact = analysis._pde_partials(grid, analysis._pde_contour(grid), 1)[
        analysis._index(axis[1:] for axis, k in orders.items() for _ in range(k))]
    errors = [central_difference(
        lambda **off: _default_pde_log_p(tuple(off.get(axis, 0.0) for axis in _FD_AXES)),
        h, **orders) - exact for h in (0.05, 0.025)]
    assert abs(errors[0]) <= 1e-3
    assert errors[0] / errors[1] == pytest.approx(4.0, abs=0.2)


def test_pde_study_computes_each_query_once(monkeypatch):
    # each level of the study is evaluated once: m for the probe and the
    # certificate, 2m for the reported terms
    _, levels = _recorded_run(monkeypatch, PdeGrid(nodes_per_ray=48), _constant_partials)
    assert levels == [(48, 1), (48, 2)]
    # constant partials settle at once, at 48 nodes per ray: the probe reads
    # m at 32 and 48, and only the settled count runs 2m
    _, levels = _recorded_run(monkeypatch, PdeGrid(), _constant_partials)
    assert levels == [(32, 1), (48, 1), (48, 2)]


def test_pde_fixed_ray_nodes_skip_the_probe(monkeypatch):
    rep, levels = _recorded_run(monkeypatch, PdeGrid(nodes_per_ray=128), _constant_partials)
    assert levels == [(128, 1), (128, 2)]
    assert rep.summary["nodes_per_ray"] == 128
    assert rep.summary["ray_convergence"] is None


def test_pde_ray_nodes_that_never_settle_raise(monkeypatch):
    # partials moving by 1/n at every level never agree within the tolerance
    with pytest.raises(AccuracyError, match="at the base point"):
        _recorded_run(monkeypatch, PdeGrid(),
                      lambda n: dict.fromkeys(analysis._PDE_PARTIALS, 1.0 / n))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"sigma": 0.0},
        {"mu": 0.3},
        {"nu": 0.0},
        {"tau": 0.25},
        {"tau": 9.8},
        {"sigma": 4.0},
        {"m": 24.5},
        {"m": np.float64(24.0)},
        {"m": 1},
        {"nodes_per_ray": 48.5},
        {"nodes_per_ray": 2},
    ],
)
def test_pde_grid_validation(kwargs):
    with pytest.raises(DomainError):
        PdeGrid(**kwargs)


def test_pde_grid_accepts_numpy_integers():
    grid = PdeGrid(m=np.int64(16), nodes_per_ray=np.int32(48))
    assert (grid.m, grid.nodes_per_ray) == (16, 48)


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
       for name in ("tau", "sigma", "xi", "eta", "mu", "nu", "m", "nodes_per_ray")},
}


@pytest.mark.parametrize("case", _NON_FINITE_CALLS)
def test_studies_reject_non_finite_numbers(case):
    study, args, kwargs = _NON_FINITE_CALLS[case]
    with pytest.raises(DomainError, match="must be"):
        study(*args, **kwargs)
