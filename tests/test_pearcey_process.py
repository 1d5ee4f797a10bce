import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from pearceygap.airy_process import airy_block_grid, airy_heat_term
from pearceygap.exceptions import (
    AccuracyError,
    ContourError,
    DomainError,
    StabilityError,
)
from pearceygap import pearcey_process
from pearceygap.analysis import PdeGrid, _pde_contour
from pearceygap.cli import _TAU1_DEFAULT
from pearceygap.fredholm import GapQuery, log_gap_probability
from pearceygap.pearcey_process import (
    PearceyContour,
    RecenterSpec,
    conjugated_block_grid,
    conjugated_gauss_grid,
    conjugated_tilde_grid,
    pearcey_block_grid,
    pearcey_gauss_term,
)
from pearceygap.scaling import ScalingParams, t_from_tau, tau_from_z, x_from_xi
from pearceygap.specfun import gauss_rule

from oracles import airy_kernel, seeded_pearcey_draws, xi_from_x


# a block takes its ray-node count from its contour; 128 nodes per ray is the
# count the pinned values below were computed at
_RAYS = PearceyContour(nodes_per_ray=128)


def brute_force_tilde(tau_i, tau_j, xi, eta, reach=7.0, n=1200):
    """Trapezoid evaluation on the default rays, Richardson-extrapolated."""

    def level(m):
        s = np.linspace(0.0, reach, m)
        w = np.full(m, reach / (m - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        xr = [
            (0.5, np.exp(1j * np.pi / 4), -1.0),
            (0.5, np.exp(-1j * np.pi / 4), +1.0),
            (-0.5, np.exp(3j * np.pi / 4), +1.0),
            (-0.5, np.exp(-3j * np.pi / 4), -1.0),
        ]
        yr = [(0.0, 1j, +1.0), (0.0, -1j, -1.0)]
        u = np.concatenate([v + d * s for v, d, _ in xr])
        wu = np.concatenate([sg * d * w for _, d, sg in xr])
        v_ = np.concatenate([v + d * s for v, d, _ in yr])
        wv = np.concatenate([sg * d * w for _, d, sg in yr])
        fu = wu * np.exp(u**4 / 4 - tau_i * u**2 / 2 + u * xi)
        fv = wv * np.exp(-(v_**4) / 4 + tau_j * v_**2 / 2 - v_ * eta)
        tot = 0.0 + 0.0j
        for s0 in range(0, v_.size, 512):
            e = min(s0 + 512, v_.size)
            tot += (fu[:, None] / (v_[None, s0:e] - u[:, None]) * fv[None, s0:e]).sum()
        return (-tot / (4 * np.pi**2)).real

    coarse, fine = level(n), level(2 * n)
    return fine + (fine - coarse) / 3.0


def test_tilde_matches_brute_force_quadrature():
    got = pearcey_block_grid(1.0, 1.0, 0.0, 0.0, _RAYS)[0, 0]
    ref = brute_force_tilde(1.0, 1.0, 0.0, 0.0)
    assert abs(got - ref) <= 1e-7


def test_tilde_matches_brute_force_two_time():
    got = pearcey_block_grid(2.0, 1.5, 0.7, -0.4, _RAYS)[0, 0]
    ref = brute_force_tilde(2.0, 1.5, 0.7, -0.4)
    assert abs(got - ref) <= 1e-7


def test_tilde_reflection_symmetry():
    a = pearcey_block_grid(2.0, 1.5, 0.7, -0.4, _RAYS)[0, 0]
    b = pearcey_block_grid(2.0, 1.5, -0.7, 0.4, _RAYS)[0, 0]
    assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_tilde_fixed_node_counts_converged():
    vals = [
        pearcey_block_grid(1.0, 1.0, 0.0, 0.0, PearceyContour(nodes_per_ray=n))[0, 0]
        for n in (256, 512)
    ]
    assert abs(vals[0] - vals[1]) <= 1e-11


def test_deformation_invariance_direct():
    rng = np.random.default_rng(11)
    base = pearcey_block_grid(2.0, 1.5, 0.7, -0.4, _RAYS)[0, 0]
    for _ in range(5):
        a = rng.uniform(np.pi / 8 + 0.06, 3 * np.pi / 8 - 0.06, size=4)
        b = rng.uniform(3 * np.pi / 8 + 0.06, 5 * np.pi / 8 - 0.06, size=2)
        contour = PearceyContour(
            sigma1=a[0], sigma1p=a[1], sigma2=a[2], sigma2p=a[3],
            tau_ang=b[0], tau_angp=b[1], nodes_per_ray=128,
        )
        assert abs(pearcey_block_grid(2.0, 1.5, 0.7, -0.4, contour)[0, 0] - base) <= 1e-9


@pytest.mark.parametrize(
    "field, angle",
    [
        ("sigma1", math.pi / 8 - 0.01),
        ("sigma1p", 3 * math.pi / 8 + 0.01),
        ("sigma2", 0.1),
        ("sigma2p", 1.3),
        ("tau_ang", math.pi / 4),
        ("tau_angp", 5 * math.pi / 8 + 0.01),
    ],
)
def test_contour_band_validation(field, angle):
    with pytest.raises(ContourError):
        PearceyContour(**{field: angle})


def test_contour_nodes_per_ray_must_be_an_integer():
    # 48.5 failed later, in the ray assembly, with a bare TypeError
    with pytest.raises(ContourError, match="nodes_per_ray must be an integer, .* got 48.5"):
        PearceyContour(nodes_per_ray=48.5)
    # a numpy integer is taken as the same count, so the cache record reads the same
    assert repr(PearceyContour(nodes_per_ray=np.int64(48))) == repr(
        PearceyContour(nodes_per_ray=48))


@pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_contour_radius_must_be_finite_and_positive(radius):
    # nan and inf were accepted and failed later, inside gauss_rule, naming no
    # contour field
    with pytest.raises(ContourError, match="radius must be finite"):
        PearceyContour(radius=radius)


def test_recenter_band_validation():
    with pytest.raises(ContourError):
        RecenterSpec(z=0.3, u_angle=math.pi / 6 - 0.01)
    with pytest.raises(ContourError):
        RecenterSpec(z=0.3, v_angle=math.pi / 2 + 0.01)
    # inside the Airy band but the residual quartic grows there
    with pytest.raises(ContourError):
        RecenterSpec(z=0.3, u_angle=1.25)
    with pytest.raises(ContourError):
        RecenterSpec(z=0.3, v_angle=math.pi / 3)


def test_gauss_term_values_and_domain():
    assert abs(pearcey_gauss_term(2.0, 1.3, 1.3) - 1.0 / math.sqrt(4 * math.pi)) <= 1e-14
    assert abs(
        pearcey_gauss_term(0.5, 1.0, 0.0)
        - math.exp(-1.0) / math.sqrt(math.pi)
    ) <= 1e-14
    assert pearcey_gauss_term(1.0, 0.2, 0.9) == pearcey_gauss_term(1.0, 0.9, 0.2)
    with pytest.raises(DomainError):
        pearcey_gauss_term(0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        pearcey_gauss_term(-1.0, 0.0, 0.0)


def test_block_gate_orders():
    t_lo, t_hi, xi, eta = 1.0, 2.5, 0.4, -0.2
    for tau_i, tau_j in ((t_lo, t_hi), (t_hi, t_lo), (t_lo, t_lo)):
        want = pearcey_process._tilde_grid(tau_i, tau_j, xi, eta, _RAYS)[0, 0]
        if tau_i < tau_j:
            want -= pearcey_gauss_term(tau_j - tau_i, xi, eta)
        assert abs(pearcey_block_grid(tau_i, tau_j, xi, eta, _RAYS)[0, 0] - want) <= 1e-14


def _recentred_contour(z):
    return PearceyContour(nodes_per_ray=128, recenter=RecenterSpec(z=z))


def test_direct_vs_recentred_single_time():
    z = (1.0 / (3.0 * 9.7)) ** (1.0 / 6.0)
    tau = tau_from_z(z, 0.0)
    xis = xi_from_x(tau, np.array([-0.5, 0.3, 1.2]))
    direct = pearcey_block_grid(tau, tau, xis, xis, _RAYS)
    recen = pearcey_block_grid(tau, tau, xis, xis, _recentred_contour(z))
    assert np.max(np.abs(recen - direct)) <= 1e-7 * np.max(np.abs(direct))


@pytest.mark.parametrize("order", ["ascending", "descending"])
def test_direct_vs_recentred_two_time(order):
    z = (1.0 / (3.0 * 9.7)) ** (1.0 / 6.0)
    ta, tb = (-0.3, 0.3) if order == "ascending" else (0.3, -0.3)
    tau_a, tau_b = tau_from_z(z, ta), tau_from_z(z, tb)
    xa = xi_from_x(tau_a, np.array([-0.5, 0.3, 1.2]))
    xb = xi_from_x(tau_b, np.array([-0.5, 0.3, 1.2]))
    direct = pearcey_block_grid(tau_a, tau_b, xa, xb, _RAYS)
    recen = pearcey_block_grid(tau_a, tau_b, xa, xb, _recentred_contour(z))
    assert np.max(np.abs(recen - direct)) <= 1e-7 * np.max(np.abs(direct))


def test_recentred_deformation_invariance():
    z = (1.0 / (3.0 * 9.7)) ** (1.0 / 6.0)
    tau = tau_from_z(z, 0.0)
    xis = xi_from_x(tau, np.array([0.0, 1.0]))
    base = pearcey_block_grid(tau, tau, xis, xis, _recentred_contour(z))
    rng = np.random.default_rng(23)
    for _ in range(3):
        ua = rng.uniform(np.pi / 6 + 0.05, 3 * np.pi / 8 - 0.05)
        va = rng.uniform(3 * np.pi / 8 + 0.02, np.pi / 2 - 0.02)
        contour = PearceyContour(
            nodes_per_ray=128, recenter=RecenterSpec(z=z, u_angle=ua, v_angle=va)
        )
        other = pearcey_block_grid(tau, tau, xis, xis, contour)
        assert np.max(np.abs(other - base)) <= 1e-9 * np.max(np.abs(base))


def test_recentred_requires_moderate_tau():
    z = 0.62  # tau ~ 5.9 at t = 0, ~3.4 at t = -0.5: below the cutoff
    t = -0.5
    tau = tau_from_z(z, t)
    assert tau < 5.0
    with pytest.raises(ContourError):
        pearcey_block_grid(
            tau, tau, np.array([1.0]), np.array([1.0]), _recentred_contour(z)
        )


def test_direct_overflow_raises_stability_error():
    tau = 960.0
    xi = xi_from_x(tau, 0.0)
    with pytest.raises(StabilityError):
        pearcey_block_grid(tau, tau, xi, xi, _RAYS)


def test_unconjugated_recentred_overflow_raises_stability_error():
    z = 0.2
    tau = tau_from_z(z, 0.0)
    xis = xi_from_x(tau, np.array([0.0]))
    with pytest.raises(StabilityError):
        pearcey_block_grid(tau, tau, xis, xis, _recentred_contour(z))


def test_insufficient_radius_raises_accuracy_error():
    with pytest.raises(AccuracyError):
        pearcey_block_grid(1.0, 1.0, 0.0, 0.0, PearceyContour(radius=2.0, nodes_per_ray=64))


def _companion_radius(coeffs):
    """The positive root of coeffs + [-budget], from numpy's companion matrix."""
    roots = np.roots([*coeffs, -(pearcey_process._LOG_EPS + 5.0)])
    real = roots[np.abs(roots.imag) < 1e-9].real
    return float(np.max(real[real > 0.0]))


def test_ray_radius_matches_the_companion_matrix_roots():
    # both callers' forms: the recentred cubic (c3/3) r^3 - lin r - b and the
    # direct quartic c4/4 r^4 - g2 r^2 - coord_max r - b, over and past the
    # ranges the studies reach
    rng = np.random.default_rng(2010)
    for _ in range(1000):
        cubic = [rng.uniform(1e-3, 30.0) / 3.0, 0.0, -rng.uniform(0.0, 1e3)]
        quartic = [0.25 * rng.uniform(0.02, 1.0), 0.0, -rng.uniform(0.0, 60.0),
                   -rng.uniform(0.0, 40.0)]
        for coeffs in (cubic, quartic):
            ref = _companion_radius(coeffs)
            assert pearcey_process._ray_radius(coeffs, 1.0) == pytest.approx(ref, rel=1e-14)


@pytest.mark.parametrize("coeffs", [
    [math.nan, 0.0, -1.0], [1.0, 0.0, math.nan], [math.inf, 0.0, -1.0],
    [0.25, 0.0, -math.inf, -1.0], [0.0, 0.0, -1.0], [-1.0, 0.0, -1.0],
    [1.0, 2.0, -1.0],  # a second sign change: no single positive root
    [1e-300, 0.0, 0.0, -1e300],  # the start overflows
])
def test_ray_radius_refuses_coefficients_without_one_finite_root(coeffs):
    with pytest.raises(ContourError, match="no admissible truncation radius"):
        pearcey_process._ray_radius(coeffs, 1.0)


def test_fixed_radius_blocks_share_one_ray_system():
    contour = PearceyContour(radius=4.5, nodes_per_ray=96)
    xs = np.linspace(-2.0, 2.5, 5)
    ys = np.linspace(-1.5, 3.0, 4)
    calls = [(2.0, 3.0, xs, ys), (3.0, 2.0, ys, xs + 0.3)]
    pearcey_process._ray_system.cache_clear()
    shared = [pearcey_block_grid(*c, contour) for c in calls]
    info = pearcey_process._ray_system.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    for c, got in zip(calls, shared):
        pearcey_process._ray_system.cache_clear()
        assert np.array_equal(pearcey_block_grid(*c, contour), got)


def test_determinant_walk_reuses_each_ray_system(monkeypatch):
    # a fixed radius with nodes_per_ray=0: the determinant walks the ray
    # ladder at m (32, then 48, where it settles) and runs 2m at 48, all on
    # one ray geometry, so the Cauchy matrix is built once per level; each
    # level looks it up once per u side (its two windows), and the blocks
    # that share a u side and the Y rays share that side's product with it
    query = GapQuery(family="pearcey", times=(3, 4), windows=((-3, 3), (-3.5, 3.5)),
                     contour=PearceyContour(radius=4.5))
    cached = pearcey_process._ray_system
    cached.cache_clear()
    value = log_gap_probability(query)
    info = cached.cache_info()
    assert (info.misses, info.hits) == (2, 4)
    # reuse changes no bit: a fresh build for every call gives the same log P
    monkeypatch.setattr(pearcey_process, "_ray_system", cached.__wrapped__)
    assert log_gap_probability(query) == value
    # and the walk's count gives the same log P as that count fixed
    fixed = PearceyContour(radius=4.5, nodes_per_ray=48)
    assert log_gap_probability(replace(query, contour=fixed)) == value


def _four_ray_direct(tau_i, tau_j, xis, etas, n):
    """The direct K-tilde grid summed over all four X rays and both Y rays,
    with the sum of its terms' magnitudes, the scale of its rounding."""
    contour = PearceyContour(nodes_per_ray=n)
    u, wu = pearcey_process._signed_rays(
        pearcey_process._x_rays(contour, tau_i, np.max(np.abs(xis))), n)
    v, wv = pearcey_process._signed_rays(
        pearcey_process._y_rays(contour, tau_j, np.max(np.abs(etas))), n)
    u, v = u[:, None], v[:, None]
    fu = np.exp(u**4 / 4 - tau_i * u**2 / 2 + u * xis)
    fv = np.exp(-(v**4) / 4 + tau_j * v**2 / 2 - v * etas)
    cauchy = wu[:, None] / (v.T - u) * wv
    pref = -1.0 / (4 * math.pi**2)
    return pref * (fu.T @ cauchy @ fv), abs(pref) * (np.abs(fu).T @ np.abs(cauchy) @ np.abs(fv))


def _two_ray_conjugated(z, t_i, t_j, xs, ys, n):
    """The conjugated recentred K-tilde grid summed over both u rays and both
    v rays, with the sum of its terms' magnitudes."""
    cu, cv = pearcey_process._side_coeffs(z, t_i), pearcey_process._side_coeffs(z, t_j)
    side, spec = pearcey_process._recentred_side, RecenterSpec(z=z)
    (u_ray,) = side({}, spec, n, "u", t_i, xs, True, 0.4 + max(0.0, t_j - t_i))[0]
    v_rays = side({}, spec, n, "v", t_j, ys, True, -0.4)[0]
    vertex, angle, sign, radius = u_ray
    u, wu = pearcey_process._signed_rays([u_ray, (vertex, -angle, -sign, radius)], n)
    v, wv = pearcey_process._signed_rays(v_rays, n)
    quartic, conj_h = pearcey_process._quartic, pearcey_process._conj_h
    fu = np.exp(-(quartic(cu, u)[:, None] + (cu["q0"] + cu["q1"] * u)[:, None] * xs)
                - conj_h(z, xs, t_i))
    fv = np.exp(quartic(cv, v)[:, None] + (cv["q0"] + cv["q1"] * v)[:, None] * ys
                + conj_h(z, ys, t_j))
    cauchy = wu[:, None] / ((z * (t_j - t_i) + cv["B"] * v)[None, :] - (cu["B"] * u)[:, None]) * wv
    pref = -cu["B"] * cv["B"] / (4 * math.pi**2) * (9 * cu["tau"] * cv["tau"]) ** (1 / 12)
    return pref * (fu.T @ cauchy @ fv), abs(pref) * (np.abs(fu).T @ np.abs(cauchy) @ np.abs(fv))


def test_folded_direct_blocks_match_the_four_ray_sum():
    # every block of the seeded sweep's queries at both of its window node
    # counts.  The error is relative to the sum of the terms' magnitudes: the
    # blocks cancel by up to 3e3, so against the block itself any float64 sum,
    # this unfolded one too, is off by up to 3e-13 from an 80-bit one
    for times, windows in seeded_pearcey_draws():
        for m in (20, 40):
            pts = [gauss_rule(m, a, b).nodes for a, b in windows]
            for (tau_i, xis), (tau_j, etas) in itertools.product(zip(times, pts), repeat=2):
                got = pearcey_process._tilde_grid(tau_i, tau_j, xis, etas,
                                                  PearceyContour(nodes_per_ray=48))
                ref, scale = _four_ray_direct(tau_i, tau_j, xis, etas, 48)
                assert np.max(np.abs(got - ref.real) / scale) <= 1e-14


def _four_ray_sides(tau_i, tau_j, xis, etas, n):
    """Signed nodes and weights of all four X rays and both Y rays, and the
    exponentials of both sides, for the block (tau_i, xis) x (tau_j, etas)."""
    contour = PearceyContour(nodes_per_ray=n)
    u, wu = pearcey_process._signed_rays(
        pearcey_process._x_rays(contour, tau_i, np.max(np.abs(xis))), n)
    v, wv = pearcey_process._signed_rays(
        pearcey_process._y_rays(contour, tau_j, np.max(np.abs(etas))), n)
    fu = np.exp(u[:, None] ** 4 / 4 - tau_i * u[:, None] ** 2 / 2 + u[:, None] * xis)
    fv = np.exp(-(v[:, None] ** 4) / 4 + tau_j * v[:, None] ** 2 / 2 - v[:, None] * etas)
    return u, wu, fu, v, wv, fv


def test_moment_grids_match_the_four_ray_sums():
    # the v^d-weighted blocks and the single-side sums of two seeded queries
    # (every window its own ray system), against the double sums over all
    # four X rays, relative to the sum of the terms' magnitudes; the Gaussian
    # term's x-derivatives against their closed forms
    powers, moments, pref = 3, 4, -1.0 / (4 * math.pi**2)
    for times, windows in seeded_pearcey_draws()[:2]:
        pts = [gauss_rule(16, a, b).nodes for a, b in windows]
        grids, su, sv = pearcey_process.direct_moment_grids(
            times, pts, PearceyContour(nodes_per_ray=48), powers, moments)
        for i, j in itertools.product(range(2), repeat=2):
            u, wu, fu, v, wv, fv = _four_ray_sides(times[i], times[j], pts[i], pts[j], 48)
            cauchy = wu[:, None] / (v[None, :] - u[:, None]) * wv
            dx = pts[i][:, None] - pts[j][None, :]
            dt = times[j] - times[i]
            for d in range(powers):
                ref = pref * (fu.T @ (cauchy * v**d) @ fv)
                scale = abs(pref) * (np.abs(fu).T @ np.abs(cauchy * v**d) @ np.abs(fv))
                if dt > 0:
                    p = pearcey_gauss_term(dt, pts[i][:, None], pts[j][None, :])
                    gauss = [p, -dx / dt * p, (dx**2 / dt**2 - 1 / dt) * p][d]
                    ref = ref - gauss
                    scale = scale + [p, np.abs(dx) / dt * p, (dx**2 / dt**2 + 1 / dt) * p][d]
                assert np.max(np.abs(grids[i, j][d] - ref.real) / scale) <= 1e-14
            # (u - v) cancels 1 / (v - u): -pref times the product of two sums
            for p_, q in itertools.product(range(moments), repeat=2):
                lo, hi = (wu * u**p_) @ fu, (wv * v**q) @ fv
                ref = -pref * np.outer(lo, hi)
                scale = abs(pref) * np.outer(np.abs(wu * u**p_) @ np.abs(fu),
                                             np.abs(wv * v**q) @ np.abs(fv))
                got = np.outer(su[i][p_], sv[j][q]).real
                assert np.max(np.abs(got - ref.real) / scale) <= 1e-14
        assert np.array_equal(grids[0, 1][0], pearcey_block_grid(
            times[0], times[1], pts[0], pts[1], PearceyContour(nodes_per_ray=48)))


def test_moment_grids_need_a_folding_contour():
    with pytest.raises(ContourError, match="folded"):
        pearcey_process.direct_moment_grids(
            (1.0, 2.0), (np.zeros(2), np.ones(2)),
            PearceyContour(sigma1p=0.7, nodes_per_ray=48), 1, 1)


def test_folded_conjugated_blocks_match_the_two_ray_sum():
    # every block of the default theorem study: its tau1 grid, the Airy
    # times -0.5 and 0.5, window (-1, 6) at m = 30, 64 nodes per ray
    xs = gauss_rule(30, -1.0, 6.0).nodes
    for tau1 in _TAU1_DEFAULT:
        p = ScalingParams.for_theorem(tau1, -0.5, 0.5)
        for t_i, t_j in itertools.product((p.t1, p.t2), repeat=2):
            got = conjugated_tilde_grid(p.z, t_i, t_j, xs, xs, PearceyContour(nodes_per_ray=64))
            ref, scale = _two_ray_conjugated(p.z, t_i, t_j, xs, xs, 64)
            assert np.max(np.abs(got - ref.real) / scale) <= 1e-14


def test_recentred_blocks_share_sides_without_changing_a_bit():
    # the blocks of a two-time conjugated level built into one sides dict,
    # each against itself built alone
    p = ScalingParams.for_theorem(30.0, -0.5, 0.5)
    contour = PearceyContour(nodes_per_ray=64)
    pts = {p.t1: gauss_rule(30, -1.0, 6.0).nodes, p.t2: gauss_rule(24, -0.5, 4.0).nodes}
    sides = {}
    for t_i, t_j in itertools.product(pts, repeat=2):
        shared = conjugated_block_grid(p.z, t_i, t_j, pts[t_i], pts[t_j], contour, sides)
        alone = conjugated_block_grid(p.z, t_i, t_j, pts[t_i], pts[t_j], contour)
        assert np.array_equal(shared, alone)
    # a raw and a conjugated block at the raw block's Airy time and points,
    # whose sides differ only in the conjugation, into one dict in either order
    z = (1.0 / (3.0 * 9.7)) ** (1.0 / 6.0)
    tau = tau_from_z(z, 0.0)
    xis = xi_from_x(tau, np.array([-0.5, 0.3, 1.2]))
    t, xs = t_from_tau(tau, z), x_from_xi(xis, tau)
    contour = _recentred_contour(z)
    blocks = [lambda sides: pearcey_block_grid(tau, tau, xis, xis, contour, sides),
              lambda sides: conjugated_block_grid(z, t, t, xs, xs, contour, sides)]
    alone = [block(None) for block in blocks]
    for order in ((0, 1), (1, 0)):
        sides = {}
        for k in order:
            assert np.array_equal(blocks[k](sides), alone[k])


def test_direct_blocks_share_sides_without_changing_a_bit():
    # a two-time direct level built into one sides dict, each block against
    # itself built alone; each u side holds the upper X pair of the four rays
    contour = PearceyContour(nodes_per_ray=48)
    pts = {3.0: gauss_rule(20, -3.0, 3.0).nodes, 4.0: gauss_rule(20, -3.5, 3.5).nodes}
    sides = {}
    for tau_i, tau_j in itertools.product(pts, repeat=2):
        shared = pearcey_block_grid(tau_i, tau_j, pts[tau_i], pts[tau_j], contour, sides)
        alone = pearcey_block_grid(tau_i, tau_j, pts[tau_i], pts[tau_j], contour)
        assert np.array_equal(shared, alone)
    for tau, xs in pts.items():
        rays = pearcey_process._side(sides, contour, 48, "u", tau, xs)[0]
        assert rays == tuple(pearcey_process._x_rays(contour, tau, np.max(np.abs(xs)))[:2])


def test_default_contour_folds_its_x_rays(monkeypatch):
    # one ray of each conjugate X pair against both Y rays: the Cauchy
    # matrix has 2n rows, not 4n
    built, build = [], pearcey_process._ray_system.__wrapped__

    def spy(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(pearcey_process, "_ray_system", spy)
    pearcey_block_grid(2.0, 1.5, 0.7, -0.4, PearceyContour(nodes_per_ray=48))
    ((u, v, cauchy),) = built
    assert cauchy.shape == (2 * 48, 2 * 48)


@pytest.mark.parametrize("field", ["sigma1p", "sigma2p", "tau_angp"])
def test_asymmetric_contour_checks_its_imaginary_residue(field, monkeypatch):
    # a contour that is not its own mirror image sums all four X rays, whose
    # imaginary residue _to_real checks; the folded sum is real by construction
    checked = []
    to_real = pearcey_process._to_real
    monkeypatch.setattr(pearcey_process, "_to_real", lambda g: checked.append(g) or to_real(g))
    folded = pearcey_block_grid(2.0, 1.5, 0.7, -0.4, _RAYS)
    assert not checked
    angle = getattr(_RAYS, field) + 0.05
    skewed = pearcey_block_grid(2.0, 1.5, 0.7, -0.4, replace(_RAYS, **{field: angle}))
    assert len(checked) == 1
    assert abs(skewed[0, 0] - folded[0, 0]) <= 1e-9


def test_block_without_a_ray_count_raises():
    # 0 is sized once per determinant or per study, never by a block
    calls = [
        lambda: pearcey_block_grid(1.0, 2.0, 0.3, -0.2),
        lambda: pearcey_block_grid(1.0, 2.0, 0.3, -0.2, PearceyContour()),
        lambda: pearcey_block_grid(1.0, 2.0, 0.3, -0.2,
                                   PearceyContour(recenter=RecenterSpec(z=0.3))),
        lambda: conjugated_block_grid(0.3, -0.5, 0.5, 0.3, -0.2),
        lambda: conjugated_tilde_grid(0.3, -0.5, 0.5, 0.3, -0.2, PearceyContour()),
    ]
    for call in calls:
        with pytest.raises(ContourError, match="needs nodes_per_ray >= 4"):
            call()


def test_pinned_kernel_values():
    # absolute values, pinned so that a change of the kernel numerics shows
    # even where two representations would move together
    contour = _pde_contour(PdeGrid(nodes_per_ray=384))  # the pde study's radius
    xs = np.array([1.75, 2.75, 3.75])
    ys = np.array([2.25, 3.25, 4.25])
    direct = pearcey_block_grid(3.5, 4.5, xs, ys, contour)
    direct_ref = np.array([
        [-0.339359827577988, -0.12127474208766839, -0.013201105152410582],
        [-0.2796069617339011, -0.30454010980847646, -0.10421038041356474],
        [0.21932072501835057, -0.11970943885227486, -0.22584187376266748],
    ])
    p = ScalingParams.for_theorem(30.0, -0.5, 0.5)
    xa = np.array([-1.0, 2.5, 6.0])
    conj = conjugated_block_grid(p.z, p.t1, p.t2, xa, xa, _RAYS)
    conj_ref = np.array([
        [-0.16118940531603398, -0.00025843142207109156, 2.6148182237094537e-06],
        [-0.00025712118923993613, -0.025115019339895028, -0.0002053031590030236],
        [2.6244148717629667e-06, -0.0002055318557081313, -0.0007561493970610092],
    ])
    # raw recentred blocks at the points of test_direct_vs_recentred_two_time,
    # ascending and descending: the only mode that undoes the conjugation
    z = (1.0 / (3.0 * 9.7)) ** (1.0 / 6.0)
    tau_lo, tau_hi = tau_from_z(z, -0.3), tau_from_z(z, 0.3)
    pts = np.array([-0.5, 0.3, 1.2])
    xi_lo, xi_hi = xi_from_x(tau_lo, pts), xi_from_x(tau_hi, pts)
    raw_cases = [
        (tau_lo, tau_hi, xi_lo, xi_hi, [
            [-0.0002716118919570002, -0.003327832845752534, -0.022703778546389882],
            [-2.167294317551682e-05, -0.00048461024004584844, -0.006644176625182171],
            [-5.571233655774087e-07, -2.502819531539832e-05, -0.0006682637326798326],
        ]),
        (tau_hi, tau_lo, xi_hi, xi_lo, [
            [38.71250608322739, 175.00677650751518, 664.1812776419323],
            [1.1350812555518641, 5.21772472860957, 20.06199554139855],
            [0.016216378460301297, 0.07550971447307157, 0.2932540481808132],
        ]),
    ]
    # Airy blocks at ascending, descending and equal times (row and column
    # points differ in the first two), and below -20 so that the lambda
    # rule's tail length L = 10 - min point exceeds 30
    xb, yb = np.array([-1.0, 0.5, 2.0]), np.array([-0.5, 1.5])
    low_x, low_y = np.array([-21.0, -20.5]), np.array([-20.75, -20.0])
    airy_cases = [
        (-0.5, 0.5, xb, yb, [
            [-0.1628765120758625, -0.01419031773130145],
            [-0.133278347929429, -0.07800712874815302],
            [-0.018731334847722214, -0.04888041198821451],
        ]),
        (0.5, -0.5, xb, yb, [
            [0.1265102566550529, 0.01397854449840186],
            [0.04033676609895755, 0.00471303947741576],
            [0.005174861605919593, 0.0006221091553464445],
        ]),
        (0.25, 0.25, xb, xb, [
            [0.2869286968369929, 0.0787327633976598, 0.009359428070152382],
            [0.0787327633976598, 0.023743784061459574, 0.002963931908357689],
            [0.009359428070152382, 0.0029639319083576894, 0.0003791991476692681],
        ]),
        (0.3, -0.3, low_x, low_y, [
            [0.027917884010428166, -0.021526416101551774],
            [0.025606513438667017, -0.03123765348912383],
        ]),
    ]
    pairs = [(direct, direct_ref), (conj, conj_ref)]
    pairs += [(pearcey_block_grid(t_i, t_j, x, y, _recentred_contour(z)), np.array(ref))
              for t_i, t_j, x, y, ref in raw_cases]
    pairs += [(airy_block_grid(t_i, t_j, x, y), np.array(ref))
              for t_i, t_j, x, y, ref in airy_cases]
    for got, ref in pairs:
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("z, expected_ratio", [(0.3, None), (0.25, None)])
def test_conjugated_block_equal_mean_time_rate(z, expected_ratio):
    # at t = 0 the conjugated two-time block matches the extended Airy block
    # to O(z^8); the prefactor stays near 0.05 for these points
    pts = [(-0.4, 0.7), (0.2, 0.2), (1.0, -0.6)]
    p = ScalingParams.from_z(z, 0.0, 0.5)
    res = max(
        abs(conjugated_block_grid(p.z, p.t1, p.t2, x, y, _RAYS)[0, 0]
            - airy_block_grid(p.t1, p.t2, x, y)[0, 0])
        for x, y in pts
    )
    assert res <= 0.08 * z**8
    assert res >= 0.02 * z**8


def test_conjugated_block_rate_degrades_to_z4_off_centre():
    pts = [(-0.4, 0.7), (0.2, 0.2), (1.0, -0.6)]
    res = {}
    for z in (0.3, 0.2):
        p = ScalingParams.from_z(z, 0.5, 0.5)
        res[z] = max(
            abs(conjugated_block_grid(p.z, p.t1, p.t2, x, y, _RAYS)[0, 0]
                - airy_block_grid(p.t1, p.t2, x, y)[0, 0])
            for x, y in pts
        )
        assert res[z] <= 0.03 * z**4
    ratio = res[0.2] / res[0.3]
    assert abs(ratio - (0.2 / 0.3) ** 4) <= 0.25 * (0.2 / 0.3) ** 4


def test_conjugated_gauss_matches_heat_term_rate():
    xs = np.array([-0.4, 0.2, 1.0])
    ys = np.array([0.7, 0.2, -0.6])
    for z in (0.3, 0.2):
        p = ScalingParams.from_z(z, 0.0, 0.5)
        g = conjugated_gauss_grid(p.z, p.t2, p.t1, xs, ys)
        h = airy_heat_term(p.t1 - p.t2, xs[:, None], ys[None, :])
        assert np.max(np.abs(g - h)) <= 0.7 * z**8


def test_conjugated_single_time_approaches_airy_kernel():
    xs = np.array([-0.5, 0.4, 1.3])
    ref = np.array([[airy_kernel(x, y) for y in xs] for x in xs])
    for tau, tol in ((200.0, 2e-4), (800.0, 5e-5)):
        p = ScalingParams.for_single_time(tau)
        grid = conjugated_tilde_grid(p.z, p.t1, p.t1, xs, xs, _RAYS)
        assert np.max(np.abs(grid - ref)) <= tol


def test_conjugated_gate_matches_block_composition():
    p = ScalingParams.from_z(0.3, 0.0, 0.5)
    xs = np.array([-0.2, 0.5])
    ys = np.array([0.1, 0.8])
    fwd = conjugated_block_grid(p.z, p.t2, p.t1, xs, ys, _RAYS)
    parts = (conjugated_tilde_grid(p.z, p.t2, p.t1, xs, ys, _RAYS)
             - conjugated_gauss_grid(p.z, p.t2, p.t1, xs, ys))
    assert np.max(np.abs(fwd - parts)) == 0.0
    rev = conjugated_block_grid(p.z, p.t1, p.t2, xs, ys, _RAYS)
    assert np.max(np.abs(rev - conjugated_tilde_grid(p.z, p.t1, p.t2, xs, ys, _RAYS))) == 0.0
