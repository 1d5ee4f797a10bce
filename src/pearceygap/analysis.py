"""Quantitative studies: the two differential identities of the extended
Airy kernel, the small-z kernel convergence order, the large-time statistics
convergence order, and the third-order PDE satisfied by two-time Pearcey gap
probabilities.

Every study returns a StudyReport: a flat table (deterministic column order)
plus a summary dictionary with the fitted quantities and pass criteria, so
the command-line layer can serialize results without re-deriving anything.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields as dataclass_fields, replace

import numpy as np

from .airy_process import airy_block_grid
from .exceptions import AccuracyError, DomainError, PearceyGapError
from .fredholm import GapQuery, log_gap_probability
from .pearcey_process import PearceyContour, conjugated_block_grid, ray_radius_bound
from .scaling import ScalingParams, match_tau2, t_from_tau
from .specfun import airy_derivs_upto, gauss_rule

__all__ = [
    "PsiOperator",
    "StudyReport",
    "PdeGrid",
    "identity1_residual",
    "identity2_residual",
    "identity_grid_study",
    "proposition_slope",
    "theorem_ratio_study",
    "pde_residual",
]


@dataclass(frozen=True)
class PsiOperator:
    """The quartic symbol Psi(x, s; w) = w^4/4 + (3/2) s^2 w^2 - 4s(xw - w^3).

    coefficients() lists ascending powers of w; substituting a derivative for
    w turns the symbol into the differential operator of the identities.
    """

    x: float
    s: float

    def coefficients(self):
        return (
            0.0,
            -4.0 * self.s * self.x,
            1.5 * self.s * self.s,
            4.0 * self.s,
            0.25,
        )

    def __call__(self, w):
        c = self.coefficients()
        return c[1] * w + c[2] * w**2 + c[3] * w**3 + c[4] * w**4


@dataclass
class StudyReport:
    """Result of one study: input echo, per-point table, fitted summary, and
    a pass/fail/inconclusive verdict.  Wall-clock and environment metadata are
    attached by the command-line layer, segregated from the data rows."""

    name: str
    columns: tuple
    rows: list
    summary: dict
    passed: bool | None  # None marks an inconclusive outcome
    inputs: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        if self.passed is None:
            return "inconclusive"
        return "pass" if self.passed else "fail"


# ---------------------------------------------------------------------------
# differential identities


def _product_integrals(x, y, decay, lam_power, orders, cut=32.0, n=420):
    """D^{jk} = int_0^inf lam^p e^{-decay*lam} Ai^(j)(x+lam) Ai^(k)(y+lam)."""
    rule = gauss_rule(n, 0.0, cut)
    ax = airy_derivs_upto(x + rule.nodes, 4)
    ay = airy_derivs_upto(y + rule.nodes, 4)
    w = rule.weights * np.exp(-decay * rule.nodes)
    if lam_power:
        w = w * rule.nodes**lam_power
    return {(j, k): float(np.sum(w * ax[j] * ay[k])) for j, k in orders}


_ID_ORDERS = [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (0, 1), (0, 2), (0, 3), (0, 4)]


def _apply_sides(d, cx, cy):
    """Psi(x,s;-d/dx) - Psi(y,s';d/dy) acting on the product integrals."""
    lhs = 0.0
    for k in range(1, 5):
        lhs += cx[k] * (-1.0) ** k * d[(k, 0)]
        lhs -= cy[k] * d[(0, k)]
    return lhs


def identity1_residual(x: float, y: float, s: float) -> float:
    """Residual of the first differential identity of the kernel
    K(x, y) = int_0^inf Ai(x+lam) Ai(y+lam) dlam at spectral parameter s."""
    d = _product_integrals(float(x), float(y), 0.0, 0, _ID_ORDERS)
    lhs = _apply_sides(d, PsiOperator(x, s).coefficients(), PsiOperator(y, s).coefficients())
    lhs += 4.0 * s * d[(0, 0)]
    rhs = 0.25 * (x - y) * (x + y + 6.0 * s * s) * d[(0, 0)]
    return lhs - rhs


def identity2_residual(x: float, y: float, s: float) -> float:
    """Residual of the second identity, for the symmetrized kernel
    K_s(x, y) = int_0^inf e^{-2 s lam} Ai(x+lam) Ai(y+lam) dlam."""
    d = _product_integrals(float(x), float(y), 2.0 * s, 0, _ID_ORDERS)
    dlam = _product_integrals(float(x), float(y), 2.0 * s, 1, [(1, 0), (0, 1)])
    lhs = _apply_sides(d, PsiOperator(x, s).coefficients(), PsiOperator(y, -s).coefficients())
    lhs += 3.0 * s * (dlam[(1, 0)] - dlam[(0, 1)])
    rhs = 0.25 * (x - y) * (x + y + 6.0 * s * s) * d[(0, 0)]
    return lhs - rhs


def identity_grid_study(
    x_grid=None, y_grid=None, s_grid=(0.1, 0.3, 0.6), tolerance=1e-7
) -> StudyReport:
    """Both identity residuals tabulated over a (x, y, s) product grid."""
    x_grid = np.linspace(-1.0, 1.0, 5) if x_grid is None else np.asarray(x_grid, float)
    y_grid = np.linspace(-1.0, 1.0, 5) if y_grid is None else np.asarray(y_grid, float)
    if tolerance <= 0.0:
        raise DomainError("tolerance must be positive")
    if 0 in (len(x_grid), len(y_grid), len(s_grid)):
        raise DomainError("identity x, y and s grids need at least one point each")
    rows = []
    for s in s_grid:
        for x in x_grid:
            for y in y_grid:
                r1 = identity1_residual(float(x), float(y), float(s))
                r2 = identity2_residual(float(x), float(y), float(s))
                rows.append((float(x), float(y), float(s), r1, r2))
    worst1 = max(abs(r[3]) for r in rows)
    worst2 = max(abs(r[4]) for r in rows)
    summary = {
        "max_abs_identity1": worst1,
        "max_abs_identity2": worst2,
        "tolerance": tolerance,
        "points": len(rows),
    }
    return StudyReport(
        name="identities",
        columns=("x", "y", "s", "identity1_residual", "identity2_residual"),
        rows=rows,
        summary=summary,
        passed=worst1 <= tolerance and worst2 <= tolerance,
        inputs={
            "x_grid": [float(v) for v in x_grid],
            "y_grid": [float(v) for v in y_grid],
            "s_grid": [float(v) for v in s_grid],
            "tolerance": tolerance,
        },
    )


# ---------------------------------------------------------------------------
# kernel convergence order (small z)


def _loglog_fit(xs, ys):
    lx, ly = np.log(np.asarray(xs, dtype=float)), np.log(np.asarray(ys, dtype=float))
    a = np.vstack([lx, np.ones_like(lx)]).T
    (slope, intercept), res, *_ = np.linalg.lstsq(a, ly, rcond=None)
    pred = a @ np.array([slope, intercept])
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2, math.sqrt(ss_res / len(xs))


_DEFAULT_POINTS = ((-0.4, 0.7), (0.2, 0.2), (1.0, -0.6), (-1.0, 1.5))


def _kernel_residual(params: ScalingParams, points, contour=None) -> float:
    """Max |conjugated Pearcey - extended Airy| over both time orders and
    all four blocks at the given evaluation points."""
    t = {1: params.t1, 2: params.t2}
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    worst = 0.0
    for i in (1, 2):
        for j in (1, 2):
            conj = conjugated_block_grid(params, i, j, xs, ys, contour)
            ref = airy_block_grid(t[i], t[j], xs, ys)
            worst = max(worst, float(np.max(np.abs(np.diag(conj - ref)))))
    return worst


def proposition_slope(
    t: float,
    s: float,
    z_grid=None,
    sample_points=_DEFAULT_POINTS,
) -> StudyReport:
    """Fit the decay order of the conjugated-kernel error against z.

    Expected order: 8 when the two times average to zero, 4 otherwise.
    """
    if z_grid is None:
        z_grid = np.geomspace(0.35, 0.15, 6)
    z_grid = np.sort(np.asarray(z_grid, dtype=float))[::-1]
    if z_grid.size < 2:
        raise DomainError("z grid needs at least two points for a fit")
    if np.any((z_grid <= 0.0) | (z_grid > 0.5)):
        raise DomainError("z grid must lie inside (0, 0.5]")
    if abs(t) > 1.0 or not 0.0 < abs(s) <= 1.0:
        raise DomainError(f"need |t| <= 1 and 0 < |s| <= 1, got t={t}, s={s}")
    rows = []
    residuals = []
    for z in z_grid:
        params = ScalingParams.from_z(float(z), t, s)
        try:
            res = _kernel_residual(params, sample_points)
        except PearceyGapError as exc:
            raise type(exc)(
                f"kernel evaluation failed at z={z}, points={sample_points}: {exc}"
            ) from exc
        residuals.append(res)
        rows.append((float(z), res))
    slope, intercept, r2, rms = _loglog_fit(z_grid, residuals)

    # node-doubling stability probe at the middle z
    mid = ScalingParams.from_z(float(z_grid[len(z_grid) // 2]), t, s)
    fixed = [
        _kernel_residual(mid, sample_points, PearceyContour(nodes_per_ray=n))
        for n in (192, 384)
    ]
    refine_change = abs(fixed[1] - fixed[0]) / max(abs(fixed[1]), 1e-300)

    expected = 8.0 if abs(t) < 1e-12 else 4.0
    summary = {
        "t": t,
        "s": s,
        "slope": slope,
        "intercept": intercept,
        "r2": r2,
        "fit_rms": rms,
        "expected_slope": expected,
        "refine_rel_change": refine_change,
    }
    passed = (
        abs(slope - expected) <= 0.5 and r2 >= 0.99 and refine_change < 0.01
    )
    return StudyReport(
        name="prop21",
        columns=("z", "residual"),
        rows=rows,
        summary=summary,
        passed=passed,
        inputs={
            "t": t,
            "s": s,
            "z_grid": [float(z) for z in z_grid],
            "sample_points": [list(p) for p in sample_points],
        },
    )


# ---------------------------------------------------------------------------
# statistics convergence order (large tau)


def _theorem_params(tau1: float, t1, t2, single_time: bool) -> ScalingParams:
    if single_time:
        return ScalingParams.for_single_time(tau1)
    return ScalingParams.for_theorem(tau1, t1, t2)


def _ratio_deviation(params, windows, m, single_time, certify, airy_log_p) -> float:
    """R = P_pearcey / P_airy - 1 over the shared windows; ``airy_log_p(certify)``
    is the tau1-independent Airy reference log P."""
    # kernel times ascending; window k belongs to process time k
    times = (0.0,) if single_time else (params.t1, params.t2)
    qp = GapQuery(
        family="pearcey-conjugated",
        times=times,
        windows=windows,
        m=m,
        params=params,
        certify=certify,
    )
    return math.expm1(log_gap_probability(qp) - airy_log_p(certify))


def theorem_ratio_study(
    tau1_grid,
    t1: float = -0.5,
    t2: float = 0.5,
    airy_windows=((-1.0, 6.0), (-1.0, 6.0)),
    m: int = 30,
    single_time: bool = False,
    ablate: bool = True,
    certify: bool = True,
) -> StudyReport:
    """Decay order of the gap-probability ratio deviation in tau1.

    The expected order is -4/3.  Every point carries an m -> 2m refinement
    certificate; uncertified points are kept in the table (certified = 0) but
    excluded from the fit.  The ablation drops the product term of the
    second-time matching rule and refits: the law must visibly break.
    """
    tau1_grid = np.asarray(tau1_grid, dtype=float)
    if np.any(tau1_grid <= 0.0):
        raise DomainError("tau1 grid must be positive")
    if np.any(np.diff(tau1_grid) <= 0.0):
        raise DomainError("tau1 grid must be strictly ascending")
    if tau1_grid.size < 2:
        raise DomainError("tau1 grid needs at least two points for a fit")
    for w in airy_windows:
        if w is None or not (np.isfinite(w[0]) and np.isfinite(w[1])):
            raise DomainError(f"windows must be finite intervals, got {w}")
    airy_times = (0.0,) if single_time else (t1, t2)
    windows = (airy_windows[0],) if single_time else tuple(airy_windows)

    @functools.cache
    def airy_log_p(cert: bool) -> float:
        return log_gap_probability(
            GapQuery(family="airy", times=airy_times, windows=windows, m=m, certify=cert)
        )

    rows = []
    trusted = []
    devs = []
    devs_ablated = []
    for tau1 in tau1_grid:
        params = _theorem_params(float(tau1), t1, t2, single_time)
        try:
            r = _ratio_deviation(params, windows, m, single_time, certify, airy_log_p)
            ok = True
        except AccuracyError:
            r = _ratio_deviation(params, windows, m, single_time, False, airy_log_p)
            ok = False
        trusted.append(ok)
        if ok:
            devs.append(abs(r))
        row = {
            "tau1": float(tau1),
            "tau2": params.tau2,
            "z": params.z,
            "ratio_dev": r,
            "certified": int(ok),
        }
        if ablate and not single_time:
            d = t2 - t1
            tau2_ab = match_tau2(float(tau1), t1, t2) - 4.0 * d * t1 * t2 / (3.0 * tau1)
            ablated = replace(params, t2=t_from_tau(tau2_ab, params.z), tau2=tau2_ab)
            r_ab = _ratio_deviation(ablated, windows, m, single_time, False, airy_log_p)
            devs_ablated.append(abs(r_ab))
            row["ratio_dev_ablated"] = r_ab
        rows.append(row)

    fit_taus = tau1_grid[np.array(trusted)]
    if fit_taus.size < 2:
        raise AccuracyError("fewer than two certified points; no fit possible")
    slope, intercept, r2, rms = _loglog_fit(fit_taus, devs)
    summary = {
        "t1": t1,
        "t2": t2,
        "single_time": single_time,
        "slope": slope,
        "intercept": intercept,
        "r2": r2,
        "fit_rms": rms,
        "expected_slope": -4.0 / 3.0,
        "untrusted_points": int(len(trusted) - sum(trusted)),
    }
    columns = ["tau1", "tau2", "z", "ratio_dev"]
    if devs_ablated:
        ab_slope, ab_intercept, ab_r2, ab_rms = _loglog_fit(tau1_grid, devs_ablated)
        # how strongly the ablated curve violates the fitted power law
        pred = slope * np.log(tau1_grid) + intercept
        ab_dev = float(np.max(np.abs(np.log(devs_ablated) - pred)))
        summary.update(
            ablation_slope=ab_slope,
            ablation_r2=ab_r2,
            ablation_max_log_dev=ab_dev,
            ablation_detectability=ab_dev / max(rms, 1e-300),
        )
        columns.append("ratio_dev_ablated")
    columns.append("certified")
    passed = (
        abs(slope - (-4.0 / 3.0)) <= 0.2
        and r2 >= 0.98
        and summary["untrusted_points"] == 0
    )
    if devs_ablated:
        passed = passed and summary["ablation_detectability"] >= 5.0
    return StudyReport(
        name="theorem",
        columns=tuple(columns),
        rows=[tuple(r[c] for c in columns) for r in rows],
        summary=summary,
        passed=passed,
        inputs={
            "tau1_grid": [float(v) for v in tau1_grid],
            "t1": t1,
            "t2": t2,
            "airy_windows": [list(w) for w in airy_windows],
            "m": m,
            "single_time": single_time,
            "ablate": ablate,
            "certify": certify,
        },
    )


# ---------------------------------------------------------------------------
# the two-time gap-probability PDE


@dataclass(frozen=True)
class PdeGrid:
    """Base point and stencil configuration for the PDE residual.

    Coordinates: tau/sigma are the mean/half-difference of the two Pearcey
    times; the windows are E1 = (xi+eta+mu, xi+eta-mu) at tau+sigma and
    E2 = (xi-eta+nu, xi-eta-nu) at tau-sigma, with mu, nu < 0.
    """

    tau: float = 4.0
    sigma: float = 0.5
    xi: float = 3.0
    eta: float = 0.25
    mu: float = -1.0
    nu: float = -1.0
    h: float = 0.05
    m: int = 24
    nodes_per_ray: int = 384

    def __post_init__(self):
        if self.h <= 0.0:
            raise DomainError("step h must be positive")
        if self.nodes_per_ray and self.nodes_per_ray < 4:
            raise DomainError("nodes_per_ray must be 0 (adaptive) or >= 4")
        if self.sigma <= 2.0 * self.h:
            raise DomainError("sigma must stay positive across the stencil")
        if self.mu + 2.0 * self.h >= 0.0 or self.nu + 2.0 * self.h >= 0.0:
            raise DomainError(
                "mu and nu must be negative with margin for the stencil"
            )
        if self.tau - self.sigma - 2.0 * self.h <= 0.0:
            raise DomainError("both times must stay positive across the stencil")
        if self.tau + self.sigma + 2.0 * self.h > 10.0:
            raise DomainError(
                "stencil leaves the directly-quadrable regime (tau + sigma <= 10)"
            )


def _pde_contour(grid: PdeGrid) -> PearceyContour:
    """One contour for every block of the study, so all blocks share one ray
    system and one cache record: its radius is the per-block rule's radius at
    the stencil's reach, with each coordinate shifted by up to 2h."""
    reach = 2.0 * grid.h
    tau_max = grid.tau + grid.sigma + 2.0 * reach
    coord_max = abs(grid.xi) + abs(grid.eta) + max(abs(grid.mu), abs(grid.nu)) + 3.0 * reach
    return PearceyContour(
        radius=ray_radius_bound(tau_max, coord_max), nodes_per_ray=grid.nodes_per_ray
    )


def _pde_f_factory(grid: PdeGrid, m: int, contour: PearceyContour):
    cache: dict = {}

    def f(dtau=0.0, dsigma=0.0, dxi=0.0, deta=0.0, dmu=0.0, dnu=0.0):
        key = (dtau, dsigma, dxi, deta, dmu, dnu)
        if key in cache:
            return cache[key]
        tau = grid.tau + dtau
        sigma = grid.sigma + dsigma
        xi = grid.xi + dxi
        eta = grid.eta + deta
        mu = grid.mu + dmu
        nu = grid.nu + dnu
        e1 = (xi + eta + mu, xi + eta - mu)
        e2 = (xi - eta + nu, xi - eta - nu)
        # ascending times: tau - sigma first (sigma > 0)
        q = GapQuery(
            family="pearcey",
            times=(tau - sigma, tau + sigma),
            windows=(e2, e1),
            m=m,
            contour=contour,
            certify=False,
        )
        val = log_gap_probability(q)
        cache[key] = val
        return val

    return f


def _pde_terms(grid: PdeGrid, m: int, h: float, contour: PearceyContour) -> dict:
    f = _pde_f_factory(grid, m, contour)
    h2, h3 = h * h, h * h * h

    def d3(axis):
        return (
            -f(**{axis: -2 * h}) + 2 * f(**{axis: -h}) - 2 * f(**{axis: h}) + f(**{axis: 2 * h})
        ) / (2 * h3)

    def dxx_at(**off):
        lo = dict(off)
        hi = dict(off)
        lo["dxi"] = lo.get("dxi", 0.0) - h
        hi["dxi"] = hi.get("dxi", 0.0) + h
        return (f(**lo) - 2 * f(**off) + f(**hi)) / h2

    def d1_of_dxx(axis):
        return (dxx_at(**{axis: h}) - dxx_at(**{axis: -h})) / (2 * h)

    def d2_mixed(ax1, ax2):
        return (
            f(**{ax1: h, ax2: h})
            - f(**{ax1: h, ax2: -h})
            - f(**{ax1: -h, ax2: h})
            + f(**{ax1: -h, ax2: -h})
        ) / (4 * h2)

    f_tautautau = d3("dtau")
    f_xixi = dxx_at()
    f_xixixi = d3("dxi")  # = d/dxi of F_xixi
    euler = (
        2.0 * (grid.sigma * d1_of_dxx("dsigma") - grid.tau * d1_of_dxx("dtau"))
        + grid.xi * f_xixixi
        + grid.eta * d1_of_dxx("deta")
        + grid.mu * d1_of_dxx("dmu")
        + grid.nu * d1_of_dxx("dnu")
        - 2.0 * f_xixi
    )
    f_tauxieta = (
        f(dtau=h, dxi=h, deta=h)
        - f(dtau=h, dxi=h, deta=-h)
        - f(dtau=h, dxi=-h, deta=h)
        + f(dtau=h, dxi=-h, deta=-h)
        - f(dtau=-h, dxi=h, deta=h)
        + f(dtau=-h, dxi=h, deta=-h)
        + f(dtau=-h, dxi=-h, deta=h)
        - f(dtau=-h, dxi=-h, deta=-h)
    ) / (8 * h3)
    f_tauxi = d2_mixed("dtau", "dxi")
    f_tauxixi = d1_of_dxx("dtau")
    # Wronskian bracket {F_tauxi, F_xixi}_xi with the derivative on the first
    # slot; the opposite reading leaves a step-independent residual ~50x above
    # the truncation floor at the base point.
    return {
        "third_tau": 2.0 * f_tautautau,
        "euler_weighted_curvature": 0.25 * euler,
        "mixed_tau_xi_eta": -grid.sigma * f_tauxieta,
        "bracket": f_tauxixi * f_xixi - f_tauxi * f_xixixi,
    }


def _pde_combine(terms: dict, flip: str | None = None) -> tuple[float, float]:
    total = 0.0
    scale = 0.0
    for name, value in terms.items():
        signed = -value if name == flip else value
        total += signed
        scale = max(scale, abs(value))
    return total, scale


def pde_residual(grid: PdeGrid | None = None) -> StudyReport:
    """Normalized residual of the two-time PDE at the grid's base point,
    with a step-halving consistency check, a sign-flip ablation, and a
    discretization-noise estimate (the study is inconclusive when the noise
    reaches the residual)."""
    grid = grid if grid is not None else PdeGrid()
    contour = _pde_contour(grid)
    terms = _pde_terms(grid, grid.m, grid.h, contour)
    total, scale = _pde_combine(terms)
    normalized = abs(total) / max(scale, 1e-300)

    terms_half = _pde_terms(grid, grid.m, grid.h / 2.0, contour)
    total_half, scale_half = _pde_combine(terms_half)
    normalized_half = abs(total_half) / max(scale_half, 1e-300)

    flipped, _ = _pde_combine(terms, flip="bracket")
    ablation_ratio = abs(flipped) / max(abs(total), 1e-300)

    # quadrature-noise probe: same stencil at a different node count
    terms_noise = _pde_terms(replace(grid, m=grid.m + 8), grid.m + 8, grid.h, contour)
    total_noise, _ = _pde_combine(terms_noise)
    noise = abs(total_noise - total) / max(scale, 1e-300)

    inconclusive = noise > normalized
    passed: bool | None
    if inconclusive:
        passed = None
    else:
        passed = (
            normalized < 1e-2
            and normalized_half < normalized
            and ablation_ratio >= 10.0
        )
    rows = [(k, v) for k, v in sorted(terms.items())]
    rows.append(("pde_total", total))
    summary = {
        "normalized_residual": normalized,
        "normalized_residual_half_step": normalized_half,
        "ablation_ratio": ablation_ratio,
        "noise_estimate": noise,
        "term_scale": scale,
        "h": grid.h,
        "ray_radius": contour.radius,
        "inconclusive": inconclusive,
    }
    return StudyReport(
        name="pde",
        columns=("term", "value"),
        rows=rows,
        summary=summary,
        passed=passed,
        inputs={f.name: getattr(grid, f.name) for f in dataclass_fields(grid)},
    )
