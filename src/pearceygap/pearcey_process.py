"""Pearcey kernel via double contour integrals, its Gaussian correction term,
and the conjugated/recentred evaluation used for large times.

Two evaluation modes share the module:

* **direct** -- tensor-product Gauss quadrature over the X ray system (four
  rays anchored at +/-1/2, right pair traversed downward, left pair upward)
  and the Y ray system (two near-vertical rays through 0, traversed upward).
  Reliable while the exponent's true saddle is still O(1), i.e. tau <~ 10.
  Each ray is truncated where its quartic decay outweighs the time and
  coordinate terms of the exponent by the envelope budget; that radius grows
  with the block's time and largest |coordinate|, unless the contour fixes one
  radius for all rays.  A fixed radius (ray_radius_bound over a whole study's
  reach) gives every block the same ray nodes, so their Cauchy matrix is built
  once.

* **recentred** -- change of variables U = A_i (1 + 3 u z^4),
  V = A_j (1 + 3 v z^4) placing O(1)-length contours through the saddle
  A_i = (1 + 3 t_i z^4)/(3 z^3).  The recentred exponent is an exact quartic
  polynomial in u whose coefficients suffer z^{-12}-sized cancellations, so
  they are prepared once per (z, t) in 50-digit arithmetic and cast to float;
  node evaluation stays vectorized float64.  The left X-pair's contribution
  is exponentially small (e^{-3 tau^2/4}-sized) and is dropped; the mode
  therefore requires tau >= 5.

Orientations (the source figures only draw arrows): right X pair downward,
left X pair upward, Y upward.  They are pinned by the realness, deformation
-invariance and small-z limit tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp
import numpy as np

from .exceptions import (
    AccuracyError,
    ContourError,
    DomainError,
    StabilityError,
)
from .scaling import ScalingParams, tau_from_z, x_from_xi, xi_from_x
from .specfun import gauss_rule

__all__ = [
    "PearceyContour",
    "RecenterSpec",
    "ray_radius_bound",
    "ConjugationFactors",
    "pearcey_tilde",
    "pearcey_gauss_term",
    "pearcey_block",
    "conjugated_pearcey_block",
    "pearcey_block_grid",
    "conjugated_tilde_grid",
    "conjugated_gauss_grid",
    "conjugated_block_grid",
]

_LOG_EPS = math.log(1e14)  # envelope budget along every ray
_ENDPOINT_DROP = math.log(1e12)  # required decay from peak to ray endpoint
_EXP_LIMIT = 700.0  # beyond this a float64 exponential overflows
_RTOL_REFINE = 1e-9
_MIN_NODES = 64
_MAX_NODES = 2048
_RECENTER_TAU_MIN = 5.0  # left X-pair drop is justified only past this


@dataclass(frozen=True)
class RecenterSpec:
    """Saddle-recentring record: scale z and the two Airy times, plus the ray
    angles of the induced (u, v) contours.

    u_angle is measured off the positive real axis, v_angle off the negative
    one; both must sit in the Airy band (pi/6, pi/2) *and* leave the residual
    quartic decaying, which tightens the u side to (pi/6, 3pi/8) and the v
    side to (pi/6, pi/2) with the quartic sector check below.
    """

    z: float
    t_i: float
    t_j: float
    u_angle: float = math.pi / 3.0
    v_angle: float = 7.0 * math.pi / 16.0

    def __post_init__(self):
        if not 0.0 < self.z < 1.0:
            raise ContourError(f"recentring scale must be in (0, 1), got {self.z}")
        if not (math.pi / 6.0 < self.u_angle < math.pi / 2.0):
            raise ContourError("u_angle outside the Airy band (pi/6, pi/2)")
        if not (math.pi / 6.0 < self.v_angle < math.pi / 2.0):
            raise ContourError("v_angle outside the Airy band (pi/6, pi/2)")
        # residual quartic decay: cos(4 theta) < 0 on the u side (exponent
        # -p4 u^4 with p4 = -B^4/4), cos(4 (pi - theta)) > 0 on the v side
        if math.cos(4.0 * self.u_angle) >= -1e-9:
            raise ContourError("u_angle leaves the quartic term growing")
        if math.cos(4.0 * (math.pi - self.v_angle)) <= 1e-9:
            raise ContourError("v_angle leaves the quartic term growing")


@dataclass(frozen=True)
class PearceyContour:
    """X/Y ray geometry.  sigma1/sigma1p: right-pair angles off the positive
    real axis (upper/lower); sigma2/sigma2p: left-pair angles off the negative
    real axis; tau_ang/tau_angp: Y angles off the positive real axis
    (upper/lower).  radius=None derives per-ray truncation radii from each
    block's exponent envelope (its time and largest |coordinate|); a fixed
    radius, e.g. ray_radius_bound over all blocks of a study, truncates every
    ray there and lets the blocks share one ray system.  nodes_per_ray=0
    enables adaptive doubling."""

    sigma1: float = math.pi / 4.0
    sigma1p: float = math.pi / 4.0
    sigma2: float = math.pi / 4.0
    sigma2p: float = math.pi / 4.0
    tau_ang: float = math.pi / 2.0
    tau_angp: float = math.pi / 2.0
    radius: float | None = None
    nodes_per_ray: int = 0
    recenter: RecenterSpec | None = None

    def __post_init__(self):
        for name in ("sigma1", "sigma1p", "sigma2", "sigma2p"):
            ang = getattr(self, name)
            if not (math.pi / 8.0 < ang < 3.0 * math.pi / 8.0):
                raise ContourError(
                    f"{name}={ang:.6f} outside the X band (pi/8, 3pi/8)"
                )
        for name in ("tau_ang", "tau_angp"):
            ang = getattr(self, name)
            if not (3.0 * math.pi / 8.0 < ang < 5.0 * math.pi / 8.0):
                raise ContourError(
                    f"{name}={ang:.6f} outside the Y band (3pi/8, 5pi/8)"
                )
        if self.radius is not None and self.radius <= 0.0:
            raise ContourError("truncation radius must be positive")
        if self.nodes_per_ray and self.nodes_per_ray < 4:
            raise ContourError("nodes_per_ray must be 0 (adaptive) or >= 4")


@dataclass(frozen=True)
class ConjugationFactors:
    """The rational conjugation exponents at expansion parameter u (= z^4)."""

    u: float

    def __post_init__(self):
        if self.u == 0.0:
            raise DomainError("conjugation exponent is singular at u = 0")

    def phi(self, x, t):
        u = self.u
        return (
            -1.0 / (4.0 * (3.0 * u) ** 3)
            - t / (3.0 * u) ** 2
            + (x - t * t) / (3.0 * u)
            + (4.0 / 3.0) * t * x
            + (u / 6.0) * t * t * x
        )

    def h(self, x, t):
        return (self.u * x / 4.0) * (x + 6.0 * t * t)

    def log_s(self, x, t):
        """Log of the diagonal conjugation factor for coordinate x, time t."""
        return self.phi(x, t) - self.h(x, t)


# ---------------------------------------------------------------------------
# ray plumbing


def _ray_radius(c4: float, g2: float, g1: float) -> float:
    """Largest positive root of (c4/4) r^4 - g2 r^2 - g1 r - budget = 0."""
    c4 = max(c4, 0.02)
    roots = np.roots([0.25 * c4, 0.0, -g2, -g1, -(_LOG_EPS + 5.0)])
    real = roots[np.abs(roots.imag) < 1e-9].real
    pos = real[real > 0.0]
    if pos.size == 0:
        raise ContourError("no admissible truncation radius for ray")
    return float(np.max(pos)) * 1.05


def _ray_nodes(vertex: complex, angle: float, radius: float, n: int):
    rule = gauss_rule(n, 0.0, radius)
    d = complex(math.cos(angle), math.sin(angle))
    return vertex + rule.nodes * d, rule.weights * d


def _signed_rays(ray_list, n):
    """Assemble [(vertex, angle, sign, radius), ...] into node/weight arrays
    plus slices marking each ray's segment (for envelope checks)."""
    nodes, weights, spans = [], [], []
    start = 0
    for vertex, angle, sign, radius in ray_list:
        nd, wt = _ray_nodes(vertex, angle, radius, n)
        nodes.append(nd)
        weights.append(sign * wt)
        spans.append((start, start + n))
        start += n
    return np.concatenate(nodes), np.concatenate(weights), spans


def _x_rays(contour: PearceyContour, tau_i: float, coord_max: float):
    """Right pair downward, left pair upward, vertices at +/-1/2."""

    def radius_for(angle):
        if contour.radius is not None:
            return contour.radius
        c4 = -math.cos(4.0 * angle)  # exp(+U^4/4) decays where cos(4a) < 0
        g2 = 0.5 * abs(tau_i) * max(0.0, -math.cos(2.0 * angle))
        return _ray_radius(c4, g2, coord_max)

    s1, s1p = contour.sigma1, contour.sigma1p
    s2, s2p = math.pi - contour.sigma2, -(math.pi - contour.sigma2p)
    return [
        (0.5 + 0.0j, s1, -1.0, radius_for(s1)),
        (0.5 + 0.0j, -s1p, +1.0, radius_for(-s1p)),
        (-0.5 + 0.0j, s2, +1.0, radius_for(s2)),
        (-0.5 + 0.0j, s2p, -1.0, radius_for(s2p)),
    ]


def _y_rays(contour: PearceyContour, tau_j: float, coord_max: float):
    """Two rays through the origin, traversed upward."""

    def radius_for(angle):
        if contour.radius is not None:
            return contour.radius
        c4 = math.cos(4.0 * angle)  # exp(-V^4/4) decays where cos(4a) > 0
        g2 = 0.5 * abs(tau_j) * max(0.0, math.cos(2.0 * angle))
        return _ray_radius(c4, g2, coord_max)

    up, dn = contour.tau_ang, -contour.tau_angp
    return [
        (0.0 + 0.0j, up, +1.0, radius_for(up)),
        (0.0 + 0.0j, dn, -1.0, radius_for(dn)),
    ]


def ray_radius_bound(tau_max: float, coord_max: float) -> float:
    """Largest truncation radius the radius=None rule picks over the six
    default-angle X/Y rays for times |tau| <= tau_max and coordinates
    |xi| <= coord_max.  The rule grows with both bounds, so a contour with this
    fixed radius truncates every such block at or beyond its own radii."""
    free = PearceyContour()
    rays = _x_rays(free, tau_max, coord_max) + _y_rays(free, tau_max, coord_max)
    return max(ray[3] for ray in rays)


def _check_envelope(re_expo: np.ndarray, spans, tag: str) -> None:
    """Every ray segment must drop by _ENDPOINT_DROP from its running max."""
    for a, b in spans:
        seg = re_expo[a:b]
        drop = float(np.min(np.max(seg, axis=0) - seg[-1, :]))
        if drop < _ENDPOINT_DROP:
            raise AccuracyError(
                f"{tag}-ray envelope not decayed at truncation (drop {drop:.1f} "
                f"< {_ENDPOINT_DROP:.1f}); recentred contours advised"
            )


def _check_exponent(re_expo: np.ndarray, tag: str) -> None:
    peak = float(np.max(re_expo))
    if peak > _EXP_LIMIT:
        raise StabilityError(
            f"{tag}-side exponent reaches {peak:.0f} (> {_EXP_LIMIT:.0f}); "
            "value not representable in double precision - use the "
            "conjugated family"
        )


def _to_real(grid: np.ndarray, rtol: float = 1e-8) -> np.ndarray:
    scale = float(np.max(np.abs(grid.real)))
    resid = float(np.max(np.abs(grid.imag)))
    if resid > rtol * max(scale, 1e-300):
        raise AccuracyError(
            f"kernel grid has imaginary residue {resid:.3e} vs scale {scale:.3e}"
        )
    return np.ascontiguousarray(grid.real)


# ---------------------------------------------------------------------------
# direct mode


@lru_cache(maxsize=1)
def _ray_system(xray: tuple, yray: tuple, n: int):
    """Nodes and segment spans of both ray systems plus the Cauchy matrix
    wu / (v - u) * wv.  It depends only on the ray geometry, so blocks under a
    fixed-radius contour (one per PDE study) share one build.  The matrix is
    built in place and the collision check runs one X ray at a time, so the
    build makes no temporary of the matrix's size."""
    u, wu, uspan = _signed_rays(xray, n)
    v, wv, vspan = _signed_rays(yray, n)
    m = np.empty((u.size, v.size), dtype=complex)
    np.subtract(v[None, :], u[:, None], out=m)
    if min(float(np.min(np.abs(m[a:b]))) for a, b in uspan) < 1e-12:
        raise ContourError("X and Y contours collide (|V - U| < 1e-12 at nodes)")
    np.divide(wu[:, None], m, out=m)
    m *= wv[None, :]
    for arr in (u, v, m):
        arr.flags.writeable = False  # shared by every caller of the cache
    return u, uspan, v, vspan, m


def _direct_grid_once(tau_i, tau_j, xis, etas, contour, n):
    xray = _x_rays(contour, tau_i, float(np.max(np.abs(xis))))
    yray = _y_rays(contour, tau_j, float(np.max(np.abs(etas))))
    u, uspan, v, vspan, m = _ray_system(tuple(xray), tuple(yray), n)

    eu = (u[:, None] ** 4 / 4.0 - 0.5 * tau_i * u[:, None] ** 2) + u[:, None] * xis[None, :]
    ev = (-(v[:, None] ** 4) / 4.0 + 0.5 * tau_j * v[:, None] ** 2) - v[:, None] * etas[None, :]
    _check_exponent(eu.real, "U")
    _check_exponent(ev.real, "V")
    _check_envelope(eu.real, uspan, "X")
    _check_envelope(ev.real, vspan, "Y")
    # both exponentials before the products: an exp between the two matmuls
    # measured 2x slower per block (2-core machine, threaded BLAS)
    fu = np.exp(eu)
    fv = np.exp(ev)
    return -(fu.T @ m @ fv) / (4.0 * math.pi**2)


def _refine(eval_once):
    """Adaptive node doubling until two levels agree to 1e-9 relative."""
    n = _MIN_NODES
    prev = None
    while n <= _MAX_NODES:
        cur = eval_once(n)
        if prev is not None:
            scale = max(float(np.max(np.abs(cur))), 1e-300)
            if float(np.max(np.abs(cur - prev))) <= _RTOL_REFINE * scale:
                return cur
        prev = cur
        n *= 2
    raise AccuracyError(
        f"ray quadrature did not converge by {_MAX_NODES} nodes per ray"
    )


def _direct_grid(tau_i, tau_j, xis, etas, contour):
    if contour.nodes_per_ray:
        return _direct_grid_once(tau_i, tau_j, xis, etas, contour, contour.nodes_per_ray)
    return _refine(lambda n: _direct_grid_once(tau_i, tau_j, xis, etas, contour, n))


# ---------------------------------------------------------------------------
# recentred mode: 50-digit coefficient preparation


@lru_cache(maxsize=4096)
def _side_coeffs(z: float, t: float):
    """Quartic exponent coefficients of the recentred variable, plus the
    side's scale factors.  Exact cancellations of size z^{-12} force the
    high-precision pass; everything returned is a plain float."""
    with mp.workdps(50):
        zm = mp.mpf(z)
        tm = mp.mpf(t)
        z3, z4, z6 = zm**3, zm**4, zm**6
        tau = (1 + 6 * tm * z4) / (3 * z6)
        a_ = (1 + 3 * tm * z4) / (3 * z3)
        b_ = zm * (1 + 3 * tm * z4)
        c_ = mp.mpf(2) / 27 * (3 * tau) ** mp.mpf(1.5)
        s6 = (3 * tau) ** (mp.mpf(1) / 6)
        phi0 = -1 / (4 * (3 * z4) ** 3) - tm / (9 * z4**2) - tm**2 / (3 * z4)
        phi1 = 1 / (3 * z4) + mp.mpf(4) / 3 * tm + z4 / 6 * tm**2
        p0 = -(a_**4) / 4 + tau * a_**2 / 2 - a_ * c_ - phi0
        p1 = b_ * (-(a_**3) + tau * a_ - c_)
        p2 = -mp.mpf(3) / 2 * a_**2 * b_**2 + tau * b_**2 / 2
        p3 = -a_ * b_**3
        p4 = -(b_**4) / 4
        q0 = a_ * s6 - phi1
        q1 = b_ * s6
        out = dict(
            tau=tau, A=a_, B=b_, c=c_, s6=s6, phi0=phi0, phi1=phi1,
            p0=p0, p1=p1, p2=p2, p3=p3, p4=p4, q0=q0, q1=q1,
        )
    return {k: float(v) for k, v in out.items()}


@lru_cache(maxsize=4096)
def _gauss_scalars(z: float, t_i: float, t_j: float):
    """Scalar pieces of the conjugated Gaussian term (log-space), prepared in
    high precision: the D^2/(2 dtau) vs phi0 cancellation is z^{-8}-sized."""
    with mp.workdps(50):
        zm, ti, tj = mp.mpf(z), mp.mpf(t_i), mp.mpf(t_j)
        z4, z6 = zm**4, zm**6
        taui = (1 + 6 * ti * z4) / (3 * z6)
        tauj = (1 + 6 * tj * z4) / (3 * z6)
        dtau = tauj - taui
        if dtau <= 0:
            raise DomainError("conjugated Gaussian term needs tau_i < tau_j")
        a_ = (3 * taui) ** (mp.mpf(1) / 6)
        b_ = (3 * tauj) ** (mp.mpf(1) / 6)
        ci = mp.mpf(2) / 27 * (3 * taui) ** mp.mpf(1.5)
        cj = mp.mpf(2) / 27 * (3 * tauj) ** mp.mpf(1.5)
        d_ = ci - cj
        logj = (mp.log(3 * taui) + mp.log(3 * tauj)) / 12
        phi0 = lambda t: -1 / (4 * (3 * z4) ** 3) - t / (9 * z4**2) - t**2 / (3 * z4)
        phi1 = lambda t: 1 / (3 * z4) + mp.mpf(4) / 3 * t + z4 / 6 * t**2
        s0 = logj - mp.log(2 * mp.pi * dtau) / 2 - d_**2 / (2 * dtau) + phi0(ti) - phi0(tj)
        cx = d_ * a_ / dtau + phi1(ti)
        cy = -d_ * b_ / dtau - phi1(tj)
        qxx = -(a_**2) / (2 * dtau)
        qyy = -(b_**2) / (2 * dtau)
        qxy = a_ * b_ / dtau
        out = dict(s0=s0, cx=cx, cy=cy, qxx=qxx, qyy=qyy, qxy=qxy)
    return {k: float(v) for k, v in out.items()}


def _recentred_rays(spec: RecenterSpec, cs_u, cs_v, xmax: float, ymax: float):
    """Signed (u, v) ray systems through the separated vertices."""
    dt = spec.t_j - spec.t_i
    u0, v0 = 0.4 + max(0.0, dt), -0.4

    def radius(angle, cubic, lin):
        c3 = abs(cubic) * abs(math.cos(3.0 * angle))
        if c3 < 1e-3:
            raise ContourError("recentred ray angle too close to a cubic-neutral direction")
        roots = np.roots([c3 / 3.0, 0.0, -lin, -(_LOG_EPS + 5.0)])
        real = roots[np.abs(roots.imag) < 1e-9].real
        return float(np.max(real[real > 0.0])) * 1.1

    ru = radius(spec.u_angle, cs_u["p3"], abs(cs_u["q1"]) * xmax + abs(cs_u["p1"]))
    rv = radius(math.pi - spec.v_angle, cs_v["p3"], abs(cs_v["q1"]) * ymax + abs(cs_v["p1"]))
    u_rays = [
        (u0 + 0.0j, spec.u_angle, -1.0, ru),
        (u0 + 0.0j, -spec.u_angle, +1.0, ru),
    ]
    v_rays = [
        (v0 + 0.0j, math.pi - spec.v_angle, +1.0, rv),
        (v0 + 0.0j, -(math.pi - spec.v_angle), -1.0, rv),
    ]
    return u_rays, v_rays


def _quartic(cs, w):
    return cs["p0"] + w * (cs["p1"] + w * (cs["p2"] + w * (cs["p3"] + w * cs["p4"])))


def _recentred_grid_once(spec, xs, ys, n, conjugated, gate_included=False):
    """Recentred K-tilde grid in Airy coordinates.

    conjugated=True returns the S-conjugated, Jacobian-weighted entries
    directly comparable to airy blocks; conjugated=False undoes the
    conjugation (the raw Pearcey kernel value in (xi, eta) coordinates, with
    no sqrt(dxi deta) weight)."""
    cs_u = _side_coeffs(spec.z, spec.t_i)
    cs_v = _side_coeffs(spec.z, spec.t_j)
    if min(cs_u["tau"], cs_v["tau"]) < _RECENTER_TAU_MIN:
        raise ContourError(
            f"recentring requires tau >= {_RECENTER_TAU_MIN} (left X-pair drop)"
        )
    xmax = float(np.max(np.abs(xs)))
    ymax = float(np.max(np.abs(ys)))
    u_rays, v_rays = _recentred_rays(spec, cs_u, cs_v, xmax, ymax)
    u, wu, uspan = _signed_rays(u_rays, n)
    v, wv, vspan = _signed_rays(v_rays, n)

    conj = ConjugationFactors(u=spec.z**4)
    # exponent matrices: columns are x (resp. y) points
    eu = -(_quartic(cs_u, u)[:, None] + (cs_u["q0"] + cs_u["q1"] * u)[:, None] * xs[None, :])
    ev = +(_quartic(cs_v, v)[:, None] + (cs_v["q0"] + cs_v["q1"] * v)[:, None] * ys[None, :])
    if conjugated:
        eu = eu - conj.h(xs, spec.t_i)[None, :]
        ev = ev + conj.h(ys, spec.t_j)[None, :]
    else:
        eu = eu - conj.phi(xs, spec.t_i)[None, :]
        ev = ev + conj.phi(ys, spec.t_j)[None, :]
    _check_exponent(eu.real, "u")
    _check_exponent(ev.real, "v")
    _check_envelope(eu.real, uspan, "u")
    _check_envelope(ev.real, vspan, "v")
    fu = np.exp(eu)
    fv = np.exp(ev)

    # V - U in original variables, kept in the well-scaled z*O(1) form
    denom = (
        spec.z * (spec.t_j - spec.t_i)
        + cs_v["B"] * v[None, :]
        - cs_u["B"] * u[:, None]
    )
    if float(np.min(np.abs(denom))) < 1e-12:
        raise ContourError("recentred u/v contours collide with the pole")
    m = (wu[:, None] / denom) * wv[None, :]
    pref = -cs_u["B"] * cs_v["B"] / (4.0 * math.pi**2)
    if conjugated:
        pref *= (3.0 * cs_u["tau"]) ** (1.0 / 12.0) * (3.0 * cs_v["tau"]) ** (1.0 / 12.0)
    return pref * (fu.T @ m @ fv)


def _recentred_grid(spec, xs, ys, contour, conjugated):
    n = contour.nodes_per_ray if contour is not None and contour.nodes_per_ray else 0
    if n:
        return _recentred_grid_once(spec, xs, ys, n, conjugated)
    return _refine(lambda k: _recentred_grid_once(spec, xs, ys, k, conjugated))


# ---------------------------------------------------------------------------
# public operations


def pearcey_gauss_term(tau: float, xi, eta):
    """Gaussian correction term subtracted from time-ordered blocks."""
    tau = float(tau)
    if not tau > 0.0:
        raise DomainError(f"Gaussian term needs tau > 0, got {tau}")
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    val = np.exp(-((xi - eta) ** 2) / (2.0 * tau)) / math.sqrt(2.0 * math.pi * tau)
    return float(val) if val.ndim == 0 else val


def _tilde_grid(tau_i, tau_j, xis, etas, contour):
    """K-tilde grid in (xi, eta) coordinates, dispatching on the contour."""
    contour = contour if contour is not None else PearceyContour()
    xis = np.atleast_1d(np.asarray(xis, dtype=float))
    etas = np.atleast_1d(np.asarray(etas, dtype=float))
    if contour.recenter is not None:
        spec = contour.recenter
        for tau, t in ((tau_i, spec.t_i), (tau_j, spec.t_j)):
            ref = tau_from_z(spec.z, t)
            if abs(tau - ref) > 1e-6 * abs(ref):
                raise DomainError(
                    f"recentring record inconsistent: tau={tau} vs blow-up {ref}"
                )
        xs = x_from_xi(xis, tau_i)
        ys = x_from_xi(etas, tau_j)
        grid = _recentred_grid(spec, xs, ys, contour, conjugated=False)
        # columns were x-ordered; map back to the xi ordering (the map is
        # order-reversing, but we evaluated at exactly the requested points)
        return _to_real(grid)
    return _to_real(_direct_grid(tau_i, tau_j, xis, etas, contour))


def pearcey_tilde(tau_i: float, tau_j: float, xi: float, eta: float,
                  contour: PearceyContour | None = None) -> float:
    """Double-contour part of the Pearcey kernel at one point."""
    grid = _tilde_grid(
        float(tau_i), float(tau_j), np.array([float(xi)]), np.array([float(eta)]), contour
    )
    return float(grid[0, 0])


def pearcey_block(tau_i: float, tau_j: float, xi: float, eta: float,
                  contour: PearceyContour | None = None) -> float:
    """Full Pearcey kernel entry with the time-ordering gate."""
    val = pearcey_tilde(tau_i, tau_j, xi, eta, contour)
    if tau_i < tau_j:
        val -= pearcey_gauss_term(tau_j - tau_i, xi, eta)
    return val


def pearcey_block_grid(tau_i: float, tau_j: float, xis, etas,
                       contour: PearceyContour | None = None) -> np.ndarray:
    """Grid of full Pearcey kernel entries (Fredholm assembly path)."""
    xis = np.atleast_1d(np.asarray(xis, dtype=float))
    etas = np.atleast_1d(np.asarray(etas, dtype=float))
    out = _tilde_grid(tau_i, tau_j, xis, etas, contour)
    if tau_i < tau_j:
        out = out - pearcey_gauss_term(tau_j - tau_i, xis[:, None], etas[None, :])
    return out


def conjugated_tilde_grid(params: ScalingParams, i: int, j: int, xs, ys,
                          contour: PearceyContour | None = None) -> np.ndarray:
    """Conjugated, Jacobian-weighted K-tilde grid in Airy coordinates for the
    (i, j) time pair of ``params`` (i, j in {1, 2})."""
    t = {1: params.t1, 2: params.t2}
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    spec_angles = {}
    if contour is not None and contour.recenter is not None:
        spec_angles = dict(
            u_angle=contour.recenter.u_angle, v_angle=contour.recenter.v_angle
        )
    spec = RecenterSpec(z=params.z, t_i=t[i], t_j=t[j], **spec_angles)
    grid = _recentred_grid(spec, xs, ys, contour if contour is not None else PearceyContour(), True)
    return _to_real(grid)


def conjugated_gauss_grid(params: ScalingParams, i: int, j: int, xs, ys) -> np.ndarray:
    """Conjugated Gaussian term in Airy coordinates (log-space assembly)."""
    t = {1: params.t1, 2: params.t2}
    t_i, t_j = t[i], t[j]
    sc = _gauss_scalars(params.z, t_i, t_j)
    conj = ConjugationFactors(u=params.z**4)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    log_col = sc["cx"] * xs + sc["qxx"] * xs**2 - conj.h(xs, t_i)
    log_row = sc["cy"] * ys + sc["qyy"] * ys**2 + conj.h(ys, t_j)
    expo = sc["s0"] + log_col[:, None] + log_row[None, :] + sc["qxy"] * np.outer(xs, ys)
    if float(np.max(expo)) > _EXP_LIMIT:
        raise StabilityError("conjugated Gaussian exponent exceeds float range")
    return np.exp(expo)


def conjugated_block_grid(params: ScalingParams, i: int, j: int, xs, ys,
                          contour: PearceyContour | None = None) -> np.ndarray:
    """Full conjugated block entry grid (tilde minus gated Gaussian term)."""
    out = conjugated_tilde_grid(params, i, j, xs, ys, contour)
    taus = {1: params.tau1, 2: params.tau2}
    if taus[i] < taus[j]:
        out = out - conjugated_gauss_grid(params, i, j, xs, ys)
    return out


def conjugated_pearcey_block(params: ScalingParams, x: float, y: float,
                             contour: PearceyContour | None = None) -> float:
    """One conjugated kernel entry for the (t1, t2) pair, directly comparable
    to airy_block(t1, t2, x, y)."""
    grid = conjugated_block_grid(
        params, 1, 2, np.array([float(x)]), np.array([float(y)]), contour
    )
    return float(grid[0, 0])
