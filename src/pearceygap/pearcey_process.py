"""Pearcey kernel via double contour integrals, its Gaussian correction term,
and the conjugated/recentred evaluation used for large times.

Two contour modes share one quadrature path: Gauss rules on signed rays, the
Cauchy matrix wu / (V - U) * wv built in place, the exponent and envelope
checks, and fu^T M fv, at the contour's node count per ray, which one walk
(walk_ladder) sizes once per Fredholm determinant or per study, never per block.

Both modes fold the contour's conjugate symmetry where it holds.  The
exponents have real coefficients and real points, so where the u and the v
ray system are each their own mirror image in the real axis (a ray at angle
-a for each ray at a, with its weight's sign flipped), the sum over the
mirrored u rays is the conjugate of the sum over the others, and a block is
2 Re of the upper u rays' share against the full v system.  The v side's
exponential runs on its first ray only: the mirrored ray's rows are its
conjugate.  The product is taken in real arithmetic, so a folded block is
real by construction; every collision, overflow and envelope check runs on
the half system, which covers the mirrored half exactly.

* **direct** -- tensor-product Gauss quadrature over the X ray system (four
  rays anchored at +/-1/2, right pair traversed downward, left pair upward)
  and the Y ray system (two near-vertical rays through 0, traversed upward).
  Reliable while the exponent's true saddle is still O(1), i.e. tau <~ 10.
  Each ray is truncated where its quartic decay outweighs the time and
  coordinate terms of the exponent by the envelope budget; that radius grows
  with the block's time and largest |coordinate|, unless the contour fixes one
  radius for all rays.  A fixed radius (ray_radius_bound over a whole study's
  reach) gives every block the same ray nodes, so their Cauchy matrix is built
  once.  A block is a product of two sides, K-tilde_ij = G_i F_j
  with G_i = exp(eu_i)^T M and F_j = exp(ev_j), ev = -eu at the v nodes.  One
  builder makes each window's side (rays, signed nodes and weights, checked
  exponential) once per (tag, time, points, contour, node count) in the
  caller's ``sides`` dict (one per Fredholm determinant), its rays and their
  radius roots only then, and one product every direct grid, with G_i once
  per u side.
  The fold needs sigma1 == sigma1p, sigma2 == sigma2p and tau_ang == tau_angp,
  as on the default contour and every study's; a contour without that
  symmetry sums all four X rays in complex arithmetic, and only there
  _to_real checks that the imaginary part is rounding.  Derivatives of direct
  blocks in their times and points (direct_moment_grids) are that product
  with v^d in the double integral, and sums over the same sides.

* **recentred** -- change of variables U = A_i (1 + 3 u z^4),
  V = A_j (1 + 3 v z^4) placing O(1)-length contours through the saddle
  A_i = (1 + 3 t_i z^4)/(3 z^3).  The recentring record holds only z and the
  ray angles; each block's Airy times follow from its own taus, or are the
  block's own address for a conjugated block.  The recentred exponent is an
  exact quartic polynomial in u whose coefficients suffer z^{-12}-sized
  cancellations, so they are prepared once per (z, t) in 50-digit arithmetic
  and cast to float; node evaluation stays vectorized float64.  The
  coefficients include the conjugation's large exponent phi = phi0 + phi1 x;
  a conjugated block also takes off h = z^4 x (x + 6 t^2)/4, and a raw
  recentred block takes phi off again.  The left X-pair's contribution is
  exponentially small (e^{-3 tau^2/4}-sized) and is dropped; the mode
  therefore requires tau >= 5.  Its u and v rays are always a mirror pair
  each, so it always folds.  Its sides are memoized as direct ones, under
  (tag, recentring record, Airy time, points, vertex, n, conjugated), which
  fix the rays: the first u ray with its exponential, both v rays with the
  first's.  The v vertex is -0.4, the u vertex 0.4 + max(0, t_j - t_i):
  above the diagonal it offsets the z (t_j - t_i) in
  V - U = z (t_j - t_i) + B_j v - B_i u (B ~ z), so the vertices stay about
  0.8 z apart, and such a u side has its own key.
"""

from __future__ import annotations

import math
import numbers
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
from .scaling import t_from_tau, x_from_xi
from .specfun import ray_rule

__all__ = [
    "PearceyContour",
    "RecenterSpec",
    "ray_radius_bound",
    "pearcey_gauss_term",
    "pearcey_block_grid",
    "direct_moment_grids",
    "conjugated_tilde_grid",
    "conjugated_gauss_grid",
    "conjugated_block_grid",
]

_LOG_EPS = math.log(1e14)  # envelope budget along every ray
_ENDPOINT_DROP = math.log(1e12)  # required decay from peak to ray endpoint
_EXP_LIMIT = 700.0  # beyond this a float64 exponential overflows
_IMAG_RTOL = 1e-8  # largest imaginary residue of a kernel grid, relative
_RECENTER_TAU_MIN = 5.0  # left X-pair drop is justified only past this


@dataclass(frozen=True)
class RecenterSpec:
    """Saddle-recentring record: scale z plus the ray angles of the induced
    (u, v) contours.  It holds no times: each block takes its Airy times from
    its own taus, t = t_from_tau(tau, z), so one record serves every block of
    a query.

    u_angle is measured off the positive real axis, v_angle off the negative
    one; both must sit in the Airy band (pi/6, pi/2) *and* leave the residual
    quartic decaying, which tightens the u side to (pi/6, 3pi/8) and the v
    side to (pi/6, pi/2) with the quartic sector check below.
    """

    z: float
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
    ray there and lets the blocks share one ray system.  nodes_per_ray, in
    either mode, is >= 4 for a block; 0 has a determinant or a study size it
    once for all its blocks.  recenter (z and angles only) switches to
    recentred contours; the X/Y fields and radius are then unused."""

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
        if self.radius is not None and not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ContourError(f"radius must be finite and positive, got {self.radius}")
        n = self.nodes_per_ray
        if not isinstance(n, numbers.Integral) or (n and n < 4):
            raise ContourError(f"nodes_per_ray must be an integer, 0 or >= 4, got {n!r}")
        # an int, so that the block cache record reads the same for any integer type
        object.__setattr__(self, "nodes_per_ray", int(n))


# ---------------------------------------------------------------------------
# the shared quadrature path


def _ray_radius(coeffs, margin: float) -> float:
    """margin times the largest positive root of the polynomial with leading
    coefficients ``coeffs`` and constant term -budget."""
    roots = np.roots([*coeffs, -(_LOG_EPS + 5.0)])
    real = roots[np.abs(roots.imag) < 1e-9].real
    pos = real[real > 0.0]
    if pos.size == 0:
        raise ContourError("no admissible truncation radius for ray")
    return float(np.max(pos)) * margin


def _signed_rays(ray_list, n):
    """Assemble [(vertex, angle, sign, radius), ...] into node and weight
    arrays, n nodes per ray in the list's order."""
    nodes, weights = [], []
    for vertex, angle, sign, radius in ray_list:
        nd, wt = ray_rule(vertex, angle, radius, n)
        nodes.append(nd)
        weights.append(sign * wt)
    return np.concatenate(nodes), np.concatenate(weights)


def _cauchy(big_u, wu, big_v, wv, n: int) -> np.ndarray:
    """The Cauchy matrix wu / (V - U) * wv at the pole coordinates U, V of the
    nodes.  It is built in place and the collision check runs one u ray (n
    rows) at a time, so the build makes no temporary of the matrix's size."""
    m = np.empty((big_u.size, big_v.size), dtype=complex)
    np.subtract(big_v[None, :], big_u[:, None], out=m)
    if min(float(np.min(np.abs(m[a:a + n]))) for a in range(0, big_u.size, n)) < 1e-12:
        raise ContourError("u and v contours collide (|V - U| < 1e-12 at nodes)")
    np.divide(wu[:, None], m, out=m)
    m *= wv[None, :]
    return m


def _exp_side(expo: np.ndarray, n: int, tag: str) -> np.ndarray:
    """exp(expo) (rows: n nodes per ray, columns: points) after the exponent
    check and then the envelope check: along every ray, each point's exponent
    must drop by _ENDPOINT_DROP from its peak to the ray's endpoint."""
    re_expo = expo.real.reshape(-1, n, expo.shape[1])
    top = np.max(re_expo, axis=1)  # (rays, points)
    peak = float(np.max(top))
    if peak > _EXP_LIMIT:
        raise StabilityError(
            f"{tag}-side exponent reaches {peak:.0f} (> {_EXP_LIMIT:.0f}); "
            "value not representable in double precision - use the "
            "conjugated family"
        )
    drop = float(np.min(top - re_expo[:, -1, :]))
    if drop < _ENDPOINT_DROP:
        raise AccuracyError(
            f"{tag}-ray envelope not decayed at truncation (drop {drop:.1f} "
            f"< {_ENDPOINT_DROP:.1f}); a wider radius or recentred contours "
            "advised"
        )
    return np.exp(expo)


def _fold_product(g: np.ndarray, e: np.ndarray, n: int) -> np.ndarray:
    """Re(G F) for a u side G = exp(eu)^T M whose n-column halves G_1, G_2
    belong to a conjugate pair of v rays, and the v side E = exp(ev) on the
    pair's first ray, so that F = [E; conj(E)]:
    Re(G F) = (Re G_1 + Re G_2) Re E - (Im G_1 - Im G_2) Im E."""
    return ((g.real[:, :n] + g.real[:, n:]) @ e.real
            - (g.imag[:, :n] - g.imag[:, n:]) @ e.imag)


def _ray_count(contour: PearceyContour) -> int:
    if not contour.nodes_per_ray:
        raise ContourError("a Pearcey block needs nodes_per_ray >= 4; 0 is sized once "
                           "per Fredholm determinant or per study, not per block")
    return contour.nodes_per_ray


# absolute agreement of two consecutive levels that settles a walk, in log P
# (library queries, theorem) or the residual (prop21), below the 1e-8 m -> 2m
# certificate.  The default theorem study's worst log P error against 512 nodes
# per ray is 3.4e-6 at 32, 2.5e-10 at 48 and 7.4e-14 at 64: it settles at 64.
_RAY_TOL = 1e-9


def _to_real(grid: np.ndarray) -> np.ndarray:
    scale = float(np.max(np.abs(grid.real)))
    resid = float(np.max(np.abs(grid.imag)))
    if resid > _IMAG_RTOL * max(scale, 1e-300):
        raise AccuracyError(
            f"kernel grid has imaginary residue {resid:.3e} vs scale {scale:.3e}"
        )
    return np.ascontiguousarray(grid.real)


# ---------------------------------------------------------------------------
# direct mode


def _direct_radius(contour: PearceyContour, quartic: float, angle: float,
                   tau: float, coord_max: float) -> float:
    """The contour's fixed radius, else where exp(quartic (w^4/4 - tau w^2/2))
    along the ray at angle outweighs the time and coordinate terms by the
    envelope budget: quartic = +1 on the X rays, -1 on the Y rays."""
    if contour.radius is not None:
        return contour.radius
    c4 = -quartic * math.cos(4.0 * angle)  # the quartic term decays where c4 > 0
    g2 = 0.5 * abs(tau) * max(0.0, -quartic * math.cos(2.0 * angle))
    return _ray_radius([0.25 * max(c4, 0.02), 0.0, -g2, -coord_max], 1.05)


def _x_rays(contour: PearceyContour, tau_i: float, coord_max: float, count: int = 4):
    """Right pair downward, left pair upward, vertices at +/-1/2: the first
    count of the upper right and upper left rays, then the lower right and
    lower left."""
    s1, s1p = contour.sigma1, contour.sigma1p
    s2, s2p = math.pi - contour.sigma2, -(math.pi - contour.sigma2p)
    return [
        (vertex, angle, sign, _direct_radius(contour, +1.0, angle, tau_i, coord_max))
        for vertex, angle, sign in ((0.5 + 0.0j, s1, -1.0), (-0.5 + 0.0j, s2, +1.0),
                                    (0.5 + 0.0j, -s1p, +1.0), (-0.5 + 0.0j, s2p, -1.0))[:count]
    ]


def _y_rays(contour: PearceyContour, tau_j: float, coord_max: float):
    """Two rays through the origin, traversed upward."""
    return [
        (0.0 + 0.0j, angle, sign, _direct_radius(contour, -1.0, angle, tau_j, coord_max))
        for angle, sign in ((contour.tau_ang, +1.0), (-contour.tau_angp, -1.0))
    ]


def ray_radius_bound(tau_max: float, coord_max: float) -> float:
    """Largest truncation radius the radius=None rule picks over the six
    default-angle X/Y rays for times |tau| <= tau_max and coordinates
    |xi| <= coord_max.  The rule grows with both bounds, so a contour with this
    fixed radius truncates every such block at or beyond its own radii."""
    free = PearceyContour()
    rays = _x_rays(free, tau_max, coord_max) + _y_rays(free, tau_max, coord_max)
    return max(ray[3] for ray in rays)


def _folds(contour: PearceyContour) -> bool:
    """Whether the X and the Y ray system are each their own mirror image in
    the real axis, so that a direct block is 2 Re of its upper X rays' share."""
    return (contour.sigma1 == contour.sigma1p and contour.sigma2 == contour.sigma2p
            and contour.tau_ang == contour.tau_angp)


@lru_cache(maxsize=2)  # the pde walk's two levels (32, 48; 2m reuses 48): a rerun builds neither
def _ray_system(xray: tuple, yray: tuple, n: int):
    """X and Y nodes and the Cauchy matrix of both ray systems.  It depends
    only on the ray geometry, so blocks under a fixed-radius contour (one per
    PDE study and node count) share one build."""
    u, wu = _signed_rays(xray, n)
    v, wv = _signed_rays(yray, n)
    m = _cauchy(u, wu, v, wv, n)
    for arr in (u, v, m):
        arr.flags.writeable = False  # shared by every caller of the cache
    return u, v, m


def _side(sides, contour, n, tag, tau, pts):
    """A window's side, memoized in sides under the data that fix it: its rays
    (tag "u": the X rays, the upper pair on a folding contour; "v": the Y
    rays), their signed nodes and weights, and the checked exp(eu),
    eu = w^4/4 - tau w^2/2 + w xi, at the u nodes w, or exp(-eu) at the v nodes
    (the first Y ray's on a folding contour).  The rays, with their radius
    roots, are built only on a miss."""
    key = (tag, tau, pts.tobytes(), contour, n)
    if key not in sides:
        fold = _folds(contour)
        coord_max = float(np.max(np.abs(pts)))
        rays = tuple(_x_rays(contour, tau, coord_max, 2 if fold else 4) if tag == "u"
                     else _y_rays(contour, tau, coord_max))
        w, wt = _signed_rays(rays, n)
        at = (w[:n] if fold and tag == "v" else w)[:, None]
        expo = (at**4 / 4.0 - 0.5 * tau * at**2) + at * pts
        sides[key] = rays, w, wt, _exp_side(expo if tag == "u" else -expo, n, tag)
    return sides[key]


def _direct_grid(tau_i, tau_j, xis, etas, contour, n, sides, powers=1):
    """The K-tilde grids with v^d in the double integral, d < powers, stacked:
    -G (v^d F) / (4 pi^2), from the u side (tau_i, xis) and the v side
    F = exp(ev) of (tau_j, etas), with G = exp(eu)^T M built once per u side
    and Y rays; the sides and G are memoized in sides.  A folding contour
    takes the upper X rays and F on the first Y ray: -Re(G v^d F) / (2 pi^2)."""
    xray, _, _, eu = _side(sides, contour, n, "u", tau_i, xis)
    yray, v, _, ev = _side(sides, contour, n, "v", tau_j, etas)
    gkey = ("G", tau_i, xis.tobytes(), xray, yray, n)
    if gkey not in sides:
        sides[gkey] = eu.T @ _ray_system(xray, yray, n)[2]
    g = sides[gkey]
    weighted = np.vander(v[:len(ev)], powers, increasing=True).T[:, :, None] * ev
    if _folds(contour):
        return np.stack([-_fold_product(g, e, n) for e in weighted]) / (2.0 * math.pi**2)
    return np.stack([_to_real(-(g @ e) / (4.0 * math.pi**2)) for e in weighted])


def direct_moment_grids(taus, points, contour, powers: int, moments: int):
    """The pieces every derivative of a direct-mode block is made of, for
    windows k at times taus[k] with points points[k] (one window for the u-
    and the v-side alike), on a folding contour with a fixed ray-node count.

    A derivative of a block in its times and points puts a polynomial
    P(u, v) into the double integral: d/dx a factor u, d/dy a factor -v,
    d/dtau_i a factor -u^2/2 and d/dtau_j a factor v^2/2.  Since
    P(u, v) = P(v, v) + (u - v) Q(u, v) and (u - v) cancels the Cauchy
    factor 1/(v - u), such a block is a combination of
    * grids[i, j][d], d < powers: the block with v^d in its double integral,
      less the d-th x-derivative of the Gaussian term where tau_i < tau_j
      (the Gaussian term's Fourier integral is the double integral's u = v
      diagonal, so it takes P(v, v) too); grids[i, j][0] is the block;
    * the outer products Re(su[i][p] x sv[j][q]), p, q < moments, of
      single-side sums: the block with (u - v) u^p v^q in its double
      integral, whose u - v cancels the Cauchy factor.
    The grids are _direct_grid's, as every block's, over one sides dict: each
    window's sides are built and checked once, and the sums read them too."""
    if not _folds(contour):
        raise ContourError("derivative grids need a contour folded by its conjugate symmetry")
    n = _ray_count(contour)
    sides, grids, su, sv = {}, {}, [], []
    for i, j in np.ndindex(len(taus), len(taus)):
        grids[i, j] = _direct_grid(taus[i], taus[j], points[i], points[j], contour, n,
                                   sides, powers)
        if taus[i] < taus[j]:
            grids[i, j] -= _gauss_x_derivatives(taus[j] - taus[i], points[i], points[j], powers)
    for tau, xs in zip(taus, points):
        _, u, wu, eu = _side(sides, contour, n, "u", tau, xs)
        # all u rays sum to 2 Re of the upper X rays' share, whence 2 / (4 pi^2)
        su.append(np.vander(u, moments, increasing=True).T * wu @ eu / (2.0 * math.pi**2))
        _, v, wv, ev = _side(sides, contour, n, "v", tau, xs)
        # the second Y ray's nodes and exponentials are the first's conjugates
        vw = np.vander(v, moments, increasing=True).T * wv
        sv.append(vw[:, :n] @ ev + vw[:, n:] @ ev.conj())
    return grids, su, sv


def _gauss_x_derivatives(dtau, xis, etas, count: int) -> np.ndarray:
    """d^k/dxi^k of the Gaussian term at xis x etas, k < count:
    (-1/s)^k He_k(z) p with s = sqrt(dtau), z = (xi - eta)/s, He_k the
    probabilists' Hermite polynomials."""
    s = math.sqrt(dtau)
    z = (xis[:, None] - etas[None, :]) / s
    p = pearcey_gauss_term(dtau, xis[:, None], etas[None, :])
    he = [np.ones_like(z), z]
    for k in range(1, count - 1):
        he.append(z * he[k] - k * he[k - 1])
    return np.stack([(-1.0 / s) ** k * he[k] * p for k in range(count)])


# ---------------------------------------------------------------------------
# recentred mode: 50-digit coefficient preparation


@lru_cache(maxsize=4096)
def _side_scalars(z: float, t: float):
    """50-digit (tau, (3 tau)^{1/6}, c = (2/27)(3 tau)^{3/2}, phi0, phi1) of
    one (z, t) side: its Pearcey time, the space scale and shift of its Airy
    coordinate, and the constant and linear conjugation exponents."""
    with mp.workdps(50):
        zm = mp.mpf(z)
        tm = mp.mpf(t)
        z4, z6 = zm**4, zm**6
        tau = (1 + 6 * tm * z4) / (3 * z6)
        s6 = (3 * tau) ** (mp.mpf(1) / 6)
        c_ = mp.mpf(2) / 27 * (3 * tau) ** mp.mpf(1.5)
        phi0 = -1 / (4 * (3 * z4) ** 3) - tm / (9 * z4**2) - tm**2 / (3 * z4)
        phi1 = 1 / (3 * z4) + mp.mpf(4) / 3 * tm + z4 / 6 * tm**2
    return tau, s6, c_, phi0, phi1


@lru_cache(maxsize=4096)
def _side_coeffs(z: float, t: float):
    """Quartic exponent coefficients of the recentred variable, plus the
    side's Pearcey time, scale factor B and conjugation exponents phi0, phi1.
    Exact cancellations of size z^{-12} force the high-precision pass;
    everything returned is a plain float."""
    tau, s6, c_, phi0, phi1 = _side_scalars(z, t)
    with mp.workdps(50):
        zm = mp.mpf(z)
        tm = mp.mpf(t)
        z3, z4 = zm**3, zm**4
        a_ = (1 + 3 * tm * z4) / (3 * z3)
        b_ = zm * (1 + 3 * tm * z4)
        p0 = -(a_**4) / 4 + tau * a_**2 / 2 - a_ * c_ - phi0
        p1 = b_ * (-(a_**3) + tau * a_ - c_)
        p2 = -mp.mpf(3) / 2 * a_**2 * b_**2 + tau * b_**2 / 2
        p3 = -a_ * b_**3
        p4 = -(b_**4) / 4
        q0 = a_ * s6 - phi1
        q1 = b_ * s6
        out = dict(tau=tau, B=b_, p0=p0, p1=p1, p2=p2, p3=p3, p4=p4, q0=q0, q1=q1,
                   phi0=phi0, phi1=phi1)
    return {k: float(v) for k, v in out.items()}


def _conj_h(z: float, x, t: float):
    """The conjugating exponent h = z^4 x (x + 6 t^2)/4 of one side."""
    return (z**4 * x / 4.0) * (x + 6.0 * t * t)


@lru_cache(maxsize=4096)
def _gauss_scalars(z: float, t_i: float, t_j: float):
    """Scalar pieces of the conjugated Gaussian term (log-space), prepared in
    high precision: the D^2/(2 dtau) vs phi0 cancellation is z^{-8}-sized."""
    taui, a_, ci, phi0i, phi1i = _side_scalars(z, t_i)
    tauj, b_, cj, phi0j, phi1j = _side_scalars(z, t_j)
    with mp.workdps(50):
        dtau = tauj - taui
        if dtau <= 0:
            raise DomainError("conjugated Gaussian term needs tau_i < tau_j")
        d_ = ci - cj
        logj = (mp.log(3 * taui) + mp.log(3 * tauj)) / 12
        s0 = logj - mp.log(2 * mp.pi * dtau) / 2 - d_**2 / (2 * dtau) + phi0i - phi0j
        cx = d_ * a_ / dtau + phi1i
        cy = -d_ * b_ / dtau - phi1j
        qxx = -(a_**2) / (2 * dtau)
        qyy = -(b_**2) / (2 * dtau)
        qxy = a_ * b_ / dtau
        out = dict(s0=s0, cx=cx, cy=cy, qxx=qxx, qyy=qyy, qxy=qxy)
    return {k: float(v) for k, v in out.items()}


def _quartic(cs, w):
    return cs["p0"] + w * (cs["p1"] + w * (cs["p2"] + w * (cs["p3"] + w * cs["p4"])))


def _recentred_side(sides, spec, n, tag, t, pts, conjugated, vertex):
    """A window's recentred side at Airy time t, memoized in sides under the
    data that fix it: its rays through vertex (tag "u": the first ray of the
    pair at u_angle; "v": the pair at pi - v_angle), their signed nodes w and
    weights, and the checked exp(-/+ e) on the first ray,
    e = quartic(w) + (q0 + q1 w) x + (h or phi)."""
    key = (tag, spec, t, pts.tobytes(), vertex, n, conjugated)
    if key not in sides:
        cs = _side_coeffs(spec.z, t)
        angle = spec.u_angle if tag == "u" else math.pi - spec.v_angle
        c3 = abs(cs["p3"]) * abs(math.cos(3.0 * angle))
        if c3 < 1e-3:
            raise ContourError("recentred ray angle too close to a cubic-neutral direction")
        lin = abs(cs["q1"]) * float(np.max(np.abs(pts))) + abs(cs["p1"])
        radius = _ray_radius([c3 / 3.0, 0.0, -lin], 1.1)
        sign = -1.0 if tag == "u" else +1.0
        rays = ((vertex + 0.0j, angle, sign, radius),
                (vertex + 0.0j, -angle, -sign, radius))[:1 if tag == "u" else 2]
        w, wt = _signed_rays(rays, n)
        g = _conj_h(spec.z, pts, t) if conjugated else cs["phi0"] + cs["phi1"] * pts
        expo = (_quartic(cs, w[:n])[:, None]
                + (cs["q0"] + cs["q1"] * w[:n])[:, None] * pts[None, :]) + g[None, :]
        sides[key] = rays, w, wt, _exp_side(-expo if tag == "u" else expo, n, tag)
    return sides[key]


def _recentred_grid(spec, t_i, t_j, xs, ys, conjugated, n, sides):
    """Recentred K-tilde grid in Airy coordinates at Airy times (t_i, t_j),
    from the u side (t_i, xs) and the v side (t_j, ys) memoized in sides.

    conjugated=True returns the S-conjugated, Jacobian-weighted entries
    directly comparable to airy blocks; conjugated=False undoes the
    conjugation (the raw Pearcey kernel value in (xi, eta) coordinates, with
    no sqrt(dxi deta) weight)."""
    cs_u, cs_v = _side_coeffs(spec.z, t_i), _side_coeffs(spec.z, t_j)
    if min(cs_u["tau"], cs_v["tau"]) < _RECENTER_TAU_MIN:
        raise ContourError(
            f"recentring requires tau >= {_RECENTER_TAU_MIN} (left X-pair drop)"
        )
    _, u, wu, eu = _recentred_side(sides, spec, n, "u", t_i, xs, conjugated,
                                   0.4 + max(0.0, t_j - t_i))
    _, v, wv, ev = _recentred_side(sides, spec, n, "v", t_j, ys, conjugated, -0.4)
    # V - U in original variables, kept in the well-scaled z*O(1) form
    m = _cauchy(cs_u["B"] * u, wu, spec.z * (t_j - t_i) + cs_v["B"] * v, wv, n)
    pref = -cs_u["B"] * cs_v["B"] / (4.0 * math.pi**2)
    if conjugated:
        pref *= (3.0 * cs_u["tau"]) ** (1.0 / 12.0) * (3.0 * cs_v["tau"]) ** (1.0 / 12.0)
    # both ray pairs are conjugate: the sum is 2 Re of the first u ray's share
    return 2.0 * pref * _fold_product(eu.T @ m, ev, n)


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


def _tilde_grid(tau_i, tau_j, xis, etas, contour, sides=None):
    """K-tilde grid in (xi, eta) coordinates, dispatching on the contour;
    either mode's sides are memoized in sides."""
    contour = contour if contour is not None else PearceyContour()
    xis = np.atleast_1d(np.asarray(xis, dtype=float))
    etas = np.atleast_1d(np.asarray(etas, dtype=float))
    spec = contour.recenter
    n = _ray_count(contour)
    sides = {} if sides is None else sides
    if spec is None:
        return _direct_grid(tau_i, tau_j, xis, etas, contour, n, sides)[0]
    t_i, t_j = t_from_tau(tau_i, spec.z), t_from_tau(tau_j, spec.z)
    xs = x_from_xi(xis, tau_i)
    ys = x_from_xi(etas, tau_j)
    return _recentred_grid(spec, t_i, t_j, xs, ys, False, n, sides)


def pearcey_block_grid(tau_i: float, tau_j: float, xis, etas,
                       contour: PearceyContour | None = None, sides=None) -> np.ndarray:
    """The Pearcey kernel block over xis x etas: K-tilde minus the Gaussian
    term when tau_i < tau_j (the Fredholm assembly path shares ``sides``)."""
    xis = np.atleast_1d(np.asarray(xis, dtype=float))
    etas = np.atleast_1d(np.asarray(etas, dtype=float))
    out = _tilde_grid(tau_i, tau_j, xis, etas, contour, sides)
    if tau_i < tau_j:
        out = out - pearcey_gauss_term(tau_j - tau_i, xis[:, None], etas[None, :])
    return out


def conjugated_tilde_grid(z: float, t_i: float, t_j: float, xs, ys,
                          contour: PearceyContour | None = None, sides=None) -> np.ndarray:
    """Conjugated, Jacobian-weighted K-tilde grid in Airy coordinates at Airy
    times (t_i, t_j) and scale z, on recentred contours with the contour's
    recentring angles (the defaults when it has none); its sides are memoized
    in sides."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    contour = contour if contour is not None else PearceyContour()
    rec = contour.recenter or RecenterSpec(z=z)
    spec = RecenterSpec(z=z, u_angle=rec.u_angle, v_angle=rec.v_angle)
    return _recentred_grid(spec, t_i, t_j, xs, ys, True, _ray_count(contour),
                           {} if sides is None else sides)


def conjugated_gauss_grid(z: float, t_i: float, t_j: float, xs, ys) -> np.ndarray:
    """Conjugated Gaussian term in Airy coordinates at Airy times t_i < t_j
    (log-space assembly)."""
    sc = _gauss_scalars(z, t_i, t_j)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    log_col = sc["cx"] * xs + sc["qxx"] * xs**2 - _conj_h(z, xs, t_i)
    log_row = sc["cy"] * ys + sc["qyy"] * ys**2 + _conj_h(z, ys, t_j)
    expo = sc["s0"] + log_col[:, None] + log_row[None, :] + sc["qxy"] * np.outer(xs, ys)
    if float(np.max(expo)) > _EXP_LIMIT:
        raise StabilityError("conjugated Gaussian exponent exceeds float range")
    return np.exp(expo)


def conjugated_block_grid(z: float, t_i: float, t_j: float, xs, ys,
                          contour: PearceyContour | None = None, sides=None) -> np.ndarray:
    """The conjugated kernel block at Airy times (t_i, t_j) and scale z,
    directly comparable to airy_block_grid(t_i, t_j, xs, ys): K-tilde minus
    the Gaussian term when t_i < t_j (the Fredholm path shares ``sides``)."""
    out = conjugated_tilde_grid(z, t_i, t_j, xs, ys, contour, sides)
    if t_i < t_j:
        out = out - conjugated_gauss_grid(z, t_i, t_j, xs, ys)
    return out
