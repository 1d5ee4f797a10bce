"""Static and extended Airy kernels, the heat-kernel correction term, and the
time-ordered block entries assembled from them.

The extended kernel has two interchangeable representations:

* a lambda-integral ``int_0^inf e^{-lam (t_i - t_j)} Ai(x+lam) Ai(y+lam) dlam``
  (the production path, evaluated by Gauss quadrature on (0, tail_cut)), and
* a double contour integral over two ray pairs (kept as an independent oracle;
  see :func:`extended_airy_contour`).

Block entries subtract a heat-kernel term when the first time is strictly
smaller than the second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import AccuracyError, ContourError, DomainError
from .specfun import QuadratureRule, airy, gauss_rule, ray_rule

__all__ = [
    "AiryKernelSpec",
    "AiryContour",
    "airy_kernel",
    "extended_airy",
    "extended_airy_grid",
    "extended_airy_contour",
    "airy_heat_term",
    "airy_block",
    "airy_block_grid",
]

_SPLIT = 1e-3  # |x - y| below which the lambda-integral replaces the quotient
_TAIL_RTOL = 1e-14


@dataclass(frozen=True)
class AiryKernelSpec:
    """Times plus the lambda-quadrature rule for one extended-kernel entry."""

    t_i: float
    t_j: float
    lambda_rule: QuadratureRule
    tail_cut: float

    @classmethod
    def build(cls, t_i: float, t_j: float, x_floor: float = -10.0, n: int = 200):
        """Rule on (0, L) with L = max(30, 10 - x_floor); Airy decay beats the
        e^{|t_i-t_j| lam} weight by a wide margin for the |t| <= 2 regime."""
        if not (np.isfinite(t_i) and np.isfinite(t_j)):
            raise DomainError("times must be finite")
        tail = max(30.0, 10.0 - float(x_floor))
        return cls(
            t_i=float(t_i),
            t_j=float(t_j),
            lambda_rule=gauss_rule(n, 0.0, tail),
            tail_cut=tail,
        )


def _check_tail(spec: AiryKernelSpec, x: float, y: float, peak: float) -> None:
    dt = spec.t_i - spec.t_j
    lam = spec.tail_cut
    end = airy(x + lam).ai * airy(y + lam).ai * math.exp(-dt * lam)
    if peak > 0.0 and abs(end) > _TAIL_RTOL * peak:
        raise AccuracyError(
            f"lambda-integrand not decayed at tail_cut={lam}: endpoint/max = "
            f"{abs(end) / peak:.3e} (needs <= {_TAIL_RTOL})"
        )


def extended_airy(spec: AiryKernelSpec, x: float, y: float) -> float:
    """K-tilde entry: weighted lambda-integral of shifted Airy products."""
    lam = spec.lambda_rule.nodes
    w = spec.lambda_rule.weights
    dt = spec.t_i - spec.t_j
    vals = airy(x + lam).ai * airy(y + lam).ai * np.exp(-dt * lam)
    peak = float(np.max(np.abs(vals)))
    _check_tail(spec, x, y, peak)
    return float(np.sum(w * vals))


def extended_airy_grid(spec: AiryKernelSpec, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Matrix of K-tilde entries over xs x ys (one lambda rule, three matmuls)."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    lam = spec.lambda_rule.nodes
    w = spec.lambda_rule.weights
    dt = spec.t_i - spec.t_j
    ax = airy(xs[:, None] + lam[None, :]).ai
    ay = airy(ys[:, None] + lam[None, :]).ai
    _check_tail(spec, float(np.min(xs)), float(np.min(ys)),
                float(np.max(np.abs(ax)) * np.max(np.abs(ay))))
    return (ax * (w * np.exp(-dt * lam))[None, :]) @ ay.T


def airy_kernel(x: float, y: float) -> float:
    """Static Airy kernel; quotient form away from the diagonal, the
    lambda-integral inside |x - y| < 1e-3 where the quotient cancels."""
    x = float(x)
    y = float(y)
    if not (np.isfinite(x) and np.isfinite(y)):
        raise DomainError("airy_kernel: non-finite argument")
    if abs(x - y) >= _SPLIT:
        vx = airy(x)
        vy = airy(y)
        return (vx.ai * vy.aip - vy.ai * vx.aip) / (x - y)
    spec = AiryKernelSpec.build(0.0, 0.0, x_floor=min(x, y))
    return extended_airy(spec, x, y)


def airy_heat_term(t: float, x, y):
    """Heat-kernel correction p(t, x, y) subtracted from time-ordered blocks."""
    t = float(t)
    if not t > 0.0:
        raise DomainError(f"heat term needs t > 0, got {t}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    val = (
        np.exp(t**3 / 12.0 - (x - y) ** 2 / (4.0 * t) - 0.5 * t * (x + y))
        / math.sqrt(4.0 * math.pi * t)
    )
    return float(val) if val.ndim == 0 else val


def airy_block(t_i: float, t_j: float, x: float, y: float) -> float:
    """Full extended-kernel entry with the time-ordering gate."""
    spec = AiryKernelSpec.build(t_i, t_j, x_floor=min(x, y, -10.0))
    val = extended_airy(spec, x, y)
    if t_i < t_j:
        val -= airy_heat_term(t_j - t_i, x, y)
    return val


def airy_block_grid(t_i: float, t_j: float, xs, ys, n: int = 200) -> np.ndarray:
    """Grid of airy_block entries (used by the Fredholm assembler)."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    floor = min(float(np.min(xs)), float(np.min(ys)), -10.0)
    spec = AiryKernelSpec.build(t_i, t_j, x_floor=floor, n=n)
    out = extended_airy_grid(spec, xs, ys)
    if t_i < t_j:
        out = out - airy_heat_term(t_j - t_i, xs[:, None], ys[None, :])
    return out


@dataclass(frozen=True)
class AiryContour:
    """Ray-pair geometry for the double-contour representation.

    theta1/theta1p: u-ray angles off the positive real axis (upper/lower);
    theta2/theta2p: v-ray angles off the negative real axis.  All four must
    lie strictly inside (pi/6, pi/2), the sector where the cubic exponent
    decays along both ray systems.
    """

    theta1: float
    theta1p: float
    theta2: float
    theta2p: float
    radius: float = 14.0
    nodes_per_ray: int = 160

    def __post_init__(self):
        for name in ("theta1", "theta1p", "theta2", "theta2p"):
            ang = getattr(self, name)
            if not (math.pi / 6.0 < ang < math.pi / 2.0):
                raise ContourError(
                    f"{name}={ang:.6f} outside the admissible band (pi/6, pi/2)"
                )
        if self.radius <= 0.0:
            raise ContourError("truncation radius must be positive")
        if self.nodes_per_ray < 4:
            raise ContourError("need at least 4 nodes per ray")


def extended_airy_contour(
    t_i: float, t_j: float, x: float, y: float, contour: AiryContour
) -> float:
    """Double-contour representation of the K-tilde entry (oracle path).

    The u-contour (right pair, traversed downward) and v-contour (left pair,
    traversed upward) are anchored at small real vertices keeping
    Re(u + t_i) - Re(v + t_j) >= 0.8, which both bounds the denominator away
    from zero and makes the two representations exactly equal.
    """
    dt = t_j - t_i
    cu = 0.4 + max(0.0, dt)
    cv = -0.4 + min(0.0, dt)
    n = contour.nodes_per_ray
    rad = contour.radius

    u_up, wu_up = ray_rule(cu, contour.theta1, rad, n)
    u_dn, wu_dn = ray_rule(cu, -contour.theta1p, rad, n)
    # downward traversal: in along the upper ray, out along the lower
    u = np.concatenate([u_up, u_dn])
    wu = np.concatenate([-wu_up, wu_dn])

    v_up, wv_up = ray_rule(cv, math.pi - contour.theta2, rad, n)
    v_dn, wv_dn = ray_rule(cv, -(math.pi - contour.theta2p), rad, n)
    # upward traversal: in along the lower ray, out along the upper
    v = np.concatenate([v_up, v_dn])
    wv = np.concatenate([wv_up, -wv_dn])

    fu = np.exp(u**3 / 3.0 - x * u)
    fv = np.exp(-(v**3) / 3.0 + y * v)
    for f, tag in ((fu, "u"), (fv, "v")):
        m = float(np.max(np.abs(f)))
        ends = max(abs(f[n - 1]), abs(f[-1]))
        if ends > 1e-12 * m:
            raise AccuracyError(
                f"{tag}-ray envelope not decayed at radius {rad}: {ends / m:.3e}"
            )
    denom = (v[None, :] + t_j) - (u[:, None] + t_i)
    val = (wu * fu) @ (1.0 / denom) @ (wv * fv)
    val = val / (2.0j * math.pi) ** 2
    if abs(val.imag) > 1e-8 * max(abs(val.real), 1e-300):
        raise AccuracyError(f"contour value has imaginary residue {val.imag:.3e}")
    return float(val.real)
