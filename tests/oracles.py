"""Independent references the tests compare the library against: the static
Airy kernel in quotient form, the double-contour representation of the
extended Airy kernel, Airy derivatives of any order, and the forward space
map from Airy to Pearcey coordinates with the window map built on it; the
seeded two-time Pearcey queries that several tests share; and central
differences of any mixed order."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from pearceygap.airy_process import extended_airy_grid
from pearceygap.exceptions import AccuracyError, ContourError, DomainError
from pearceygap.specfun import airy, airy_derivs_upto, ray_rule

_SPLIT = 1e-3  # |x - y| below which the lambda-integral replaces the quotient


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
    return float(extended_airy_grid(0.0, 0.0, x, y)[0, 0])


def airy_deriv(x, k: int):
    """k-th derivative of the Airy function via the ODE recursion.

    A''(x) = x A(x) differentiates to A^(j)(x) = x A^(j-2)(x) + (j-2) A^(j-3)(x),
    so every order is exact in terms of (Ai, Ai') up to rounding.
    """
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise DomainError(f"derivative order must be a non-negative integer, got {k}")
    derivs = airy_derivs_upto(x, k)
    return derivs[k]


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
    """Double-contour representation of the K-tilde entry.

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


def xi_from_x(tau: float, x):
    """Pearcey space coordinate of an Airy coordinate at time tau."""
    if tau <= 0.0:
        raise DomainError(f"tau must be positive, got {tau}")
    x = np.asarray(x, dtype=float)
    val = (2.0 / 27.0) * (3.0 * tau) ** 1.5 - (3.0 * tau) ** (1.0 / 6.0) * x
    return float(val) if val.ndim == 0 else val


def _map_one(window, tau):
    if window is None:
        return None
    a, b = float(window[0]), float(window[1])
    if a >= b:
        raise DomainError(f"window must be ascending, got ({a}, {b})")
    if tau is None:
        raise DomainError("missing tau for a non-empty window")
    lo, hi = sorted((xi_from_x(tau, a), xi_from_x(tau, b)))
    return (lo, hi)


def map_windows(airy_windows, tau1: float, tau2: float | None = None):
    """Endpoint-wise Pearcey windows for the given Airy windows.

    The space map has negative slope, so each mapped window is normalized to
    an ascending interval.  ``None`` marks an explicitly empty window.
    """
    taus = [tau1, tau2]
    if len(airy_windows) > 2:
        raise DomainError("window mapping is defined for at most two time slices")
    return [_map_one(w, taus[i]) for i, w in enumerate(airy_windows)]


def seeded_pearcey_draws():
    """Eight seeded two-time Pearcey queries, as (ascending times, windows):
    times in (1, 6) at least 0.5 apart, windows inside (-5, 5)."""
    rng = np.random.default_rng(2010)
    draws = []
    for _ in range(8):
        times = np.sort(rng.uniform(1.0, 6.0, 2))
        while times[1] - times[0] < 0.5:
            times = np.sort(rng.uniform(1.0, 6.0, 2))
        windows = tuple(tuple(np.sort(rng.uniform(-5.0, 5.0, 2))) for _ in range(2))
        draws.append((tuple(times), windows))
    return draws


# central difference stencils, (offset in steps, weight) with error O(h^2);
# zero-weight points are left out
_STENCILS = {
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
}


def central_difference(f, h: float, **orders) -> float:
    """Mixed partial derivative of f(**offsets) at zero offset, e.g.
    central_difference(f, h, dtau=1, dxi=2): the product of each axis's
    central stencil of the given order, offsets i * h, error O(h^2)."""
    total = 0.0
    for taps in itertools.product(*(_STENCILS[n] for n in orders.values())):
        weight = math.prod(w for _, w in taps)
        total += weight * f(**{axis: i * h for axis, (i, _) in zip(orders, taps)})
    return total / h ** sum(orders.values())
