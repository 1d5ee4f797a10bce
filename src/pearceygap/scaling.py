"""Coordinate bridges between the Pearcey variables (tau, xi, E) and the Airy
variables (t, x, E-tilde): time blow-up, space scaling, the two-time matching
rule, and the u-resubstitution.

All maps are exact closed forms; the asymptotic remainders of the source
formulas (O(z^10) in the time map, O(tau1^{-5/3}) in the matching rule) are
fixed to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError

__all__ = [
    "ScalingParams",
    "tau_from_z",
    "x_from_xi",
    "match_tau2",
    "t_from_u",
    "t_from_tau",
]


def _require_finite(**values) -> None:
    """Reject a non-finite number in any of the named scalars or grids."""
    for name, value in values.items():
        # the float test is the cheap one
        if not (math.isfinite(value) if isinstance(value, float)
                else np.all(np.isfinite(np.asarray(value, dtype=float)))):
            raise DomainError(f"{name} must be finite, got {value}")


def tau_from_z(z: float, t_i: float) -> float:
    """Pearcey time for scale z and Airy time t_i: (1 + 6 t_i z^4)/(3 z^6)."""
    _require_finite(z=z, t_i=t_i)
    if not 0.0 < z < 1.0:
        raise DomainError(f"scale parameter must be in (0, 1), got {z}")
    return _tau(z, t_i)


def _tau(z: float, t: float) -> float:
    # tau_from_z's map without its checks, for for_theorem's root finder
    return (1.0 + 6.0 * t * z**4) / (3.0 * z**6)


def t_from_tau(tau: float, z: float) -> float:
    """Invert tau_from_z at fixed z: t = (3 z^6 tau - 1)/(6 z^4)."""
    _require_finite(tau=tau, z=z)
    if not 0.0 < z < 1.0:
        raise DomainError(f"scale parameter must be in (0, 1), got {z}")
    return (3.0 * z**6 * tau - 1.0) / (6.0 * z**4)


def x_from_xi(xi, tau: float):
    """Airy space coordinate of a Pearcey coordinate xi at time tau:
    x = ((2/27)(3 tau)^{3/2} - xi) / (3 tau)^{1/6}."""
    _require_finite(xi=xi, tau=tau)
    if tau <= 0.0:
        raise DomainError(f"tau must be positive, got {tau}")
    xi = np.asarray(xi, dtype=float)
    val = ((2.0 / 27.0) * (3.0 * tau) ** 1.5 - xi) / (3.0 * tau) ** (1.0 / 6.0)
    return float(val) if val.ndim == 0 else val


def match_tau2(tau1: float, t1: float, t2: float) -> float:
    """Second Pearcey time matched to (tau1, t1, t2):

    tau2 = tau1 + 2(t2-t1) [ (3 tau1)^(1/3) + (t2-t1)/(3 tau1)^(1/3)
                             + 2 t1 t2 / (3 tau1) ].
    """
    _require_finite(tau1=tau1, t1=t1, t2=t2)
    if tau1 <= 0.0:
        raise DomainError(f"tau1 must be positive, got {tau1}")
    if t2 <= t1:
        raise DomainError(f"need t2 > t1, got t1={t1}, t2={t2}")
    d = t2 - t1
    c = (3.0 * tau1) ** (1.0 / 3.0)
    return tau1 + 2.0 * d * (c + d / c + 2.0 * t1 * t2 / (3.0 * tau1))


def t_from_u(u_i: float, z: float) -> float:
    """The re-substituted Airy time t = u (1 + u z^4)."""
    _require_finite(u_i=u_i, z=z)
    if not 0.0 < z < 1.0:
        raise DomainError(f"scale parameter must be in (0, 1), got {z}")
    return _t_of_u(u_i, z)


def _t_of_u(u: float, z: float) -> float:
    # t_from_u's map without its checks, for for_theorem's root finder
    return u * (1.0 + u * z**4)


@dataclass(frozen=True)
class ScalingParams:
    """One consistent set of scale/time parameters for kernel comparisons:
    the scale z, the Airy times t1/t2 the conjugated kernel uses, and the
    Pearcey times tau1/tau2 they blow up to."""

    z: float
    t1: float
    t2: float
    tau1: float
    tau2: float

    @classmethod
    def from_z(cls, z: float, t: float = 0.0, s: float = 0.0) -> "ScalingParams":
        """Exact z-parametrization: both taus from tau_from_z."""
        _require_finite(z=z, t=t, s=s)
        t1, t2 = t + s, t - s
        return cls(z=z, t1=t1, t2=t2, tau1=tau_from_z(z, t1), tau2=tau_from_z(z, t2))

    @classmethod
    def for_theorem(cls, tau1: float, u1: float, u2: float) -> "ScalingParams":
        """Theorem-study parametrization: tau2 from the matching rule.

        z solves tau1 = tau_from_z(z, u1 (1 + u1 z^4)); the second kernel time
        inverts the time map at the matched tau2, so both (tau_i, t_i) pairs
        satisfy the blow-up relation exactly.
        """
        _require_finite(tau1=tau1, u1=u1, u2=u2)
        if tau1 <= 0.0:
            raise DomainError(f"tau1 must be positive, got {tau1}")
        if u2 <= u1:
            raise DomainError(f"need u2 > u1, got u1={u1}, u2={u2}")

        def mismatch(z):
            # z stays in [lo, hi], inside (0, 1), so the maps' checks are skipped
            return _tau(z, _t_of_u(u1, z)) - tau1

        lo, hi = 1e-3, 0.6
        # written so that a nan mismatch (a t that overflows) is refused too
        if not mismatch(hi) <= 0.0 <= mismatch(lo):
            raise DomainError(f"tau1={tau1} outside the solvable range for u1={u1}")
        # bisection down to adjacent floats: the mismatch falls through 0 on [lo, hi]
        z = 0.5 * (lo + hi)
        while lo < z < hi:
            lo, hi = (z, hi) if mismatch(z) > 0.0 else (lo, z)
            z = 0.5 * (lo + hi)
        t1 = t_from_u(u1, z)
        tau2 = match_tau2(tau1, u1, u2)
        t2 = t_from_tau(tau2, z)
        return cls(z=z, t1=t1, t2=t2, tau1=tau1, tau2=tau2)

    @classmethod
    def for_single_time(cls, tau: float) -> "ScalingParams":
        """One-time parametrization at t = 0: z = (3 tau)^{-1/6}."""
        _require_finite(tau=tau)
        if tau <= 0.0:
            raise DomainError(f"tau must be positive, got {tau}")
        z = (3.0 * tau) ** (-1.0 / 6.0)
        return cls(z=z, t1=0.0, t2=0.0, tau1=tau, tau2=tau)
