"""Coordinate bridges between the Pearcey variables (tau, xi, E) and the Airy
variables (t, x, E-tilde): time blow-up, space scaling, the two-time matching
rule, window mapping, and the u-resubstitution.

All maps are exact closed forms; the asymptotic remainders of the source
formulas (O(z^10) in the time map, O(tau1^{-5/3}) in the matching rule) are
fixed to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .exceptions import DomainError

__all__ = [
    "ScalingParams",
    "tau_from_z",
    "xi_from_x",
    "x_from_xi",
    "match_tau2",
    "map_windows",
    "u_from_t",
    "t_from_u",
    "t_from_tau",
]


def tau_from_z(z: float, t_i: float) -> float:
    """Pearcey time for scale z and Airy time t_i: (1 + 6 t_i z^4)/(3 z^6)."""
    if not 0.0 < z < 1.0:
        raise DomainError(f"scale parameter must be in (0, 1), got {z}")
    return (1.0 + 6.0 * t_i * z**4) / (3.0 * z**6)


def t_from_tau(tau: float, z: float) -> float:
    """Invert tau_from_z at fixed z: t = (3 z^6 tau - 1)/(6 z^4)."""
    if not 0.0 < z < 1.0:
        raise DomainError(f"scale parameter must be in (0, 1), got {z}")
    return (3.0 * z**6 * tau - 1.0) / (6.0 * z**4)


def xi_from_x(tau: float, x):
    """Pearcey space coordinate of an Airy coordinate at time tau."""
    if tau <= 0.0:
        raise DomainError(f"tau must be positive, got {tau}")
    x = np.asarray(x, dtype=float)
    val = (2.0 / 27.0) * (3.0 * tau) ** 1.5 - (3.0 * tau) ** (1.0 / 6.0) * x
    return float(val) if val.ndim == 0 else val


def x_from_xi(xi, tau: float):
    """Inverse of xi_from_x at fixed tau."""
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
    if tau1 <= 0.0:
        raise DomainError(f"tau1 must be positive, got {tau1}")
    if t2 <= t1:
        raise DomainError(f"need t2 > t1, got t1={t1}, t2={t2}")
    d = t2 - t1
    c = (3.0 * tau1) ** (1.0 / 3.0)
    return tau1 + 2.0 * d * (c + d / c + 2.0 * t1 * t2 / (3.0 * tau1))


def u_from_t(t_i: float, z: float) -> float:
    """Invert t = u (1 + u z^4) on the branch with u -> t as z -> 0."""
    if not 0.0 < z < 1.0:
        raise DomainError(f"scale parameter must be in (0, 1), got {z}")
    disc = 1.0 + 4.0 * t_i * z**4
    if disc <= 0.0:
        raise DomainError(f"u-substitution not invertible at t={t_i}, z={z}")
    return 2.0 * t_i / (1.0 + math.sqrt(disc))


def t_from_u(u_i: float, z: float) -> float:
    """The re-substituted Airy time t = u (1 + u z^4)."""
    if not 0.0 < z < 1.0:
        raise DomainError(f"scale parameter must be in (0, 1), got {z}")
    return u_i * (1.0 + u_i * z**4)


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


@dataclass(frozen=True)
class ScalingParams:
    """One consistent set of scale/time parameters for kernel comparisons.

    t1/t2 are the Airy times the conjugated kernel actually uses; u1/u2 are
    the re-substituted times studies report; s and t are the half-difference
    and mean of (t1, t2).
    """

    z: float
    t1: float
    t2: float
    s: float
    t: float
    tau1: float
    tau2: float
    u1: float = field(default=0.0)
    u2: float = field(default=0.0)

    @classmethod
    def from_z(cls, z: float, t: float = 0.0, s: float = 0.0) -> "ScalingParams":
        """Exact z-parametrization: both taus from tau_from_z."""
        t1, t2 = t + s, t - s
        return cls(
            z=z,
            t1=t1,
            t2=t2,
            s=s,
            t=t,
            tau1=tau_from_z(z, t1),
            tau2=tau_from_z(z, t2),
            u1=u_from_t(t1, z),
            u2=u_from_t(t2, z),
        )

    @classmethod
    def for_theorem(cls, tau1: float, u1: float, u2: float) -> "ScalingParams":
        """Theorem-study parametrization: tau2 from the matching rule.

        z solves tau1 = tau_from_z(z, u1 (1 + u1 z^4)); the second kernel time
        inverts the time map at the matched tau2, so both (tau_i, t_i) pairs
        satisfy the blow-up relation exactly.
        """
        if tau1 <= 0.0:
            raise DomainError(f"tau1 must be positive, got {tau1}")
        if u2 <= u1:
            raise DomainError(f"need u2 > u1, got u1={u1}, u2={u2}")

        def mismatch(z):
            return tau_from_z(z, t_from_u(u1, z)) - tau1

        lo, hi = 1e-3, 0.6
        if mismatch(hi) > 0.0 or mismatch(lo) < 0.0:
            raise DomainError(f"tau1={tau1} outside the solvable range for u1={u1}")
        z = float(brentq(mismatch, lo, hi, xtol=1e-15, rtol=8.9e-16))
        t1 = t_from_u(u1, z)
        tau2 = match_tau2(tau1, u1, u2)
        t2 = t_from_tau(tau2, z)
        return cls(
            z=z,
            t1=t1,
            t2=t2,
            s=0.5 * (t1 - t2),
            t=0.5 * (t1 + t2),
            tau1=tau1,
            tau2=tau2,
            u1=u1,
            u2=u2,
        )

    @classmethod
    def for_single_time(cls, tau: float) -> "ScalingParams":
        """One-time parametrization at t = 0: z = (3 tau)^{-1/6}."""
        if tau <= 0.0:
            raise DomainError(f"tau must be positive, got {tau}")
        z = (3.0 * tau) ** (-1.0 / 6.0)
        return cls(z=z, t1=0.0, t2=0.0, s=0.0, t=0.0, tau1=tau, tau2=tau, u1=0.0, u2=0.0)
