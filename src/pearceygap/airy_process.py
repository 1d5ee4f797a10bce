"""Extended Airy kernel blocks: the lambda-integral K-tilde, the static
Airy kernel in closed form, and the heat-kernel correction term subtracted
from time-ordered blocks.

K-tilde(t_i, t_j; x, y) = int_0^inf e^{-lam (t_i - t_j)} Ai(x+lam) Ai(y+lam) dlam
is evaluated by one Gauss rule (lam, w) on (0, L), on which a block is a
product of two sides, K-tilde = A_i diag(w e^{-(t_i - t_j) lam}) A_j^T with
A = Ai(x + lam).  A block sizes its rule from its own address alone: its
time gap and the lowest points of its two windows fix the cut L (_tail) and
the node count (_lambda_nodes), so it has one value alone or inside any
Fredholm determinant.  The caller's ``sides`` dict (one per determinant)
memoizes each size, so a block and its transpose probe once, and each side
under its points, L and node count, so Ai is evaluated once per window.

An equal-time block over one window on both sides (a diagonal block of a
Fredholm determinant) is the static Airy kernel, which airy_block_grid
evaluates in its Christoffel-Darboux form from Ai and Ai' at the points
(see _static_airy_grid): no lambda-rule, no probe and no tail check.

Block entries subtract a heat-kernel term when the first time is strictly
smaller than the second.  Each routine is addressed by its two times and its
points, (t_i, t_j, xs, ys).
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import AccuracyError, DomainError
from .specfun import airy, gauss_rule

__all__ = ["extended_airy_grid", "airy_heat_term", "airy_block_grid"]

_TAIL_RTOL = 1e-14
# node counts the lambda-rule's probe walks, up to its hard top
_LAMBDA_LADDER = (32, 48, 64, 96, 128, 192, 256, 384, 512)
# Largest probe gap between two consecutive levels, relative to sum w|f|, that
# counts as settled.  Calibrated on 1,200 seeded pairs (lowest points in
# [-40, 2] or [-20, 2], time differences in [-4, 4] or [-2, 2]) against a
# 16-panel composite Gauss rule: levels that have settled differ by at most
# 4e-12 (the rounding floor), a level two or more steps short of settling by
# at least 1e-7, and the finer level of every pair accepted at 1e-11 is within
# 1.5e-12 of the reference.
_LAMBDA_TOL = 1e-11


def _tail(low: float) -> float:
    """The cut L of (0, L) for points whose lowest is ``low``: at least 30, and
    far enough that Airy decay beats the e^{|t_i - t_j| lam} weight for
    |t_i - t_j| <= 2.  With s = low + L, Ai(s) <= e^{-(2/3) s^{3/2}} bounds
    the weighted endpoint by e^{2L - (4/3) s^{3/2}}, and for s >= 16,
    (4/3) s^{3/2} - 2s >= (5/6) s^{3/2}.  So s = (1.2 (36 - 2 low))^{2/3}
    keeps the endpoint below e^{-36}, under 1e-14 of the squared peak Ai(-1.02)^2
    = 0.29 that any window below -1 reaches.  The cut stays 30 for lows above
    about -12.5; above 18 the base 36 - 2 low is clamped at 0."""
    low = float(low)
    return max(30.0, (1.2 * max(0.0, 36.0 - 2.0 * low)) ** (2.0 / 3.0) - low)


def _lambda_nodes(dt: float, low_x: float, low_y: float) -> int:
    """Node count of the lambda-rule of a block with time gap ``dt`` = t_i - t_j
    whose windows have lowest points ``low_x`` and ``low_y``.

    The probe integrates f = e^{-+dt lam} Ai(low_x + lam) Ai(low_y + lam) in
    both time orders, so a block and its transpose get one size, over the
    block's own cut _tail(min(low_x, low_y)), at the lowest points, where Ai
    oscillates most.  It walks _LAMBDA_LADDER until two consecutive levels
    agree within _LAMBDA_TOL of sum w|f| (not of the integral, which may
    cancel) in both orders, and returns the finer level.
    """
    lows = np.array([low_x, low_y], dtype=float)
    dts = np.array([[dt], [-dt]], dtype=float)
    tail = _tail(np.min(lows))
    prev, gap = None, math.inf
    for n in _LAMBDA_LADDER:
        rule = gauss_rule(n, 0.0, tail)
        a = airy(lows[:, None] + rule.nodes).ai
        f = rule.weights * np.exp(-dts * rule.nodes) * a * a[::-1]
        value = f.sum(axis=-1)
        if prev is not None:
            # Ai underflows to 0 far right, where both levels agree on 0
            scale = np.maximum(np.abs(f).sum(axis=-1), np.finfo(float).tiny)
            gap = float(np.max(np.abs(value - prev) / scale))
            if gap <= _LAMBDA_TOL:
                return n
        prev = value
    raise AccuracyError(
        f"lambda-rule of the block with time gap {abs(dt):g} and lowest points {low_x:g}, "
        f"{low_y:g} did not settle by {_LAMBDA_LADDER[-1]} nodes: the probe moved by {gap:.3e} "
        f"of its scale from {_LAMBDA_LADDER[-2]} nodes (tolerance {_LAMBDA_TOL:g})"
    )


def _airy_side(sides: dict, pts: np.ndarray, rule, tail: float):
    """Ai(pts + lam) with its peak |Ai| and its endpoint Ai(min pts + tail),
    built once per (points, tail, node count) in sides."""
    key = (pts.tobytes(), tail, rule.nodes.size)
    if key not in sides:
        a = airy(pts[:, None] + rule.nodes[None, :]).ai
        sides[key] = (a, float(np.max(np.abs(a))), airy(float(np.min(pts)) + tail).ai)
    return sides[key]


def extended_airy_grid(t_i: float, t_j: float, xs, ys, sides=None) -> np.ndarray:
    """Matrix of K-tilde entries over xs x ys: the lambda-integral by one
    Gauss rule on (0, L), L = _tail(min(xs, ys)), with the node count
    _lambda_nodes picks for this block's time gap and lowest points (memoized
    in ``sides``); the time-weighted product of the two sides."""
    if not (np.isfinite(t_i) and np.isfinite(t_j)):
        raise DomainError("times must be finite")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    sides = {} if sides is None else sides
    dt = t_i - t_j
    lows = float(np.min(xs)), float(np.min(ys))
    size = (abs(dt), *sorted(lows))
    if size not in sides:
        sides[size] = _lambda_nodes(dt, *lows)
    tail = _tail(min(lows))
    rule = gauss_rule(sides[size], 0.0, tail)
    ax, x_peak, x_end = _airy_side(sides, xs, rule, tail)
    ay, y_peak, y_end = _airy_side(sides, ys, rule, tail)
    peak = x_peak * y_peak
    end = x_end * y_end * math.exp(-dt * tail)
    if peak > 0.0 and abs(end) > _TAIL_RTOL * peak:
        raise AccuracyError(
            f"lambda-integrand not decayed at tail_cut={tail}: endpoint/max = "
            f"{abs(end) / peak:.3e} (needs <= {_TAIL_RTOL})"
        )
    return (ax * (rule.weights * np.exp(-dt * rule.nodes))[None, :]) @ ay.T


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


def _static_airy_grid(xs: np.ndarray) -> np.ndarray:
    """The static Airy kernel over xs x xs from one Airy call on xs:
    K(x, y) = (Ai(x) Ai'(y) - Ai'(x) Ai(y)) / (x - y), and
    K(x, x) = Ai'(x)^2 - x Ai(x)^2 where the points coincide.

    The numerator cancels as y nears x: its rounding error of about
    eps |Ai Ai'| is divided by |x - y|, so the entry's absolute error is about
    eps |Ai(x) Ai'(x)| / |x - y| for the closest pair of distinct points.
    Against the lambda-integral over 40 seeded Gauss grids (m up to 160,
    windows 2 to 16 wide, lows in [-20, 2]) the largest error was 1.7e-12 of
    the block's largest entry, at m = 160 on a window 4.6 wide.  The block is
    exactly symmetric."""
    v = airy(xs)
    ai, aip = v.ai, v.aip
    gap = np.subtract.outer(xs, xs)
    same = gap == 0.0
    cross = np.outer(ai, aip)
    quotient = (cross - cross.T) / np.where(same, 1.0, gap)
    return np.where(same, (aip * aip - xs * ai * ai)[:, None], quotient)


def airy_block_grid(t_i: float, t_j: float, xs, ys, sides=None) -> np.ndarray:
    """The extended Airy kernel block over xs x ys: K-tilde minus the heat
    term when t_i < t_j (the Fredholm assembly path shares ``sides``).  An
    equal-time block with ys equal to xs is the static kernel in closed form."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    if t_i == t_j and math.isfinite(t_i) and np.array_equal(xs, ys):
        return _static_airy_grid(xs)
    out = extended_airy_grid(t_i, t_j, xs, ys, sides)
    if t_i < t_j:
        out = out - airy_heat_term(t_j - t_i, xs[:, None], ys[None, :])
    return out
