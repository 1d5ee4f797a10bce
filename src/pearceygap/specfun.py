"""Airy function and its derivatives, Gauss-Legendre rules on intervals and
on rays, and the ladder walk that sizes every adaptive quadrature.

Ai and Ai' have three branches.  At x < -10 they come from
``scipy.special.airy``.  On -10 <= x <= 10 they are Taylor sums about the
nearest of 81 anchors spaced 0.25 apart: the anchor values are filled at
import by Taylor steps backward from the series value at x = 10 (Ai's stable
direction), and the coefficients follow from Ai'' = x Ai by the recurrence
(k+2)(k+1) c_{k+2} = x0 c_k + c_{k-1}; 14 terms reach rounding at
|x - x0| <= 0.125.  At x > 10 they come from the asymptotic series
DLMF 9.7.5-9.7.6, truncated after 23 terms.  For real x > 0 the remainder is
below the first neglected term (DLMF 9.7(iv)), which at x = 10 is below
2^-56; the error that is left is the rounding of zeta inside e^{-zeta}, as in
scipy.  Each branch is elementwise, so a point's value does not depend on the
batch it is evaluated in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import special

from .exceptions import AccuracyError, DomainError, ValidityError

__all__ = ["AiryValue", "QuadratureRule", "airy", "airy_derivs_upto", "gauss_rule", "ray_rule"]


@dataclass(frozen=True)
class AiryValue:
    """Value pair (Ai, Ai') at a point; arrays allowed for grid evaluation."""

    x: float | np.ndarray
    ai: float | np.ndarray
    aip: float | np.ndarray


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes/weights affinely mapped onto an interval."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.nodes.shape != self.weights.shape:
            raise DomainError("nodes and weights must have equal length")


@lru_cache(maxsize=256)
def _leggauss(m: int):
    x, w = leggauss(m)
    return x, w


def gauss_rule(m: int, a: float, b: float) -> QuadratureRule:
    """Gauss-Legendre rule with ``m`` nodes on (a, b)."""
    if m < 1:
        raise DomainError(f"node count must be >= 1, got {m}")
    if not (np.isfinite(a) and np.isfinite(b)):
        raise DomainError("interval endpoints must be finite")
    if a >= b:
        raise DomainError(f"need a < b, got a={a}, b={b}")
    x, w = _leggauss(int(m))
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return QuadratureRule(nodes=mid + half * x, weights=half * w)


def ray_rule(vertex: complex, angle: float, radius: float, n: int):
    """Nodes and weights (complex line element included) of an ``n``-node
    Gauss-Legendre rule on the outgoing ray from ``vertex`` at ``angle``,
    truncated at ``radius``."""
    rule = gauss_rule(n, 0.0, radius)
    d = complex(math.cos(angle), math.sin(angle))
    return vertex + rule.nodes * d, rule.weights * d


# the node counts every adaptive quadrature is sized from; the top, 512, bounds
# every walk (seeded queries settle at 48-96; up to 2048 a Pearcey query that
# cannot settle only refused later: tau = 0, (-30, 30) took 3 s and 1.1 GB)
_LADDER = (32, 48, 64, 96, 128, 192, 256, 384, 512)


def walk_ladder(measure, tol: float, what: str, unit: str):
    """The node count of an adaptive quadrature, and the largest gap at it: the
    finer of the first two consecutive levels of _LADDER (read at call time)
    where measure(n), label -> (value, scale), agrees within tol of the finer
    level's scale at every label.  A level at which measure raises
    AccuracyError or ValidityError has not settled (no count mends the other
    errors); if none settles, AccuracyError names ``what``, the top level in
    ``unit`` and the last failure."""
    prev = None
    for n in _LADDER:
        try:
            cur = measure(n)
        except (AccuracyError, ValidityError) as exc:
            prev, failure = None, f"at {n} {unit}, {exc}"
            continue
        if prev is not None:
            gaps = {label: abs(value - prev[label][0]) / scale
                    for label, (value, scale) in cur.items()}
            # a nan gap is the worst: it never settles
            worst = max(gaps, key=lambda label: (math.isnan(gaps[label]), gaps[label]))
            if gaps[worst] <= tol:
                return n, gaps[worst]
            failure = (f"{worst} moved by {gaps[worst]:.3e} from {coarse} to {n} "
                       f"(tolerance {tol:g})")
        prev, coarse = cur, n
    raise AccuracyError(f"{what} did not settle by {_LADDER[-1]} {unit}: {failure}")


# scipy's own split point: above it special.airy takes the complex AMOS path
_SERIES_FROM = 10.0
# terms of the series: the first neglected one is below 2^-56 at zeta(10)
_SERIES_TERMS = 23
# the Taylor branch covers [_TAYLOR_FROM, _SERIES_FROM] from anchors this far apart
_TAYLOR_FROM, _ANCHOR_STEP = -10.0, 0.25
# Taylor terms kept per anchor (the first neglected one at |x - x0| <= 0.125 is
# below 1e-16 of the local Ai or Ai' scale), and per import-time step of 0.25
_TAYLOR_TERMS, _STEP_TERMS = 14, 24


def _series_coefficients(n: int):
    """Pairs ((-1)^k u_k, (-1)^k v_k) of DLMF 9.7.2, from k = n-1 down to 0
    (Horner order), in plain floats."""
    u = [1.0]
    for k in range(1, n):
        u.append(u[-1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / (216 * k * (2 * k - 1)))
    return tuple(((-1) ** k * u[k], (-1) ** (k + 1) * (6 * k + 1) / (6 * k - 1) * u[k])
                 for k in reversed(range(n)))


# shape (terms, 2, 1): Horner steps run on one stacked (2, n) array
_SERIES = np.array(_series_coefficients(_SERIES_TERMS))[:, :, None]


def _airy_series(x: np.ndarray) -> np.ndarray:
    """Rows Ai, Ai' at x > 10 by DLMF 9.7.5-9.7.6, Horner's rule in 1/zeta."""
    # zeta overflows to inf only where e^{-zeta} is 0 anyway
    with np.errstate(over="ignore"):
        zeta = 2.0 * x * np.sqrt(x) / 3.0
    # r stacked to the shape of s, so no step broadcasts it
    r = np.stack([1.0 / zeta] * 2)
    s = np.empty_like(r)
    s[:] = _SERIES[0]
    for c in _SERIES[1:]:
        s *= r
        s += c
    q = np.sqrt(np.sqrt(x))
    e = np.exp(-zeta) / (2.0 * math.sqrt(math.pi))
    s *= np.stack([e / q, -q * e])
    return s


def _taylor_table() -> np.ndarray:
    """Taylor coefficients of Ai and Ai' about each anchor, shape
    (_TAYLOR_TERMS, 2, anchors), from anchor x = 10 (the series value) down."""
    anchors = _TAYLOR_FROM + _ANCHOR_STEP * np.arange(
        round((_SERIES_FROM - _TAYLOR_FROM) / _ANCHOR_STEP) + 1)
    table = np.empty((_TAYLOR_TERMS, 2, anchors.size))
    c = _airy_series(np.array([_SERIES_FROM]))[:, 0].tolist()
    for a in reversed(range(anchors.size)):
        x0 = float(anchors[a])
        for k in range(2, _STEP_TERMS + 1):
            c.append((x0 * c[k - 2] + (c[k - 3] if k > 2 else 0.0)) / (k * (k - 1)))
        dc = [(k + 1) * c[k + 1] for k in range(_STEP_TERMS)]
        table[:, 0, a], table[:, 1, a] = c[:_TAYLOR_TERMS], dc[:_TAYLOR_TERMS]
        ai = aip = 0.0
        for k in reversed(range(_STEP_TERMS)):
            ai, aip = ai * -_ANCHOR_STEP + c[k], aip * -_ANCHOR_STEP + dc[k]
        c = [ai, aip]
    return table


_TAYLOR = _taylor_table()


def _airy_taylor(x: np.ndarray) -> np.ndarray:
    """Rows Ai, Ai' on -10 <= x <= 10: one gather of the nearest anchor's
    coefficients, then Horner's rule in h = x - x0 (exact, |h| <= 0.125)."""
    i = np.rint((x - _TAYLOR_FROM) / _ANCHOR_STEP).astype(np.intp)
    h = np.stack([x - (_TAYLOR_FROM + _ANCHOR_STEP * i)] * 2)
    c = np.take(_TAYLOR, i, axis=2)
    s = c[-1].copy()
    for k in range(_TAYLOR_TERMS - 2, -1, -1):
        s *= h
        s += c[k]
    return s


def airy(x) -> AiryValue:
    """Airy function value and first derivative at ``x`` (scalar or array),
    each point from its branch: scipy below -10, the Taylor anchors on
    [-10, 10], the asymptotic series above 10.  Scalars take the array path."""
    scalar = np.isscalar(x)
    xa = float(x) if scalar else np.asarray(x, dtype=float)
    xv = np.ravel(xa)
    # bounds with 0 thrown in, so an empty array passes; a nan or inf spoils them
    lo, hi = xv.min(initial=0.0), xv.max(initial=0.0)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("airy: non-finite argument")
    if _TAYLOR_FROM <= lo and hi <= _SERIES_FROM:
        ai, aip = _airy_taylor(xv)
    else:
        ai, aip = np.empty_like(xv), np.empty_like(xv)
        low, high = xv < _TAYLOR_FROM, xv > _SERIES_FROM
        for part, branch in ((low, lambda v: special.airy(v)[:2]), (high, _airy_series),
                             (~(low | high), _airy_taylor)):
            if np.count_nonzero(part):
                ai[part], aip[part] = branch(xv[part])
    if scalar:
        return AiryValue(x=xa, ai=float(ai[0]), aip=float(aip[0]))
    return AiryValue(x=xa, ai=ai.reshape(xa.shape), aip=aip.reshape(xa.shape))


def airy_derivs_upto(x, kmax: int):
    """List [A, A', ..., A^(kmax)] evaluated at ``x`` (scalar or array)."""
    if kmax < 0:
        raise DomainError("kmax must be >= 0")
    val = airy(x)
    xa = val.x
    seq = [val.ai, val.aip]
    for j in range(2, kmax + 1):
        if j == 2:
            seq.append(xa * seq[0])
        else:
            seq.append(xa * seq[j - 2] + (j - 2) * seq[j - 3])
    return seq[: kmax + 1]
