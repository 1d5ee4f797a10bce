"""Airy function and its derivatives, Gauss-Legendre rules on intervals and
on rays.

Ai and Ai' have two branches, split at x = 10.  At x <= 10 they come from
``scipy.special.airy``.  At x > 10 scipy leaves its real-argument routine
for the complex AMOS routines, which also compute Bi and Bi' and cost
microseconds per point, so there they come from the asymptotic series
DLMF 9.7.5-9.7.6 instead, truncated after 23 terms.  For real x > 0 the
remainder is below the first neglected term (DLMF 9.7(iv)), which at x = 10
is below 2^-56; the error that is left is the rounding of zeta inside
e^{-zeta}, as in scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import special

from .exceptions import DomainError

__all__ = ["AiryValue", "QuadratureRule", "airy", "airy_derivs_upto", "gauss_rule", "ray_rule"]


@dataclass(frozen=True)
class AiryValue:
    """Value pair (Ai, Ai') at a point; arrays allowed for grid evaluation."""

    x: float | np.ndarray
    ai: float | np.ndarray
    aip: float | np.ndarray


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes/weights affinely mapped onto ``domain``."""

    nodes: np.ndarray
    weights: np.ndarray
    domain: tuple[float, float]

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
    return QuadratureRule(nodes=mid + half * x, weights=half * w, domain=(a, b))


def ray_rule(vertex: complex, angle: float, radius: float, n: int):
    """Nodes and weights (complex line element included) of an ``n``-node
    Gauss-Legendre rule on the outgoing ray from ``vertex`` at ``angle``,
    truncated at ``radius``."""
    rule = gauss_rule(n, 0.0, radius)
    d = complex(math.cos(angle), math.sin(angle))
    return vertex + rule.nodes * d, rule.weights * d


# scipy's own split point: above it special.airy takes the complex AMOS path,
# so points x <= 10 stay bit-for-bit what scipy gives
_SERIES_FROM = 10.0
# terms of the series: the first neglected one is below 2^-56 at zeta(10)
_SERIES_TERMS = 23


def _series_coefficients(n: int):
    """Pairs ((-1)^k u_k, (-1)^k v_k) of DLMF 9.7.2, from k = n-1 down to 0
    (Horner order), in plain floats."""
    u = [1.0]
    for k in range(1, n):
        u.append(u[-1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / (216 * k * (2 * k - 1)))
    return tuple(((-1) ** k * u[k], (-1) ** (k + 1) * (6 * k + 1) / (6 * k - 1) * u[k])
                 for k in reversed(range(n)))


_SERIES = _series_coefficients(_SERIES_TERMS)


def _airy_series(x: np.ndarray):
    """Ai and Ai' at x > 10 by DLMF 9.7.5-9.7.6, Horner's rule in 1/zeta."""
    # zeta overflows to inf only where e^{-zeta} is 0 anyway
    with np.errstate(over="ignore"):
        zeta = 2.0 * x * np.sqrt(x) / 3.0
    r = 1.0 / zeta
    su, sv = np.full_like(r, _SERIES[0][0]), np.full_like(r, _SERIES[0][1])
    for cu, cv in _SERIES[1:]:
        su *= r
        su += cu
        sv *= r
        sv += cv
    q = np.sqrt(np.sqrt(x))
    e = np.exp(-zeta) / (2.0 * math.sqrt(math.pi))
    return e / q * su, -q * e * sv


def airy(x) -> AiryValue:
    """Airy function value and first derivative at ``x`` (scalar or array).

    Points x <= 10 go to ``scipy.special.airy``; points x > 10 are summed
    from the asymptotic series DLMF 9.7.5-9.7.6 (23 terms, remainder below
    the first neglected term, < 2^-56 at x = 10).
    """
    scalar = np.isscalar(x)
    xa = float(x) if scalar else np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xa)):
        raise DomainError("airy: non-finite argument")
    xv = np.asarray(xa)
    far = xv > _SERIES_FROM
    if not far.any():
        ai, aip, _, _ = special.airy(xa)
    else:
        ai, aip = np.empty_like(xv), np.empty_like(xv)
        near = ~far
        ai[near], aip[near], _, _ = special.airy(xv[near])
        ai[far], aip[far] = _airy_series(xv[far])
    if scalar:
        return AiryValue(x=xa, ai=float(ai), aip=float(aip))
    return AiryValue(x=xa, ai=ai, aip=aip)


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
