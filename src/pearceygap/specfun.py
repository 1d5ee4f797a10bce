"""Airy function via ``scipy.special.airy``, its derivatives, Gauss-Legendre
rules on intervals and on rays."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import special

from .exceptions import DomainError

__all__ = ["AiryValue", "QuadratureRule", "airy", "airy_deriv", "gauss_rule", "ray_rule"]


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


def airy(x) -> AiryValue:
    """Airy function value and first derivative at ``x`` (scalar or array)."""
    scalar = np.isscalar(x)
    xa = float(x) if scalar else np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xa)):
        raise DomainError("airy: non-finite argument")
    ai, aip, _, _ = special.airy(xa)
    if scalar:
        return AiryValue(x=xa, ai=float(ai), aip=float(aip))
    return AiryValue(x=xa, ai=ai, aip=aip)


def airy_deriv(x, k: int):
    """k-th derivative of the Airy function via the ODE recursion.

    A''(x) = x A(x) differentiates to A^(j)(x) = x A^(j-2)(x) + (j-2) A^(j-3)(x),
    so every order is exact in terms of (Ai, Ai') up to rounding.
    """
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise DomainError(f"derivative order must be a non-negative integer, got {k}")
    derivs = airy_derivs_upto(x, k)
    return derivs[k]


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
