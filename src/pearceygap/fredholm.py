"""Multi-time gap probabilities as block Fredholm determinants.

The operator acts on the disjoint union of one interval per time; its
Nystrom discretization is the block matrix

    W[(i, a), (j, b)] = sqrt(w_a w_b) K_{t_i t_j}(x_a, x_b)

with Gauss-Legendre nodes/weights per interval, and the gap probability is
det(I - W).  A refinement certificate (m vs 2m nodes) guards every reported
value; the m -> infinity limit converges geometrically for these analytic
kernels, so agreement of two dyadic levels is a meaningful error bound: 1e-8
in P, and 1e-6 in log P, which a small P can miss while passing in P.  A
non-positive determinant of size at most that bound (1e-8) is below the
resolvable floor and raises AccuracyError; a larger one raises ValidityError.

Every built-in family's block (Airy, direct or recentred Pearcey) is a
product of two sides, one per (time, window); each determinant gives its
blocks one empty ``sides`` dict, so a side is built once, when a block
needing it misses the block cache.  An Airy
cross-time block sizes its lambda-rule from its own times and points, so its
value, like its cache key, does not depend on the rest of the determinant;
the diagonal blocks are the static Airy kernel in closed form and need no
lambda-rule, so a one-time Airy determinant sizes none.

A Pearcey query with nodes_per_ray=0 (or no contour) is sized once per
determinant, before any block lookup: it walks the ray ladder on its own
log det at m, and every block, so every block key, takes the settled count.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import cache as cache_mod
from .airy_process import airy_block_grid
from .exceptions import AccuracyError, DomainError, ValidityError
from .pearcey_process import _RAY_TOL, PearceyContour, conjugated_block_grid, pearcey_block_grid
from .specfun import gauss_rule, walk_ladder

__all__ = [
    "GapQuery",
    "gap_probability",
    "log_gap_probability",
    "set_block_cache",
]

_CERT_TOL = 1e-8
# the certificate's second test, in log P: a small P passes the first one
# whatever its value (P = 1e-52 at m = 20 against 1e-52 at 40 is no agreement)
_LOG_CERT_TOL = 1e-6
# LAPACK gebal's acceptance factor: a scaling is kept only if it shrinks the
# index's column plus row norm below this share of its old value
_BALANCE_FACTOR = 0.95
# a bound on the sweeps, the last one included: every default study's matrix
# takes 1, the raw recentred z = 0.45 level of the tests 7, and 60 x 60 random
# matrices under random gauges 2^{+-60} take 7 to 15
_BALANCE_SWEEPS = 64


@dataclass(frozen=True)
class GapQuery:
    """One gap-probability request.

    times are strictly ascending process times (Airy times for the airy and
    pearcey-conjugated families, Pearcey taus for the pearcey family);
    windows[k] is the open interval observed at times[k], or None when that
    time observes nothing (an empty window contributes probability factor 1).
    m is the per-window node count of the reported value; the certificate
    recomputes at 2m.  The pearcey-conjugated family needs the scale z in
    (0, 1); custom needs kernel(t_i, t_j, x_i, x_j) returning the block grid.
    """

    family: str
    times: tuple
    windows: tuple
    m: int = 40
    z: float | None = None
    contour: PearceyContour | None = None
    kernel: Callable | None = None
    certify: bool = True

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise DomainError(f"unknown kernel family {self.family!r}")
        times = tuple(float(t) for t in self.times)
        if not times:
            raise DomainError("at least one time is required")
        if not all(math.isfinite(t) for t in times):
            raise DomainError(f"times must be finite, got {times}")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise DomainError(f"times must be strictly ascending, got {times}")
        if len(self.windows) != len(times):
            raise DomainError(
                f"{len(times)} times but {len(self.windows)} windows"
            )
        windows = []
        for w in self.windows:
            if w is None:
                windows.append(None)
                continue
            a, b = float(w[0]), float(w[1])
            if not (math.isfinite(a) and math.isfinite(b) and a < b):
                raise DomainError(f"window {w} is not a finite interval a < b")
            windows.append((a, b))
        if not isinstance(self.m, numbers.Integral) or self.m < 2:
            raise DomainError(f"m must be an integer >= 2 (nodes per window), got m={self.m!r}")
        # a float, so that the block cache record reads the same for any number type
        z = None if self.z is None else float(self.z)
        if self.family == "pearcey-conjugated" and not (z is not None and 0.0 < z < 1.0):
            raise DomainError(f"pearcey-conjugated queries need z in (0, 1), got {self.z}")
        if self.family == "custom" and self.kernel is None:
            raise DomainError("custom queries need a kernel callable")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "windows", tuple(windows))
        object.__setattr__(self, "z", z)


_BLOCK_CACHE = None


def set_block_cache(cache) -> None:
    """Install a persistent block cache (see cache.KernelCache); None clears.

    Only the built-in families are cached; a custom kernel callable has no
    content address.
    """
    global _BLOCK_CACHE
    _BLOCK_CACHE = cache


# family -> (block routine (query, t_i, t_j, x_i, x_j, sides), cache record):
# a built-in routine builds its sides into the determinant's sides; the record
# is the fixed data the routine reads besides its times and points, None if
# uncached; the grids are looked up at call time, so a wrapper installed on
# their module-level names sees every block
_FAMILIES = {
    # empty and complete: an Airy block's lambda-rule follows from its keyed times and points
    "airy": (lambda q, ti, tj, x, y, sides: airy_block_grid(ti, tj, x, y, sides), lambda q: ""),
    "pearcey": (lambda q, ti, tj, x, y, sides: pearcey_block_grid(ti, tj, x, y, q.contour, sides),
                lambda q: repr(q.contour)),
    "pearcey-conjugated": (
        lambda q, ti, tj, x, y, sides: conjugated_block_grid(q.z, ti, tj, x, y, q.contour, sides),
        lambda q: f"{q.contour!r}|z={q.z!r}"),
    "custom": (lambda q, ti, tj, x, y, sides: np.asarray(q.kernel(ti, tj, x, y), dtype=float),
               None),
}


def _block(query: GapQuery, record: str | None, t_i: float, t_j: float, x_i, x_j,
           sides) -> np.ndarray:
    """One block, through the block cache under the query's record unless
    that is None (no cache installed, or an uncached family)."""
    value = _FAMILIES[query.family][0]
    if record is None:
        return value(query, t_i, t_j, x_i, x_j, sides)
    key = cache_mod.block_key(query.family, t_i, t_j, record, x_i, x_j)
    hit = _BLOCK_CACHE.lookup(key)
    if hit is not None:
        return hit
    grid = value(query, t_i, t_j, x_i, x_j, sides)
    _BLOCK_CACHE.store(key, grid)
    return grid


def _log_det(query: GapQuery, factor: int) -> float:
    # one Gauss rule per observed window; a None window drops its time
    rules = [(t, gauss_rule(factor * query.m, *win))
             for t, win in zip(query.times, query.windows) if win is not None]
    if not rules:
        return 0.0
    make_record = _FAMILIES[query.family][1]
    record = None if _BLOCK_CACHE is None or make_record is None else make_record(query)
    sides: dict = {}
    sq = [np.sqrt(rule.weights) for _, rule in rules]
    w = np.block([[sq_i[:, None] * _block(query, record, t_i, t_j, r_i.nodes, r_j.nodes, sides)
                   * sq_j[None, :]
                   for (t_j, r_j), sq_j in zip(rules, sq)]
                  for (t_i, r_i), sq_i in zip(rules, sq)])
    return _balanced_log_det(np.eye(len(w)) - w)[2]


def matrix_balance(a: np.ndarray):
    """(B, scale): a balanced by the diagonal similarity
    B[i, j] = a[i, j] * scale[j] / scale[i], every scale an exact power of two.

    LAPACK gebal's rule without permutation (Parlett and Reinsch, Numer. Math.
    13 (1969)), on column and row 2-norms c, r, diagonal included; each sweep
    moves every index at once, and the first sweep that moves none ends the
    loop.  An index moves by 2^j, half the radix-4 step 4^j with
    (4^j)^2 c / r in [1/4, 4) that gebal would take alone, and only if that
    step shrinks c + r below _BALANCE_FACTOR of its old value.  The half step
    keeps two indices coupled both ways from overshooting into each other's
    place, as full steps taken at once do: [[1, 1024], [1, 1]] would swap its
    corners forever.  An index with a zero column or row never moves, nor one
    whose column or row norm is below about 2^-537 of the largest entry (its
    squares underflow).  B is a itself when no index moves."""
    b = np.asarray(a, dtype=float)
    scale = np.ones(len(b))
    for _ in range(_BALANCE_SWEEPS):
        # the norms of b / 2^e, 2^e just above its largest entry, so that no
        # square overflows: the rule reads only their ratios
        top = max(b.max(initial=0.0), -b.min(initial=0.0))
        sq = np.square(np.ldexp(b, -np.frexp(top)[1]))
        c, r = np.sqrt(sq.sum(axis=0)), np.sqrt(sq.sum(axis=1))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            j = np.ceil((np.log2(r / c) - 2.0) / 4.0)
            f = np.exp2(2.0 * j)
            keep = (c > 0.0) & (r > 0.0) & (c * f + r / f < _BALANCE_FACTOR * (c + r))
        if not keep.any():
            break
        g = np.exp2(np.where(keep, j, 0.0))
        b = b * g[None, :] / g[:, None]
        scale *= g
    return b, scale


def _balanced_log_det(a: np.ndarray):
    """(B, scale, log det a): a balanced by matrix_balance, and its log det.
    A non-positive det a raises AccuracyError if |det a| <= _CERT_TOL, else
    ValidityError."""
    # the similarity preserves the determinant exactly (its scales are powers
    # of two) but tames the huge gauge-induced dynamic range of unconjugated
    # kernels (cross-time blocks can span e^{+-60} and defeat plain LU
    # pivoting); Bornemann, Math. Comp. 79 (2010), bounds the determinant's
    # error by the conditioning of the matrix it is computed on
    balanced, scale = matrix_balance(a)
    sign, logabs = np.linalg.slogdet(balanced)
    if sign <= 0.0:
        if logabs <= math.log(_CERT_TOL):
            # the certificate cannot resolve a |det| this small, so its sign
            # says nothing about the kernel
            raise AccuracyError(
                f"discretized Fredholm determinant {sign * math.exp(logabs):.1e}: "
                f"P is below the resolvable floor {_CERT_TOL:g}"
            )
        raise ValidityError(
            "discretized Fredholm determinant is not positive "
            f"(sign {sign:+.0f}); the probability interpretation fails"
        )
    return balanced, scale, float(logabs)


def _ray_sized(query: GapQuery):
    """The query at its settled ray-node count, and its log det at m."""
    contour = query.contour if query.contour is not None else PearceyContour()
    if query.family not in ("pearcey", "pearcey-conjugated") or contour.nodes_per_ray:
        return query, _log_det(query, 1)
    at = {}

    def log_det(n):
        at[n] = _log_det(replace(query, contour=replace(contour, nodes_per_ray=n)), 1)
        return {"log P": (at[n], 1.0)}

    n, _ = walk_ladder(log_det, _RAY_TOL, f"{query.family} query ray quadrature", "nodes per ray")
    return replace(query, contour=replace(contour, nodes_per_ray=n)), at[n]


def _certified_log_det(query: GapQuery) -> float:
    query, log_p = _ray_sized(query)
    if query.certify:
        log_p2 = _log_det(query, 2)
        if abs(math.exp(log_p) - math.exp(log_p2)) > _CERT_TOL:
            raise AccuracyError(
                "refinement certificate failed: "
                f"P(m={query.m}) = {math.exp(log_p):.15g} vs "
                f"P(m={2 * query.m}) = {math.exp(log_p2):.15g}"
            )
        if abs(log_p - log_p2) > _LOG_CERT_TOL:
            raise AccuracyError(
                "refinement certificate failed in log space: "
                f"log P(m={query.m}) = {log_p:.15g} vs "
                f"log P(m={2 * query.m}) = {log_p2:.15g} "
                f"(tolerance {_LOG_CERT_TOL:g})"
            )
        log_p = log_p2  # the finer value is the better one; report it
    if log_p > _CERT_TOL:
        raise ValidityError(
            f"gap probability exceeds 1 (log {log_p:.3e}); kernel assembly invalid"
        )
    return min(log_p, 0.0)


def gap_probability(query: GapQuery) -> float:
    """Probability that no particle enters any queried window."""
    return math.exp(_certified_log_det(query))


def log_gap_probability(query: GapQuery) -> float:
    """Log gap probability (preferred for ratio studies: no underflow)."""
    return _certified_log_det(query)
