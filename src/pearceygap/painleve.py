"""Tracy-Widom GUE distribution through the Hastings-McLeod solution of
Painleve II, used as an independent oracle for edge gap probabilities.

q'' = s q + 2 q^3 with q(s) ~ Ai(s) as s -> +infinity, and

    F2(s) = exp( - integral_s^inf (x - s) q(x)^2 dx ).

The ODE is integrated downward from s0 = 8 where the Airy asymptotics are
accurate far below double precision; the two tail integrals ride along as
extra state components (I' = -J, J' = -q^2).  scipy supplies both the
boundary data (special.airy) and the integrator.  The module calls scipy's
airy directly on purpose, not ``specfun.airy`` with its Taylor anchors on
[-10, 10] and its asymptotic series above 10: the Tracy-Widom oracle that
one-time Airy gap probabilities are checked against thereby stays
independent of those branches.

The route is unstable (Bornemann, Markov Process. Related Fields 16 (2010)):
against Airy Fredholm determinants log F2 is off by 5.5e-7 at s = -5, 4.1e-4
at -7 and 4.5 at -10, where q has the wrong sign.  Evaluation stops at -5.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.special import airy as _scipy_airy

from .exceptions import DomainError

__all__ = ["tracy_widom_f2", "hastings_mcleod"]

_S_START = 8.0
_S_FLOOR = -5.0


def _rhs(s, y):
    q, qp, jj, ii = y
    return [qp, s * q + 2.0 * q**3, -q * q, -jj]


@lru_cache(maxsize=8)
def _solution(s_min: float):
    ai0, aip0, _, _ = _scipy_airy(_S_START)
    j0, _ = quad(
        lambda x: _scipy_airy(x)[0] ** 2, _S_START, np.inf,
        epsabs=1e-16, epsrel=1e-13,
    )
    i0, _ = quad(
        lambda x: (x - _S_START) * _scipy_airy(x)[0] ** 2, _S_START, np.inf,
        epsabs=1e-16, epsrel=1e-13,
    )
    sol = solve_ivp(
        _rhs,
        (_S_START, s_min),
        [ai0, aip0, j0, i0],
        method="DOP853",
        rtol=1e-13,
        atol=1e-16,
        dense_output=True,
    )
    if not sol.success:
        raise DomainError(f"Painleve II integration failed: {sol.message}")
    return sol


def _eval(s):
    s = np.asarray(s, dtype=float)
    if np.any(s < _S_FLOOR):
        raise DomainError(
            f"Hastings-McLeod evaluation limited to s >= {_S_FLOOR}: below it the"
            " backward integration from s = 8 loses the separatrix"
        )
    lo = float(min(np.min(s), _S_START - 1.0))
    sol = _solution(np.floor(lo))
    out = sol.sol(np.atleast_1d(s))
    ai, aip, _, _ = _scipy_airy(np.atleast_1d(s))
    above = np.atleast_1d(s) > _S_START
    if np.any(above):
        # beyond the integration start the Airy asymptotics are exact for us
        out[0, above] = ai[above]
        out[1, above] = aip[above]
        out[2, above] = 0.0
        out[3, above] = 0.0
    return out


def hastings_mcleod(s):
    """q(s) (and q'(s)) of the Hastings-McLeod Painleve II solution."""
    out = _eval(s)
    q, qp = out[0], out[1]
    if np.isscalar(s) or np.ndim(s) == 0:
        return float(q[0]), float(qp[0])
    return q, qp


def tracy_widom_f2(s):
    """GUE Tracy-Widom distribution function F2(s)."""
    out = _eval(s)
    f2 = np.exp(-out[3])
    if np.isscalar(s) or np.ndim(s) == 0:
        return float(f2[0])
    return f2
