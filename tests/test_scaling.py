import math

import numpy as np
import pytest

from pearceygap.exceptions import DomainError
from pearceygap.scaling import (
    ScalingParams,
    match_tau2,
    t_from_tau,
    t_from_u,
    tau_from_z,
    x_from_xi,
)

from oracles import map_windows, xi_from_x


def test_tau_from_z_direct_value():
    assert abs(tau_from_z(0.1, 0.0) - 1.0 / 3e-6) <= 1e-6


def test_tau_from_z_time_shift_is_exact():
    for z in (0.1, 0.3, 0.6):
        for t in (-1.5, 0.4, 2.0):
            lhs = tau_from_z(z, t) - tau_from_z(z, 0.0)
            assert abs(lhs - 2.0 * t / z**2) <= 1e-9 * max(1.0, abs(lhs))


def test_tau_from_z_domain():
    with pytest.raises(DomainError):
        tau_from_z(0.0, 0.0)
    with pytest.raises(DomainError):
        tau_from_z(1.0, 0.0)


def test_xi_from_x_values():
    assert abs(xi_from_x(1000.0, 0.0) - (2.0 / 27.0) * 3000.0**1.5) <= 1e-6
    got = xi_from_x(1000.0, 1.0)
    assert abs(got - 12167.814692899068) <= 1e-6


@pytest.mark.parametrize("tau", [10.0, 1000.0])
def test_xi_roundtrip(tau):
    for x in (-3.0, 0.0, 7.5):
        assert abs(x_from_xi(xi_from_x(tau, x), tau) - x) <= 1e-10
    with pytest.raises(DomainError):
        xi_from_x(0.0, 1.0)


def test_match_tau2_reference_value():
    got = match_tau2(1000.0, 0.0, 1.0)
    assert abs(got - 1028.9836636610183) <= 1e-9


def test_match_tau2_depends_on_difference_and_product():
    # negating and swapping the time labels preserves (t2 - t1, t1 t2),
    # the only combinations the rule depends on
    tau1 = 400.0
    assert match_tau2(tau1, 0.2, 0.9) == match_tau2(tau1, -0.9, -0.2)
    with pytest.raises(DomainError):
        match_tau2(tau1, 0.5, 0.5)
    with pytest.raises(DomainError):
        match_tau2(-1.0, 0.0, 1.0)


def test_match_tau2_term_ordering():
    # (tau2 - tau1)/(2 d) - (3 tau1)^(1/3) decays like tau1^(-1/3)
    d = 1.0
    vals = []
    for tau1 in (100.0, 800.0, 6400.0):
        gap = (match_tau2(tau1, 0.0, d) - tau1) / (2.0 * d) - (3.0 * tau1) ** (1.0 / 3.0)
        vals.append(gap * (3.0 * tau1) ** (1.0 / 3.0))
    assert abs(vals[0] - d) <= 1e-9  # the subleading coefficient is exactly d here
    assert abs(vals[-1] - d) <= 1e-9


def test_match_tau2_consistency_with_blowup():
    # tau2 implied by the exact z-parametrization with the u-substitution
    # agrees with the matching rule to relative z^8 (measured ~0.8 z^10)
    z = 0.2
    u1, u2 = -0.5, 0.5
    t1, t2 = t_from_u(u1, z), t_from_u(u2, z)
    tau1 = tau_from_z(z, t1)
    tau2_blowup = tau_from_z(z, t2)
    tau2_match = match_tau2(tau1, u1, u2)
    assert abs(tau2_match - tau2_blowup) <= z**8 * tau2_blowup


def test_u_substitution_roundtrip():
    assert abs(t_from_tau(tau_from_z(0.3, 0.7), 0.3) - 0.7) <= 1e-12


def test_map_windows_direct_value():
    out = map_windows([(-1.0, 1.0)], 1000.0)
    center = (2.0 / 27.0) * 3000.0**1.5
    width = (3.0 * 1000.0) ** (1.0 / 6.0)
    assert abs(out[0][0] - (center - width)) <= 1e-6
    assert abs(out[0][1] - (center + width)) <= 1e-6
    assert out[0][0] < out[0][1]


def test_map_windows_empty_and_roundtrip():
    wins = [(-1.0, 6.0), None]
    mapped = map_windows(wins, 800.0, 830.0)
    assert mapped[1] is None
    back = sorted(x_from_xi(xi, 800.0) for xi in mapped[0])
    assert abs(back[0] - -1.0) <= 1e-10
    assert abs(back[1] - 6.0) <= 1e-10


def test_map_windows_scale_consistency():
    # mapped width / (3 tau)^(1/6) equals the fixed source width
    for tau in (50.0, 500.0, 5000.0):
        (lo, hi), = map_windows([(-1.0, 6.0)], tau)
        assert abs((hi - lo) / (3.0 * tau) ** (1.0 / 6.0) - 7.0) <= 1e-9


def _assert_blowup_consistent(p):
    # both (tau_i, t_i) pairs obey the blow-up relation to relative z^8
    slack = max(p.z**8, 1e-12)
    for tau_i, t_i in ((p.tau1, p.t1), (p.tau2, p.t2)):
        ref = tau_from_z(p.z, t_i)
        assert abs(tau_i - ref) <= slack * abs(ref)


def test_scaling_params_from_z():
    p = ScalingParams.from_z(0.3, t=0.25, s=0.5)
    assert p.t1 == 0.75 and p.t2 == -0.25
    _assert_blowup_consistent(p)


def test_scaling_params_for_theorem():
    p = ScalingParams.for_theorem(480.0, -0.5, 0.5)
    _assert_blowup_consistent(p)
    assert abs(tau_from_z(p.z, p.t1) - 480.0) <= 1e-8
    assert abs(t_from_u(-0.5, p.z) - p.t1) <= 1e-12
    assert p.tau2 == match_tau2(480.0, -0.5, 0.5)
    # t2 differs from the plain u-substitution only at O(z^10)-level
    assert abs(p.t2 - t_from_u(0.5, p.z)) <= 10.0 * p.z**4


def test_scaling_params_single_time():
    p = ScalingParams.for_single_time(100.0)
    _assert_blowup_consistent(p)
    assert abs(tau_from_z(p.z, 0.0) - 100.0) <= 1e-9
    assert p.t1 == p.t2 == 0.0


@pytest.mark.parametrize("call", [
    pytest.param(lambda: ScalingParams.for_theorem(math.nan, -0.5, 0.5), id="for_theorem-tau1"),
    pytest.param(lambda: ScalingParams.for_theorem(30.0, math.nan, 0.5), id="for_theorem-u1"),
    pytest.param(lambda: ScalingParams.for_theorem(30.0, -0.5, math.nan), id="for_theorem-u2"),
    pytest.param(lambda: ScalingParams.for_single_time(math.inf), id="for_single_time"),
    pytest.param(lambda: ScalingParams.from_z(0.3, math.nan), id="from_z-t"),
    pytest.param(lambda: ScalingParams.from_z(0.3, 0.0, -math.inf), id="from_z-s"),
    pytest.param(lambda: x_from_xi(0.0, math.inf), id="x_from_xi-tau"),
    pytest.param(lambda: x_from_xi(np.array([0.0, math.nan]), 10.0), id="x_from_xi-xi"),
    pytest.param(lambda: match_tau2(math.nan, 0.0, 1.0), id="match_tau2-tau1"),
    pytest.param(lambda: match_tau2(1000.0, 0.0, math.nan), id="match_tau2-t2"),
    pytest.param(lambda: t_from_tau(math.nan, 0.3), id="t_from_tau"),
    pytest.param(lambda: tau_from_z(0.3, math.nan), id="tau_from_z"),
    pytest.param(lambda: t_from_u(math.inf, 0.3), id="t_from_u"),
])
def test_scaling_maps_reject_non_finite_arguments(call):
    # these passed nan or inf through, returned z = 0 for tau = inf, or
    # failed inside scipy's root finder with a bare ValueError
    with pytest.raises(DomainError, match="must be finite"):
        call()
