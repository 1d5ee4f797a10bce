import math

import numpy as np
import pytest

from pearceygap import airy_process, specfun
from pearceygap.airy_process import airy_block_grid, airy_heat_term, extended_airy_grid
from pearceygap.exceptions import AccuracyError, ContourError, DomainError
from pearceygap.fredholm import GapQuery, log_gap_probability
from pearceygap.specfun import airy, gauss_rule

from oracles import AiryContour, airy_kernel, extended_airy_contour


@pytest.mark.parametrize("x", [-2.0, 0.0, 1.0])
def test_static_diagonal_closed_form(x):
    v = airy(x)
    assert abs(airy_kernel(x, x) - (v.aip**2 - x * v.ai**2)) <= 1e-10


def test_static_symmetry():
    assert airy_kernel(0.0, 1.0) == airy_kernel(1.0, 0.0)


def test_quotient_vs_lambda_integral_single_point():
    assert abs(airy_kernel(0.0, 1.0) - extended_airy_grid(0.0, 0.0, 0.0, 1.0)[0, 0]) <= 1e-9


def test_representation_equivalence_grid():
    # quotient form vs lambda-integral on a 20x20 grid over [-4, 4]^2
    pts = np.linspace(-4.0, 4.0, 20)
    worst = 0.0
    for x in pts:
        for y in pts:
            if abs(x - y) < 1e-3:
                continue
            v = abs(airy_kernel(x, y) - extended_airy_grid(0.0, 0.0, x, y)[0, 0])
            worst = max(worst, v)
    assert worst <= 1e-9


def test_kernel_smooth_through_diagonal_split():
    # quotient and lambda-integral branches must agree near the handover
    for x in (-1.3, 0.2, 2.4):
        y = x + 1.1e-3  # quotient side of the split
        assert abs(airy_kernel(x, y) - extended_airy_grid(0.0, 0.0, x, y)[0, 0]) <= 1e-9


def test_diagonal_positivity():
    xs = np.linspace(-8.0, 4.0, 49)
    assert all(airy_kernel(float(x), float(x)) > 0.0 for x in xs)


def test_far_right_decay():
    assert airy_kernel(10.0, 10.0) <= 1e-8


def test_extended_equal_times_reduces_to_static():
    for x, y in [(0.4, -0.2), (-1.0, 2.0)]:
        assert abs(extended_airy_grid(0.7, 0.7, x, y)[0, 0] - airy_kernel(x, y)) <= 1e-10


def test_extended_argument_symmetry():
    a = extended_airy_grid(0.2, -0.2, 0.5, -0.3)[0, 0]
    assert abs(a - extended_airy_grid(0.2, -0.2, -0.3, 0.5)[0, 0]) <= 1e-14


def test_extended_time_negation_relabeling():
    # integrand relabeling: K(t_i, t_j, x, y) = K(-t_j, -t_i, y, x)
    a = extended_airy_grid(0.2, -0.3, 0.5, -0.3)[0, 0]
    b = extended_airy_grid(0.3, -0.2, -0.3, 0.5)[0, 0]
    assert abs(a - b) <= 1e-13


def test_antisymmetric_pair_is_fully_symmetric():
    # for times (s, -s) the relabeling closes on itself
    s = 0.35
    grid = extended_airy_grid(s, -s, [0.8, -0.1], [0.8, -0.1])
    assert abs(grid[0, 1] - grid[1, 0]) <= 1e-12


def test_gate_bookkeeping_against_two_sided_integral():
    # for t_i < t_j:  K_tilde - heat = -integral over (-inf, 0)
    t_i, t_j, x, y = -0.3, 0.3, 0.4, -0.6
    lhs = extended_airy_grid(t_i, t_j, x, y)[0, 0] - airy_heat_term(t_j - t_i, x, y)
    rule = gauss_rule(1200, -70.0, 0.0)
    lam, w = rule.nodes, rule.weights
    vals = airy(x + lam).ai * airy(y + lam).ai * np.exp(-(t_i - t_j) * lam)
    rhs = -float(np.sum(w * vals))
    assert abs(lhs - rhs) <= 1e-8


def test_extended_matches_double_contour_oracle():
    contour = AiryContour(
        theta1=math.pi / 3, theta1p=math.pi / 3, theta2=math.pi / 3, theta2p=math.pi / 3
    )
    lhs = extended_airy_contour(0.2, -0.2, 0.5, -0.3, contour)
    assert abs(lhs - extended_airy_grid(0.2, -0.2, 0.5, -0.3)[0, 0]) <= 1e-7


def test_contour_oracle_handles_ascending_times():
    contour = AiryContour(
        theta1=math.pi / 3, theta1p=math.pi / 3, theta2=math.pi / 3, theta2p=math.pi / 3
    )
    lhs = extended_airy_contour(-0.2, 0.2, 0.5, -0.3, contour)
    assert abs(lhs - extended_airy_grid(-0.2, 0.2, 0.5, -0.3)[0, 0]) <= 1e-7


def test_contour_deformation_invariance():
    rng = np.random.default_rng(7)
    base = None
    for _ in range(4):
        angs = rng.uniform(math.pi / 6 + 0.12, math.pi / 2 - 0.12, size=4)
        contour = AiryContour(*[float(a) for a in angs], radius=16.0, nodes_per_ray=200)
        val = extended_airy_contour(0.1, -0.15, 0.3, 0.1, contour)
        if base is None:
            base = val
        assert abs(val - base) <= 1e-9


def test_contour_band_validation():
    with pytest.raises(ContourError):
        AiryContour(theta1=0.1, theta1p=1.0, theta2=1.0, theta2p=1.0)
    with pytest.raises(ContourError):
        AiryContour(theta1=1.0, theta1p=1.0, theta2=math.pi / 2, theta2p=1.0)


def test_heat_term_value_and_symmetry():
    ref = math.exp(1.0 / 12.0) / math.sqrt(4.0 * math.pi)
    assert abs(airy_heat_term(1.0, 0.0, 0.0) - ref) <= 1e-12
    assert airy_heat_term(0.8, 0.3, -0.4) == airy_heat_term(0.8, -0.4, 0.3)
    with pytest.raises(DomainError):
        airy_heat_term(0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        airy_heat_term(-1.0, 0.0, 0.0)


def test_heat_term_solves_heat_flow_identity():
    # (d_t - d_x^2 + x) p = 0, checked by central differences
    t, x, y = 0.7, 0.4, -0.1
    h = 1e-4
    dt = (airy_heat_term(t + h, x, y) - airy_heat_term(t - h, x, y)) / (2 * h)
    dxx = (
        airy_heat_term(t, x + h, y)
        - 2.0 * airy_heat_term(t, x, y)
        + airy_heat_term(t, x - h, y)
    ) / h**2
    resid = dt - dxx + x * airy_heat_term(t, x, y)
    assert abs(resid) <= 1e-6


def test_block_gate_fires_only_for_ascending_times():
    x, y = 0.1, 0.2
    assert airy_block_grid(0.3, -0.3, x, y)[0, 0] == pytest.approx(
        extended_airy_grid(0.3, -0.3, x, y)[0, 0], abs=1e-14
    )
    assert airy_block_grid(0.3, 0.3, x, y)[0, 0] == pytest.approx(
        extended_airy_grid(0.3, 0.3, x, y)[0, 0], abs=1e-14
    )
    want = extended_airy_grid(-0.3, 0.3, x, y)[0, 0] - airy_heat_term(0.6, x, y)
    assert airy_block_grid(-0.3, 0.3, x, y)[0, 0] == pytest.approx(want, abs=1e-14)


def test_lambda_tail_check_rejects_undecayed_integrand():
    # with t_i - t_j = -8 the weight e^{8 lam} outgrows the Airy decay by the
    # tail cut (endpoint/max ~ 1.4e8), also for a deep window whose longer cut
    # (36.2 at low -17) is built for |t_i - t_j| <= 2; at -6 the integrand
    # has decayed
    with pytest.raises(AccuracyError, match="not decayed"):
        airy_block_grid(-4.0, 4.0, [0.0], [0.0])
    with pytest.raises(AccuracyError, match="not decayed"):
        airy_block_grid(-4.0, 4.0, gauss_rule(20, -17.0, -10.0).nodes,
                        gauss_rule(20, -16.5, -9.5).nodes)
    assert np.isfinite(airy_block_grid(-3.0, 3.0, [0.0], [0.0])).all()


def test_sized_lambda_rule_sweep():
    # seeded two- and three-window determinants: every block, as the
    # determinant builds it (each cross-window block by the rule sized for
    # its own time gap and windows, the diagonal ones in closed form),
    # matches a 1000-node Gauss rule on the same (0, L) to 1e-10 of its
    # largest entry; with |t_i - t_j| <= 2 the cut outruns the weight even
    # for deep windows
    ref_rule = gauss_rule(1000, 0.0, 1.0)
    checked = 0
    for windows in (2, 3):
        rng = np.random.default_rng(20101)
        for _ in range(20):
            m = int(rng.choice([20, 40]))
            times = rng.uniform(-1.0, 1.0, size=windows)
            lows = rng.uniform(-20.0, 2.0, size=windows)
            widths = rng.uniform(1.0, 14.0, size=windows)
            nodes = [gauss_rule(m, a, a + w).nodes for a, w in zip(lows, widths)]
            sides, ref_sides = {}, {}
            for i, (t_i, xs) in enumerate(zip(times, nodes)):
                for j, (t_j, ys) in enumerate(zip(times, nodes)):
                    block = airy_block_grid if i == j else extended_airy_grid
                    got = block(t_i, t_j, xs, ys, sides)
                    tail = airy_process._tail(min(xs[0], ys[0]))
                    lam = tail * ref_rule.nodes
                    for k, pts in ((i, xs), (j, ys)):
                        if (k, tail) not in ref_sides:
                            ref_sides[k, tail] = airy(pts[:, None] + lam).ai
                    weight = tail * ref_rule.weights * np.exp(-(t_i - t_j) * lam)
                    ref = (ref_sides[i, tail] * weight) @ ref_sides[j, tail].T
                    assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))
                    checked += 1
    assert checked == 20 * 4 + 20 * 9


def test_lambda_rule_is_sized_by_the_cross_window_pairs(monkeypatch):
    # the diagonal blocks are closed form, so only the cross-window block and
    # its transpose size the rule, once per determinant: here it settles at 48
    # nodes, while the pairs (i, i), at each window's own lowest point, would
    # need 64
    sizes, probe = [], airy_process._lambda_nodes

    def record(*args):
        sizes.append(probe(*args))
        return sizes[-1]

    monkeypatch.setattr(airy_process, "_lambda_nodes", record)
    query = GapQuery(family="airy", times=(0.2, 0.9), windows=((-0.1, 5.6), (-1.2, 4.7)), m=40)
    assert math.isfinite(log_gap_probability(query))
    assert sizes == [48, 48]  # at m and at 2m


def test_deep_windows_get_a_longer_tail_cut():
    # at lows below about -12.5 the fixed cut of 30 left e^{2 lam} Ai(low + lam)^2
    # undecayed (endpoint/max 5.3e-3 here) and the tail check refused the query
    assert airy_process._tail(-12.0) == 30.0
    low, dt = -17.0, 2.0
    tail = airy_process._tail(low)
    assert math.exp(dt * tail) * airy(low + tail).ai ** 2 <= 1e-14 * airy(-1.02).ai ** 2
    query = GapQuery(family="airy", times=(-1.0, 1.0), windows=((-17.0, -10.0),) * 2, m=20)
    assert math.isfinite(log_gap_probability(query))
    # each block against a 1000-node rule on twice the cut
    xs = gauss_rule(20, -17.0, -10.0).nodes
    rule = gauss_rule(1000, 0.0, 2.0 * tail)
    a = airy(xs[:, None] + rule.nodes).ai
    for t_i, t_j in ((-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)):
        ref = (a * (rule.weights * np.exp(-(t_i - t_j) * rule.nodes))) @ a.T
        got = extended_airy_grid(t_i, t_j, xs, xs)
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_tail_cut_for_windows_above_18():
    # above 18 the base 36 - 2 low turned negative, its 2/3 power complex, and
    # the comparison with 30 raised TypeError
    assert airy_process._tail(20.0) == 30.0


def test_unsettled_lambda_rule_raises(monkeypatch):
    # at a lowest point of -14 the probe moves by ~0.3 from 32 to 48 nodes
    monkeypatch.setattr(specfun, "_LADDER", (32, 48))
    with pytest.raises(AccuracyError, match="did not settle by 48 nodes"):
        extended_airy_grid(0.0, 0.0, [-14.0], [-14.0])


def test_unsettled_lambda_rule_names_its_block(monkeypatch):
    # the error says which window pair could not be resolved
    monkeypatch.setattr(specfun, "_LADDER", (32, 48))
    with pytest.raises(AccuracyError, match="time gap 1 and lowest points -14, -3 did not"):
        extended_airy_grid(-0.5, 0.5, [-14.0, -12.0], [-3.0, 1.0])


def test_times_too_far_apart_are_a_domain_error():
    # e^{|t_i - t_j| lam} overflows on the cut (0, 30) for a time gap of 24:
    # refused before the lambda-rule is sized, in both time orders and in a
    # determinant, instead of a walk of nan gaps or an overflow warning
    xs = np.linspace(-1.0, 6.0, 5)
    for t_i, t_j in ((-12.0, 12.0), (12.0, -12.0)):
        with pytest.raises(DomainError, match=r"time gap 24 too large"):
            airy_block_grid(t_i, t_j, xs, xs)
    query = GapQuery(family="airy", times=(-12.0, 12.0), windows=((-1.0, 6.0), (-1.0, 6.0)))
    with pytest.raises(DomainError, match=r"time gap 24 too large"):
        log_gap_probability(query)
    # the refusal starts where the weight overflows at the probe's nodes, not
    # at the cut: a gap a little past log(max float) / 30 still has a value
    # where Ai(40 + lam) outweighs it
    high = np.linspace(40.0, 40.5, 5)
    gap = 1.00003 * math.log(np.finfo(float).max) / 30.0
    assert np.all(np.isfinite(airy_block_grid(0.0, gap, high, high)))


def test_closed_form_diagonal_block_matches_lambda_integral():
    # seeded windows (s, s + L): the closed form against the lambda-integral
    # to 1e-11 of the block's largest entry, near the diagonal included,
    # where the quotient's numerator cancels
    rng = np.random.default_rng(20160)
    for _ in range(40):
        s, width = rng.uniform(-20.0, 2.0), rng.uniform(2.0, 16.0)
        m, t = int(rng.choice([20, 40, 80, 160])), rng.uniform(-1.0, 1.0)
        xs = gauss_rule(m, s, s + width).nodes
        got = airy_block_grid(t, t, xs, xs)
        ref = extended_airy_grid(t, t, xs, xs)
        assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))
        assert np.array_equal(got, got.T)


def test_one_time_determinant_sizes_no_lambda_rule(monkeypatch):
    # a one-time Airy determinant has only its diagonal block: one Airy call
    # on the m points and one on the 2m points, and no lambda-rule probe
    calls, airy_fn = [], airy_process.airy

    def counting(x):
        calls.append(np.shape(x))
        return airy_fn(x)

    def no_probe(*args):
        raise AssertionError("a one-time determinant sized a lambda-rule")

    monkeypatch.setattr(airy_process, "airy", counting)
    monkeypatch.setattr(airy_process, "_lambda_nodes", no_probe)
    query = GapQuery(family="airy", times=(0.3,), windows=((-2.0, 12.0),), m=30)
    assert math.isfinite(log_gap_probability(query))
    assert calls == [(30,), (60,)]
