import math
from dataclasses import replace

import numpy as np
import pytest

from pearceygap import airy_process, fredholm, pearcey_process, specfun
from pearceygap.exceptions import AccuracyError, DomainError, ValidityError
from pearceygap.fredholm import GapQuery, gap_probability, log_gap_probability
from pearceygap.painleve import hastings_mcleod, tracy_widom_f2
from pearceygap.pearcey_process import PearceyContour, RecenterSpec
from pearceygap.scaling import ScalingParams
from pearceygap.specfun import gauss_rule

from oracles import map_windows, seeded_pearcey_draws


def test_empty_windows_give_probability_one():
    q = GapQuery(family="airy", times=(0.0,), windows=(None,))
    assert gap_probability(q) == 1.0
    assert log_gap_probability(q) == 0.0
    q2 = GapQuery(family="airy", times=(-0.5, 0.5), windows=(None, None))
    assert gap_probability(q2) == 1.0


def test_none_window_equals_dropping_the_time():
    # a None window adds no row at m nor at 2m, so the certified value is the
    # one of the query without that time, bit for bit
    for times, windows, m in [((-0.4, 0.2), (None, (0.0, 5.0)), 40),
                              ((-0.4, 0.2, 0.9), ((-1.0, 4.0), None, (0.0, 5.0)), 30)]:
        padded = GapQuery(family="airy", times=times, windows=windows, m=m)
        kept = [(t, w) for t, w in zip(times, windows) if w is not None]
        dropped = GapQuery(family="airy", times=tuple(t for t, _ in kept),
                           windows=tuple(w for _, w in kept), m=m)
        assert log_gap_probability(padded) == log_gap_probability(dropped)


def test_rank_one_kernel_exact_determinant():
    # K(x, y) = c^2 on (0, 1) with c^2 = 1/2: det(I - W) = 1 - 1/2 exactly
    kernel = lambda ti, tj, x, y: np.full((x.size, y.size), 0.5)
    q = GapQuery(
        family="custom", times=(0.0,), windows=((0.0, 1.0),), m=24, kernel=kernel
    )
    assert abs(gap_probability(q) - 0.5) <= 1e-12


def test_gue_edge_matches_painleve():
    q = GapQuery(family="airy", times=(0.0,), windows=((0.0, 9.0),), m=60)
    assert abs(gap_probability(q) - tracy_widom_f2(0.0)) <= 1e-6


def test_exp_log_consistency():
    q = GapQuery(
        family="airy", times=(-0.3, 0.4), windows=((-1.0, 5.0), (0.0, 6.0)), m=40
    )
    assert abs(math.exp(log_gap_probability(q)) - gap_probability(q)) <= 1e-12


def test_two_time_self_refinement():
    qs = [
        GapQuery(
            family="airy",
            times=(-0.5, 0.5),
            windows=((-1.0, 6.0), (-1.0, 6.0)),
            m=m,
            certify=False,
        )
        for m in (40, 80)
    ]
    p40, p80 = (gap_probability(q) for q in qs)
    assert abs(p40 - p80) <= 1e-8


def test_geometric_refinement_decay():
    ps = {}
    for m in (8, 16, 32):
        q = GapQuery(
            family="airy", times=(0.0,), windows=((-2.0, 4.0),), m=m, certify=False
        )
        ps[m] = gap_probability(q)
    d1 = abs(ps[16] - ps[8])
    d2 = abs(ps[32] - ps[16])
    assert d2 <= 0.3 * d1


@pytest.mark.parametrize("windows, side_rows", [
    (((-1.0, 6.0), (-1.0, 6.0)), 1),
    (((-1.0, 6.0), (-0.5, 4.0)), 2),
])
def test_airy_sides_built_once_per_window(monkeypatch, windows, side_rows):
    # both windows share one lambda-tail length, so each certificate level
    # makes four Airy calls: the closed-form diagonal block of each window on
    # its points, the lambda-probe's first four ladder levels at the two
    # lowest points in one call, and the sides of the distinct windows for the
    # two cross-time blocks in one call, at the size the probe chose; sharing
    # the sides leaves log P bit-equal to building both sides of every block
    # afresh at that size, and the lambda-tail check reads the sides' last
    # columns, so no one-point Airy call is made
    shapes = []
    airy, block_grid = airy_process.airy, fredholm.airy_block_grid

    def counting(x):
        shapes.append(np.shape(x))
        return airy(x)

    q = GapQuery(family="airy", times=(-0.5, 0.5), windows=windows, m=40)
    chosen = []
    for factor in (1, 2):
        dt = q.times[0] - q.times[1]
        lows = [np.min(gauss_rule(factor * q.m, *w).nodes) for w in q.windows]
        chosen.append(airy_process._lambda_nodes(dt, *lows))
    probe = (2, sum(specfun._LADDER[:airy_process._PROBE_BATCH]))
    monkeypatch.setattr(airy_process, "airy", counting)
    shared = log_gap_probability(q)
    assert shapes == [
        shape
        for m, n in ((40, chosen[0]), (80, chosen[1]))
        for shape in [(m,), probe, (side_rows * m, n), (m,)]
    ]
    assert len(shapes) <= 8
    monkeypatch.setattr(
        fredholm, "airy_block_grid",
        lambda t_i, t_j, xs, ys, sides: block_grid(t_i, t_j, xs, ys, {}),
    )
    assert log_gap_probability(q) == shared


def test_monotone_in_window_inclusion():
    def prob(win):
        q = GapQuery(family="airy", times=(0.0,), windows=(win,), m=40)
        return gap_probability(q)

    assert prob((0.0, 5.0)) <= prob((0.5, 5.0)) + 1e-9
    assert prob((0.0, 5.0)) <= prob((0.0, 4.0)) + 1e-9


def test_second_window_decreases_probability():
    base = GapQuery(family="airy", times=(0.0,), windows=((0.0, 5.0),), m=40)
    both = GapQuery(
        family="airy", times=(0.0, 0.8), windows=((0.0, 5.0), (1.0, 5.0)), m=40
    )
    assert gap_probability(both) <= gap_probability(base) + 1e-9


def test_pearcey_two_time_probability_in_range():
    q = GapQuery(
        family="pearcey",
        times=(4.0, 4.6),
        windows=((1.5, 4.5), (1.0, 4.0)),
        m=24,
    )
    p = gap_probability(q)
    assert 0.0 < p < 1.0


def test_conjugation_invariance_large_tau():
    # z = 0.45: unconjugated blocks span ~e^{130} yet the balanced
    # determinant must match the conjugated one
    p = ScalingParams.from_z(0.45, 0.0, 0.5)
    w1x, w2x = (0.0, 0.7), (-0.2, 0.5)
    wxi = map_windows([w2x, w1x], p.tau2, p.tau1)
    rc = PearceyContour(recenter=RecenterSpec(z=p.z))
    qd = GapQuery(
        family="pearcey", times=(p.tau2, p.tau1), windows=tuple(wxi), m=30, contour=rc
    )
    qc = GapQuery(
        family="pearcey-conjugated",
        times=(p.t2, p.t1),
        windows=(w2x, w1x),
        m=30,
        z=p.z,
    )
    assert abs(gap_probability(qd) - gap_probability(qc)) <= 1e-8


def test_conjugation_invariance_direct_single_time():
    z = (3.0 * 9.7) ** (-1.0 / 6.0)
    p = ScalingParams.from_z(z, 0.0, 0.0)
    wx = (-0.5, 1.5)
    wxi = map_windows([wx], p.tau1)
    qd = GapQuery(family="pearcey", times=(p.tau1,), windows=tuple(wxi), m=30)
    qc = GapQuery(
        family="pearcey-conjugated", times=(0.0,), windows=(wx,), m=30, z=p.z
    )
    assert abs(gap_probability(qd) - gap_probability(qc)) <= 1e-8


def test_conjugation_invariance_direct_two_time():
    p = ScalingParams.from_z(0.60, 0.1, 0.45)
    w1x, w2x = (-0.5, 1.0), (-0.8, 0.7)
    wxi = map_windows([w2x, w1x], p.tau2, p.tau1)
    qd = GapQuery(
        family="pearcey", times=(p.tau2, p.tau1), windows=tuple(wxi), m=30
    )
    qc = GapQuery(
        family="pearcey-conjugated",
        times=(p.t2, p.t1),
        windows=(w2x, w1x),
        m=30,
        z=p.z,
    )
    assert abs(gap_probability(qd) - gap_probability(qc)) <= 1e-8


def test_single_pearcey_window_against_conjugated_certificates():
    p = ScalingParams.from_z(0.45, 0.0, 0.5)
    q = GapQuery(
        family="pearcey-conjugated",
        times=(p.t2, p.t1),
        windows=((-1.0, 4.0), (-0.5, 4.5)),
        m=40,
        z=p.z,
    )
    prob = gap_probability(q)  # certificate m=40 vs m=80 must pass
    assert 0.0 < prob <= 1.0


def test_validity_error_when_determinant_negative():
    kernel = lambda ti, tj, x, y: np.full((x.size, y.size), 2.0)  # trace 2
    q = GapQuery(
        family="custom", times=(0.0,), windows=((0.0, 1.0),), m=16, kernel=kernel
    )
    with pytest.raises(ValidityError):
        gap_probability(q)


@pytest.mark.parametrize("m", [18, 20])
def test_sign_flip_below_the_certificate_floor_is_an_accuracy_error(m):
    # log P of the window (-8, 8) is about -43: slogdet returns a rounding
    # residue of |det| ~ 1e-16 with a negative sign, which says nothing about
    # the kernel
    q = GapQuery(family="airy", times=(0.0,), windows=((-8.0, 8.0),), m=m)
    with pytest.raises(AccuracyError, match="below the resolvable floor"):
        log_gap_probability(q)


def test_validity_error_when_probability_exceeds_one():
    kernel = lambda ti, tj, x, y: np.full((x.size, y.size), -1.0)
    q = GapQuery(
        family="custom", times=(0.0,), windows=((0.0, 1.0),), m=16, kernel=kernel
    )
    with pytest.raises(ValidityError):
        gap_probability(q)


def test_accuracy_error_when_certificate_fails():
    # an underresolved oscillatory kernel moves between m and 2m
    kernel = lambda ti, tj, x, y: 0.3 * np.cos(40.0 * np.outer(x, y))
    q = GapQuery(
        family="custom", times=(0.0,), windows=((0.0, 3.0),), m=4, kernel=kernel
    )
    with pytest.raises(AccuracyError):
        gap_probability(q)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(family="bessel", times=(0.0,), windows=(None,)),
        dict(family="airy", times=(), windows=()),
        dict(family="airy", times=(0.5, 0.5), windows=(None, None)),
        dict(family="airy", times=(0.5, -0.5), windows=(None, None)),
        dict(family="airy", times=(0.0,), windows=((2.0, 1.0),)),
        dict(family="airy", times=(0.0,), windows=((0.0, math.inf),)),
        dict(family="airy", times=(0.0,), windows=(None, None)),
        dict(family="airy", times=(0.0,), windows=((0.0, 1.0),), m=1),
        dict(family="pearcey-conjugated", times=(0.0,), windows=(None,)),
        dict(family="custom", times=(0.0,), windows=(None,)),
        dict(family="airy", times=(math.nan,), windows=((0.0, 1.0),)),
        dict(family="airy", times=(0.0, math.inf), windows=(None, None)),
        dict(family="pearcey", times=(-math.inf, 1.0), windows=(None, None)),
        dict(family="pearcey-conjugated", times=(0.0,), windows=(None,), z=math.nan),
        dict(family="pearcey-conjugated", times=(0.0,), windows=(None,), z=0.0),
        dict(family="pearcey-conjugated", times=(0.0,), windows=(None,), z=1.0),
    ],
)
def test_query_validation(kwargs):
    with pytest.raises(DomainError):
        GapQuery(**kwargs)


def test_query_node_count_must_be_an_integer():
    # m=40.5 certified 40 nodes against 81 and reported the value as m=40.5
    query = GapQuery(family="airy", times=(0.0,), windows=((-1.0, 6.0),), m=20)
    with pytest.raises(DomainError, match="m must be an integer .* got m=40.5"):
        replace(query, m=40.5)
    assert log_gap_probability(replace(query, m=np.int64(20))) == log_gap_probability(query)


def test_conjugated_cache_record_is_independent_of_the_number_type_of_z():
    records = {
        fredholm._RECORDS["pearcey-conjugated"](
            GapQuery(family="pearcey-conjugated", times=(0.0,), windows=((0.0, 1.0),), z=z))
        for z in (0.3, np.float64(0.3))
    }
    assert records == {"None|z=0.3"}


def test_tracy_widom_values():
    assert abs(tracy_widom_f2(0.0) - 0.9693728283) <= 1e-6
    assert abs(tracy_widom_f2(0.0) - 0.96937282835527) <= 1e-9
    s = np.array([-4.0, -2.0, 0.0, 2.0])
    f = tracy_widom_f2(s)
    assert f.shape == (4,)
    assert np.all(np.diff(f) > 0.0)
    assert 0.0 < f[0] < f[-1] <= 1.0
    assert abs(tracy_widom_f2(9.0) - 1.0) <= 1e-12


def test_hastings_mcleod_boundary_behaviour():
    from scipy.special import airy as scipy_airy

    q6, qp6 = hastings_mcleod(6.0)
    ai, aip, _, _ = scipy_airy(6.0)
    assert abs(q6 - ai) <= 1e-12
    assert abs(qp6 - aip) <= 1e-12
    q0, _ = hastings_mcleod(0.0)
    assert abs(q0 - 0.3670615) <= 1e-6
    with pytest.raises(DomainError):
        tracy_widom_f2(-15.0)


def test_hastings_mcleod_refuses_below_floor():
    # at s = -8 the backward integration has drifted off the separatrix
    # (q(-8) = 1.93 against the asymptotic sqrt(-s/2) = 2)
    with pytest.raises(DomainError):
        hastings_mcleod(-8.0)


def test_tracy_widom_at_floor_matches_fredholm():
    q = GapQuery(family="airy", times=(0.0,), windows=((-5.0, 15.0),), m=60)
    assert abs(math.log(tracy_widom_f2(-5.0)) - log_gap_probability(q)) <= 1e-6


def _at_rays(query, n, **changes):
    return replace(query, contour=PearceyContour(nodes_per_ray=n), **changes)


def test_pearcey_query_sizes_its_rays_once_per_determinant():
    # blocks of relative size 1e-9 kept a per-block doubling rule from
    # settling by 2048 nodes per ray; the determinant settles at 48
    query = GapQuery(family="pearcey", times=(9.0,), windows=((-2.0, 2.0),), m=40)
    value = log_gap_probability(query)
    reference = log_gap_probability(_at_rays(query, 512, m=80, certify=False))
    assert abs(value - reference) <= 1e-14
    assert value == pytest.approx(-1.56158e-9, rel=1e-5)


def test_pearcey_query_that_does_not_settle_is_an_accuracy_error(monkeypatch):
    # the window (-30, 30) is past what the rays resolve at these levels; the
    # walk reports that, not the non-positive determinant of its last level
    monkeypatch.setattr(specfun, "_LADDER", (32, 48, 64))
    query = GapQuery(family="pearcey", times=(0.0,), windows=((-30.0, 30.0),))
    with pytest.raises(AccuracyError, match="did not settle by 64 nodes per ray"):
        log_gap_probability(query)


def test_pearcey_query_refuses_by_the_ladder_top(monkeypatch):
    # the tau = 0 window (-30, 30) never settles; the walk stops at 512 nodes
    # per ray and never builds a larger ray system
    counts, ray_system = [], pearcey_process._ray_system

    def spy(xray, yray, n):
        counts.append(n)
        return ray_system(xray, yray, n)

    monkeypatch.setattr(pearcey_process, "_ray_system", spy)
    query = GapQuery(family="pearcey", times=(0.0,), windows=((-30.0, 30.0),))
    with pytest.raises(AccuracyError, match="did not settle by 512 nodes per ray"):
        log_gap_probability(query)
    assert counts and max(counts) <= 512


def test_seeded_airy_stationarity_sweep():
    # the extended Airy kernel depends on its times only through t_i - t_j, so
    # shifting both times leaves log P bit-equal wherever the shift keeps the
    # rounded time gap; where it rounds the gap differently, log P may move
    # by a few ulps
    rng = np.random.default_rng(2010)
    for _ in range(4):
        t1 = rng.uniform(-1.0, 0.5)
        t2 = rng.uniform(t1 + 0.5, 1.0)
        windows = tuple((rng.uniform(-3.0, 0.0), rng.uniform(2.0, 8.0)) for _ in range(2))
        value = log_gap_probability(GapQuery(family="airy", times=(t1, t2), windows=windows, m=20))
        for shift in (0.125, 0.3, -0.37):
            shifted = GapQuery(family="airy", times=(t1 + shift, t2 + shift), windows=windows, m=20)
            if (t1 + shift) - (t2 + shift) == t1 - t2:
                assert log_gap_probability(shifted) == value, shifted
            else:
                assert abs(log_gap_probability(shifted) - value) <= 1e-14, shifted


def test_seeded_one_time_airy_sweep_against_tracy_widom():
    # a one-time window (s, s + 14) at m = 40 against log F2(s) from the
    # Painleve II oracle, which evaluates Ai with scipy and not with specfun
    rng = np.random.default_rng(2010)
    for s in rng.uniform(-4.0, 2.0, 6):
        query = GapQuery(family="airy", times=(0.0,), windows=((s, s + 14.0),), m=40)
        assert abs(log_gap_probability(query) - math.log(tracy_widom_f2(s))) <= 1e-7, s


def test_seeded_pearcey_sweep():
    # two-time direct queries, each sized per determinant: within 1e-9 of the
    # same determinant at 512 nodes per ray, and reflection-symmetric
    for times, windows in seeded_pearcey_draws():
        query = GapQuery(family="pearcey", times=times, windows=windows, m=20)
        value = log_gap_probability(query)
        reference = log_gap_probability(_at_rays(query, 512, m=40, certify=False))
        assert abs(value - reference) <= 1e-9, query
        reflected = replace(query, windows=tuple((-b, -a) for a, b in windows))
        assert abs(log_gap_probability(reflected) - value) <= 1e-12, query
