import math
import warnings

import mpmath
import numpy as np
import pytest

from pearceygap import specfun
from pearceygap.exceptions import AccuracyError, ContourError, DomainError, ValidityError
from pearceygap.specfun import QuadratureRule, airy, airy_derivs_upto, gauss_rule

from oracles import airy_deriv

# Closed-form oracles: 3^(-2/3)/Gamma(2/3) and -3^(-1/3)/Gamma(1/3),
# evaluated in 50-digit arithmetic and frozen.
AI_ZERO = 0.3550280538878172
AIP_ZERO = -0.2588194037928068


def test_airy_at_zero_matches_gamma_closed_forms():
    v = airy(0.0)
    assert abs(v.ai - AI_ZERO) <= 1e-12
    assert abs(v.aip - AIP_ZERO) <= 1e-12


def _mpmath_airy(xs):
    """Independent oracle: Ai and Ai' in 30-digit arithmetic, rounded to double."""
    with mpmath.workdps(30):
        ai = [float(mpmath.airyai(x)) for x in xs]
        aip = [float(mpmath.airyai(x, derivative=1)) for x in xs]
    return np.array(ai), np.array(aip)


def test_airy_against_mpmath_on_wide_grid():
    xs = np.arange(-25.0, 15.0 + 1e-9, 0.05)
    v = airy(xs)
    ref_ai, ref_aip = _mpmath_airy(xs)
    assert np.max(np.abs(v.ai - ref_ai)) <= 5e-14
    assert np.max(np.abs(v.aip - ref_aip)) <= 1e-13


def test_airy_far_field_still_sane():
    # covers the lambda-shifted arguments x + lambda out to the tail cut
    xs = np.linspace(2.0, 50.0, 97)
    v = airy(xs)
    ref_ai, ref_aip = _mpmath_airy(xs)
    assert np.max(np.abs(v.ai / ref_ai - 1.0)) <= 1e-12
    assert np.max(np.abs(v.aip / ref_aip - 1.0)) <= 1e-12


def test_airy_series_branch_against_mpmath():
    # x > 10 is summed from DLMF 9.7.5-9.7.6; both sides of the split included
    xs = np.concatenate([[10.0, np.nextafter(10.0, 11.0)], np.linspace(10.0, 100.0, 1801)[1:]])
    v = airy(xs)
    ref_ai, ref_aip = _mpmath_airy(xs)
    for lo, hi, tol in ((9.0, 40.0, 5e-14), (40.0, 100.0, 2.5e-13)):
        band = (xs > lo) & (xs <= hi)
        assert np.max(np.abs(v.ai[band] / ref_ai[band] - 1.0)) <= tol
        assert np.max(np.abs(v.aip[band] / ref_aip[band] - 1.0)) <= tol


def test_airy_series_term_count_meets_its_bound():
    # the first neglected term of either series at x = 10 is below 2^-56
    zeta = 2.0 / 3.0 * 10.0**1.5
    u, v = specfun._series_coefficients(specfun._SERIES_TERMS + 1)[0]
    assert max(abs(u), abs(v)) / zeta**specfun._SERIES_TERMS < 2.0**-56


def test_airy_taylor_term_count_meets_its_bound():
    # the first neglected Taylor term at the largest step |x - x0| = 0.125 is
    # below 1e-16 of the local scale: |Ai| or |Ai'| for x0 > 0, the modulus
    # (DLMF 9.8.3-9.8.4) for x0 <= 0
    x0 = specfun._TAYLOR_FROM + specfun._ANCHOR_STEP * np.arange(81)
    c = specfun._TAYLOR[:, 0]
    n = specfun._TAYLOR_TERMS
    c_n = (x0 * c[n - 2] + c[n - 3]) / (n * (n - 1))
    c_n1 = (x0 * c[n - 1] + c[n - 2]) / ((n + 1) * n)
    ai, aip, bi, bip = specfun.special.airy(x0)
    neg = x0 <= 0.0
    scale = np.where(neg, np.hypot(ai, bi), np.abs(ai))
    dscale = np.where(neg, np.hypot(aip, bip), np.abs(aip))
    assert np.max(np.abs(c_n) * 0.125**n / scale) < 1e-16
    assert np.max(np.abs((n + 1) * c_n1) * 0.125**n / dscale) < 1e-16


def test_airy_underflows_to_exact_zero_without_warning():
    xs = np.array([110.0, 200.0, 1e10, 1e300, np.finfo(float).max])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = airy(xs)
    assert np.all(v.ai == 0.0) and np.all(v.aip == 0.0)


def test_airy_keeps_shape_and_returns_floats_for_scalars():
    xs = np.array([[-3.0, 9.5, 10.0], [10.5, 30.0, 200.0]])
    v = airy(xs)
    assert v.ai.shape == v.aip.shape == (2, 3)
    for x, ai, aip in zip(xs.ravel(), v.ai.ravel(), v.aip.ravel()):
        s = airy(float(x))
        assert type(s.ai) is float and type(s.aip) is float
        assert (s.ai, s.aip) == (ai, aip)


def test_scipy_airy_sees_only_x_below_minus_10(monkeypatch):
    # on [-10, 10] the Taylor anchors and above 10 the series stand in for scipy
    seen = []
    scipy_airy = specfun.special.airy

    def spy(x):
        seen.append(np.asarray(x))
        return scipy_airy(x)

    monkeypatch.setattr(specfun.special, "airy", spy)
    airy(np.linspace(-5.0, 60.0, 131))
    airy(30.0)
    airy(10.0)
    airy(-10.0)
    assert seen == []
    airy(np.linspace(-25.0, 60.0, 171))
    airy(np.nextafter(-10.0, -11.0))
    assert len(seen) == 2
    assert max(np.max(x) for x in seen) == np.nextafter(-10.0, -11.0)


def _scaled_errors(xs, ai, aip):
    """Errors of Ai and Ai' against mpmath at 30 digits, divided by |Ai|, |Ai'|
    for x > 0 and by the moduli M, N of DLMF 9.8.3-9.8.4 (the envelopes of
    the oscillation) for x <= 0."""
    ref = []
    with mpmath.workdps(30):
        for x in xs:
            x = mpmath.mpf(float(x))
            a, ap = mpmath.airyai(x), mpmath.airyai(x, derivative=1)
            scale, dscale = abs(a), abs(ap)
            if x <= 0:
                scale = mpmath.sqrt(a**2 + mpmath.airybi(x) ** 2)
                dscale = mpmath.sqrt(ap**2 + mpmath.airybi(x, derivative=1) ** 2)
            ref.append([float(a), float(ap), float(scale), float(dscale)])
    ref = np.array(ref).T
    return np.abs(ai - ref[0]) / ref[2], np.abs(aip - ref[1]) / ref[3]


def test_airy_taylor_branch_against_mpmath():
    # the anchors, the midpoints between them (the largest Taylor steps), and
    # both sides of the two splits
    anchors = specfun._TAYLOR_FROM + specfun._ANCHOR_STEP * np.arange(81)
    assert anchors[-1] == specfun._SERIES_FROM
    seams = [np.nextafter(b, b + d) for b in (-10.0, 10.0) for d in (-1.0, 1.0)]
    xs = np.concatenate([anchors, anchors[:-1] + 0.125, [0.0], seams])
    v = airy(xs)
    ours = _scaled_errors(xs, v.ai, v.aip)
    scipy_ai, scipy_aip, _, _ = specfun.special.airy(xs)
    theirs = _scaled_errors(xs, scipy_ai, scipy_aip)
    taylor = (xs >= -10.0) & (xs <= 10.0)  # all but the outer neighbours of the splits
    for err, ref in zip(ours, theirs):
        assert np.max(err[taylor]) <= 1e-14
        assert np.max(err) <= np.max(ref)
    v0 = airy(0.0)
    assert abs(v0.ai - AI_ZERO) <= 1e-14 * AI_ZERO
    assert abs(v0.aip - AIP_ZERO) <= 1e-14 * abs(AIP_ZERO)


def test_positivity_and_sign_for_nonnegative_x():
    xs = np.linspace(0.0, 10.0, 41)
    v = airy(xs)
    assert np.all(v.ai > 0.0)
    assert np.all(v.ai <= AI_ZERO + 1e-15)
    assert np.all(v.aip < 0.0)


def test_ode_residual_from_recursion_grid():
    xs = np.arange(-10.0, 5.0 + 1e-9, 0.25)
    v = airy(xs)
    second = airy_deriv(xs, 2)
    assert np.max(np.abs(second - xs * v.ai)) <= 1e-10


@pytest.mark.parametrize("x", [-5.0, -1.0, 0.0, 1.0, 5.0])
def test_ode_residual_pointwise(x):
    v = airy(x)
    assert abs(airy_deriv(x, 2) - x * v.ai) <= 1e-12


@pytest.mark.parametrize("x", [-1.7, 0.0, 0.9, 2.6])
def test_third_and_fourth_derivative_closed_forms(x):
    v = airy(x)
    assert abs(airy_deriv(x, 3) - (x * v.aip + v.ai)) <= 1e-12
    assert abs(airy_deriv(x, 4) - (2.0 * v.aip + x * x * v.ai)) <= 1e-12


def test_third_derivative_at_zero_equals_ai_zero():
    assert abs(airy_deriv(0.0, 3) - AI_ZERO) <= 1e-12


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_derivatives_match_finite_differences(k):
    # central FD of airy() itself at step 1e-4, tolerance 1e-6 absolute
    h = 1e-4
    for x in (-3.3, -0.7, 0.4, 1.9):
        lo = airy_derivs_upto(x - h, k - 1)[k - 1]
        hi = airy_derivs_upto(x + h, k - 1)[k - 1]
        fd = (hi - lo) / (2.0 * h)
        assert abs(airy_deriv(x, k) - fd) <= 1e-6


def test_airy_rejects_nonfinite():
    with pytest.raises(DomainError):
        airy(float("nan"))
    with pytest.raises(DomainError):
        airy(np.array([0.0, np.inf]))
    with pytest.raises(DomainError):
        airy_deriv(0.0, -1)


def test_gauss_rule_single_node():
    r = gauss_rule(1, -1.0, 1.0)
    assert np.allclose(r.nodes, [0.0], atol=1e-15)
    assert np.allclose(r.weights, [2.0], atol=1e-15)


def test_gauss_rule_cubic_exact_with_two_nodes():
    r = gauss_rule(2, 0.0, 1.0)
    assert abs(np.sum(r.weights * r.nodes**3) - 0.25) <= 1e-15


def test_gauss_rule_exponential_twenty_nodes():
    r = gauss_rule(20, 0.0, 1.0)
    assert abs(np.sum(r.weights * np.exp(r.nodes)) - (np.e - 1.0)) <= 1e-14


@pytest.mark.parametrize("m", [2, 5, 10, 40])
def test_gauss_rule_monomial_exactness(m):
    a, b = -0.3, 1.7
    r = gauss_rule(m, a, b)
    for deg in range(2 * m):
        exact = (b ** (deg + 1) - a ** (deg + 1)) / (deg + 1)
        got = np.sum(r.weights * r.nodes**deg)
        assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact))


def test_gauss_rule_structural_invariants():
    r = gauss_rule(17, 2.0, 5.0)
    assert isinstance(r, QuadratureRule)
    assert r.nodes.shape == r.weights.shape
    assert np.all(r.weights > 0.0)
    assert np.all(np.diff(r.nodes) > 0.0)
    assert np.all((r.nodes > 2.0) & (r.nodes < 5.0))


def test_gauss_rule_rejects_bad_interval():
    with pytest.raises(DomainError):
        gauss_rule(4, 1.0, 1.0)
    with pytest.raises(DomainError):
        gauss_rule(4, 2.0, -2.0)
    with pytest.raises(DomainError):
        gauss_rule(0, 0.0, 1.0)
    with pytest.raises(DomainError):
        gauss_rule(4, 0.0, float("inf"))


def test_airy_vector_matches_scalar():
    xs = np.array([-30.0, -10.5, -10.0, -4.2, -0.5, 0.0, 1.5, 6.0, 10.0, 10.5, 30.0])
    v = airy(xs)
    for i, x in enumerate(xs):
        s = airy(float(x))
        assert (s.ai, s.aip) == (v.ai[i], v.aip[i])


def test_airy_of_a_concatenation_is_the_concatenation():
    # each branch is elementwise, so batching points moves no value: parts
    # within one branch, across two and across all three
    rng = np.random.default_rng(2010)
    xs = np.concatenate([rng.uniform(-40.0, 60.0, 400), rng.uniform(-10.0, 10.0, 200),
                         [-10.0, 10.0, np.nextafter(-10.0, -11.0), np.nextafter(10.0, 11.0)]])
    rng.shuffle(xs)
    parts = [xs[xs < -10.0], xs[(xs >= -10.0) & (xs <= 10.0)], xs[xs > 10.0]]
    parts += np.split(xs, [1, 7, 150, 451])
    for chunks in (parts[:3], parts[3:]):
        whole = airy(np.concatenate(chunks))
        pieces = [airy(c) for c in chunks]
        assert np.array_equal(whole.ai, np.concatenate([p.ai for p in pieces]))
        assert np.array_equal(whole.aip, np.concatenate([p.aip for p in pieces]))


def _raise(exc):
    raise exc


@pytest.mark.parametrize("measure, expected", [
    # 48 and 64 disagree, 64 and 96 agree, and so do the later pairs
    pytest.param(lambda n: {"x": (1.0 / n if n < 64 else 0.0, 1.0)}, (96, 0.0),
                 id="finer-level-of-first-agreeing-pair"),
    # 32 and 64 agree but are not consecutive once 48 fails
    pytest.param(lambda n: _raise(AccuracyError("floor")) if n == 48 else {"x": (0.0, 1.0)},
                 (96, 0.0), id="accuracy-error-resets-the-pair"),
    pytest.param(lambda n: _raise(ValidityError("sign")) if n == 48 else {"x": (0.0, 1.0)},
                 (96, 0.0), id="validity-error-resets-the-pair"),
    pytest.param(lambda n: _raise(ContourError("rays collide")) if n == 48 else {"x": (0.0, 1.0)},
                 (ContourError, "rays collide"), id="other-errors-propagate"),
    # 32 -> 48 moves by 16: within 1e-9 of 48's scale 2e10, not of 32's scale 1
    pytest.param(lambda n: {"x": (float(n), 2e10 if n == 48 else 1.0)}, (48, 16.0 / 2e10),
                 id="gap-relative-to-the-finer-scale"),
    pytest.param(lambda n: {"y": (0.1 / n, 1.0), "x": (1.0 / n, 1.0)},
                 (AccuracyError, r"^demo quadrature did not settle by 512 nodes per ray: x moved "
                                 r"by 6\.510e-04 from 384 to 512 \(tolerance 1e-09\)$"),
                 id="unsettled-names-worst-label-pair-tolerance-top-and-unit"),
    pytest.param(lambda n: {"x": (0.0, 1.0), "y": (math.nan, 1.0)},
                 (AccuracyError, "y moved by nan from 384 to 512"), id="nan-gap-never-settles"),
    pytest.param(lambda n: _raise(ValidityError("sign")),
                 (AccuracyError, "by 512 nodes per ray: at 512 nodes per ray, sign$"),
                 id="unsettled-names-the-last-failing-level"),
])
def test_walk_ladder(measure, expected):
    def walk():
        return specfun.walk_ladder(measure, 1e-9, "demo quadrature", "nodes per ray")

    if isinstance(expected[0], type):
        with pytest.raises(expected[0], match=expected[1]):
            walk()
    else:
        assert walk() == expected
