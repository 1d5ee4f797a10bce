import mpmath
import numpy as np
import pytest

from pearceygap.exceptions import DomainError
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
    xs = np.array([-4.2, -0.5, 0.0, 1.5, 6.0])
    v = airy(xs)
    for i, x in enumerate(xs):
        s = airy(float(x))
        assert abs(v.ai[i] - s.ai) <= 1e-15
        assert abs(v.aip[i] - s.aip) <= 1e-15
