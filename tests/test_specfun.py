"""Tail functions sigma/omega, the grid verifiers, and the radial profile."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from fockdiv.errors import DomainError, ParameterError
from fockdiv.specfun import (T_STEP, find_tail_ratio_t, omega, phi, sigma,
                             verify_tail_lower_a, verify_tail_lower_b)


class TestOmega:
    def test_single_term(self):
        for x in [0.0, 0.3, 2.0, 40.0]:
            assert omega(0, x) == pytest.approx(math.exp(-x), abs=1e-15)

    def test_empty_exponent(self):
        assert omega(7, 0.0) == 1.0

    def test_small_sum_value(self):
        # e^{-2} (1 + 2 + 2 + 4/3), summed by hand
        expected = math.exp(-2) * (1 + 2 + 2 + 4 / 3)
        assert omega(3, 2.0) == pytest.approx(expected, abs=1e-15)

    def test_matches_scipy_regularized_gamma(self):
        for k in [1, 5, 40, 300]:
            for x in [0.1, 3.0, float(k), 5.0 * k]:
                assert omega(k, x) == pytest.approx(
                    special.gammaincc(k + 1, x), abs=1e-13)

    def test_large_arguments_stay_finite(self):
        val = omega(100_000, 100_000.0)
        assert 0.0 < val < 1.0

    def test_rejects_negative_x(self):
        with pytest.raises(DomainError):
            omega(3, -1.0)

    def test_rejects_non_integer_k(self):
        with pytest.raises(DomainError):
            omega(2.5, 1.0)


class TestSigma:
    def test_empty_integral(self):
        assert sigma(9, 0.0) == 0.0

    def test_elementary_integral(self):
        for x in [0.2, 1.0, 7.0]:
            assert sigma(0, x) == pytest.approx(1 - math.exp(-x), abs=1e-14)

    def test_quadrature_value(self):
        # (1/6) int_0^2 y^3 e^{-y} dy
        val, _ = integrate.quad(lambda y: y ** 3 * math.exp(-y) / 6, 0, 2)
        assert sigma(3, 2.0) == pytest.approx(val, abs=1e-12)

    def test_agrees_with_quadrature_small_k(self):
        # defining-integral agreement, including the cancellation regime
        for k in [0, 3, 17, 50]:
            for x in [0.05, 1.0, 10.0, 60.0, 200.0]:
                lg = special.gammaln(k + 1)
                val, _ = integrate.quad(
                    lambda y: math.exp(k * math.log(y) - y - lg)
                    if y > 0 else 0.0, 0, x, epsabs=1e-300, epsrel=1e-12,
                    limit=200)
                assert sigma(k, x) == pytest.approx(val, rel=1e-9, abs=1e-300)

    def test_cancellation_regime_positive(self):
        # omega is within 1e-8 of 1 here: 1 - omega would keep no digits
        val = sigma(200, 110.0)
        assert 0.0 < val < 1e-8
        assert val == pytest.approx(special.gammainc(201, 110.0), rel=1e-8)


class TestTailIdentity:
    @given(k=st.integers(min_value=0, max_value=500),
           x=st.floats(min_value=1e-3, max_value=1e4))
    @settings(max_examples=150, deadline=None)
    def test_sigma_plus_omega_is_one(self, k, x):
        assert abs(sigma(k, x) + omega(k, x) - 1.0) <= 1e-12

    @given(k=st.integers(min_value=0, max_value=300))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_x(self, k):
        xs = np.logspace(-3, 4, 30)
        svals = [sigma(k, float(x)) for x in xs]
        wvals = [omega(k, float(x)) for x in xs]
        assert all(b >= a - 1e-13 for a, b in zip(svals, svals[1:]))
        assert all(b <= a + 1e-13 for a, b in zip(wvals, wvals[1:]))

    def test_batch_matches_scalar(self):
        ks = np.array([0, 3, 50, 200, 200])
        xs = np.array([0.0, 2.0, 45.0, 110.0, 350.0])
        batch = sigma(ks, xs)
        for ki, xi, b in zip(ks, xs, batch):
            assert b == pytest.approx(sigma(int(ki), float(xi)),
                                      rel=1e-8, abs=1e-15)


class TestMpmathOracle:
    # k from 0 to 20,000; x across the range and around the bulk of the
    # Poisson weights, k +- 3 sqrt(k) and k - 8 sqrt(k), where one tail is
    # tiny and the other within rounding of 1
    POINTS = [(k, x) for k in [0, 1, 7, 60, 500, 4000, 20000]
              for x in sorted({1e-3, 0.7, 30.0, 900.0, 2e4,
                               k + 3 * math.sqrt(k),
                               max(k - 3 * math.sqrt(k), 1e-3),
                               max(k - 8 * math.sqrt(k), 1e-3)})]

    @pytest.mark.parametrize("k, x", POINTS)
    def test_matches_regularized_gamma(self, k, x):
        with mp.workdps(40):
            lower = float(mp.gammainc(k + 1, 0, x, regularized=True))
            upper = float(mp.gammainc(k + 1, x, mp.inf, regularized=True))
        # abs only absorbs values below the double range
        assert sigma(k, x) == pytest.approx(lower, rel=1e-12, abs=1e-300)
        assert omega(k, x) == pytest.approx(upper, rel=1e-12, abs=1e-300)


class TestTailValue:
    def test_evaluate_consistent(self):
        total = sigma(12, 9.0) + omega(12, 9.0)
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("k,x", [(0, 50.0), (10, 200.0)])
    def test_evaluate_resolves_tiny_omega(self, k, x):
        # omega is 1.93e-22 at (0, 50) and 3.1e-71 at (10, 200): 1 - sigma
        # rounds both to 0
        with mp.workdps(40):
            upper = float(mp.gammainc(k + 1, x, mp.inf, regularized=True))
        assert omega(k, x) == pytest.approx(upper, rel=1e-12, abs=0.0)


class TestLowerBoundVerifiers:
    def test_a_at_zero_shift(self):
        eps, k0 = verify_tail_lower_a(0.0, 500)
        assert k0 == 1
        # sigma_1(1) = 1 - 2/e is the binding small-k value
        assert eps == pytest.approx(1 - 2 / math.e, abs=1e-12)

    def test_a_empty_range_rejected(self):
        with pytest.raises(ParameterError):
            verify_tail_lower_a(25.0, 500)

    def test_b_at_zero_shift_is_half(self):
        eps = verify_tail_lower_b(0.0, 500)
        assert eps >= 0.5

    def test_b_k0_trivial(self):
        assert omega(0, 0.0) == 1.0

    def test_b_shifted_value_below_half(self):
        val = omega(100, 110.0)
        assert 0.0 < val < 0.5

    def test_small_kmax_rejected(self):
        with pytest.raises(ParameterError):
            verify_tail_lower_b(0.0, 5)


class TestTailRatioSearch:
    def test_epsilon_one_gives_zero(self):
        assert find_tail_ratio_t(1.0) == 0.0

    def test_matches_proof_scale(self):
        t = find_tail_ratio_t(math.exp(-2))
        pred = math.sqrt(2 * math.log(1 / math.exp(-2)))
        assert pred <= t <= 2 * pred

    def test_integrated_consequence(self):
        # the integrand inequality implies the factor-2 tail ratio bound
        eps = math.exp(-2)
        t = find_tail_ratio_t(eps)
        for m in range(max(1, math.ceil(t * t)), 201, 13):
            for k in range(m, 201, 13):
                lhs = sigma(k, m - t * math.sqrt(m))
                rhs = sigma(k, float(m))
                assert lhs <= 2 * eps * rhs + 1e-300

    def test_intermediate_epsilon(self):
        t = find_tail_ratio_t(0.1)
        pred = math.sqrt(2 * math.log(10.0))
        assert pred <= t <= 2 * pred

    def test_integrand_inequality_on_the_y_grid(self):
        # the grid check the closed form replaced, as an oracle: at the
        # worst k = y the log ratio is at most log(epsilon) for every
        # integer y in [t^2, 10^4]; one grid step less breaks its
        # large-y limit -t^2/2 <= log(epsilon)
        ys = np.arange(1, 10_001, dtype=float)
        for eps in np.logspace(-300, 0, 301):
            t = find_tail_ratio_t(float(eps))
            y = ys[ys >= t * t]
            with np.errstate(divide="ignore"):
                vals = t * np.sqrt(y) + y * np.log1p(-t / np.sqrt(y))
            assert vals.max() <= math.log(eps) + 1e-12
            assert t == 0 or -(t - T_STEP) ** 2 / 2 > math.log(eps)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(DomainError):
            find_tail_ratio_t(0.0)
        with pytest.raises(DomainError):
            find_tail_ratio_t(1.5)


class TestRadialProfile:
    def test_minimum_value(self):
        m = 9.0
        assert phi(m, math.sqrt(m)) == pytest.approx(
            m / 2 - (m / 2) * math.log(m), abs=1e-12)

    def test_simple_value(self):
        assert phi(1.0, 1.0) == pytest.approx(0.5)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            phi(2.0, 0.0)
        with pytest.raises(DomainError):
            phi(0.0, 1.0)

    @given(m=st.floats(min_value=0.5, max_value=400.0),
           a=st.floats(min_value=0.01, max_value=5.0))
    @settings(max_examples=120, deadline=None)
    def test_quadratic_envelope(self, m, a):
        root = math.sqrt(m)
        base = phi(m, root)
        assert phi(m, root + a) <= base + a * a + 1e-9
        if m > a * a * 1.01:
            assert phi(m, root - a) >= base + a * a - 1e-9

    def test_grid_monotone_validation(self):
        # phi_m decreases left of sqrt(m) and increases right of it
        m, grid = 9.0, np.linspace(0.5, 6.0, 200)
        vals = np.array([phi(m, t) for t in grid])
        root = math.sqrt(m)
        assert np.all(np.diff(vals[grid <= root]) <= 1e-12)
        assert np.all(np.diff(vals[grid >= root]) >= -1e-12)
