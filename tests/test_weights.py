import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special

from hardykit import Kind, RadialGrid, WeightFamily, eval_mu, log_derivatives, weighted_integral
from hardykit.errors import DivergentIntegral, InvalidParams, NonPositiveRadius, QuadratureFailure
from hardykit.hardy import _h2_i_check, _integral_diverges
from hardykit.spectral import _theta, _theta_deriv
from hardykit import weights
from hardykit.weights import (
    RadialBump,
    hat_element_integrals,
    log_mu,
    smooth_transition,
    surface_measure,
)

from conftest import fd_log_derivatives


class TestEvalMu:
    def test_lebesgue_is_one(self, leb3):
        assert eval_mu(leb3, 3.7) == 1.0

    def test_exp_power_value(self, exppow3):
        assert eval_mu(exppow3, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_power_value(self):
        fam = WeightFamily(Kind.POWER_EXP_POWER, 4, b=0.0, m=1.0, beta=1.0)
        assert eval_mu(fam, 0.5) == pytest.approx(2.0, rel=1e-15)

    def test_exp_power_b0_equals_lebesgue(self, leb3):
        fam = WeightFamily(Kind.EXP_POWER, 3, b=0.0, m=2.0)
        r = np.geomspace(1e-6, 50, 200)
        assert np.array_equal(eval_mu(fam, r), eval_mu(leb3, r))

    def test_log_weight_core_and_closure(self, logw_pos):
        assert eval_mu(logw_pos, 0.25) == pytest.approx(math.log(4.0), rel=1e-14)
        assert eval_mu(logw_pos, 1.0) == 0.0
        assert eval_mu(logw_pos, 2.0) == 0.0

    def test_oscillating_branches(self, oscillating):
        r = 0.3
        assert eval_mu(oscillating, r) == pytest.approx(2 + math.sin(math.log(r)), rel=1e-15)
        assert eval_mu(oscillating, 1.5) == 2.0

    def test_oscillating_blend_positive_and_continuous(self, oscillating):
        r = np.linspace(0.5, 1.0, 2001)
        mu = eval_mu(oscillating, r)
        assert (mu > 0).all()
        # C^0 at both seams
        assert eval_mu(oscillating, 0.5) == pytest.approx(2 + math.sin(math.log(0.5)), rel=1e-12)
        assert eval_mu(oscillating, 1.0 - 1e-12) == pytest.approx(2.0, rel=1e-9)

    def test_oscillating_blend_table_is_the_hermite_solve(self):
        # the table is bitwise the solve of the quintic Hermite system that
        # matches 2 + sin(log r) at 1/2 and the constant 2 at 1 to second order
        t = math.log(0.5)
        ends = {0.5: (2.0 + math.sin(t), math.cos(t) / 0.5, (-math.sin(t) - math.cos(t)) / 0.25),
                1.0: (2.0, 0.0, 0.0)}
        unit = np.eye(6)
        A = [[np.polyval(np.polyder(unit[p, ::-1], k), r) for p in range(6)]
             for r in ends for k in range(3)]
        table = weights._OSCILLATING_BLEND
        assert np.array_equal(table[::-1], np.linalg.solve(A, [v for r in ends for v in ends[r]]))
        for r, jet in ends.items():
            for k, want in enumerate(jet):
                assert np.polyval(np.polyder(table, k), r) == pytest.approx(want, abs=1e-12)

    def test_positive_on_support(self, exppow3, pexp4, logw_pos, oscillating):
        r = np.geomspace(1e-8, 0.999, 300)
        for fam in (exppow3, pexp4, logw_pos, oscillating):
            assert (eval_mu(fam, r) > 0).all()

    def test_nonpositive_radius(self, leb3):
        with pytest.raises(NonPositiveRadius):
            eval_mu(leb3, 0.0)
        with pytest.raises(NonPositiveRadius):
            eval_mu(leb3, -1.0)

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            WeightFamily(Kind.EXP_POWER, 3, b=-1.0, m=2.0)
        with pytest.raises(InvalidParams):
            WeightFamily(Kind.EXP_POWER, 3, b=1.0, m=0.0)
        with pytest.raises(InvalidParams):
            WeightFamily(Kind.LEBESGUE, 2)
        with pytest.raises(InvalidParams, match="unknown weight kind 'custom'"):
            WeightFamily("custom", 3)
        with pytest.raises(InvalidParams, match="beta"):  # r^{-3} not L^1_loc(R^3)
            WeightFamily(Kind.POWER_EXP_POWER, 3, beta=3.0)

    def test_eval_mu_domain_and_closure(self, leb3, logw_pos):
        # eval_mu is exp(log_mu(log r)): the radius check still comes first,
        # and log mu = -inf beyond the LogWeight support reads mu = 0
        for fam in (leb3, logw_pos):
            with pytest.raises(NonPositiveRadius):
                eval_mu(fam, np.array([0.5, 0.0]))
            with pytest.raises(NonPositiveRadius):
                eval_mu(fam, -0.5)
        mu = eval_mu(logw_pos, np.array([0.25, 1.0, 1.5, 20.0]))
        assert mu[0] > 0.0
        assert np.array_equal(mu[1:], np.zeros(3))
        assert isinstance(eval_mu(logw_pos, 2.0), float)

    def test_log_mu_matches_eval_mu(self, exppow3, pexp4, logw_pos, oscillating):
        s = np.log(np.geomspace(1e-6, 0.9, 50))
        for fam in (exppow3, pexp4, logw_pos, oscillating):
            assert log_mu(fam, s) == pytest.approx(np.log(eval_mu(fam, np.exp(s))), rel=1e-12)

    def test_log_mu_deep_tail_stays_finite(self, pexp4, logw_pos):
        # far below the smallest positive float in r
        assert log_mu(pexp4, -1e6) == pytest.approx(1e6, rel=1e-12)
        assert np.isfinite(log_mu(logw_pos, -1e6))


class TestLogDerivatives:
    def test_exp_power_d1(self, exppow3):
        for r in (0.1, 1.0, 3.0):
            d1, _ = log_derivatives(exppow3, r)
            assert d1 == pytest.approx(-2.0 * r, rel=1e-14)

    def test_lebesgue_zero(self, leb3):
        assert log_derivatives(leb3, 1.7) == (0.0, 0.0)

    def test_pure_power_example(self):
        # mu = 1/r: d1 = -1/r, lap ratio = (beta^2 + beta(2-N))/r^2
        fam = WeightFamily(Kind.POWER_EXP_POWER, 4, b=0.0, m=1.0, beta=1.0)
        d1, lap = log_derivatives(fam, 2.0)
        assert d1 == pytest.approx(-0.5, rel=1e-14)
        assert lap == pytest.approx(-0.25, rel=1e-14)

    @pytest.mark.parametrize("r", [1e-3, 1e-2, 1e-1, 1.0, 10.0])
    def test_finite_difference_consistency(self, r, exppow3, pexp4, leb3, logw_pos,
                                           logw_neg, oscillating):
        for fam in (exppow3, pexp4, leb3, logw_pos, logw_neg, oscillating):
            if fam.kind is Kind.LOG_WEIGHT and r >= 1.0:
                continue  # weight vanishes: derivatives undefined
            r_eff = r
            if fam.kind is Kind.OSCILLATING and r == 1.0:
                r_eff = 0.99  # the closure seam is only C^2; test inside the blend
            d1, lap = log_derivatives(fam, r_eff)
            d1_fd, lap_fd = fd_log_derivatives(fam, r_eff)
            assert abs(d1 - d1_fd) <= 1e-6 * max(1.0, abs(d1))
            assert abs(lap - lap_fd) <= 1e-6 * max(1.0, abs(lap))

    def test_deep_tail_matches_log_mu(self, exppow3, pexp4, leb3, logw_pos, logw_neg,
                                      oscillating):
        # r mu'/mu is d/ds log mu(e^s): central difference in s, far below r = 1e-3
        s = np.linspace(-60.0, -0.05, 400)
        h = 1e-5
        for fam in (exppow3, pexp4, leb3, logw_pos, logw_neg, oscillating):
            got = np.exp(s) * log_derivatives(fam, np.exp(s))[0]
            want = (log_mu(fam, s + h) - log_mu(fam, s - h)) / (2.0 * h)
            assert np.allclose(got, want, rtol=1e-6, atol=1e-8), fam.kind

    def test_transition_region_log_weight(self, logw_pos):
        d1, lap = log_derivatives(logw_pos, 0.75)
        d1_fd, lap_fd = fd_log_derivatives(logw_pos, 0.75)
        assert d1 == pytest.approx(d1_fd, rel=1e-7)
        assert lap == pytest.approx(lap_fd, rel=1e-7)


class TestWeightedIntegral:
    def test_unit_ball_volume(self, leb3):
        assert weighted_integral(leb3, None, 0.0, 1.0) == pytest.approx(4 * math.pi / 3, rel=1e-10)

    def test_inverse_square_moment(self, leb3):
        got = weighted_integral(leb3, lambda r: r**-2.0, 0.0, 1.0)
        assert got == pytest.approx(4 * math.pi, rel=1e-10)
        # the singular factor can equivalently ride the power channel
        assert weighted_integral(leb3, None, 0.0, 1.0, power=-2.0) == pytest.approx(
            4 * math.pi, rel=1e-12)

    def test_pure_power_weight(self):
        fam = WeightFamily(Kind.POWER_EXP_POWER, 4, b=0.0, m=1.0, beta=1.0)
        assert weighted_integral(fam, None, 0.0, 1.0) == pytest.approx(
            2 * math.pi**2 / 3, rel=1e-10)

    def test_divergent_flagged(self, leb3):
        with pytest.raises(DivergentIntegral):
            weighted_integral(leb3, None, 0.0, 1.0, power=-3.5)
        with pytest.raises(DivergentIntegral):
            weighted_integral(leb3, lambda r: r**-3.5, 0.0, 1.0)

    def test_oscillating_moments(self, oscillating):
        # analytic tail: int_{-inf}^{a} e^{qs}(2+sin s) ds at q = N = 3
        a = math.log(0.5)
        q = 3.0
        tail = math.exp(q * a) * (2.0 / q + (q * math.sin(a) - math.cos(a)) / (q * q + 1))
        got = weighted_integral(oscillating, None, 0.0, 0.5)
        assert got == pytest.approx(4 * math.pi * tail, rel=1e-10)
        with pytest.raises(DivergentIntegral):
            weighted_integral(oscillating, None, 0.0, 1.0, power=-3.0)

    def test_bad_range(self, leb3):
        with pytest.raises(InvalidParams):
            weighted_integral(leb3, None, 1.0, 0.5)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(split=st.floats(min_value=0.05, max_value=4.0))
    def test_additive_over_adjacent_intervals(self, split):
        fam = WeightFamily(Kind.EXP_POWER, 3, b=1.0, m=2.0)
        f = lambda r: r**2 / (1.0 + r)
        whole = weighted_integral(fam, f, 0.0, 5.0)
        parts = weighted_integral(fam, f, 0.0, split) + weighted_integral(fam, f, split, 5.0)
        assert abs(whole - parts) <= 1e-10 * abs(whole)

    def test_log_weight_lambda_moment(self, logw_pos):
        # int_0^1 r^{lam-1} theta log(1/r) dr ~ 1/lam^2 for small lam
        lam = 2.0**-12
        got = weighted_integral(logw_pos, None, 0.0, 1.0, power=lam - 3.0)
        assert got == pytest.approx(4 * math.pi / lam**2, rel=1e-3)


class TestQuadratureEngine:
    """The adaptive Gauss-Legendre bisection against known values."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        power=st.floats(min_value=-2.9, max_value=3.0),
        r_hi=st.floats(min_value=1e-3, max_value=50.0),
        lo_share=st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=0.5)),
    )
    def test_lebesgue_power_moments(self, leb3, power, r_hi, lo_share):
        # omega_3 int_{r_lo}^{r_hi} r^{power + 2} dr = omega_3 (r_hi^q - r_lo^q) / q
        q = 3.0 + power
        r_lo = lo_share * r_hi
        want = surface_measure(3) * (r_hi**q - r_lo**q) / q
        got = weighted_integral(leb3, None, r_lo, r_hi, power=power)
        assert isinstance(got, float)
        assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("power", [-2.0, 0.0, 1.5])
    def test_exp_power_gamma_closed_form(self, exppow3, power):
        # omega_3 int_0^oo r^{power + 2} e^{-r^2} dr = 2 pi Gamma((power + 3)/2);
        # the part beyond r = 30 is below e^-900
        want = 2.0 * math.pi * math.gamma((power + 3.0) / 2.0)
        assert weighted_integral(exppow3, None, 0.0, 30.0, power=power) == pytest.approx(
            want, rel=1e-10)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        power=st.floats(min_value=-2.9, max_value=3.0),
        r_hi=st.floats(min_value=1e-3, max_value=50.0),
        lo_share=st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=0.5)),
    )
    def test_lebesgue_power_moments_blocked(self, leb3, power, r_hi, lo_share):
        # the same known values through the tail blocks: a callable f skips the
        # closed form that serves f=None
        q = 3.0 + power
        r_lo = lo_share * r_hi
        want = surface_measure(3) * (r_hi**q - r_lo**q) / q
        got = weighted_integral(leb3, lambda r: np.ones_like(r), r_lo, r_hi, power=power)
        assert isinstance(got, float)
        assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("power", [-2.0, 0.0, 1.5])
    def test_exp_power_gamma_closed_form_blocked(self, exppow3, power):
        # the first tail block, r in [30/e, 30], carries below e^-100 of the
        # total: the blocks must not read the growth past it as a blow-up
        want = 2.0 * math.pi * math.gamma((power + 3.0) / 2.0)
        got = weighted_integral(exppow3, lambda r: np.ones_like(r), 0.0, 30.0, power=power)
        assert got == pytest.approx(want, rel=1e-10)

    def test_kinked_integrand(self, oscillating):
        # the H2 i probe: |Delta mu / mu| has a kink wherever Delta mu changes
        # sign; the reference is 20-point Gauss-Legendre on 4.2e5 panels
        def abs_lap(r):
            return np.abs(log_derivatives(oscillating, r)[1])

        got = weighted_integral(oscillating, abs_lap, 0.0, 1.0, rtol=1e-8)
        assert got == pytest.approx(26.2357197079, rel=1e-9)

    def test_divergence_probe_brackets_N0(self, exppow3):
        assert not _integral_diverges(exppow3, 3.0 - 0.01)
        assert _integral_diverges(exppow3, 3.0 + 0.01)

    def test_non_settling_integrand_fails_within_budget(self, leb3):
        # 8e7 oscillations on [1/2, 1]: bisection cannot resolve them
        with pytest.raises(QuadratureFailure):
            weighted_integral(leb3, lambda r: np.sin(1e9 * r), 0.5, 1.0)

    def test_integrand_error_is_quadrature_failure(self, leb3):
        def broken(r):
            raise ZeroDivisionError("boom")

        with pytest.raises(QuadratureFailure):
            weighted_integral(leb3, broken, 0.1, 1.0)


def _moment_reference(fam, power, R):
    """omega_N int_0^R r^{power + N - 1} mu dr from scipy.special's incomplete
    gamma and exponential integrals, below the kind's first seam."""
    q = fam.dimension + power - fam.power_order
    omega = surface_measure(fam.dimension)
    if fam.kind is Kind.LEBESGUE or fam.b == 0.0:
        return omega * R**q / q
    if fam.kind is Kind.LOG_WEIGHT:
        a, x = fam.alpha + 1.0, q * math.log(1.0 / R)
        if a <= 0.0:  # Gamma(-n, x) = x^-n E_{n+1}(x), and q^n x^-n = log(1/R)^-n
            return omega * math.log(1.0 / R) ** a * special.expn(int(1.0 - a), x)
        return omega * q**-a * special.gamma(a) * special.gammaincc(a, x)
    if fam.kind is Kind.OSCILLATING:  # elementary: int_{-oo}^s e^{qt} (2 + sin t) dt
        s = math.log(R)
        return omega * math.exp(q * s) * (2.0 / q + (q * math.sin(s) - math.cos(s)) / (q * q + 1.0))
    a = q / fam.m
    return omega * fam.b**-a * special.gamma(a) * special.gammainc(a, fam.b * R**fam.m) / fam.m


class TestClosedFormMoments:
    """f=None from r_lo = 0 is the incomplete gamma function: pinned to scipy."""

    @pytest.mark.parametrize("fam,power,R", [
        (WeightFamily(Kind.LEBESGUE, 3), 0.0, 1.0),
        (WeightFamily(Kind.LEBESGUE, 5), -2.0, 7.5),
        (WeightFamily(Kind.EXP_POWER, 3), 0.0, 1.0),
        (WeightFamily(Kind.EXP_POWER, 3), -2.0, 0.25),
        (WeightFamily(Kind.EXP_POWER, 5, b=3.0, m=1.0), 0.5, 40.0),
        (WeightFamily(Kind.EXP_POWER, 3, b=2000.0), 0.0, 1.0),
        (WeightFamily(Kind.EXP_POWER, 3, b=1e6, m=4.0), -1.0, 0.5),
        (WeightFamily(Kind.EXP_POWER, 3, b=0.0), -1.5, 2.0),
        (WeightFamily(Kind.POWER_EXP_POWER, 4, beta=1.0), 0.0, 1.0),
        (WeightFamily(Kind.POWER_EXP_POWER, 4, b=0.0, beta=1.0), -2.0, 0.5),
        (WeightFamily(Kind.POWER_EXP_POWER, 3, b=0.5, m=3.0, beta=2.5), 1.0, 3.0),
        (WeightFamily(Kind.OSCILLATING, 3), 0.0, 0.5),
        (WeightFamily(Kind.OSCILLATING, 4), -3.5, 0.01),
        # N = 343 past r = 13, where r^{N-1} alone overflows a double
        (WeightFamily(Kind.EXP_POWER, 343), 0.0, 40.0),
        (WeightFamily(Kind.EXP_POWER, 343, m=0.05), -340.0, 1.0),
        (WeightFamily(Kind.EXP_POWER, 3, m=0.05), 0.0, 1.0),
    ])
    def test_each_kind(self, fam, power, R):
        got = weighted_integral(fam, None, 0.0, R, power=power)
        assert got == pytest.approx(_moment_reference(fam, power, R), rel=1e-13)

    @pytest.mark.parametrize("fam", [
        WeightFamily(Kind.LEBESGUE, 3), WeightFamily(Kind.EXP_POWER, 3),
        WeightFamily(Kind.POWER_EXP_POWER, 4, beta=1.0), WeightFamily(Kind.OSCILLATING, 3),
        WeightFamily(Kind.LOG_WEIGHT, 3, alpha=1.0), WeightFamily(Kind.LOG_WEIGHT, 3, alpha=-0.5),
        WeightFamily(Kind.LOG_WEIGHT, 3, alpha=-1.0),
    ])
    @pytest.mark.parametrize("q", [1e-3, 1e-9])
    def test_q_to_zero(self, fam, q):
        # q = N + power - beta -> 0+: the moment grows like 1/q (like q^{-alpha-1}
        # for the log weight), and stays finite
        power = q - fam.dimension + fam.power_order
        R = 0.5 if fam.kind in (Kind.OSCILLATING, Kind.LOG_WEIGHT) else 1.0
        got = weighted_integral(fam, None, 0.0, R, power=power)
        assert got == pytest.approx(_moment_reference(fam, power, R), rel=1e-13)

    @pytest.mark.parametrize("alpha", [-1.0, -0.5, 1.0, 2.5])
    @pytest.mark.parametrize("R", [0.3, 0.5, 0.95, 1.0])
    @pytest.mark.parametrize("power", [0.0, -2.0])
    def test_log_weight(self, alpha, R, power):
        # the closed form runs to min(R, 1/2); the closure on [1/2, R] is one
        # finite block, checked by scipy's adaptive quadrature
        fam = WeightFamily(Kind.LOG_WEIGHT, 3, alpha=alpha)
        want = _moment_reference(fam, power, min(R, 0.5))
        if R > 0.5:
            block, _ = integrate.quad(lambda r: r ** (power + 2.0) * eval_mu(fam, r), 0.5, R,
                                      epsabs=0.0, epsrel=1e-13, limit=200)
            want += surface_measure(3) * block
        assert weighted_integral(fam, None, 0.0, R, power=power) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("alpha", [-2.0, -5.0, -60.0])
    @pytest.mark.parametrize("q", [3.0, 1e-3, 2.0**-20])
    def test_log_weight_alpha_below_minus_one(self, alpha, q):
        # Gamma(alpha + 1, x) with alpha + 1 <= 0: x^{alpha+1} alone overflows at
        # alpha = -60 on the H3' ladder's q = 2^-20, though the moment is finite
        fam = WeightFamily(Kind.LOG_WEIGHT, 3, alpha=alpha)
        got = weighted_integral(fam, None, 0.0, 0.5, power=q - 3.0)
        assert got == pytest.approx(_moment_reference(fam, q - 3.0, 0.5), rel=1e-13)

    def test_log_weight_at_q_zero_alpha_decides(self):
        # int_{log 2}^oo t^alpha dt: finite for alpha < -1, and diverges otherwise
        fam = WeightFamily(Kind.LOG_WEIGHT, 3, alpha=-2.0)
        got = weighted_integral(fam, None, 0.0, 0.5, power=-3.0)
        assert got == pytest.approx(surface_measure(3) / math.log(2.0), rel=1e-13)
        for alpha in (-1.0, 0.0, 1.0):
            with pytest.raises(DivergentIntegral):
                weighted_integral(WeightFamily(Kind.LOG_WEIGHT, 3, alpha=alpha), None, 0.0, 0.5,
                                  power=-3.0)

    @pytest.mark.parametrize("fam", [
        WeightFamily(Kind.LEBESGUE, 3), WeightFamily(Kind.EXP_POWER, 3),
        WeightFamily(Kind.EXP_POWER, 3, b=0.0), WeightFamily(Kind.POWER_EXP_POWER, 4, beta=1.0),
        WeightFamily(Kind.OSCILLATING, 3), WeightFamily(Kind.LOG_WEIGHT, 3, alpha=1.0),
        WeightFamily(Kind.LOG_WEIGHT, 3, alpha=-1.0),
    ])
    def test_divergence_flag_is_exact(self, fam):
        edge = fam.dimension - fam.power_order  # q = 0 at power = -edge
        for q in (0.0, -1e-12, -2.0):
            with pytest.raises(DivergentIntegral):
                weighted_integral(fam, None, 0.0, 1.0, power=q - edge)
        assert weighted_integral(fam, None, 0.0, 1.0, power=1e-12 - edge) > 0.0

    def test_no_tail_blocks(self, monkeypatch):
        # below the first seam a moment evaluates no integrand at all
        def refuse(*args, **kwargs):
            raise AssertionError("a pure moment reached the quadrature")

        monkeypatch.setattr(weights, "_quad_block", refuse)
        for fam in (WeightFamily(Kind.EXP_POWER, 3), WeightFamily(Kind.OSCILLATING, 3),
                    WeightFamily(Kind.LOG_WEIGHT, 3, alpha=1.0)):
            weighted_integral(fam, None, 0.0, 0.5, power=-1.0)


class TestTailBlocks:
    @pytest.mark.parametrize("b", [2000.0, 1e6])
    def test_h2_i_holds_at_large_b(self, b):
        # the outer blocks of exp(-b r^2) carry 1e-100 of the total or underflow;
        # the growth toward the bulk is no blow-up
        assert _h2_i_check(WeightFamily(b=b))

    def test_h2_i_integral_at_dimension_343(self):
        # every tail block past [-2, -1] lies below the double range's normal
        # floor; omega_N int_0^1 r^{N+1} e^{-r^2} dr is its alternating series
        N = 343
        fam = WeightFamily(dimension=N)
        got = weighted_integral(fam, lambda r: 0.25 * log_derivatives(fam, r)[0] ** 2,
                                0.0, 1.0, rtol=1e-8)
        series = math.fsum((-1) ** k / (math.factorial(k) * (N + 2 + 2 * k)) for k in range(60))
        log_omega = math.log(2.0) + N / 2 * math.log(math.pi) - math.lgamma(N / 2)
        assert got == pytest.approx(math.exp(log_omega) * series, rel=1e-12)


_STACK_FAMILIES = [
    WeightFamily(Kind.LEBESGUE, 3),
    WeightFamily(Kind.EXP_POWER, 3),
    WeightFamily(Kind.POWER_EXP_POWER, 4, beta=1.0),
    WeightFamily(Kind.LOG_WEIGHT, 3, alpha=1.0),
    WeightFamily(Kind.OSCILLATING, 3),
]


def _annulus_rows(r):
    """Three integrands of the cutoff annulus [1, 2], as rows."""
    th = _theta(r)
    return np.stack([r**-0.5 * th**2, _theta_deriv(r) ** 2, r * th])


def _h2_i_rows(fam):
    """The two H2 i integrands, as rows, for the tail walk toward r = 0."""
    def rows(r):
        d1, lap = log_derivatives(fam, r)
        return np.stack([0.25 * d1 * d1, np.abs(lap)])
    return rows


class TestStackedIntegrals:
    """A stack of integrands over one range is one call, which shares every
    node: its values are those of one call per member, to rounding."""

    @pytest.mark.parametrize("fam", _STACK_FAMILIES, ids=lambda f: f.kind.value)
    def test_stack_matches_one_call_per_member(self, fam):
        # the annulus, moments from 0 (closed form plus the closing block past
        # the seam), and the tail walk of the H2 i pair
        powers = np.concatenate([2.0 ** -np.arange(1.0, 11.0) - fam.analytic_N0(), [-0.3, 0.0, 2.0]])
        rows = _h2_i_rows(fam)
        cases = [
            (weighted_integral(fam, _annulus_rows, 1.0, 2.0),
             [weighted_integral(fam, lambda r, i=i: _annulus_rows(r)[i], 1.0, 2.0) for i in range(3)]),
            (weighted_integral(fam, None, 0.0, 1.0, power=powers),
             [weighted_integral(fam, None, 0.0, 1.0, power=p) for p in powers]),
            (weighted_integral(fam, None, 0.25, 1.0, power=powers),
             [weighted_integral(fam, None, 0.25, 1.0, power=p) for p in powers]),
            (weighted_integral(fam, rows, 0.0, 1.0, rtol=1e-8),
             [weighted_integral(fam, lambda r, i=i: rows(r)[i], 0.0, 1.0, rtol=1e-8) for i in range(2)]),
        ]
        for stacked, one in cases:
            assert isinstance(stacked, np.ndarray) and stacked.shape == (len(one),)
            assert list(stacked) == pytest.approx(one, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("fam", _STACK_FAMILIES, ids=lambda f: f.kind.value)
    def test_one_member_stack_is_the_scalar_call(self, fam):
        rows = _h2_i_rows(fam)
        assert weighted_integral(fam, lambda r: _annulus_rows(r)[:1], 1.0, 2.0)[0] == \
            weighted_integral(fam, lambda r: _annulus_rows(r)[0], 1.0, 2.0)
        for lo in (0.0, 0.25):
            assert weighted_integral(fam, None, lo, 1.0, power=np.array([-0.3]))[0] == \
                weighted_integral(fam, None, lo, 1.0, power=-0.3)
        assert weighted_integral(fam, lambda r: rows(r)[1:], 0.0, 1.0, rtol=1e-8)[0] == \
            weighted_integral(fam, lambda r: rows(r)[1], 0.0, 1.0, rtol=1e-8)

    def test_one_divergent_member_raises_for_the_stack(self, leb3):
        with pytest.raises(DivergentIntegral):
            weighted_integral(leb3, None, 0.0, 1.0, power=np.array([0.0, -3.5]))
        with pytest.raises(DivergentIntegral):
            weighted_integral(leb3, lambda r: np.stack([np.ones_like(r), r**-3.5]), 0.0, 1.0)

    def test_power_stack_takes_no_callable(self, leb3):
        with pytest.raises(InvalidParams, match="a stack of powers takes f=None"):
            weighted_integral(leb3, np.ones_like, 0.0, 1.0, power=np.array([0.0, 1.0]))

    @pytest.mark.parametrize("fam", _STACK_FAMILIES, ids=lambda f: f.kind.value)
    def test_divergence_flag_is_the_moments(self, fam, monkeypatch):
        # the flag reads the closed form alone, and agrees with the moment on B_1
        deltas = [fam.analytic_N0() + d for d in (-1.0, -0.01, 0.0, 0.01, 1.0)]
        want = []
        for delta in deltas:
            try:
                weighted_integral(fam, None, 0.0, 1.0, power=-delta)
                want.append(False)
            except DivergentIntegral:
                want.append(True)

        def no_quadrature(*args, **kwargs):
            raise AssertionError("the divergence flag ran a quadrature")

        monkeypatch.setattr(weights, "_quad_block", no_quadrature)
        assert [_integral_diverges(fam, delta) for delta in deltas] == want
        assert want[0] is False and want[-1] is True


class TestRadialGrid:
    def test_geometric_ratio_constant(self):
        g = RadialGrid(1e-4, 20.0, 333)
        logs = np.diff(np.log(g.nodes))
        assert np.ptp(logs) <= 1e-12 * logs[0]
        assert (np.diff(g.nodes) > 0).all()
        assert g.nodes[0] == pytest.approx(1e-4, rel=1e-14)
        assert g.nodes[-1] == pytest.approx(20.0, rel=1e-14)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        r_min=st.floats(min_value=1e-8, max_value=1e-2),
        span=st.floats(min_value=10.0, max_value=1e6),
        n=st.integers(min_value=16, max_value=4000),
    )
    def test_grid_properties(self, r_min, span, n):
        g = RadialGrid(r_min, r_min * span, n)
        assert len(g.nodes) == n
        ratios = g.nodes[1:] / g.nodes[:-1]
        assert ratios.max() - ratios.min() <= 1e-10 * ratios[0]

    def test_origin_excluded(self):
        with pytest.raises(InvalidParams):
            RadialGrid(0.0, 1.0, 32)
        with pytest.raises(InvalidParams):
            RadialGrid(1.0, 0.5, 32)
        with pytest.raises(InvalidParams):
            RadialGrid(0.1, 1.0, 8)

    @pytest.mark.parametrize("r_max", [math.inf, math.nan])
    def test_non_finite_r_max_rejected(self, r_max):
        # an infinite r_max would fill the nodes with inf and nan
        with pytest.raises(InvalidParams, match=f"r_max = {r_max} need 0 < r_min < r_max < inf"):
            RadialGrid(1e-5, r_max, 256)

    def test_node_count_boundaries(self):
        assert RadialGrid(n_points=weights.MAX_NODES).n_points == 2**20
        for n in (2**20 + 1, 15):
            with pytest.raises(InvalidParams,
                               match=re.escape(f"n_points = {n} must lie in [16, 1048576]")):
                RadialGrid(n_points=n)

    def test_r_min_is_a_normal_double(self):
        tiny = sys.float_info.min
        assert RadialGrid(r_min=tiny).r_min == tiny
        with pytest.raises(InvalidParams, match=re.escape(
                f"r_min = {tiny / 2} must be a normal double, >= 2.23e-308")):
            RadialGrid(r_min=tiny / 2)


def _one_shot_element_integrals(family, nodes):
    """Every element's 12-point sums in one pass over all elements: the
    arithmetic the blocked kernel must reproduce to the bit."""
    rl, rr = nodes[:-1], nodes[1:]
    h = rr - rl
    x = rl[:, None] + h[:, None] * (weights._GL_X[None, :] + 1.0) / 2.0
    w = h[:, None] * (weights._GL_W[None, :] / 2.0)
    base = eval_mu(family, x.ravel()).reshape(x.shape) * x ** (family.dimension - 1) * w
    base *= surface_measure(family.dimension)
    psl = (rr[:, None] - x) / h[:, None]
    psr = (x - rl[:, None]) / h[:, None]
    inv_r2 = 1.0 / (x * x)
    return {
        "h": h,
        "mass": base.sum(axis=1),
        "mass_l": (base * psl).sum(axis=1),
        "mass_r": (base * psr).sum(axis=1),
        "hardy_ll": (base * psl * psl * inv_r2).sum(axis=1),
        "hardy_lr": (base * psl * psr * inv_r2).sum(axis=1),
        "hardy_rr": (base * psr * psr * inv_r2).sum(axis=1),
    }


_B = weights._ELEMENT_BLOCK


class TestHatElementIntegrals:
    # node counts around one and three block boundaries (n - 1 elements)
    @pytest.mark.parametrize("n", [2, _B - 1, _B, _B + 1, _B + 2, 3 * _B + 5])
    def test_bitwise_equal_to_one_shot(self, n, leb4, exppow3, pexp4, logw_pos, oscillating):
        for family, r_max in ((leb4, 20.0), (exppow3, 20.0), (pexp4, 20.0),
                              (logw_pos, 0.95), (oscillating, 20.0)):
            nodes = np.geomspace(1e-5, r_max, n)
            got = hat_element_integrals(family, nodes)
            for name, want in _one_shot_element_integrals(family, nodes).items():
                assert np.array_equal(getattr(got, name), want), (family.label(), name)

    @pytest.mark.parametrize("bad", [math.inf])
    def test_non_finite_weight_in_last_block_raises(self, bad):
        nodes = np.geomspace(1e-5, 20.0, 3 * _B + 5)
        log_max = math.log(np.finfo(float).max)

        def family(edge):
            # the density mu r^2 = r^(2 - beta) passes the largest double at
            # r = edge (mu alone cannot overflow in the last element only: mu r^2
            # overflows an element before mu does)
            return WeightFamily(Kind.POWER_EXP_POWER, 3, b=0.0,
                                beta=2.0 - log_max / math.log(edge))

        hat_element_integrals(family(nodes[-1]), nodes)  # finite up to r_max
        last = family(nodes[-2])
        with np.errstate(over="ignore"):
            assert eval_mu(last, nodes[-1]) * nodes[-1] ** 2 == bad
        with pytest.raises(QuadratureFailure, match="weight not finite on the grid"):
            hat_element_integrals(last, nodes)  # only the last element

    def test_peak_memory_is_a_few_doubles_per_node(self, exppow3):
        # the output's seven rows plus one block; all elements at once held 91
        n = 2**16
        nodes = np.geomspace(1e-5, 20.0, n)
        tracemalloc.start()
        try:
            hat_element_integrals(exppow3, nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 8 * n


class TestBumpsAndCutoffs:
    def test_transition_endpoints(self):
        assert smooth_transition(0.4, 0.5, 1.0) == 1.0
        assert smooth_transition(1.1, 0.5, 1.0) == 0.0
        mid = smooth_transition(0.75, 0.5, 1.0)
        assert 0.0 < mid < 1.0

    def test_bump_support_and_derivative(self):
        b = RadialBump(0.25, 1.0)
        assert b(0.2) == 0.0 and b(1.1) == 0.0
        assert b(0.625) == pytest.approx(1.0, rel=1e-14)
        r = np.linspace(0.26, 0.99, 400)
        h = 1e-6
        fd = (b(r + h) - b(r - h)) / (2 * h)
        assert np.allclose(b.deriv(r), fd, atol=1e-6, rtol=1e-5)

    @pytest.mark.parametrize("lo,hi", [(0.3, 0.3), (-0.5, 0.5), (0.2, math.nan), (0.2, math.inf)],
                             ids=["empty", "negative-lo", "nan-hi", "inf-hi"])
    def test_bad_support_rejected(self, lo, hi):
        # an empty support once gave a zero slack with a divide-by-zero warning,
        # a negative lo was silently lo = 0, and a nan or infinite hi ended in
        # a quadrature error
        message = f"bump support ({lo}, {hi}) needs 0 <= lo < hi < inf"
        with pytest.raises(InvalidParams, match=re.escape(message)):
            RadialBump(lo, hi)

    def test_centered_bump(self):
        b = RadialBump(0.0, 0.6)
        assert b(0.0) == pytest.approx(1.0, rel=1e-14)
        assert b(0.61) == 0.0
        r = np.linspace(0.01, 0.59, 200)
        h = 1e-7
        fd = (b(r + h) - b(r - h)) / (2 * h)
        assert np.allclose(b.deriv(r), fd, atol=1e-5, rtol=1e-4)


def _central(f, r, h):
    return (f(r + h) - f(r - h)) / (2.0 * h)


class TestTemplateDerivatives:
    """Every derivative built on the bump template, against a central
    difference of the function it differentiates (h = 1e-5, error ~1e-10)."""

    @pytest.mark.parametrize("lo,hi", [(0.0, 0.6), (0.25, 1.0)])
    def test_bump_deriv(self, lo, hi):
        b = RadialBump(lo, hi)
        r = np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 200)
        assert np.allclose(b.deriv(r), _central(b, r, 1e-5), rtol=1e-6, atol=5e-9)
        assert np.array_equal(b.deriv(np.array([hi, hi + 0.1])), np.zeros(2))

    def test_theta_deriv(self):
        r = np.linspace(1.05, 1.95, 200)
        assert np.allclose(_theta_deriv(r), _central(_theta, r, 1e-5), rtol=1e-6, atol=1e-8)
        assert np.array_equal(_theta_deriv(np.array([0.5, 1.0, 2.0, 3.0])), np.zeros(4))
        assert isinstance(_theta_deriv(1.5), float)


def test_gauss_legendre_tables_are_leggauss():
    # the rules are literal tables, so that numpy.polynomial is never
    # imported: bit for bit what leggauss computes
    from numpy.polynomial.legendre import leggauss
    for n, x, w in ((10, weights._QX, weights._QW), (12, weights._GL_X, weights._GL_W)):
        want_x, want_w = leggauss(n)
        assert x.tobytes() == want_x.tobytes() and w.tobytes() == want_w.tobytes()
