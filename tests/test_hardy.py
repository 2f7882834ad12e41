import json
import math

import numpy as np
import pytest

from hardykit import hardy
from hardykit import (
    Kind,
    WeightFamily,
    c0,
    check_hypotheses,
    compute_profile,
    compute_U,
    compute_Umu,
    estimate_N0,
)
from hardykit.errors import ProfileUndefined

from conftest import fd_log_derivatives


def umu_exp_power_formula(b, m, N, r):
    return -0.25 * b**2 * m**2 * r ** (2 * m - 2) + 0.5 * b * m * (N + m - 2) * r ** (m - 2)


def u_power_exp_formula(b, m, N, beta, r):
    return -0.25 * b**2 * m**2 * r ** (2 * m - 2) + 0.5 * b * m * (N + m - 2 - beta) * r ** (m - 2)


class TestUmu:
    @pytest.mark.parametrize("m", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("N", [3, 4, 5])
    def test_exp_power_closed_form(self, m, N):
        fam = WeightFamily(Kind.EXP_POWER, N, b=1.0, m=m)
        r = np.geomspace(1e-6, 10.0, 400)
        got = compute_Umu(fam, r)
        want = umu_exp_power_formula(1.0, m, N, r)
        scale = np.maximum(1.0, np.maximum(0.25 * m**2 * r ** (2 * m - 2),
                                           0.5 * m * (N + m - 2) * r ** (m - 2)))
        assert (np.abs(got - want) <= 1e-8 * scale).all()

    def test_exp_power_point_value(self):
        fam = WeightFamily(Kind.EXP_POWER, 3, b=1.0, m=2.0)
        assert compute_Umu(fam, 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_lebesgue_zero(self, leb3):
        assert compute_Umu(leb3, 0.37) == 0.0

    @pytest.mark.parametrize("alpha", [-1.0, -0.5, 0.5, 1.0])
    def test_log_weight_formula(self, alpha):
        # r^2 U_mu = (1/4 - (alpha-1)^2/4) / log(1/r)^2 + (alpha/2)(N-2)/log(1/r)
        N = 3
        fam = WeightFamily(Kind.LOG_WEIGHT, N, alpha=alpha)
        r = np.geomspace(1e-6, 0.249, 200)
        ell = np.log(1.0 / r)
        want = (0.25 - (alpha - 1) ** 2 / 4) / ell**2 + (alpha / 2) * (N - 2) / ell
        got = r**2 * compute_Umu(fam, r)
        assert got == pytest.approx(want, rel=1e-6)

    def test_log_weight_point(self):
        fam = WeightFamily(Kind.LOG_WEIGHT, 3, alpha=1.0)
        r = math.exp(-2.0)
        assert r**2 * compute_Umu(fam, r) == pytest.approx(5.0 / 16.0, rel=1e-12)

    def test_oscillating_formula(self, oscillating):
        r = np.geomspace(1e-5, 0.49, 100)
        t = np.log(r)
        s, cs = np.sin(t), np.cos(t)
        want = 0.25 * (cs / (2 + s)) ** 2 - 0.5 * ((3 - 2) * cs - s) / (2 + s)
        assert r**2 * compute_Umu(oscillating, r) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("r", [0.003, 0.07, 0.9, 4.0])
    def test_against_finite_differences(self, r, exppow3, pexp4):
        for fam in (exppow3, pexp4):
            d1_fd, lap_fd = fd_log_derivatives(fam, r)
            want = 0.25 * d1_fd**2 - 0.5 * lap_fd
            got = compute_Umu(fam, r)
            assert abs(got - want) <= 1e-6 * max(1.0, abs(got))


class TestLineFit:
    # the x-grids of the three fits: the profile tail in 1/k, the small-ball
    # log radii, and the fitted half of a 33-record evolution at T = 8 and at
    # the smallest T whose t^2 does not underflow
    @pytest.mark.parametrize("x", [
        1.0 / np.arange(hardy._K_MAX - hardy._TAIL_WINDOW + 1, hardy._K_MAX + 1.0),
        -np.arange(hardy._COND1_K_MIN, hardy._COND1_K_MAX + 1) * math.log(2.0),
        np.linspace(0.0, 8.0, 33)[16:],
        np.linspace(0.0, 1e-161, 16)[8:],
    ], ids=["inverse_k", "cond1", "envelope", "T=1e-161"])
    def test_matches_polyfit(self, x):
        u = x / np.max(np.abs(x))
        for y in (0.7 - 1.3 * u + 0.01 * np.sin(7.0 * u), np.exp(u), 2.0 + 1e-3 * u * u):
            slope, intercept = np.polyfit(x, y, 1)
            a, b = hardy.line_fit(x, y)
            assert a == pytest.approx(intercept, rel=1e-12)
            assert b == pytest.approx(slope, rel=1e-12)

    def test_exact_line(self):
        x = np.linspace(-3.0, 5.0, 9)
        assert hardy.line_fit(x, 0.5 - 2.0 * x) == pytest.approx((0.5, -2.0), rel=1e-15)


class TestProfile:
    def test_cache_keys_on_the_knobs_it_reads(self):
        # one profile per family: the second call is a hit
        fam = WeightFamily(Kind.EXP_POWER, 5, b=0.5, m=1.5)
        before = compute_profile.cache_info().misses
        p = compute_profile(fam)
        assert compute_profile(fam) is p
        assert compute_profile.cache_info().misses - before == 1

    def test_exp_power(self, exppow3):
        p = compute_profile(exppow3)
        assert abs(p.L) < 1e-10
        assert p.c0_mu == pytest.approx(0.25, abs=1e-10)
        assert p.N0 == 3.0
        assert not p.oscillatory

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_power_exp_power(self, beta):
        N = 4
        fam = WeightFamily(Kind.POWER_EXP_POWER, N, b=1.0, m=2.0, beta=beta)
        p = compute_profile(fam)
        L_exact = 0.5 * beta * (N - 2) - 0.25 * beta**2
        assert p.L == pytest.approx(L_exact, abs=1e-6)
        assert p.c0_mu == pytest.approx(c0(N - beta), abs=1e-4)
        assert p.N0 == pytest.approx(N - beta, abs=1e-12)
        est = estimate_N0(fam)
        assert est.agrees and est.value == pytest.approx(p.N0, abs=0.05)

    def test_oscillating(self, oscillating):
        p = compute_profile(oscillating)
        assert p.oscillatory
        assert p.L > 0.0
        assert p.c0_mu < p.c0_N
        assert p.N0 == 3.0
        # dyadic tail extremes approximate the true period extremes
        assert p.L == pytest.approx(0.317797, abs=5e-3)
        assert p.L_inf == pytest.approx(-0.578967, abs=5e-3)

    def test_log_weight_limit_is_zero(self, logw_pos, logw_neg):
        for fam in (logw_pos, logw_neg):
            p = compute_profile(fam)
            assert abs(p.L) < 2e-3  # slowly varying tail, removed by the 1/k fit
            assert p.N0 == 3.0

    def test_custom_undefined_near_zero(self):
        # (mu'/mu)^2 ~ (b m r^{m-1})^2 overflows on the dyadic ladder
        fam = WeightFamily(Kind.EXP_POWER, 3, b=1e200, m=0.5)
        with pytest.raises(ProfileUndefined):
            compute_profile(fam)


class TestComputeU:
    def test_relation_u_identity(self, exppow3, pexp4, leb3, logw_pos):
        # U = U_mu + (c0_mu - c0(N))/r^2 wherever the limit exists
        for fam in (exppow3, pexp4, leb3, logw_pos):
            p = compute_profile(fam)
            r = np.geomspace(1e-5, 5.0, 50) if fam.kind is not Kind.LOG_WEIGHT \
                else np.geomspace(1e-5, 0.45, 50)
            lhs = compute_U(fam, r)
            rhs = compute_Umu(fam, r) + (p.c0_mu - p.c0_N) / r**2
            umu = compute_Umu(fam, r)
            assert (np.abs(lhs - rhs) <= 1e-8 * np.maximum(1.0, np.abs(umu))).all()

    def test_power_exp_power_paper_form(self):
        fam = WeightFamily(Kind.POWER_EXP_POWER, 4, b=1.0, m=2.0, beta=1.0)
        assert compute_U(fam, 1.0) == pytest.approx(2.0, rel=1e-9)
        r = np.geomspace(1e-6, 10, 300)
        want = u_power_exp_formula(1.0, 2.0, 4, 1.0, r)
        got = compute_U(fam, r)
        # U is the difference of two ~1/r^2 terms; normalize by their size
        scale = np.maximum(1.0, np.abs(compute_Umu(fam, r)))
        assert (np.abs(got - want) <= 1e-8 * scale).all()

    def test_exp_power_value_at_two(self, exppow3):
        # U_mu = 3 - r^2 here, and L = 0 so U = U_mu
        assert compute_U(exppow3, 2.0) == pytest.approx(-1.0, rel=1e-10)

    def test_lebesgue_zero(self, leb3):
        assert compute_U(leb3, 1.0) == pytest.approx(0.0, abs=1e-14)


class TestN0Estimator:
    # beta < 0 puts N0 = N - beta above N + 1.5
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 1.5, -1.6, -2.0])
    def test_power_exp_power_grid(self, beta):
        fam = WeightFamily(Kind.POWER_EXP_POWER, 4, b=1.0, m=2.0, beta=beta)
        est = estimate_N0(fam)
        assert est.value == pytest.approx(4.0 - beta, abs=0.05)
        assert est.agrees

    def test_log_weight_slowly_varying(self, logw_pos, logw_neg):
        for fam in (logw_pos, logw_neg):
            est = estimate_N0(fam)
            assert est.value == pytest.approx(3.0, abs=0.05)


class TestHypotheses:
    def test_exp_power_full_h2_h3(self, exppow3):
        rep = check_hypotheses(exppow3)
        assert rep.classification == "H2"
        assert rep.h1 is True
        assert rep.h2_prime
        assert rep.c0_mu == pytest.approx(0.25, abs=1e-6)
        assert rep.h2_iv_R0 == pytest.approx(0.125)   # bound first holds at 2^-3
        assert rep.h3_N0 == 3.0
        assert not rep.h3p_iii_diverges
        assert rep.h3_evidence["2.9"] == "convergent"
        assert rep.h3_evidence["3.1"] == "divergent"

    def test_iv_implies_iii_checked_independently(self, exppow3):
        rep = check_hypotheses(exppow3)
        # iv is audited near 0 only, iii away from 0 only; both must be
        # present whenever iv is claimed
        assert rep.h2_iv_holds
        assert rep.h2_iii_bounded
        assert set(rep.h2_iii_bounds) == {"0.1", "1", "10"}

    def test_log_weight_positive_alpha(self, logw_pos):
        rep = check_hypotheses(logw_pos)
        assert not rep.h2_iv_holds
        assert rep.h2_prime
        assert rep.classification == "H2_prime_only"
        assert rep.h3p_iii_diverges

    def test_log_weight_negative_alpha(self, logw_neg):
        rep = check_hypotheses(logw_neg)
        assert rep.h2_iv_holds
        assert rep.classification == "H2"
        assert not rep.h3p_iii_diverges

    @pytest.mark.parametrize("alpha,want", [(-1.0, False), (-0.5, False), (0.5, True), (1.0, True)])
    def test_h3p_diverges_iff_alpha_positive(self, alpha, want):
        fam = WeightFamily(Kind.LOG_WEIGHT, 3, alpha=alpha)
        rep = check_hypotheses(fam)
        assert rep.h3p_iii_diverges is want

    def test_oscillating(self, oscillating):
        rep = check_hypotheses(oscillating)
        # c0_mu sits strictly below c0(N); H2' holds (the paper's claim),
        # and on top of it U <= 0 near 0 makes the iv bound trivially true
        assert rep.c0_mu < 0.25
        assert rep.h2_prime
        assert rep.h2_iv_holds
        assert rep.h3_N0 == 3.0
        assert not rep.h3p_iii_diverges
        assert rep.h1 is True

    def test_power_exp_power_h1_false(self, pexp4):
        rep = check_hypotheses(pexp4)
        assert rep.h1 is False
        assert rep.classification == "H2"
        assert rep.c0_mu == pytest.approx(0.25, abs=1e-6)

    def test_lebesgue_cond1(self, leb3):
        rep = check_hypotheses(leb3)
        assert rep.cond1["2"]["holds"]                    # p = 2 < N = 3
        assert rep.cond1["2"]["exponent"] == pytest.approx(1.0, abs=0.01)
        assert not rep.cond1["3"]["holds"]                # p = N: exponent 0

    @pytest.mark.parametrize("N", [3, 4])
    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
    def test_cond1_grid(self, N, beta):
        fam = WeightFamily(Kind.POWER_EXP_POWER, N, b=1.0, m=2.0, beta=beta)
        rep = check_hypotheses(fam)
        for p in (1.0, 2.0, 3.0):
            entry = rep.cond1[f"{p:g}"]
            assert entry["holds"] == (N - beta - p > 0.01)
            assert entry["exponent"] == pytest.approx(N - beta - p, abs=0.02)

    def test_report_serialization(self, exppow3):
        rep = check_hypotheses(exppow3)
        payload = json.loads(json.dumps(rep.to_json_dict()))
        for key in ("h2_ii", "h2_iii", "h2_iv", "h3_N0", "h3p_iii", "cond1"):
            assert key in payload
        assert payload["h2_ii"]["c0_mu"] == pytest.approx(0.25, abs=1e-6)
        table = rep.to_table()
        assert "classification" in table and "H2" in table

    def test_exactly_one_classification(self, exppow3, logw_pos, oscillating):
        for fam in (exppow3, logw_pos, oscillating):
            rep = check_hypotheses(fam)
            assert rep.classification in ("H2", "H2_prime_only", "neither")
            if rep.classification == "H2":
                assert rep.h2_iv_holds and rep.h2_prime
            if rep.classification == "H2_prime_only":
                assert rep.h2_prime and not rep.h2_iv_holds
