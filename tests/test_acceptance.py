"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they go.
Criterion 4's capped-power quotient grows like -n^s with
s = -(2 gamma + N0 - 2), which the admissible gamma window caps at
2 sqrt(c) - (N0 - 2); for the shipped families no admissible gamma gets it
below -100 by n = 256. The test therefore reads it on n = 4^k, k = 1..21,
and asserts strict decrease, a value below -100 at n = 4^21, and a
last-rung growth exponent within 5% of s. The printed line keeps q(256)
and the first n below -100, so the shortfall at n = 256 stays visible.
"""

import filecmp

import numpy as np

from hardykit import (
    Kind,
    RadialGrid,
    WeightFamily,
    c0,
    check_hypotheses,
    compute_profile,
    compute_U,
    compute_Umu,
    critical_sweep,
    dichotomy_verdict,
    estimate_N0,
    improved_hardy_slack,
    phi_gamma_ladder,
    quotient_phi_n,
    weighted_vs_flat_crosscheck,
)
from hardykit.cli import main
from hardykit.spectral import phi_n_gamma_bounds
from hardykit.weights import RadialBump

GRID = RadialGrid(1e-5, 20.0, 256)

# The families the toolkit ships with full H2 + H3 (sharp constant attained):
# the canonical exponential weight, its power-singular variant, and the flat
# case in dimension four.
SHIPPED_H3 = (
    WeightFamily(Kind.EXP_POWER, 3, b=1.0, m=2.0),
    WeightFamily(Kind.POWER_EXP_POWER, 4, b=1.0, m=2.0, beta=1.0),
    WeightFamily(Kind.LEBESGUE, 4),
)


def report(idx, ok, detail=""):
    print(f"ACCEPTANCE {idx}: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def test_criterion_1_closed_form_potentials():
    ok = True
    for m in (1.0, 2.0, 3.0):
        for N in (3, 4, 5):
            fam = WeightFamily(Kind.EXP_POWER, N, b=1.0, m=m)
            r = np.geomspace(1e-6, 10.0, 500)
            got = compute_Umu(fam, r)
            want = -0.25 * m**2 * r ** (2 * m - 2) + 0.5 * m * (N + m - 2) * r ** (m - 2)
            scale = np.maximum(1.0, np.maximum(0.25 * m**2 * r ** (2 * m - 2),
                                               0.5 * m * (N + m - 2) * r ** (m - 2)))
            ok &= bool((np.abs(got - want) <= 1e-8 * scale).all())
    # power-singular variant: the shifted potential takes the same form with
    # N replaced by N - beta
    fam = WeightFamily(Kind.POWER_EXP_POWER, 4, b=1.0, m=2.0, beta=1.0)
    r = np.geomspace(1e-6, 10.0, 500)
    want = -1.0 * r**2 + 0.5 * 2 * (4 + 2 - 2 - 1)
    got = compute_U(fam, r)
    ok &= bool((np.abs(got - want) <= 1e-8 * np.maximum(1.0, np.abs(compute_Umu(fam, r)))).all())
    # log weight: r^2 U_mu against the log-series form
    for alpha in (-1.0, 1.0):
        fam = WeightFamily(Kind.LOG_WEIGHT, 3, alpha=alpha)
        r = np.geomspace(1e-6, 0.249, 300)
        ell = np.log(1.0 / r)
        want = (0.25 - (alpha - 1) ** 2 / 4) / ell**2 + 0.5 * alpha * (3 - 2) / ell
        got = r**2 * compute_Umu(fam, r)
        ok &= bool(np.allclose(got, want, rtol=1e-6, atol=0.0))
    assert report(1, ok, "(closed-form ground-state potentials)")


def test_criterion_2_constants():
    ok = True
    details = []
    for N in (3, 4, 5):
        p = compute_profile(WeightFamily(Kind.EXP_POWER, N, b=1.0, m=2.0))
        ok &= abs(p.c0_mu - c0(N)) < 1e-4
    for beta in (0.0, 0.5, 1.0):
        fam = WeightFamily(Kind.POWER_EXP_POWER, 4, b=1.0, m=2.0, beta=beta)
        p = compute_profile(fam)
        est = estimate_N0(fam)
        ok &= abs(p.c0_mu - c0(4 - beta)) < 1e-4
        ok &= abs(est.value - (4 - beta)) < 0.05
        details.append(f"beta={beta:g}: c0_mu={p.c0_mu:.6f} N0_est={est.value:.3f}")
    assert report(2, ok, "(" + "; ".join(details) + ")")


def test_criterion_3_critical_sweep():
    res1 = critical_sweep(WeightFamily(Kind.EXP_POWER, 3, b=1.0, m=2.0),
                          0.05, 0.6, grid=GRID)
    res2 = critical_sweep(WeightFamily(Kind.LEBESGUE, 4), 0.5, 1.5, grid=GRID)
    ok = 0.20 <= res1.c_hat <= 0.30 and 0.9 <= res2.c_hat <= 1.1
    assert report(3, ok, f"(exp_power N=3: c_hat={res1.c_hat:.4f} vs c0=0.25; "
                         f"lebesgue N=4: c_hat={res2.c_hat:.4f} vs c0=1)")


def test_criterion_4_sharpness_witnesses():
    # -100 is out of reach by n = 256 (see the module docstring), so read the
    # ladder out to 4^21 and pin the rate so a quotient that stalls still fails
    ok = True
    details = []
    ns = [4**k for k in range(1, 22)]
    for fam in SHIPPED_H3:
        p = compute_profile(fam)
        c = p.c0_N0 + 0.25
        lo, hi = phi_n_gamma_bounds(c, p.N0)
        gamma = 0.75 * lo + 0.25 * hi
        vals = [quotient_phi_n(fam, c, gamma, n).value for n in ns]
        decreasing = all(b < a for a, b in zip(vals, vals[1:]))
        deep = vals[-1] < -1e2
        s = -(2.0 * gamma + p.N0 - 2.0)
        rate = np.log(vals[-1] / vals[-2]) / np.log(ns[-1] / ns[-2])  # nan on a sign change
        on_rate = abs(rate - s) <= 0.05 * s
        ok &= decreasing and deep and on_rate
        first = next((f"4^{k}" for k, v in enumerate(vals, 1) if v < -1e2), "none")
        details.append(f"{fam.kind.value}: q(256)={vals[3]:.2f} q(4^21)={vals[-1]:.1f} "
                       f"first<-1e2 at n={first} rate={rate:.4f} (s={s:.4f}) "
                       f"decreasing={decreasing}")
    qs_pos = [q for _, q in phi_gamma_ladder(
        WeightFamily(Kind.LOG_WEIGHT, 3, alpha=1.0), 0.25)]
    diverges = qs_pos[-1] < -1e2
    qs_neg = [q for _, q in phi_gamma_ladder(
        WeightFamily(Kind.LOG_WEIGHT, 3, alpha=-1.0), 0.25)]
    bounded = min(qs_neg) > -10.0
    ok &= diverges and bounded
    details.append(f"log alpha=+1: min={min(qs_pos):.1f}; alpha=-1: min={min(qs_neg):.3f}")
    assert report(4, ok, "(" + "; ".join(details) + ")")


def test_criterion_5_improved_hardy():
    ok = True
    for N in (3, 4):
        for a in (0.3, 0.6, 0.9):
            res = improved_hardy_slack(RadialBump(0.0, a), N)
            ok &= res.slack >= -1e-8 * res.grad_norm2
    assert report(5, ok, "(slack nonnegative for the bump suite, N in {3, 4})")


def test_criterion_6_equivalence_identity():
    families = SHIPPED_H3 + (
        WeightFamily(Kind.LEBESGUE, 3),
        WeightFamily(Kind.LOG_WEIGHT, 3, alpha=1.0),
        WeightFamily(Kind.LOG_WEIGHT, 3, alpha=-1.0),
        WeightFamily(Kind.OSCILLATING, 3),
    )
    bumps = (RadialBump(0.2, 0.8), RadialBump(0.05, 0.5), RadialBump(0.3, 0.9))
    worst = 0.0
    for fam in families:
        for b in bumps:
            res = weighted_vs_flat_crosscheck(fam, b)
            worst = max(worst, res.identity_residual)
    ok = worst < 1e-6
    assert report(6, ok, f"(max identity residual {worst:.2e})")


def test_criterion_7_evolution_dichotomy():
    fam = WeightFamily(Kind.EXP_POWER, 3, b=1.0, m=2.0)
    lo = dichotomy_verdict(fam, 0.2, spectral_grid=GRID)
    hi = dichotomy_verdict(fam, 0.35, spectral_grid=GRID)
    om_top, om_prev = lo.envelopes[-1].omega, lo.envelopes[-2].omega
    omega_stable = abs(om_top - om_prev) <= 0.1 * abs(om_top)
    ok = (lo.verdict == "ExistenceSignature" and hi.verdict == "BlowupSignature"
          and lo.agrees and hi.agrees and omega_stable)
    assert report(7, ok, f"(c=0.2: {lo.verdict}, omega {om_prev:.3f}->{om_top:.3f}; "
                         f"c=0.35: {hi.verdict}, ratios {[round(r, 2) for r in hi.ratios]})")


def test_criterion_8_density_condition():
    ok = True
    for N in (3, 4):
        for beta in (0.0, 1.0, 2.0):
            fam = WeightFamily(Kind.POWER_EXP_POWER, N, b=1.0, m=2.0, beta=beta)
            rep = check_hypotheses(fam)
            for p in (1.0, 2.0, 3.0):
                entry = rep.cond1[f"{p:g}"]
                ok &= entry["holds"] == (N - beta - p > 0.01)
    assert report(8, ok, "(decay exponent positive iff p < N - beta)")


def test_criterion_9_determinism(tmp_path):
    for d in ("one", "two"):
        rc = main(["report-all", "--out", str(tmp_path / d)])
        assert rc == 0
    one, two = tmp_path / "one", tmp_path / "two"
    names = sorted(p.name for p in one.iterdir())
    assert names == sorted(p.name for p in two.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(one, two, names, shallow=False)
    ok = not mismatch and not errors
    assert report(9, ok, f"({len(match)} files byte-identical)")
