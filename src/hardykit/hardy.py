"""The Hardy apparatus: U_mu, U, c_{0,mu}, N_0 and the hypothesis audit.

The ground-state transform phi -> phi sqrt(mu) turns the weighted operator
into a flat Schroedinger operator with potential

    U_mu = 1/4 |mu'/mu|^2 - 1/2 Delta mu / mu ,

and the weighted Hardy constant candidate is

    c_{0,mu} = liminf_{r->0} ( c_0(N) - r^2 U_mu(r) ),   c_0(N) = ((N-2)/2)^2.

The shifted potential U = U_mu - L/r^2 (L = limsup r^2 U_mu) is what the
growth conditions away from the origin are about.  The effective dimension
N_0 = sup{ d : r^{-d} locally integrable against dmu } controls the sharp
constant c_0(N_0).

Limits at 0 are estimated on the dyadic ladder r = 2^{-k}, k = _K_MIN..
_K_MAX.  A slowly varying tail (log-corrected weights decay like 1/k on
that ladder) is removed by an a + b/k least-squares fit on its last
_TAIL_WINDOW rungs; profiles whose tail refuses to fit (the oscillating
example has genuinely distinct liminf and limsup) are flagged and reported
by their tail extremes instead.

The audit samples the hypotheses, which are universal statements, on
fixed meshes with fixed thresholds (the _H2III_*, _H2IV_*, _H3P_* and
_COND1_* constants): H2 iii takes sup U on [R, 1e3] for R = 0.1, 1, 10 at
40 points a decade; H2 iv reads r = 2^{-k}, k = 1..40; H3' iii reads the
lambda ladder 2^{-j}, j = 1..20, which diverges when its last three values
increase past 1e3; the small-ball condition fits the decay exponent of
delta^{-p} mu(B_delta) on delta = 2^{-k}, k = 2..12, for p = 1, 2, 3, and
holds when it exceeds 0.02.  The fit reads log mu(B_delta) from the
closed-form moment, so it runs at every dimension, where mu(B_delta) itself
leaves the double range from N = 82 on.  H2 i is a finding only where its
integrals diverge; a quadrature that does not settle is a numeric failure.
The integrability flags (the N0 bisection, the H3 evidence and the cut of
the H3' ladder) read the closed-form moment alone; H2 i's two integrals are
one stacked tail walk, and the H3' ladder up to its cut one stacked call.

Pure functions over immutable inputs; profiles and reports are value types,
so everything parallelizes freely across families and mesh points.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from . import weights
from .errors import DivergentIntegral, ProfileUndefined
from .weights import WeightFamily, Kind, eval_mu, log_derivatives, weighted_integral

__all__ = [
    "c0",
    "compute_Umu",
    "compute_U",
    "HardyProfile",
    "compute_profile",
    "N0Estimate",
    "estimate_N0",
    "HypothesisReport",
    "check_hypotheses",
]

# Hypothesis H1 (semigroup generation) is a closed-form fact per family,
# not something this toolkit verifies numerically.
_H1_KNOWN = {
    Kind.LEBESGUE: True,
    Kind.EXP_POWER: True,
    Kind.POWER_EXP_POWER: False,
    Kind.LOG_WEIGHT: True,
    Kind.OSCILLATING: True,
}

# the profile ladder r = 2^{-k}, k = _K_MIN.._K_MAX, and its tail-fit window
_K_MIN = 10
_K_MAX = 40
_TAIL_WINDOW = 10

# two N0 estimates closer than this count as agreeing
_N0_AGREE_TOL = 0.05
# width at which the N0 bisection on the integrability flag stops
_N0_BISECT_TOL = 0.02

# the audit meshes and thresholds (see the module docstring)
_H2III_RADII = (0.1, 1.0, 10.0)
_H2III_R_HI = 1e3
_H2III_PER_DECADE = 40
_H2IV_K_MAX = 40
_H3P_J_MAX = 20  # >= 3: the divergence test reads the last three values
_H3P_THRESHOLD = 1e3
_COND1_P = (1.0, 2.0, 3.0)
_COND1_K_MIN = 2
_COND1_K_MAX = 12
_COND1_TOL = 0.02


def c0(dimension: float) -> float:
    """The classical Hardy constant ((N-2)/2)^2, for real N."""
    return ((dimension - 2.0) / 2.0) ** 2


@weights._quiet_overflow  # a non-finite U_mu is the profile's to report
def compute_Umu(family: WeightFamily, r):
    """U_mu(r) = 1/4 (mu'/mu)^2 - 1/2 (mu''/mu + (N-1)/r mu'/mu).

    Formed from the jet g(s) = log mu(e^s) as
    r^2 U_mu = -1/4 g'^2 - 1/2 g'' - 1/2 (N-2) g', divided by r^2 once: the
    two O(1/r^2) terms of the definition cancel in the jet, so a U_mu that
    vanishes identically comes out 0, and never -0.0.
    """
    arr = weights._check_radius(r)
    _, g1, g2 = weights._log_mu_jet(family, np.log(np.atleast_1d(arr)), True)
    out = (0.0 - (0.25 * g1 * g1 + 0.5 * g2 + 0.5 * (family.dimension - 2.0) * g1)) / (arr * arr)
    return float(out[0]) if arr.ndim == 0 else out


class HardyProfile(NamedTuple):
    """Derived constants of a weight family near the origin."""

    family: WeightFamily
    c0_N: float
    L: float                    # limsup_{r->0} r^2 U_mu
    c0_mu: float                # c_0(N) - L
    N0: float                   # effective dimension
    c0_N0: float                # ((N0-2)/2)^2
    oscillatory: bool = False   # tail window did not converge to a limit
    L_inf: float = 0.0          # tail-window liminf of r^2 U_mu (diagnostic)

    def to_json_dict(self) -> dict:
        return {
            "family": self.family.label(),
            "c0_N": self.c0_N,
            "L": self.L,
            "c0_mu": self.c0_mu,
            "N0": self.N0,
            "c0_N0": self.c0_N0,
            "oscillatory": self.oscillatory,
            "liminf_r2Umu": self.L_inf,
        }


class N0Estimate(NamedTuple):
    """Data-driven effective dimension, checked against the analytic N_0."""

    quadrature: float   # bisection on the divergence flag of int r^{-d} dmu
    agrees: bool        # with the analytic N_0

    @property
    def value(self) -> float:
        return self.quadrature


def _inverse_k_fit(k: np.ndarray, y: np.ndarray):
    """Least-squares fit y ~ a + b/k: ((a, b), the fitted values)."""
    A = np.vstack([np.ones_like(k), 1.0 / k]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return coef, A @ coef


def _integral_diverges(family: WeightFamily, delta: float) -> bool:
    """The exact divergence flag of int_B1 r^{-delta} dmu, from its closed form."""
    try:
        weights._moment_to_seam(family, -delta, 0.0)
        return False
    except DivergentIntegral:
        return True


def estimate_N0(family: WeightFamily) -> N0Estimate:
    """Estimate N_0 by bisection on the integrability flag of r^{-delta}
    against dmu to a width of _N0_BISECT_TOL, bracketed by
    [0, max(N, analytic N_0) + 1.5].  The moment on B_1 is closed-form and
    its flag exact, so the bisection ends within _N0_BISECT_TOL / 2 of the
    edge N - beta; it agrees when it lies within _N0_AGREE_TOL of the
    analytic N_0."""
    N, analytic = family.dimension, family.analytic_N0()
    # delta = 0 is mu(B_1), finite for any admissible mu
    lo, hi = 0.0, max(N, analytic) + 1.5
    if _integral_diverges(family, lo) or not _integral_diverges(family, hi):
        raise ProfileUndefined("effective-dimension bisection bracket failed")
    while hi - lo > _N0_BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if _integral_diverges(family, mid):
            hi = mid
        else:
            lo = mid
    quad_n0 = 0.5 * (lo + hi)
    return N0Estimate(quadrature=quad_n0, agrees=abs(quad_n0 - analytic) <= _N0_AGREE_TOL)


@lru_cache(maxsize=64)
def compute_profile(family: WeightFamily) -> HardyProfile:
    """Estimate L = limsup r^2 U_mu, c_{0,mu} and N_0 for a family (cached).

    The r^2 U_mu ladder runs over r = 2^{-k}, k = _K_MIN.._K_MAX.  On the
    last _TAIL_WINDOW rungs we fit a + b/k; a small residual means the limit
    exists and L is the intercept.  Otherwise the profile is flagged
    oscillatory and L is the tail max (limsup estimate), with the tail min
    kept for diagnostics.

    N_0 is always the closed form N - power_order (the H3' integrand is
    exponentially sensitive to N_0 errors); estimate_N0's bisection is a
    diagnostic that the analyze task reports beside it.
    """
    ks = np.arange(_K_MIN, _K_MAX + 1)
    rs = 2.0 ** (-ks.astype(float))
    try:
        vals = np.asarray(rs**2 * compute_Umu(family, rs), dtype=float)
    except Exception as exc:
        raise ProfileUndefined(f"U_mu not evaluable near 0: {exc}") from exc
    if not np.all(np.isfinite(vals)):
        raise ProfileUndefined("r^2 U_mu not finite on the dyadic ladder")

    tail = vals[-_TAIL_WINDOW:]
    coef, fitted = _inverse_k_fit(ks[-_TAIL_WINDOW:].astype(float), tail)
    fit_resid = float(np.max(np.abs(tail - fitted)))
    scale = max(1.0, float(np.max(np.abs(tail))))
    oscillatory = fit_resid > 1e-3 * scale
    if oscillatory:
        L = float(np.max(tail))
        L_inf = float(np.min(tail))
    else:
        L = float(coef[0])
        L_inf = L

    N0 = family.analytic_N0()
    c0N = c0(family.dimension)
    return HardyProfile(
        family=family,
        c0_N=c0N,
        L=L,
        c0_mu=c0N - L,
        N0=N0,
        c0_N0=c0(N0),
        oscillatory=oscillatory,
        L_inf=L_inf,
    )


def compute_U(family: WeightFamily, r):
    """U(r) = U_mu(r) - L/r^2, the limsup-shifted potential (relation (u))."""
    r = np.asarray(r, dtype=float)
    return compute_Umu(family, r) - compute_profile(family).L / r**2


# ----------------------------------------------------------------------
# hypothesis audit
# ----------------------------------------------------------------------

class HypothesisReport(NamedTuple):
    """Machine-readable verdicts for H2 i-iv, H2', H3, H3' iii and the
    small-ball density condition, with witness data."""

    family: WeightFamily
    h1: bool
    h2_i: bool
    h2_ii_finite: bool
    c0_mu: float
    h2_iii_bounded: bool
    h2_iii_bounds: dict          # R -> sup U on [R, r_hi] (None if weight dead)
    h2_iv_holds: bool
    h2_iv_R0: Optional[float]    # largest dyadic radius below which the log bound holds
    h3_N0: float
    h3_evidence: dict            # delta -> "convergent" / "divergent"
    h3p_iii_diverges: bool
    h3p_values: list             # lambda ladder of lambda * int_B1 r^{lambda - N0} dmu
    cond1: dict                  # p -> {"holds": bool, "exponent": float}
    oscillatory: bool = False

    @property
    def h2_prime(self) -> bool:
        return self.h2_i and self.h2_ii_finite and self.h2_iii_bounded

    @property
    def classification(self) -> str:
        """"H2" (H2' and H2 iv), "H2_prime_only" or "neither"."""
        if not self.h2_prime:
            return "neither"
        return "H2" if self.h2_iv_holds else "H2_prime_only"

    def to_json_dict(self) -> dict:
        return {
            "family": self.family.label(),
            "h1": self.h1,
            "h2_i": self.h2_i,
            "h2_ii": {"finite": self.h2_ii_finite, "c0_mu": self.c0_mu},
            "h2_iii": {"bounded": self.h2_iii_bounded, "bounds": self.h2_iii_bounds},
            "h2_iv": {"holds": self.h2_iv_holds, "R0": self.h2_iv_R0},
            "h2_prime": self.h2_prime,
            "h3_N0": self.h3_N0,
            "h3_evidence": self.h3_evidence,
            "h3p_iii": {"diverges": self.h3p_iii_diverges, "values": self.h3p_values},
            "cond1": self.cond1,
            "classification": self.classification,
            "oscillatory_limit": self.oscillatory,
        }

    def to_table(self) -> str:
        rows = [
            ("family", self.family.label()),
            ("H1 (known)", _fmt_bool(self.h1)),
            ("H2 i  (local regularity)", _fmt_bool(self.h2_i)),
            ("H2 ii (c0_mu finite)", f"{_fmt_bool(self.h2_ii_finite)}  c0_mu = {self.c0_mu:.6g}"),
            ("H2 iii (U bounded outside)", _fmt_bool(self.h2_iii_bounded)),
            ("H2 iv (log bound near 0)", f"{_fmt_bool(self.h2_iv_holds)}  R0 = {self.h2_iv_R0}"),
            ("H2'", _fmt_bool(self.h2_prime)),
            ("H3 N0", f"{self.h3_N0:.6g}"),
            ("H3' iii (lambda integral)", "diverges" if self.h3p_iii_diverges else "finite"),
            ("classification", self.classification),
        ]
        for p, entry in sorted(self.cond1.items()):
            rows.append((f"cond1 p={p}", f"{_fmt_bool(entry['holds'])}  exponent = {entry['exponent']:+.4f}"))
        width = max(len(a) for a, _ in rows)
        return "\n".join(f"{a:<{width}}  {b}" for a, b in rows) + "\n"


def _fmt_bool(v: bool) -> str:
    return "yes" if v else "no"


def _h2_i_check(family: WeightFamily) -> bool:
    """Numeric integrability of |grad mu^{1/2}|^2 and |Delta mu| on B_1.

    |grad mu^{1/2}|^2 = 1/4 (mu'/mu)^2 mu, checked by quadrature
    convergence; qualitative by design (shipped families are known good).
    """
    def both(r):
        d1, lap = log_derivatives(family, r)
        return np.stack([0.25 * d1 * d1, np.abs(lap)])

    try:  # one tail walk; either integral diverging raises
        weighted_integral(family, both, 0.0, 1.0, rtol=1e-8)
        return True
    except DivergentIntegral:
        return False


def check_hypotheses(family: WeightFamily) -> HypothesisReport:
    """Audit every hypothesis on the module's fixed meshes, from the family's
    profile; failures are findings, not errors."""
    profile = compute_profile(family)

    h2_i = _h2_i_check(family)
    h2_ii_finite = math.isfinite(profile.c0_mu)

    # H2 iii: sup of U on a log mesh over [R, r_hi]; nodes where the weight
    # vanishes (compact support) carry no measure and are skipped.
    h2_iii_bounds = {}
    h2_iii_ok = True
    for R in _H2III_RADII:
        n = max(16, int(_H2III_PER_DECADE * math.log10(_H2III_R_HI / R)))
        mesh = np.geomspace(R, _H2III_R_HI, n)
        alive = eval_mu(family, mesh) > 0.0
        if not alive.any():
            h2_iii_bounds[f"{R:g}"] = None
            continue
        u = compute_U(family, mesh[alive])
        sup = float(np.max(u))
        h2_iii_bounds[f"{R:g}"] = sup
        if not math.isfinite(sup):
            h2_iii_ok = False
        else:
            # growth screen: increasing upper envelope on the last decade
            # at a large level is treated as unbounded above
            last = mesh[alive] >= _H2III_R_HI / 10.0
            if last.sum() >= 4:
                tail_u = u[last]
                if sup > 1e6 and tail_u[-1] >= 0.99 * sup and tail_u[-1] > 2.0 * tail_u[0]:
                    h2_iii_ok = False

    # H2 iv on the dyadic mesh: R0 = largest 2^{-k} below which
    # r^2 U <= 1/4 |log r|^{-2} holds at every finer mesh point.
    ks = np.arange(1, _H2IV_K_MAX + 1)
    rs = 2.0 ** (-ks.astype(float))
    r2U = rs**2 * compute_U(family, rs)
    bound = 0.25 / np.log(rs) ** 2
    ok = r2U <= bound + 1e-12
    holds_from = None
    for i in range(len(ks)):
        if ok[i:].all():
            holds_from = i
            break
    h2_iv_holds = holds_from is not None
    h2_iv_R0 = float(rs[holds_from]) if h2_iv_holds else None

    # H3: effective dimension with integrability evidence around it.
    N0 = profile.N0
    h3_evidence = {}
    for delta in (N0 - 0.5, N0 - 0.1, N0 + 0.1, N0 + 0.5):
        h3_evidence[f"{delta:.4g}"] = (
            "divergent" if _integral_diverges(family, delta) else "convergent"
        )

    # H3' iii: lambda ladder of lambda * int_B1 r^{lambda - N0} dmu, one stacked
    # call for the members before the first divergent one.  N0 is the
    # integrability edge; an outright divergent member of the ladder counts as
    # the limsup being +oo.
    lams = 2.0 ** -np.arange(1.0, _H3P_J_MAX + 1)
    cut = next((j for j, lam in enumerate(lams) if _integral_diverges(family, N0 - lam)),
               _H3P_J_MAX)
    h3p_values = [] if not cut else [
        float(v) for v in lams[:cut] * weighted_integral(family, None, 0.0, 1.0,
                                                         power=lams[:cut] - N0)]
    if cut < _H3P_J_MAX:
        h3p_diverges = True
    else:  # all _H3P_J_MAX >= 3 values are in
        tail_inc = h3p_values[-1] > h3p_values[-2] > h3p_values[-3]
        h3p_diverges = tail_inc and h3p_values[-1] > _H3P_THRESHOLD

    # Appendix small-ball condition: decay exponent of delta^{-p} mu(B_delta),
    # with log mu(B_delta) from the closed-form log-moment of r^0 (q = N0).
    cond1 = {}
    logd = -np.arange(_COND1_K_MIN, _COND1_K_MAX + 1) * math.log(2.0)
    log_omega = math.log(weights.surface_measure(family.dimension))
    log_ball = np.array([weights._log_moment(family, N0, s) for s in logd]) + log_omega
    for p in _COND1_P:
        slope = float(np.polyfit(logd, log_ball - p * logd, 1)[0])
        cond1[f"{p:g}"] = {"holds": slope > _COND1_TOL, "exponent": slope}

    return HypothesisReport(
        family=family,
        h1=_H1_KNOWN[family.kind],
        h2_i=h2_i,
        h2_ii_finite=h2_ii_finite,
        c0_mu=profile.c0_mu,
        h2_iii_bounded=h2_iii_ok,
        h2_iii_bounds=h2_iii_bounds,
        h2_iv_holds=h2_iv_holds,
        h2_iv_R0=h2_iv_R0,
        h3_N0=N0,
        h3_evidence=h3_evidence,
        h3p_iii_diverges=h3p_diverges,
        h3p_values=h3p_values,
        cond1=cond1,
        oscillatory=profile.oscillatory,
    )
