"""Weighted Rayleigh quotients: lambda_1 estimation, critical sweep, and
the explicit sharpness test functions.

The quadratic form pair on a geometric grid with P1 hats and Dirichlet ends

    stiffness(c) = int (phi'^2 - c phi^2 / r^2) dmu_r ,
    mass         = int phi^2 dmu_r              (dmu_r = omega_N mu r^{N-1} dr)

is assembled per element from the weights module's quadrature; the mass is
lumped (row sums), so the pencil is symmetric tridiagonal against a positive
diagonal.  lambda_1 comes from LAPACK's Sturm-sequence bisection plus
inverse iteration (eigh_tridiagonal) on B^{-1/2} A B^{-1/2}, refined by a
Rayleigh quotient in the generalized metric.

Divergence of lambda_1 (the weighted Hardy inequality failing) is detected
on a refinement ladder of four rungs, (r_min / 4, n x 2) per rung: once the
truncation radius resolves the singular mode, lambda_1 scales like
1/r_min^2, i.e. a factor 16 per rung.  The verdict requires the last ratio
to exceed a fixed factor of 4 and the previous one 2, which keeps float64
noise at deep rungs from faking a divergence; the ladder's depth, its
geometry (rung_grids) and these thresholds are constants, calibrated together.
The rungs are solved in order on the calling thread, and the deepest, which
holds more than half of the ladder's nodes, only when its lambda_1 can
change the verdict of the three before it (see lambda1).

Everything operates on the radial subspace: the sharpness constructions are
radial, and for radial weights the critical constant is visible there.  The
two share one quotient: phi_gamma = r^gamma theta is phi_n = min(r^gamma
theta, n^-gamma) without the cap.  The integrals over one range are one
stacked quadrature (see the weights module): phi_n's cutoff-annulus
integrals, which no n reaches, once per (family, c, gamma), and each rung's
two cap moments and two middle integrals; phi_gamma_ladder's moments on
(0, 1) for all its gammas, and their annulus integrals.
Assembly and solves are pure per (family, c, grid); ladder rungs and sweep
points carry no shared mutable state.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import lru_cache
from typing import List, NamedTuple, Tuple

import numpy as np

from .errors import (
    BadBracket,
    DivergentIntegral,
    InadmissibleGamma,
    InvalidParams,
    NoConvergence,
    NonIntegrableTestFunction,
    UnsupportedFunction,
)
from .hardy import c0, compute_U, compute_Umu, compute_profile
from .weights import (
    Kind,
    RadialBump,
    RadialGrid,
    WeightFamily,
    _bump_log,
    hat_element_integrals,
    log_derivatives,
    smooth_transition,
    weighted_integral,
)

__all__ = [
    "Tridiagonal",
    "assemble",
    "RayleighResult",
    "ground_state",
    "rung_grids",
    "lambda1",
    "SweepResult",
    "critical_sweep",
    "phi_n_gamma_bounds",
    "require_phi_n_quotient",
    "quotient_phi_n",
    "PhiNQuotient",
    "quotient_phi_gamma",
    "phi_gamma_ladder",
    "SlackResult",
    "improved_hardy_slack",
    "CrosscheckResult",
    "weighted_vs_flat_crosscheck",
]


# The two solvers stay module attributes, so a caller can rebind them to
# count or replace the solves.  The LAPACK bindings load on the first call
# (see the lapack module), so the audit tasks (analyze, sharpness) never
# load them.
def eigh_tridiagonal(d, e):
    from . import lapack
    return lapack.eigh_tridiagonal(d, e)


def solve_banded(l_and_u, ab, b):
    from . import lapack
    return lapack.solve_banded(l_and_u, ab, b)


class Tridiagonal(NamedTuple):
    """Symmetric tridiagonal matrix (main diagonal + first off-diagonal)."""

    diag: np.ndarray
    off: np.ndarray

    @property
    def n(self) -> int:
        return len(self.diag)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        out[:-1] += self.off * v[1:]
        out[1:] += self.off * v[:-1]
        return out


@lru_cache(maxsize=256)
def grid_parts(family: WeightFamily, grid: RadialGrid):
    """(nodes, K, H, M) for one grid: the Laplacian stiffness from the
    element conductances mass/h^2, the Hardy block and the lumped mass, on
    the interior nodes only (Dirichlet).  The time stepper assembles its
    operator from the same parts."""
    e = hat_element_integrals(family, grid.nodes)
    md = e.mass_r[:-1] + e.mass_l[1:]
    # a subnormal mass has lost its relative precision, and K.diag / md
    # overflows the pencil's scale: it counts as vanished.  Checked before
    # h**2, which underflows with it at r_min.
    tiny = np.finfo(float).tiny
    if np.any(md < tiny):
        where = (f"the measure underflows at r_min = {grid.r_min:g} -- raise r_min"
                 if md[0] < tiny else "the weight underflows before r_max -- shrink the domain")
        raise InvalidParams(f"lumped mass vanished on the grid; {where}")
    g = e.mass / e.h**2
    hd = e.hardy_rr[:-1] + e.hardy_ll[1:]
    ho = e.hardy_lr[1:-1].copy()  # a view would keep all seven rows of e cached
    return grid.nodes, Tridiagonal(g[:-1] + g[1:], -g[1:-1]), Tridiagonal(hd, ho), md


def assemble(family: WeightFamily, c: float, grid: RadialGrid) -> Tuple[Tridiagonal, np.ndarray]:
    """(stiffness, mass) of -(L + c/|x|^2) with Dirichlet ends on the interior
    nodes of `grid`; NoConvergence names c when the pencil, or its scaling by
    the lumped mass, overflows."""
    _, K, H, M = grid_parts(family, grid)
    A = Tridiagonal(K.diag - c * H.diag, K.off - c * H.off)
    if not all(np.isfinite(x).all() for x in _scaled(A, M)[1:]):
        raise NoConvergence(f"the pencil at c = {c:g}, or its scaling by the "
                            f"lumped mass, leaves the double range")
    return A, M


def _scaled(A: Tridiagonal, M: np.ndarray):
    """(sqrt M, d, e): the pencil scaled to B^{-1/2} A B^{-1/2}, an overflow left as inf."""
    sq = np.sqrt(M)
    with np.errstate(over="ignore"):
        return sq, A.diag / M, A.off / (sq[:-1] * sq[1:])


_RESIDUAL_TOL = 1e-8  # largest eigenpair residual rung 0 accepts
# the ladder's RUNGS rungs, each (r_min / RMIN_SHRINK, n_points * N_GROW) of the
# one before (see rung_grids), and its cascade test (see _ladder_verdict), calibrated
# to the factor RMIN_SHRINK^2 = 16 per rung of a resolved 1/r_min^2 cascade
RMIN_SHRINK, N_GROW, RUNGS = 4.0, 2, 4
SWEEP_TOL = 0.02        # the width at which critical_sweep stops bisecting
_DIVERGE_FACTOR = 4.0   # the last ratio must exceed it, the one before half of it
_LAMBDA_FLOOR = 1e-6    # eigenvalues within it of 0 are below resolution


def _solve_smallest(A: Tridiagonal, M: np.ndarray, enforce: bool = True):
    """Smallest generalized eigenpair of (A, diag(M)).

    Transform to B^{-1/2} A B^{-1/2}, bisect with Sturm counts, inverse
    iterate for the vector, then refine the value with the generalized
    Rayleigh quotient.  The reported residual is the eigenvalue-relative
    defect ||Av - lam Mv|| / (||Mv|| max(1, |lam|)): the raw defect carries
    the units of lam and would be meaningless across ladder rungs.

    With enforce=False the residual gate is skipped: refinement-ladder
    rungs push the truncation radius to where float64 cannot certify small
    eigenvalues, and their values enter only the ratio-based verdict, whose
    thresholds are calibrated for exactly that noise.
    """
    sq, d, e = _scaled(A, M)  # a non-finite entry fails eigh_tridiagonal's finiteness check
    w, v = eigh_tridiagonal(d, e)
    vg = v[:, 0] / sq
    lam, res = _rayleigh_residual(A, M, vg)
    for _ in range(3):
        if res <= _RESIDUAL_TOL:
            break
        vg = _inverse_iterate(A, M, vg, lam)
        lam, res = _rayleigh_residual(A, M, vg)
    if enforce and res > _RESIDUAL_TOL:
        raise NoConvergence(f"eigenpair residual {res:.3e} > {_RESIDUAL_TOL:g}")
    # deterministic sign: largest-|entry| component positive
    i = int(np.argmax(np.abs(vg)))
    if vg[i] < 0:
        vg = -vg
    nrm = math.sqrt(float(vg @ (M * vg)))
    return lam, vg / nrm, res


def _rayleigh_residual(A: Tridiagonal, M: np.ndarray, v: np.ndarray):
    mv = M * v
    av = A.matvec(v)
    mass = float(v @ mv)
    if not (mass and math.isfinite(mass)):
        raise NoConvergence(f"the eigenvector's mass v.Mv is {mass:g}: it vanished or overflowed")
    lam = float(v @ av) / mass
    defect = av - lam * mv
    res = float(np.linalg.norm(defect) / (np.linalg.norm(mv) * max(1.0, abs(lam))))
    return lam, res


def _inverse_iterate(A: Tridiagonal, M: np.ndarray, v: np.ndarray, lam: float):
    shift = lam - max(abs(lam), 1.0) * 1e-9
    ab = np.zeros((3, A.n))
    ab[0, 1:] = A.off
    ab[1, :] = A.diag - shift * M
    ab[2, :-1] = A.off
    w = solve_banded((1, 1), ab, M * v)
    return w / np.linalg.norm(w)


class RayleighResult(NamedTuple):
    """lambda_1 on a grid plus refinement-ladder diagnostics.

    ladder rows are (n_points, r_min, lambda1), one per solved grid of
    rung_grids: all four, or the first three when the deepest could not
    change the verdict; verdict reflects the ladder, lambda1/eigvec the grid
    itself (rung 0).
    """

    lambda1: float
    eigvec: np.ndarray
    nodes: np.ndarray
    residual: float
    ladder: List[Tuple[int, float, float]]
    verdict: str  # "Bounded" | "Diverging"


def _ladder_verdict(lams: List[float]) -> str:
    """Diverging when one of the two trailing 3-rung windows shows the
    1/r_min^2 cascade: last ratio above _DIVERGE_FACTOR, the one before
    above half of it.

    Checking the two trailing windows keeps a single noise-corrupted deep
    rung (float64 cannot certify small eigenvalues there) from masking an
    otherwise clean cascade, while the double-ratio requirement keeps that
    same noise from faking one.
    """
    for l1, l2, l3 in (lams[-3:], lams[-4:-1]):
        if l3 < -10.0 * _LAMBDA_FLOOR and l2 < -_LAMBDA_FLOOR:
            if l1 < -_LAMBDA_FLOOR:
                r_prev = l2 / l1
            elif abs(l1) <= _LAMBDA_FLOOR:
                r_prev = math.inf      # cascade emerging from below resolution
            else:
                continue               # genuinely positive rung: not a cascade
            if l3 / l2 > _DIVERGE_FACTOR and r_prev > _DIVERGE_FACTOR / 2.0:
                return "Diverging"
    return "Bounded"


def ground_state(family: WeightFamily, c: float, grid: RadialGrid) -> Tuple[float, np.ndarray, float]:
    """(lambda_1, eigenvector, residual) of the single solve on `grid`, rung 0
    of its ladder; a residual above _RESIDUAL_TOL raises NoConvergence."""
    return _solve_smallest(*assemble(family, c, grid), enforce=True)


def rung_grids(grid: RadialGrid) -> List[RadialGrid]:
    """The ladder's RUNGS grids, rung k (r_min / RMIN_SHRINK^k, n_points * N_GROW^k)
    of `grid`, rung 0 `grid` itself; a rung that breaks a grid rule raises InvalidParams."""
    grids = [grid]
    for k in range(1, RUNGS):
        try:
            grids.append(replace(grid, r_min=grid.r_min / RMIN_SHRINK**k,
                                 n_points=grid.n_points * N_GROW**k))
        except InvalidParams as exc:
            raise InvalidParams(f"rung {k} of the ladder, r_min = {grid.r_min:g} / "
                                f"{RMIN_SHRINK:g}^{k} and n_points = {grid.n_points} * "
                                f"{N_GROW}^{k}: {exc}") from exc
    return grids


def lambda1(family: WeightFamily, c: float, grid: RadialGrid) -> RayleighResult:
    """Smallest Rayleigh quotient, with the verdict of the ladder on rung_grids(grid).

    The rungs are solved in order, so the first failing rung raises.  The
    deepest is solved only when the verdict of the three before it depends
    on its lambda_1: the window (l1, l2, l3) reads Diverging exactly for l3 on
    a half-line (below min(-10 _LAMBDA_FLOOR, 4 l2), or nowhere), and the
    window (l0, l1, l2) does not read l3, so the verdict is the same for every
    l3 once it is the same for l3 = -inf and +inf.  A three-rung ladder takes
    the verdict it has with l3 = +inf."""
    rungs = rung_grids(grid)
    lam0, vec, res = ground_state(family, c, grid)
    lams = [lam0] + [_solve_smallest(*assemble(family, c, g), enforce=False)[0]
                     for g in rungs[1:-1]]
    verdict = _ladder_verdict(lams + [math.inf])
    if verdict != _ladder_verdict(lams + [-math.inf]):
        lams.append(_solve_smallest(*assemble(family, c, rungs[-1]), enforce=False)[0])
        verdict = _ladder_verdict(lams)
    rows = [(g.n_points, g.r_min, lam) for g, lam in zip(rungs, lams)]
    return RayleighResult(lambda1=lam0, eigvec=vec, nodes=grid.nodes[1:-1], residual=res,
                          ladder=rows, verdict=verdict)


class SweepResult(NamedTuple):
    c_hat: float
    c_lo: float
    c_hi: float
    trace: List[dict]   # per probed c: {"c", "verdict", "ladder"}


def critical_sweep(
    family: WeightFamily,
    c_lo: float,
    c_hi: float,
    *,
    grid: RadialGrid,
) -> SweepResult:
    """Bisect the Bounded/Diverging verdict in c down to a bracket of width
    SWEEP_TOL, each probe a `lambda1` ladder on `grid`.

    Returns the midpoint of the final bracket; |c_hat - critical constant|
    is informally SWEEP_TOL plus the ladder's detection bias, which is
    calibrated against the shipped families with the ladder's constants.
    """
    trace: List[dict] = []

    def probe(c: float) -> str:
        res = lambda1(family, c, grid)
        trace.append({"c": c, "verdict": res.verdict, "ladder": res.ladder})
        return res.verdict

    v_lo, v_hi = probe(c_lo), probe(c_hi)
    if v_lo != "Bounded" or v_hi != "Diverging":
        raise BadBracket(
            f"need Bounded at c_lo and Diverging at c_hi, got {v_lo}/{v_hi}",
            (v_lo, v_hi),
        )
    lo, hi = c_lo, c_hi
    while hi - lo > SWEEP_TOL:
        mid = 0.5 * (lo + hi)
        if probe(mid) == "Diverging":
            hi = mid
        else:
            lo = mid
    return SweepResult(c_hat=0.5 * (lo + hi), c_lo=lo, c_hi=hi, trace=trace)


# ----------------------------------------------------------------------
# sharpness test functions
# ----------------------------------------------------------------------

def _theta(r):
    """The fixed smooth cutoff with chi_{B_1} <= theta <= chi_{B_2}."""
    return smooth_transition(r, 1.0, 2.0)


def _theta_deriv(r):
    """theta' = theta (log theta)' on the window (1, 2), zero off it."""
    arr = np.asarray(r, dtype=float)
    mid = (arr > 1.0) & (arr < 2.0)
    dlog = _bump_log(np.where(mid, arr, 1.5) - 1.0)[1]
    out = np.where(mid, _theta(arr) * dlog, 0.0)
    return out if out.ndim else float(out)


def phi_n_gamma_bounds(c: float, N0: float) -> Tuple[float, float]:
    """Admissible exponent interval max(-sqrt c, -N0/2) < g < min((2-N0)/2, 0)."""
    return max(-math.sqrt(c), -N0 / 2.0), min((2.0 - N0) / 2.0, 0.0)


class PhiNQuotient(NamedTuple):
    """Exact Rayleigh quotient of phi_n plus the analytic upper bound.

    upper_bound is ((g^2-c) I(n) + C1)/C2 with C1, C2 the cutoff-region
    integrals of the nonexistence estimate. Only its two halves are
    one-sided: numerator <= upper_bound * C2 and denominator >= C2. The
    ratio majorizes value only while (g^2-c) I(n) + C1 >= 0; once that is
    negative, as for large n, value can lie above it.
    """

    value: float
    upper_bound: float
    numerator: float
    denominator: float
    C1: float
    C2: float


def _annulus(family: WeightFamily, c: float, gammas, bound: bool = False) -> np.ndarray:
    """The cutoff annulus [1, 2], which no cap reaches, in one stacked pass:
    the rows are the numerators of r^g theta, one per g of `gammas`, then their
    denominators and, with `bound`, the two integrals of C1 (see PhiNQuotient)."""
    g = np.asarray(gammas, dtype=float)[:, None]

    def f(r):
        th = _theta(r)
        dth = _theta_deriv(r)
        grad = g * r ** (g - 1.0) * th + r**g * dth
        rows = [grad * grad - c * r ** (2 * g - 2.0) * th * th, r ** (2 * g) * th**2]
        if bound:
            rows += [r ** (2 * g) * dth**2, r ** (2 * g - 2.0) * th**2]
        return np.concatenate(rows)

    return weighted_integral(family, f, 1.0, 2.0).reshape(-1, len(g))


@lru_cache(maxsize=256)
def _phi_n_annulus(family: WeightFamily, c: float, g: float):
    """(numerator, denominator, C1, C2) of phi_n on the cutoff annulus, once per (c, g)."""
    num, den, dth2, th2 = (float(v) for v in _annulus(family, c, [g], bound=True)[:, 0])
    C1 = 2.0 * dth2 + 2.0 * g * g * th2
    # a compactly supported weight (dead annulus) bounds the denominator by
    # the mass between 1/2 and 1 instead, where phi_n^2 >= 1
    C2 = den if den > 0.0 else weighted_integral(family, None, 0.5, 1.0)
    if C2 == 0.0:
        raise NonIntegrableTestFunction("phi_n's bound has no denominator C2: the weight "
                                        "underflows on both [1, 2] and [1/2, 1]")
    return num, den, C1, C2


def _middle(family: WeightFamily, gammas, r_cap: float) -> np.ndarray:
    """The rows int_{r_cap}^1 r^{2g-2} dmu and int_{r_cap}^1 r^{2g} dmu, one
    column per g of `gammas`, in one stacked call."""
    g = np.asarray(gammas, dtype=float)
    try:
        return weighted_integral(family, None, r_cap, 1.0,
                                 power=np.concatenate([2.0 * g - 2.0, 2.0 * g])).reshape(2, -1)
    except DivergentIntegral as exc:
        g = float(g.min())
        raise NonIntegrableTestFunction(
            f"r^{2 * g:g} or r^{2 * g - 2:g} not integrable against dmu") from exc


def require_phi_n_quotient(N0: float) -> None:
    """Raise NonIntegrableTestFunction unless phi_n has a Hardy quotient
    (N0 > 2): dmu ~ r^{N0-1} dr at the origin, so for N0 <= 2 the cap term
    has no finite value."""
    if N0 <= 2.0:
        raise NonIntegrableTestFunction(
            f"phi_n has no Hardy quotient for N0 = {N0:g} <= 2: "
            f"the cap integral int_0^(1/n) r^-2 dmu diverges"
        )


def quotient_phi_n(family: WeightFamily, c: float, gamma: float, n: int) -> PhiNQuotient:
    """Exact Rayleigh quotient of phi_n (not the paper-style upper bound;
    that bound is emitted alongside as a diagnostic)."""
    if n < 2:
        raise InvalidParams("n must be >= 2")
    profile = compute_profile(family)
    require_phi_n_quotient(profile.N0)
    lo, hi = phi_n_gamma_bounds(c, profile.N0)
    if not (lo - 1e-12 <= gamma <= hi + 1e-12):
        raise InadmissibleGamma(
            f"gamma={gamma:g} outside [{lo:g}, {hi:g}] for c={c:g}, N0={profile.N0:g}"
        )
    g = gamma
    # the cap min(r^g theta, n^-g) = n^-g on (0, 1/n), the power on (1/n, 1), the annulus
    try:
        cap_sq = float(n) ** (-2.0 * g)
        cap_I, cap_mass = map(float, weighted_integral(family, None, 0.0, 1.0 / n,
                                                       power=np.array([-2.0, 0.0])))
    except DivergentIntegral as exc:
        raise NonIntegrableTestFunction(str(exc)) from exc
    except OverflowError as exc:  # the cap's square; N0 = 343 overflows from n = 16 on
        raise NonIntegrableTestFunction(f"phi_n's cap squared, {n}^{-2 * g:g}, overflows") from exc
    mid_I, mid_den = map(float, _middle(family, [g], 1.0 / n)[:, 0])
    out_num, out_den, C1, C2 = _phi_n_annulus(family, c, g)
    num = -c * cap_sq * cap_I + (g * g - c) * mid_I + out_num
    den = cap_sq * cap_mass + mid_den + out_den
    return PhiNQuotient(value=num / den, upper_bound=((g * g - c) * mid_I + C1) / C2,
                        numerator=num, denominator=den, C1=C1, C2=C2)


def _phi_gamma_quotients(family: WeightFamily, c: float, gammas) -> np.ndarray:
    """The Hardy quotients of phi_gamma = r^g theta, one per g of `gammas`, from
    one stacked call for the moments on (0, 1) and one for the annulus."""
    g = np.asarray(gammas, dtype=float)
    mid_I, mid_den = _middle(family, g, 0.0)
    out_num, out_den = _annulus(family, c, g)
    return ((g * g - c) * mid_I + out_num) / (mid_den + out_den)


def quotient_phi_gamma(family: WeightFamily, c: float, gamma: float) -> float:
    """Exact Rayleigh quotient of phi_gamma = r^gamma theta, the uncapped phi_n."""
    profile = compute_profile(family)
    lo = (2.0 - profile.N0) / 2.0
    if not (lo - 1e-12 <= gamma < 0.0):
        raise InadmissibleGamma(
            f"gamma={gamma:g} outside [{lo:g}, 0) for N0={profile.N0:g}"
        )
    return float(_phi_gamma_quotients(family, c, [gamma])[0])


_PHI_GAMMA_RUNGS = 12  # phi_gamma_ladder's gammas, g_crit + step 2^-j for j = 1.._PHI_GAMMA_RUNGS


def phi_gamma_ladder(family: WeightFamily, c: float) -> List[Tuple[float, float]]:
    """Sweep gamma -> ((2 - N0)/2)+ and report the quotients.

    Divergence along this ladder witnesses the critical-constant failure
    under the lambda-integral condition (H3'); boundedness accompanies the
    attained-constant case.
    """
    g_crit = (2.0 - compute_profile(family).N0) / 2.0
    step = min(0.25, abs(g_crit) / 2.0)
    gammas = [g_crit + step * 2.0 ** (-j) for j in range(1, _PHI_GAMMA_RUNGS + 1)]
    return list(zip(gammas, map(float, _phi_gamma_quotients(family, c, gammas))))


# ----------------------------------------------------------------------
# improved Hardy and the weighted/flat equivalence
# ----------------------------------------------------------------------

class SlackResult(NamedTuple):
    slack: float
    grad_norm2: float   # int |grad u|^2 dx, the tolerance scale


def improved_hardy_slack(u: RadialBump, dimension: int) -> SlackResult:
    """Flat-space improved Hardy slack on the unit ball:

        int |grad u|^2 - c_0(N) int u^2/|x|^2 - 1/4 int u^2/(|x|^2 log^2|x|)

    against Lebesgue measure in the given dimension; the theorem says this
    is nonnegative for u in C_c^inf(B_1).
    """
    if u.hi >= 1.0 - 1e-9:
        raise UnsupportedFunction("u must be compactly supported inside B_1")
    probe = np.linspace(0.98, 0.9999, 7)
    if np.max(np.abs(u(probe))) > 1e-12:
        raise UnsupportedFunction("u does not vanish near |x| = 1")
    leb = WeightFamily(Kind.LEBESGUE, dimension)
    grad2 = weighted_integral(leb, lambda r: u.deriv(r) ** 2, 0.0, u.hi)
    hardy = weighted_integral(leb, lambda r: u(r) ** 2, 0.0, u.hi, power=-2.0)
    logterm = weighted_integral(
        leb, lambda r: u(r) ** 2 / np.log(r) ** 2, 0.0, u.hi, power=-2.0
    )
    return SlackResult(
        slack=grad2 - c0(dimension) * hardy - 0.25 * logterm,
        grad_norm2=grad2,
    )


class CrosscheckResult(NamedTuple):
    gap: float                  # RHS - LHS of the weighted inequality
    identity_residual: float    # flat-vs-weighted substitution identity
    lhs: float
    rhs: float


def weighted_vs_flat_crosscheck(
    family: WeightFamily,
    phi: RadialBump,
) -> CrosscheckResult:
    """Check c_{0,mu} int phi^2/r^2 dmu <= int |grad phi|^2 dmu + int U phi^2 dmu
    and the ground-state-substitution identity

        int |grad(phi sqrt mu)|^2 dx = int |grad phi|^2 dmu + int U_mu phi^2 dmu

    for a bump phi compactly supported in (0, oo).
    """
    if phi.lo <= 0.0:
        raise UnsupportedFunction("phi must be supported away from the origin")
    profile = compute_profile(family)
    lo, hi = phi.lo, phi.hi
    grad2 = weighted_integral(family, lambda r: phi.deriv(r) ** 2, lo, hi)
    hardy = weighted_integral(family, lambda r: phi(r) ** 2, lo, hi, power=-2.0)
    u_term = weighted_integral(
        family, lambda r: compute_U(family, r) * phi(r) ** 2, lo, hi
    )
    lhs = profile.c0_mu * hardy
    rhs = grad2 + u_term

    def flat_grad(r):
        d1, _ = log_derivatives(family, r)
        return (phi.deriv(r) + 0.5 * d1 * phi(r)) ** 2

    flat = weighted_integral(family, flat_grad, lo, hi)
    umu_term = weighted_integral(
        family, lambda r: compute_Umu(family, r) * phi(r) ** 2, lo, hi
    )
    rhs_id = grad2 + umu_term
    resid = abs(flat - rhs_id) / max(abs(flat), abs(rhs_id), 1e-300)
    return CrosscheckResult(gap=rhs - lhs, identity_residual=resid, lhs=lhs, rhs=rhs)
