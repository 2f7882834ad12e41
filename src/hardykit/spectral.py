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
on a refinement ladder (r_min / 4, n x 2) per rung: once the truncation
radius resolves the singular mode, lambda_1 scales like 1/r_min^2, i.e. a
factor 16 per rung.  The verdict requires the last ratio to exceed the
documented factor (default 4) and the previous one half of it, which keeps
float64 noise at deep rungs from faking a divergence.  A ladder of fewer
than three rungs cannot show a cascade and reads Unresolved.

Everything operates on the radial subspace: the sharpness constructions are
radial, and for radial weights the critical constant is visible there.  The
two share one quotient: phi_gamma = r^gamma theta is phi_n = min(r^gamma
theta, n^-gamma) without the cap, and the cutoff-annulus integrals, which no
n reaches, are computed once per (family, c, gamma).
Assembly and solves are pure per problem instance; ladder rungs and sweep
points carry no shared mutable state.

A ladder's rungs are solved on two threads where numpy's and scipy's BLAS
each run on one (lapack.blas_threads(); importing the lapack module pins
them unless OPENBLAS_NUM_THREADS is set), and one after the other
otherwise, since BLAS pool threads would hold the second core.  The rungs
are split by node count, the largest first to the side with fewer nodes:
with n_grow = 2 the deepest rung (8/15 of a 4-rung ladder's nodes) runs on
a worker thread beside the other three, and equal rungs split two and two.
Every pencil is assembled on the calling thread, the worker's first and
each of the caller's just before its solve; the worker runs only
_solve_smallest, whose LAPACK calls release the interpreter lock (see the
lapack module), so the caller's assembly and solves overlap them.  The
results are bitwise those of solving the rungs one after the other.  Each
rung records its outcome, and lambda1 raises the exception of the
shallowest failing rung, whether it failed in assembly or in the solve:
the error a serial ladder would meet first.  The worker is always joined
before lambda1 returns or raises.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from .config import SpectralConfig
from .errors import (
    BadBracket,
    DivergentIntegral,
    InadmissibleGamma,
    InvalidParams,
    NoConvergence,
    NonIntegrableTestFunction,
    UnsupportedFunction,
)
from .hardy import HardyProfile, c0, compute_U, compute_Umu, compute_profile
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
    "MIN_RUNGS",
    "SpectralProblem",
    "Tridiagonal",
    "assemble",
    "RayleighResult",
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
# count or replace the solves.  LAPACK loads on the first call (see the
# lapack module), so the audit tasks (analyze, sharpness) never load it.
def eigh_tridiagonal(d, e):
    from . import lapack
    return lapack.eigh_tridiagonal(d, e)


def solve_banded(l_and_u, ab, b):
    from . import lapack
    return lapack.solve_banded(l_and_u, ab, b)


@dataclass(frozen=True)
class Tridiagonal:
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


@dataclass(frozen=True)
class SpectralProblem:
    """Rayleigh pencil for -(L + c/|x|^2) with Dirichlet ends."""

    family: WeightFamily
    c: float
    grid: RadialGrid


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


def assemble(problem: SpectralProblem) -> Tuple[Tridiagonal, np.ndarray]:
    """(stiffness, mass) on the interior nodes of the problem grid."""
    _, K, H, M = grid_parts(problem.family, problem.grid)
    return Tridiagonal(K.diag - problem.c * H.diag, K.off - problem.c * H.off), M


_RESIDUAL_TOL = 1e-8  # largest eigenpair residual the problem grid accepts


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
    sq = np.sqrt(M)
    d = A.diag / M
    e = A.off / (sq[:-1] * sq[1:])
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
    lam = float(v @ av) / float(v @ mv)
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


@dataclass(frozen=True)
class RayleighResult:
    """lambda_1 on the problem grid plus refinement-ladder diagnostics.

    ladder rows are (n_points, r_min, lambda1), ordered by decreasing r_min
    and increasing n_points; verdict reflects the ladder, lambda1/eigvec the
    problem grid itself.
    """

    lambda1: float
    eigvec: np.ndarray
    nodes: np.ndarray
    residual: float
    ladder: List[Tuple[int, float, float]]
    verdict: str  # "Bounded" | "Diverging" | "Unresolved"


MIN_RUNGS = 3  # a shorter ladder cannot show a cascade


def _ladder_verdict(lams: List[float], factor: float, floor: float) -> str:
    """Diverging when some trailing 3-rung window shows the 1/r_min^2
    cascade: last ratio above `factor`, the one before above factor/2.
    Unresolved for a ladder of fewer than MIN_RUNGS rungs, which cannot
    tell the two apart.

    Checking the two trailing windows keeps a single noise-corrupted deep
    rung (float64 cannot certify small eigenvalues there) from masking an
    otherwise clean cascade, while the double-ratio requirement keeps that
    same noise from faking one.
    """
    if len(lams) < MIN_RUNGS:
        return "Unresolved"
    for window in (lams[-3:], lams[-4:-1]):
        if len(window) < 3:
            continue
        l1, l2, l3 = window
        if l3 < -10.0 * floor and l2 < -floor:
            if l1 < -floor:
                r_prev = l2 / l1
            elif abs(l1) <= floor:
                r_prev = math.inf      # cascade emerging from below resolution
            else:
                continue               # genuinely positive rung: not a cascade
            if l3 / l2 > factor and r_prev > factor / 2.0:
                return "Diverging"
    return "Bounded"


def _split(sizes: List[int]) -> Tuple[List[int], List[int]]:
    """(worker's, caller's) rung indices, balanced by node count: the largest
    rung first (the deeper on a tie), each to the side with fewer nodes so
    far (the worker's on a tie), except that a lone rung is the caller's.
    Each side is in rung order."""
    worker: List[int] = []
    caller: List[int] = []
    worker_nodes = caller_nodes = 0
    for k in sorted(range(len(sizes)), key=lambda k: (sizes[k], k), reverse=True):
        if caller_nodes < worker_nodes:
            caller.append(k)
            caller_nodes += sizes[k]
        else:
            worker.append(k)
            worker_nodes += sizes[k]
    if not caller:  # a lone rung: there is nothing to run beside it
        return caller, worker
    return sorted(worker), sorted(caller)


def lambda1(problem: SpectralProblem, ladder: SpectralConfig = SpectralConfig()) -> RayleighResult:
    """Smallest Rayleigh quotient, with the verdict of a ladder of `rungs`
    rungs, each (r_min / rmin_shrink, n x n_grow) from the one before;
    rungs=1 is the single solve on the problem grid (verdict Unresolved).

    The rungs are solved on two threads where BLAS runs on one (see the
    module docstring); the exception raised is that of the shallowest
    failing rung, as if they had run one after the other."""
    g = problem.grid
    rungs = max(ladder.rungs, 1)  # rung 0, the problem grid, is always solved
    sizes = [int(round(g.n_points * ladder.n_grow**k)) for k in range(rungs)]
    outcomes: list = [None] * rungs  # rung k's solve, or the exception it raised

    def pencil(k):
        if k == 0:
            return assemble(problem)
        rung = replace(g, r_min=g.r_min / ladder.rmin_shrink**k, n_points=sizes[k])
        return assemble(replace(problem, grid=rung))

    def solve(k, A, M):
        lam, vec, res = _solve_smallest(A, M, enforce=k == 0)
        outcomes[k] = (lam, vec, res) if k == 0 else lam

    def solve_all(pencils):
        # the worker: an exception it raised is raised by the caller below
        while pencils:
            k, (A, M) = pencils.pop(0)
            try:
                solve(k, A, M)
            except BaseException as exc:
                outcomes[k] = exc
                return

    from . import lapack
    # beside BLAS pool threads a second thread of ours slows the ladder down
    theirs, ours = _split(sizes) if lapack.blas_threads() == 1 else ([], list(range(rungs)))
    pencils = []
    for k in theirs:
        try:
            pencils.append((k, pencil(k)))
        except Exception as exc:
            outcomes[k] = exc
            break
    worker = threading.Thread(target=solve_all, args=(pencils,)) if pencils else None
    if worker is not None:
        worker.start()
    try:
        for k in ours:
            try:
                solve(k, *pencil(k))
            except Exception as exc:
                outcomes[k] = exc
                break
    finally:
        if worker is not None:
            worker.join()
    for outcome in outcomes:
        if isinstance(outcome, BaseException):
            raise outcome
    lam0, vec, res = outcomes[0]
    rows = [(g.n_points, g.r_min, lam0)]
    rows += [(sizes[k], g.r_min / ladder.rmin_shrink**k, outcomes[k]) for k in range(1, rungs)]
    verdict = _ladder_verdict([row[2] for row in rows], ladder.diverge_factor, ladder.lambda_floor)
    return RayleighResult(lambda1=lam0, eigvec=vec, nodes=g.nodes[1:-1], residual=res,
                          ladder=rows, verdict=verdict)


@dataclass(frozen=True)
class SweepResult:
    c_hat: float
    c_lo: float
    c_hi: float
    trace: List[dict]   # per probed c: {"c", "verdict", "ladder"}


def critical_sweep(
    family: WeightFamily,
    c_lo: float,
    c_hi: float,
    tol: float,
    *,
    grid: RadialGrid,
    ladder: SpectralConfig = SpectralConfig(),
) -> SweepResult:
    """Bisect the Bounded/Diverging verdict in c, each probe a `lambda1`
    ladder on `grid`.

    Returns the midpoint of the final bracket; |c_hat - critical constant|
    is informally tol plus the ladder's detection bias (calibrated against
    the shipped families; see the sweep defaults).  A ladder shorter than
    MIN_RUNGS would read Unresolved at every c, and a bracket cannot shrink
    below adjacent floats, so `ladder.rungs` below MIN_RUNGS or `tol <= 0`
    raises InvalidParams before any solve.
    """
    if ladder.rungs < MIN_RUNGS:
        raise InvalidParams(f"a sweep needs ladders of >= {MIN_RUNGS} rungs, got {ladder.rungs}")
    if not tol > 0.0:
        raise InvalidParams(f"a sweep needs tol > 0, got {tol:g}")
    trace: List[dict] = []

    def probe(c: float) -> str:
        res = lambda1(SpectralProblem(family, c, grid), ladder)
        trace.append({"c": c, "verdict": res.verdict, "ladder": res.ladder})
        return res.verdict

    v_lo, v_hi = probe(c_lo), probe(c_hi)
    if v_lo != "Bounded" or v_hi != "Diverging":
        raise BadBracket(
            f"need Bounded at c_lo and Diverging at c_hi, got {v_lo}/{v_hi}",
            (v_lo, v_hi),
        )
    lo, hi = c_lo, c_hi
    while hi - lo > tol:
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


@dataclass(frozen=True)
class PhiNQuotient:
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


@lru_cache(maxsize=256)
def _annulus(family: WeightFamily, c: float, g: float):
    """Numerator and denominator of r^g theta on the cutoff annulus [1, 2], which no cap reaches."""

    def f_num(r):
        th = _theta(r)
        dth = _theta_deriv(r)
        grad = g * r ** (g - 1.0) * th + r**g * dth
        return grad * grad - c * r ** (2 * g - 2.0) * th * th

    return (weighted_integral(family, f_num, 1.0, 2.0),
            weighted_integral(family, lambda r: r ** (2 * g) * _theta(r) ** 2, 1.0, 2.0))


@lru_cache(maxsize=256)
def _phi_n_bound_constants(family: WeightFamily, c: float, g: float):
    """C1, C2 of the phi_n upper bound (see PhiNQuotient)."""
    C1 = 2.0 * weighted_integral(family, lambda r: r ** (2 * g) * _theta_deriv(r) ** 2, 1.0, 2.0) \
        + 2.0 * g * g * weighted_integral(family, lambda r: r ** (2 * g - 2.0) * _theta(r) ** 2, 1.0, 2.0)
    C2 = _annulus(family, c, g)[1]
    if C2 <= 0.0:
        # compactly supported weight (dead annulus): bound the denominator
        # by the mass between 1/2 and 1 instead, where phi_n^2 >= 1
        C2 = weighted_integral(family, None, 0.5, 1.0)
    return C1, C2


def _capped_quotient(family: WeightFamily, c: float, g: float, n: int):
    """(numerator, denominator, int_{1/n}^1 r^{2g-2} dmu) of the Hardy quotient
    of min(r^g theta, n^-g): the cap on (0, 1/n), the power on (1/n, 1), the
    annulus.  n = 0 removes the cap, which leaves phi_gamma = r^g theta."""
    r_cap = 1.0 / n if n else 0.0
    cap_num = cap_den = 0.0
    try:
        if n:
            cap_sq = float(n) ** (-2.0 * g)
            cap_num = -c * cap_sq * weighted_integral(family, None, 0.0, r_cap, power=-2.0)
            cap_den = cap_sq * weighted_integral(family, None, 0.0, r_cap)
        mid_I = weighted_integral(family, None, r_cap, 1.0, power=2.0 * g - 2.0)
        mid_den = weighted_integral(family, None, r_cap, 1.0, power=2.0 * g)
    except DivergentIntegral as exc:
        raise NonIntegrableTestFunction(
            str(exc) if n else f"r^{2 * g:g} or r^{2 * g - 2:g} not integrable against dmu"
        ) from exc
    out_num, out_den = _annulus(family, c, g)
    return cap_num + (g * g - c) * mid_I + out_num, cap_den + mid_den + out_den, mid_I


def require_phi_n_quotient(N0: float) -> None:
    """Raise NonIntegrableTestFunction unless phi_n has a Hardy quotient
    (N0 > 2): dmu ~ r^{N0-1} dr at the origin, so for N0 <= 2 the cap term
    has no finite value."""
    if N0 <= 2.0:
        raise NonIntegrableTestFunction(
            f"phi_n has no Hardy quotient for N0 = {N0:g} <= 2: "
            f"the cap integral int_0^(1/n) r^-2 dmu diverges"
        )


def quotient_phi_n(
    family: WeightFamily,
    c: float,
    gamma: float,
    n: int,
    *,
    profile: Optional[HardyProfile] = None,
) -> PhiNQuotient:
    """Exact Rayleigh quotient of phi_n (not the paper-style upper bound;
    that bound is emitted alongside as a diagnostic)."""
    if n < 2:
        raise InvalidParams("n must be >= 2")
    profile = profile or compute_profile(family)
    require_phi_n_quotient(profile.N0)
    lo, hi = phi_n_gamma_bounds(c, profile.N0)
    if not (lo - 1e-12 <= gamma <= hi + 1e-12):
        raise InadmissibleGamma(
            f"gamma={gamma:g} outside [{lo:g}, {hi:g}] for c={c:g}, N0={profile.N0:g}"
        )
    g = gamma
    num, den, mid_I = _capped_quotient(family, c, g, n)
    C1, C2 = _phi_n_bound_constants(family, c, g)
    return PhiNQuotient(value=num / den, upper_bound=((g * g - c) * mid_I + C1) / C2,
                        numerator=num, denominator=den, C1=C1, C2=C2)


def quotient_phi_gamma(
    family: WeightFamily,
    c: float,
    gamma: float,
    *,
    profile: Optional[HardyProfile] = None,
) -> float:
    """Exact Rayleigh quotient of phi_gamma = r^gamma theta, the uncapped phi_n."""
    profile = profile or compute_profile(family)
    lo = (2.0 - profile.N0) / 2.0
    if not (lo - 1e-12 <= gamma < 0.0):
        raise InadmissibleGamma(
            f"gamma={gamma:g} outside [{lo:g}, 0) for N0={profile.N0:g}"
        )
    num, den, _ = _capped_quotient(family, c, gamma, 0)
    return num / den


def phi_gamma_ladder(
    family: WeightFamily,
    c: float,
    *,
    j_max: int = 12,
    profile: Optional[HardyProfile] = None,
) -> List[Tuple[float, float]]:
    """Sweep gamma -> ((2 - N0)/2)+ and report the quotients.

    Divergence along this ladder witnesses the critical-constant failure
    under the lambda-integral condition (H3'); boundedness accompanies the
    attained-constant case.
    """
    profile = profile or compute_profile(family)
    g_crit = (2.0 - profile.N0) / 2.0
    step = min(0.25, abs(g_crit) / 2.0)
    gammas = [g_crit + step * 2.0 ** (-j) for j in range(1, j_max + 1)]
    return [(g, quotient_phi_gamma(family, c, g, profile=profile)) for g in gammas]


# ----------------------------------------------------------------------
# improved Hardy and the weighted/flat equivalence
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SlackResult:
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
    if np.max(np.abs(u(probe))) > 1e-12 * max(abs(u.amplitude), 1e-300):
        raise UnsupportedFunction("u does not vanish near |x| = 1")
    leb = WeightFamily(Kind.LEBESGUE, dimension)
    if u.amplitude == 0.0:
        return SlackResult(slack=0.0, grad_norm2=0.0)
    grad2 = weighted_integral(leb, lambda r: u.deriv(r) ** 2, 0.0, u.hi)
    hardy = weighted_integral(leb, lambda r: u(r) ** 2, 0.0, u.hi, power=-2.0)
    logterm = weighted_integral(
        leb, lambda r: u(r) ** 2 / np.log(r) ** 2, 0.0, u.hi, power=-2.0
    )
    return SlackResult(
        slack=grad2 - c0(dimension) * hardy - 0.25 * logterm,
        grad_norm2=grad2,
    )


@dataclass(frozen=True)
class CrosscheckResult:
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
        family, lambda r: compute_U(family, r, profile) * phi(r) ** 2, lo, hi
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
