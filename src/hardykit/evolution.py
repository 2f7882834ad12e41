"""Capped-potential simulation of the singular parabolic problem.

The evolution  u_t = L u + V u,  V = c/|x|^2,  is approximated through the
bounded potentials V_k = min(c/r^2, k):  solutions of the capped problems
increase monotonically in the cap, and their behaviour as the cap grows
witnesses the existence/blowup dichotomy tied to lambda_1(L + V).

Spatial operator: L is discretized in divergence (flux) form on the
geometric grid,

    (A u)_i = [ g_{i+1/2} (u_{i+1}-u_i) - g_{i-1/2} (u_i-u_{i-1}) ] / W_i ,

with conductances g and lumped cell weights W taken from the element
integrals of mu r^{N-1}.  This is the same pencil the spectral module uses;
it is symmetric in the weighted inner product, and it is conservative: the
flux leaving one cell enters its neighbour, so the stiffness rows of
interior cells sum to zero and d mu changes only through the boundary
fluxes.  Scaled by W^{1/2}, the implicit-Euler matrix becomes the symmetric
S = I + dt W^{-1/2} K W^{-1/2} - dt V_cap, with nonpositive off-diagonal;
whenever dt * cap < 1 (run_capped clamps dt to _CAP_DT_SAFETY / cap) S is a
positive definite Stieltjes matrix, so it is inverse-positive and implicit
Euler preserves positivity.

Time stepping: the state is y = W^{1/2} u, whose Euclidean norm is the
weighted L^2 norm of u, and record k is y_k = S^{-k per_rec} y_0.  S is
constant for a cap, so each cap factors it once (LAPACK pttrf, LDL^T without
pivoting); a failed factorization is a SchemeDivergence.  The records come
from a shift-invert Krylov basis, and only where that basis does not settle
or overflows are they stepped:

- krylov: shift-invert Lanczos (van den Eshof and Hochbruck, SIAM J. Sci.
  Comput. 27, 2006).  With A = W^{-1/2} K W^{-1/2} - V_cap, it factors
  M = I + gamma A once, gamma the record spacing T / records (halved until
  pttrf(M) succeeds, as gamma * omega < 1 is needed where the run grows at
  rate omega), and builds an orthonormal basis of the Krylov space of M^{-1}
  from y_0 with full reorthogonalization.  The small tridiagonal T_m =
  U diag(z) U^T gives every record at once: z approximates 1/(1 + gamma lam)
  for the eigenvalues lam of A, and 1 + dt lam = 1 + (dt/gamma)(1/z - 1), so
  ||y_k|| = ||y_0|| ||U[0] o exp(-k log1p((dt/gamma)(1/z - 1)))||.  log1p
  matters: 1 + x rounds by up to eps, and the power k = 160000 scales that
  to 1.8e-11 relative.  The basis grows until two successive bases agree to
  1e-13 relative on every record: 7-24 vectors on the built-in families at
  n = 512 and 8192.  The Ritz values lie inside the spectrum, so an early
  basis underestimates the growth and may overflow at a later record than
  the run does; a basis whose records overflow hands the cap to stepping,
  so the SchemeDivergence names stepping's time.  Over a survey of 6400
  caps (five families, n_points 16-512, c 0-1.2, caps 1-1e4, T 0.05-8)
  against forced stepping, every outcome and verdict is the same and the
  norms agree to 3.8e-10 relative.  On the n = 8190 evolve they agree to
  1e-9.
- steps, the fallback: records * per_rec pttrs solves, taken when the basis
  spans the whole space or reaches _KRYLOV_BASIS vectors before it settles,
  when a record overflows, or when dstev fails.  In that survey 78 caps did
  not settle, all at cap 1e4, c >= 0.8 and T <= 0.5; some (oscillating,
  c = 2, cap 1e4, T = 0.05 on 382 unknowns) do not settle even at 160
  vectors, and there the first record never settles, so no restart from a
  settled record would save the basis.
  The norms are those of a plain solveh_banded loop on S to the last bit,
  and within 7e-11 relative (n = 8190) of a plain solve_banded loop on the
  unscaled I - dt (A + V_cap).

Positivity: the off-diagonal of S is nonpositive, so once pttrf(S) succeeds
S is a Stieltjes matrix, S^{-1} is entrywise nonnegative, and every exact
iterate of a nonnegative datum is nonnegative.  On the steps path
min_value is the most negative grid value seen over the datum and every
record, an observed witness of that.  The krylov path forms no grid values
(a state y / sqrt(W) reconstructed from the basis is no witness: its
rounding is divided by sqrt(W), about 1e-12 near r_max, and it reads down
to -2e-4 where stepping reads 0), so there min_value is the datum's minimum
and positivity rests on the certificate.

Verdict rules (the _T_STAR_FRAC, _BLOWUP_RATIO and _OMEGA_RTOL constants):
the run is a blowup signature when the norm ratio between successive caps
at t* = T/2 exceeds 2 and the ratios increase with the cap; an existence
signature when the fitted envelope rates of the last two caps agree to 10%
relative (or 0.02) and the last ratio is at most 2.  Each verdict is
cross-checked against the spectral Bounded/Diverging verdict for the same
(family, c); an Inconclusive run agrees with either.

Cap runs are independent of each other (parallelizable); on the steps path
the records are sequential, on the krylov path they come from one basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from .config import U0_SUPPORT, EvolutionConfig
from .errors import DegenerateSeries, NegativeDatum, SchemeDivergence
from .spectral import grid_parts, lambda1, rung_grids
from .spectral import solve_banded  # noqa: F401  (bench/tracer.py hooks this name)
from .weights import RadialBump, RadialGrid, WeightFamily

__all__ = [
    "EvolutionSeries",
    "run_capped",
    "Envelope",
    "fit_envelope",
    "EvolutionRun",
    "dichotomy_verdict",
]

# pttrf stays a module attribute, so a caller can rebind it to inspect or
# replace the factorization.  LAPACK loads on the first factorization (see
# the lapack module); the per-step pttrs is bound once per caller.
def dpttrf(d, e):
    from . import lapack
    return lapack.dpttrf(d, e)


_KRYLOV_BASIS = 64
_KRYLOV_RTOL = 1e-13

# the cap ladder's step before the clamp, and the clamp's dt * cap bound,
# which keeps S an inverse-positive Stieltjes matrix
_DT = 0.01
_CAP_DT_SAFETY = 0.5

# the verdict rules (see the module docstring)
_T_STAR_FRAC = 0.5     # t* = T * _T_STAR_FRAC, the record the cap ratios read
_BLOWUP_RATIO = 2.0    # > 1: the solutions grow with the cap, so every ratio is >= 1
_OMEGA_RTOL = 0.1
# fit_envelope's degeneracy bound: the fitted half's log-norms must spread by
# at least this many ulps of their largest magnitude
_FIT_ROUNDING = 16.0
# dichotomy_verdict's: they must spread by at least ten times the accuracy of
# the Krylov records, or the fitted rate is the records' noise
_RATE_SPREAD = 10.0 * _KRYLOV_RTOL


def _krylov_records(family: WeightFamily, grid: RadialGrid, c: float, cap: float,
                    y0: np.ndarray, dt: float, per_rec: int, records: int):
    """The norms ||S^{-k per_rec} y0||, k = 1..records, from one Lanczos basis
    of M^{-1}, M = I + gamma A, or None when the basis reaches _KRYLOV_BASIS
    vectors, or spans the whole space, before two successive bases agree on
    every record, when a record overflows, or when dstev fails."""
    from . import lapack
    dpttrs = lapack.dpttrs
    gamma = per_rec * dt  # the record spacing; halved until M is positive definite
    while True:
        *factors, info = dpttrf(*_implicit_euler(family, grid, c, cap, gamma)[2])
        if info == 0:
            break
        gamma /= 2.0
    beta0 = math.sqrt(float(y0 @ y0))
    if beta0 == 0.0:
        return np.zeros(records)
    size = min(_KRYLOV_BASIS, len(y0))  # past n vectors a basis is rounding noise
    V = np.empty((size, len(y0)))
    V[0] = y0 / beta0
    alpha, beta = np.empty(size), np.zeros(size)
    powers = per_rec * np.arange(1.0, records + 1.0)[:, None]
    last = None
    for j in range(size):
        w = dpttrs(*factors, V[j])
        basis = V[:j + 1]
        h = basis @ w
        w -= h @ basis
        h2 = basis @ w  # full reorthogonalization, twice
        w -= h2 @ basis
        alpha[j] = h[j] + h2[j]
        z, U, info = lapack.dstev(alpha[:j + 1], beta[:max(j, 1)])
        if info != 0:
            return None
        # the Ritz values z of the positive definite M^{-1} are positive, up
        # to rounding; where 1/z overflows, the component decays to 0
        with np.errstate(over="ignore", divide="ignore"):
            rate = np.log1p((dt / gamma) * (1.0 / np.maximum(z, np.finfo(float).tiny) - 1.0))
            norms = beta0 * np.sqrt(np.square(U[0] * np.exp(-powers * rate)).sum(axis=1))
        if not np.all(np.isfinite(norms)):
            return None  # stepping names the record where the norm overflows
        beta[j] = math.sqrt(float(w @ w))
        if (beta[j] == 0.0
                or last is not None and np.all(np.abs(norms - last) <= _KRYLOV_RTOL * norms)):
            return norms
        last = norms
        if j + 1 < size:
            V[j + 1] = w / beta[j]
    return None


@dataclass(frozen=True)
class EvolutionSeries:
    """Norm time series of one capped run."""

    cap: float
    times: np.ndarray
    norms: np.ndarray
    dt: float
    min_value: float    # steps: most negative grid value seen; krylov: the datum's minimum
    path: str           # "steps" or "krylov" (see the module docstring)


def _implicit_euler(family: WeightFamily, grid: RadialGrid, c: float,
                    cap: float, dt: float):
    """(r, sqrt(W), (d, e)): the interior radii, the square roots of the
    lumped cell weights W, and the main and off-diagonal of the symmetric
    S = W^{1/2} (I - dt (A + V_cap)) W^{-1/2} = I + dt W^{-1/2} K W^{-1/2} - dt V_cap,
    with A = -W^{-1} K built from the spectral module's grid parts."""
    nodes, K, _, W = grid_parts(family, grid)
    r = nodes[1:-1]
    V = np.minimum(c / r**2, cap)
    sqrt_w = np.sqrt(W)
    d = 1.0 + dt * K.diag / W - dt * V
    return r, sqrt_w, (d, dt * K.off / (sqrt_w[:-1] * sqrt_w[1:]))


def run_capped(
    family: WeightFamily,
    c: float,
    cap: float,
    u0: Callable,
    T: float,
    dt: float,
    grid: RadialGrid,
    *,
    records: int = EvolutionConfig.records,
    cap_dt_safety: float = _CAP_DT_SAFETY,
) -> EvolutionSeries:
    """Evolve the capped problem and record the weighted L^2 norms.

    dt is an accuracy knob only (the scheme is unconditionally stable); it
    is additionally clamped to cap_dt_safety/cap so the implicit matrix
    stays inverse-positive, and snapped to divide the record interval.
    The state is y = W^{1/2} u, whose Euclidean norm is the weighted norm
    of u; its constant symmetric matrix S is factored once (pttrf, LDL^T).
    The records are read from one shift-invert Krylov basis; only where that
    basis does not settle (see _krylov_records) are they stepped instead,
    per_rec pttrs solves each.
    """
    dt_eff = min(dt, cap_dt_safety / max(cap, 1.0))
    per_rec = max(1, int(math.ceil(T / records / dt_eff)))
    dt_eff = T / records / per_rec
    r, sqrt_w, diagonals = _implicit_euler(family, grid, c, cap, dt_eff)
    u = np.asarray(u0(r), dtype=float)
    if np.any(u < 0.0):
        raise NegativeDatum("initial datum must be nonnegative")
    from .lapack import dpttrs
    d, e, info = dpttrf(*diagonals)
    if info != 0:
        raise SchemeDivergence(
            f"singular or indefinite implicit-Euler matrix at cap {cap:g} (pttrf info={info})")
    y = sqrt_w * u  # a new array: stepped in place
    times = np.asarray([rec * T / records for rec in range(records + 1)])
    norms = np.full(records + 1, math.nan)  # records after an overflow stay nan
    norms[0] = math.sqrt(float(y @ y))
    krylov = _krylov_records(family, grid, c, cap, y, dt_eff, per_rec, records)
    min_value = float(u.min())
    if krylov is not None:
        norms[1:] = krylov
    else:
        for rec in range(1, records + 1):
            dpttrs(d, e, y, overwrite_b=True, times=per_rec)
            with np.errstate(over="ignore", invalid="ignore"):
                norms[rec] = math.sqrt(float(y @ y))
            if not math.isfinite(norms[rec]):
                break
            min_value = min(min_value, float((y / sqrt_w).min()))
    if not np.all(np.isfinite(norms)):
        raise SchemeDivergence(f"non-finite norm at t={times[np.argmin(np.isfinite(norms))]:g}")
    return EvolutionSeries(
        cap=cap,
        times=times,
        norms=norms,
        dt=dt_eff,
        min_value=min_value,
        path="steps" if krylov is None else "krylov",
    )


@dataclass(frozen=True)
class Envelope:
    """Exponential envelope ||u(t)|| <= M e^{omega t} ||u0||, M minimal."""

    M: float
    omega: float


def fit_envelope(times: Sequence[float], norms: Sequence[float]) -> Envelope:
    """Least squares on log||u|| over the second half of the series; M is
    the smallest constant making the bound hold over the whole series."""
    t = np.asarray(times, dtype=float)
    n = np.asarray(norms, dtype=float)
    if len(n) < 8:
        raise DegenerateSeries("need at least 8 samples")
    if np.any(n <= 0.0) or not np.all(np.isfinite(n)):
        raise DegenerateSeries("norm series must be positive and finite")
    half = len(n) // 2
    if not np.any(t[half:] ** 2):  # polyfit divides the t column by its norm
        raise DegenerateSeries(f"times up to {t[-1]:g} are too small to fit: t^2 underflows")
    logs = np.log(n[half:])
    spread, size = float(np.ptp(logs)), float(np.max(np.abs(logs)))
    if spread < _FIT_ROUNDING * np.finfo(float).eps * size:
        # the norms do not move beyond rounding, and the fit's intercept leaks
        # that rounding into omega, scaled by 1/T (4.9e133 at T = 1e-150)
        raise DegenerateSeries(
            f"log-norms up to t = {t[-1]:g} spread {spread:.3g}, within rounding of their "
            f"size {size:.3g}: too short a time to fit a rate")
    omega = float(np.polyfit(t[half:], logs, 1)[0])
    ratios = n / (np.exp(omega * t) * n[0])
    return Envelope(M=max(1.0, float(np.max(ratios))), omega=omega)


@dataclass(frozen=True)
class EvolutionRun:
    """Cap ladder outcome for one (family, c)."""

    family: WeightFamily
    c: float
    knobs: EvolutionConfig       # the run's; each series carries its effective dt
    caps: List[float]            # knobs.caps, ascending
    series: List[EvolutionSeries]
    envelopes: List[Envelope]
    ratios: List[float]          # ||u_{k+1}(t*)|| / ||u_k(t*)||
    t_star: float
    verdict: str                 # ExistenceSignature | BlowupSignature | Inconclusive
    spectral_verdict: str
    agrees: bool

    def to_json_dict(self) -> dict:
        return {
            "family": self.family.label(),
            "c": self.c,
            "caps": list(self.caps),
            "T": self.knobs.T,
            "t_star": self.t_star,
            "envelopes": [{"M": e.M, "omega": e.omega} for e in self.envelopes],
            "cap_ratios_at_t_star": self.ratios,
            "verdict": self.verdict,
            "spectral_verdict": self.spectral_verdict,
            "agrees_with_spectral": self.agrees,
        }


def dichotomy_verdict(
    family: WeightFamily,
    c: float,
    knobs: EvolutionConfig = EvolutionConfig(),
    *,
    spectral_grid: RadialGrid = RadialGrid(),
) -> EvolutionRun:
    """Run the cap ladder of the knobs at step _DT, from the bump on
    U0_SUPPORT, and classify the outcome.

    BlowupSignature: the norm at t* = T * _T_STAR_FRAC grows superlinearly in
    the cap (last ratio above _BLOWUP_RATIO and ratios nondecreasing).
    ExistenceSignature: envelope rates Cauchy in the cap and the ratio has
    settled.  Anything else is Inconclusive.  The verdict is cross-checked
    against the `lambda1` ladder on `spectral_grid` (default: [grid], its rungs
    checked before any step) for the same (family, c); Inconclusive agrees with either.
    """
    rung_grids(spectral_grid)
    i_star = int(round(_T_STAR_FRAC * knobs.records))
    caps = sorted(float(k) for k in knobs.caps)
    grid = RadialGrid(knobs.r_min, knobs.r_max, knobs.n_points)
    series = [run_capped(family, c, cap, RadialBump(*U0_SUPPORT), knobs.T, _DT, grid,
                         records=knobs.records) for cap in caps]
    envelopes = [fit_envelope(s.times, s.norms) for s in series]
    for s in series:  # the half that fit_envelope fits
        spread = float(np.ptp(np.log(s.norms[len(s.norms) // 2:])))
        if spread < _RATE_SPREAD:
            raise DegenerateSeries(
                f"at cap {s.cap:g} the log-norms up to t = {s.times[-1]:g} spread "
                f"{spread:.3g}, less than {_RATE_SPREAD:g}, ten times the records' "
                f"accuracy: too short a time to resolve a rate")
    t_star = series[0].times[i_star]
    at_star = [s.norms[i_star] for s in series]
    ratios = [float(b / a) for a, b in zip(at_star[:-1], at_star[1:])]

    nondecreasing = all(r2 >= r1 * 0.999 for r1, r2 in zip(ratios[:-1], ratios[1:]))
    blowup = ratios[-1] > _BLOWUP_RATIO and nondecreasing
    om_last, om_prev = envelopes[-1].omega, envelopes[-2].omega
    omega_cauchy = abs(om_last - om_prev) <= max(_OMEGA_RTOL * abs(om_last), 0.02)
    existence = omega_cauchy and ratios[-1] <= _BLOWUP_RATIO

    if blowup:
        verdict = "BlowupSignature"
    elif existence:
        verdict = "ExistenceSignature"
    else:
        verdict = "Inconclusive"

    spectral = lambda1(family, c, spectral_grid).verdict
    agrees = verdict == "Inconclusive" or (
        (verdict == "BlowupSignature") == (spectral == "Diverging"))
    return EvolutionRun(
        family=family,
        c=c,
        knobs=knobs,
        caps=caps,
        series=series,
        envelopes=envelopes,
        ratios=ratios,
        t_star=float(t_star),
        verdict=verdict,
        spectral_verdict=spectral,
        agrees=agrees,
    )
