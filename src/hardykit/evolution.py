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
whenever dt * cap < 1 (the documented safety factor keeps it below) S is a
positive definite Stieltjes matrix, so it is inverse-positive and implicit
Euler preserves positivity.

Time stepping: the state stepped is y = W^{1/2} u, whose Euclidean norm is
the weighted L^2 norm of u.  S is constant for a cap, so each cap factors
it once (LAPACK pttrf, LDL^T without pivoting).  A record interval of
per_rec steps is then, whichever a measured cost model finds cheaper
(_use_propagator), either per_rec pttrs solves -- the norms are those of a
plain solveh_banded loop on S to the last bit, and within 7e-11 relative
(n = 8190) of a plain solve_banded loop on the unscaled I - dt (A + V_cap)
-- or one product with the dense propagator P = R^per_rec, R = S^{-1}.  R is
entrywise nonnegative, so the products involve no cancellation: norms
agree with stepping to about 1e-12 relative, and positivity is kept.

Verdict rules (documented tunables): the run is a blowup signature when
the norm ratio between successive caps at t* = T/2 exceeds the threshold
(default 2) and the ratios increase with the cap; an existence signature
when the fitted envelope rates are Cauchy in the cap and the ratios have
stopped growing.  Each verdict is cross-checked against the spectral
Bounded/Diverging verdict for the same (family, c); an Unresolved spectral
ladder (fewer than 3 rungs) agrees only with an Inconclusive run.

Cap runs are independent of each other (parallelizable); within a run the
records are sequential, each one either per_rec sequential steps or one
propagator product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from .config import EvolutionConfig, SpectralConfig
from .errors import DegenerateSeries, NegativeDatum, SchemeDivergence
from .spectral import SpectralProblem, grid_parts, lambda1
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
# the lapack module); the per-step pttrs is bound once per caller from the
# same extension, so the stepping loop calls LAPACK directly.
def dpttrf(d, e):
    from .lapack import flapack
    return flapack.dpttrf(d, e)


# Path cost model, from timings of the raw LAPACK/BLAS calls at n = 126..8190
# on a 2-vCPU x86-64 host (OpenBLAS 0.3.31, 2 threads).  A pttrs step is a
# dependent recurrence without pivoting: 1.1 us + 8.8 ns * n per call (5.8 us
# at n = 510, 72 us at n = 8190), and an n-column pttrs costs the per-row part
# n times (2.4 ms at n = 510).  An n x n matmul takes about 34 ps * n^3
# (3.7-4.9 ms at n = 510, 1.7-3.8 ms at n = 382).  A power bit of P is one
# squaring and at most one n-column pttrs: about 1200 steps at n = 510, 710
# at n = 382.  The sides the tests pin hold by 1.6x at (n, per_rec, records)
# = (510, 250, 64), 2.6x at (382, 313, 8), 3.8x at (510, 25, 64) and more
# than 4x elsewhere.
def _use_propagator(n: int, per_rec: int, records: int) -> bool:
    """True when building R^per_rec (per_rec.bit_length() power bits) is
    cheaper than records * per_rec pttrs steps on n unknowns."""
    step_s = 1.1e-6 + 8.8e-9 * n
    bit_s = 3.4e-11 * n**3 + 8.8e-9 * n * n
    return per_rec.bit_length() * bit_s < records * per_rec * step_s


def _propagator(factors: tuple, n: int, power: int) -> np.ndarray:
    """R^power, R the inverse of the pttrf-factored matrix, by left-to-right
    binary powering.  R is one n-column pttrs on the identity; a squaring
    is one matmul into the spare buffer; a multiply by R is an in-place
    n-column pttrs (powers of R commute).  At most two n x n arrays live."""
    from .lapack import flapack
    dpttrs = flapack.dpttrs
    P, _ = dpttrs(*factors, np.eye(n, order="F"), overwrite_b=1)
    spare = np.empty_like(P)
    for bit in bin(power)[3:]:
        np.matmul(P, P, out=spare)
        P, spare = spare, P
        if bit == "1":
            P, _ = dpttrs(*factors, P, overwrite_b=1)
    return P


@dataclass(frozen=True)
class EvolutionSeries:
    """Norm time series of one capped run."""

    cap: float
    times: np.ndarray
    norms: np.ndarray
    dt: float
    min_value: float    # most negative grid value seen (positivity witness)


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
    cap_dt_safety: float = EvolutionConfig.cap_dt_safety,
) -> EvolutionSeries:
    """Evolve the capped problem and record the weighted L^2 norms.

    dt is an accuracy knob only (the scheme is unconditionally stable); it
    is additionally clamped to cap_dt_safety/cap so the implicit matrix
    stays inverse-positive, and snapped to divide the record interval.
    The state stepped is y = W^{1/2} u, whose Euclidean norm is the weighted
    norm of u; its constant symmetric matrix is factored once (pttrf, LDL^T).
    Each record interval is then either per_rec pttrs solves or, when
    _use_propagator finds it cheaper, one product with the propagator
    P = S^{-per_rec}, S the scaled matrix, built once per cap.
    """
    dt_eff = min(dt, cap_dt_safety / max(cap, 1.0))
    per_rec = max(1, int(math.ceil(T / records / dt_eff)))
    dt_eff = T / records / per_rec
    r, sqrt_w, diagonals = _implicit_euler(family, grid, c, cap, dt_eff)
    u = np.asarray(u0(r), dtype=float)
    if np.any(u < 0.0):
        raise NegativeDatum("initial datum must be nonnegative")
    from .lapack import flapack
    dpttrs = flapack.dpttrs
    d, e, info = dpttrf(*diagonals)
    if info != 0:
        raise SchemeDivergence(
            f"singular or indefinite implicit-Euler matrix at cap {cap:g} (pttrf info={info})")
    P = (_propagator((d, e), len(u), per_rec)
         if _use_propagator(len(u), per_rec, records) else None)
    y = sqrt_w * u  # a new array: stepped in place
    norm = lambda y: math.sqrt(float(y @ y))
    times = [0.0]
    norms = [norm(y)]
    min_value = float(u.min())
    for rec in range(1, records + 1):
        if P is not None:
            y = P @ y
        else:
            for _ in range(per_rec):
                y, _ = dpttrs(d, e, y, overwrite_b=1)
        if not np.all(np.isfinite(y)):
            raise SchemeDivergence(f"non-finite state at t={rec * T / records:g}")
        min_value = min(min_value, float((y / sqrt_w).min()))
        times.append(rec * T / records)
        norms.append(norm(y))
    return EvolutionSeries(
        cap=cap,
        times=np.asarray(times),
        norms=np.asarray(norms),
        dt=dt_eff,
        min_value=min_value,
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
    omega = float(np.polyfit(t[half:], np.log(n[half:]), 1)[0])
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
    ladder: SpectralConfig = SpectralConfig(),
    spectral_grid: RadialGrid = RadialGrid(),
) -> EvolutionRun:
    """Run the cap ladder of the knobs, from the bump on (u0_lo, u0_hi),
    and classify the outcome.

    BlowupSignature: the norm at t* = T * t_star_frac grows superlinearly in
    the cap (last ratio above blowup_ratio and ratios nondecreasing).
    ExistenceSignature: envelope rates Cauchy in the cap and the ratio has
    settled.  Anything else is Inconclusive.  The verdict is cross-checked
    against `lambda1` with `ladder` on `spectral_grid` (default: [grid]) for
    the same (family, c); an Unresolved ladder agrees only with Inconclusive.
    """
    i_star = int(round(knobs.t_star_frac * knobs.records))
    caps = sorted(float(k) for k in knobs.caps)
    grid = RadialGrid(knobs.r_min, knobs.r_max, knobs.n_points)
    u0 = RadialBump(knobs.u0_lo, knobs.u0_hi)
    series = [
        run_capped(family, c, cap, u0, knobs.T, knobs.dt, grid, records=knobs.records,
                   cap_dt_safety=knobs.cap_dt_safety)
        for cap in caps
    ]
    envelopes = [fit_envelope(s.times, s.norms) for s in series]
    t_star = series[0].times[i_star]
    at_star = [s.norms[i_star] for s in series]
    ratios = [float(b / a) for a, b in zip(at_star[:-1], at_star[1:])]

    nondecreasing = all(r2 >= r1 * 0.999 for r1, r2 in zip(ratios[:-1], ratios[1:]))
    blowup = ratios[-1] > knobs.blowup_ratio and nondecreasing
    om_last, om_prev = envelopes[-1].omega, envelopes[-2].omega
    omega_cauchy = abs(om_last - om_prev) <= max(knobs.omega_rtol * abs(om_last), 0.02)
    existence = omega_cauchy and ratios[-1] <= knobs.blowup_ratio

    if blowup:
        verdict = "BlowupSignature"
    elif existence:
        verdict = "ExistenceSignature"
    else:
        verdict = "Inconclusive"

    spectral = lambda1(SpectralProblem(family, c, spectral_grid), ladder).verdict
    agrees = verdict == "Inconclusive" or (
        spectral != "Unresolved"
        and (verdict == "BlowupSignature") == (spectral == "Diverging")
    )
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
