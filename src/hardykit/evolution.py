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
it is symmetric in the weighted inner product, preserves the invariant
measure exactly under no-flux boundaries, and its off-diagonal signs make
I - dt A an M-matrix, so implicit Euler preserves positivity whenever
dt * cap <= the documented safety factor.

Time stepping: the implicit-Euler matrix I - dt (A + V_cap) is constant
for a cap, so each cap factors it once (LAPACK gttrf, partial pivoting)
and each step is one gttrs back-substitution.  This is the same
elimination solve_banded performs on every call, so the norms are the
same to the last bit.

Verdict rules (documented tunables): the run is a blowup signature when
the norm ratio between successive caps at t* = T/2 exceeds the threshold
(default 2) and the ratios increase with the cap; an existence signature
when the fitted envelope rates are Cauchy in the cap and the ratios have
stopped growing.  Each verdict is cross-checked against the spectral
Bounded/Diverging verdict for the same (family, c).

Cap runs are independent of each other (parallelizable); time stepping
within a run is strictly sequential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np
from scipy.linalg import solve_banded  # noqa: F401  (bench/tracer.py hooks this name)
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import DegenerateSeries, NegativeDatum, SchemeDivergence
from .spectral import SpectralProblem, lambda1
from .weights import RadialBump, RadialGrid, WeightFamily, hat_element_integrals

__all__ = [
    "EvolutionSeries",
    "run_capped",
    "Envelope",
    "fit_envelope",
    "EvolutionRun",
    "dichotomy_verdict",
]

_CAP_DT_SAFETY = 0.5  # dt <= safety/cap keeps I - dt A strictly an M-matrix


@dataclass(frozen=True)
class EvolutionSeries:
    """Norm time series of one capped run."""

    cap: float
    times: np.ndarray
    norms: np.ndarray
    dt: float
    min_value: float    # most negative grid value seen (positivity witness)


class _Stepper:
    """Implicit-Euler stepper for u_t = A u + V u on interior nodes."""

    def __init__(self, family: WeightFamily, grid: RadialGrid, c: float,
                 cap: float, boundary: str = "dirichlet"):
        nodes = grid.nodes
        e = hat_element_integrals(family, nodes)
        g = e.mass / e.h**2            # conductance per element
        if boundary == "dirichlet":
            self.r = nodes[1:-1]
            W = e.mass_r[:-1] + e.mass_l[1:]
            dd = g[:-1] + g[1:]
            off = -g[1:-1]
        elif boundary == "neumann_rmax":
            self.r = nodes[1:]
            W = np.concatenate([e.mass_r[:-1] + e.mass_l[1:], [e.mass_r[-1]]])
            dd = np.concatenate([g[:-1] + g[1:], [g[-1]]])
            off = -g[1:]
        else:
            raise ValueError(f"unknown boundary {boundary!r}")
        if np.any(W <= 0.0):
            raise SchemeDivergence("weight underflow on the grid; shrink r_max")
        self.W = W
        self.V = np.minimum(c / self.r**2, cap) if c != 0.0 else np.zeros_like(self.r)
        self._dd = dd
        self._off = off

    def matrix(self, dt: float) -> np.ndarray:
        """Banded (I - dt A - dt V) in solve_banded's (1, 1) layout."""
        m = len(self.W)
        ab = np.zeros((3, m))
        ab[0, 1:] = dt * self._off / self.W[:-1]
        ab[1, :] = 1.0 + dt * self._dd / self.W - dt * self.V
        ab[2, :-1] = dt * self._off / self.W[1:]
        return ab

    def norm(self, u: np.ndarray) -> float:
        return math.sqrt(float(self.W @ (u * u)))

    def mass(self, u: np.ndarray) -> float:
        return float(self.W @ u)


def run_capped(
    family: WeightFamily,
    c: float,
    cap: float,
    u0: Callable,
    T: float,
    dt: float,
    grid: RadialGrid,
    *,
    boundary: str = "dirichlet",
    records: int = 64,
    cap_dt_safety: float = _CAP_DT_SAFETY,
) -> EvolutionSeries:
    """Evolve the capped problem and record the weighted L^2 norms.

    dt is an accuracy knob only (the scheme is unconditionally stable); it
    is additionally clamped to cap_dt_safety/cap so the implicit matrix
    stays inverse-positive, and snapped to divide the record interval.
    The constant matrix I - dt (A + V) is factored once (gttrf); each step
    is one gttrs back-substitution.
    """
    stepper = _Stepper(family, grid, c, cap, boundary)
    u = np.array(u0(stepper.r), dtype=float)  # a copy: stepped in place
    if np.any(u < 0.0):
        raise NegativeDatum("initial datum must be nonnegative")
    dt_eff = min(dt, cap_dt_safety / max(cap, 1.0))
    per_rec = max(1, int(math.ceil(T / records / dt_eff)))
    dt_eff = T / records / per_rec
    ab = stepper.matrix(dt_eff)
    dl, d, du, du2, ipiv, info = dgttrf(ab[2, :-1], ab[1], ab[0, 1:])
    if info != 0:
        raise SchemeDivergence(
            f"singular implicit-Euler matrix at cap {cap:g} (gttrf info={info})")
    times = [0.0]
    norms = [stepper.norm(u)]
    min_value = float(u.min())
    for rec in range(1, records + 1):
        for _ in range(per_rec):
            u, _ = dgttrs(dl, d, du, du2, ipiv, u, overwrite_b=1)
        if not np.all(np.isfinite(u)):
            raise SchemeDivergence(f"non-finite state at t={rec * T / records:g}")
        min_value = min(min_value, float(u.min()))
        times.append(rec * T / records)
        norms.append(stepper.norm(u))
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
    caps: List[float]
    u0: Callable
    T: float
    dt: float                    # requested step (per-cap effective dt in series)
    grid: RadialGrid
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
            "T": self.T,
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
    *,
    caps: Sequence[float] = (1e2, 1e3, 1e4),
    T: float = 8.0,
    dt: float = 0.01,
    grid: Optional[RadialGrid] = None,
    u0: Optional[Callable] = None,
    records: int = 64,
    t_star_frac: float = 0.5,
    blowup_ratio: float = 2.0,
    omega_rtol: float = 0.1,
    cap_dt_safety: float = _CAP_DT_SAFETY,
    spectral_grid: Optional[RadialGrid] = None,
) -> EvolutionRun:
    """Run the cap ladder and classify the outcome.

    BlowupSignature: the norm at t* = T * t_star_frac grows superlinearly in
    the cap (last ratio above the threshold and ratios nondecreasing).
    ExistenceSignature: envelope rates Cauchy in the cap and the ratio has
    settled.  Anything else is Inconclusive.  The verdict is cross-checked
    against the spectral ladder for the same (family, c).
    """
    if len(caps) < 3 or max(caps) / min(caps) < 100.0:
        raise ValueError("cap ladder needs >= 3 entries spanning >= 2 decades")
    caps = sorted(float(k) for k in caps)
    grid = grid or RadialGrid(1e-4, 8.0, 512)
    u0 = u0 or RadialBump(0.25, 1.0)
    series = [
        run_capped(family, c, cap, u0, T, dt, grid, records=records,
                   cap_dt_safety=cap_dt_safety)
        for cap in caps
    ]
    envelopes = [fit_envelope(s.times, s.norms) for s in series]
    i_star = int(round(t_star_frac * records))
    t_star = series[0].times[i_star]
    at_star = [s.norms[i_star] for s in series]
    ratios = [float(b / a) for a, b in zip(at_star[:-1], at_star[1:])]

    nondecreasing = all(r2 >= r1 * 0.999 for r1, r2 in zip(ratios[:-1], ratios[1:]))
    blowup = ratios[-1] > blowup_ratio and nondecreasing
    om_last, om_prev = envelopes[-1].omega, envelopes[-2].omega
    omega_cauchy = abs(om_last - om_prev) <= max(omega_rtol * abs(om_last), 0.02)
    existence = omega_cauchy and ratios[-1] <= blowup_ratio

    if blowup:
        verdict = "BlowupSignature"
    elif existence:
        verdict = "ExistenceSignature"
    else:
        verdict = "Inconclusive"

    sgrid = spectral_grid or RadialGrid(1e-5, 20.0, 256)
    spectral = lambda1(SpectralProblem(family, c, sgrid)).verdict
    agrees = (
        verdict == "Inconclusive"
        or (verdict == "BlowupSignature") == (spectral == "Diverging")
    )
    return EvolutionRun(
        family=family,
        c=c,
        caps=list(caps),
        u0=u0,
        T=T,
        dt=dt,
        grid=grid,
        series=series,
        envelopes=envelopes,
        ratios=ratios,
        t_star=float(t_star),
        verdict=verdict,
        spectral_verdict=spectral,
        agrees=agrees,
    )
