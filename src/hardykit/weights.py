"""Radial weight families and weighted quadrature on (0, oo).

A weight family is a radial density mu(r) > 0 together with its exact
logarithmic derivatives.  Everything downstream (Hardy profiles, spectral
assembly, the parabolic stepper) consumes only this interface:

    log_mu(family, s)           g(s) = log mu(e^s)
    eval_mu(family, r)          mu(r) = exp(g(log r))
    log_derivatives(family, r)  (mu'/mu, Delta mu / mu) = (g'/r, (g'' + (N-2) g' + g'^2)/r^2)
    weighted_integral(...)      omega_N * int f(r) r^power mu(r) r^{N-1} dr

mu is defined once per kind, by one jet in s = log r that returns g and,
on request, g' and g''; everything above reads that jet, so the element
integrals, the log-axis quadrature and the Hardy profile see one weight.

Built-in kinds
--------------
Lebesgue          mu = 1
ExpPower          mu = exp(-b r^m),                b >= 0, m > 0
PowerExpPower     mu = r^{-beta} exp(-b r^m),      beta < N
LogWeight         mu = theta(r) (log 1/r)^alpha    (theta = 1 on r <= 1/2,
                                                    0 on r >= 1)
Oscillating       mu = 2 + sin(log r) on r <= 1/2, C^2 blend to the
                  constant 2 on [1/2, 1]

The LogWeight / Oscillating profiles are only meaningful near the origin;
they are closed with a smooth bump-template transition on [1/2, 1] so that
integrals over (0, oo) make sense.  All near-origin analysis happens at
r < 1/2 where the closure is inactive.

A pure moment omega_N int_0^R r^power dmu is closed-form, with
q = N + power - beta: R^q/q for mu = 1, b^{-q/m} gamma(q/m, b R^m)/m for
exp(-b r^m), q^{-alpha-1} Gamma(alpha+1, q log(1/R)) for the log weight
(incomplete gamma functions, DLMF 8.2) and elementary for the oscillating
one.  It diverges exactly when q <= 0, but for the log weight at q = 0 and
alpha < -1.  Past r = 1/2, where the last two close, one block is added.

Every other integral runs on the log axis s = log r, where power-law
singularities become exponentials: a finite range is one block, and a range
from r = 0 is a run of blocks doubling toward s = -oo, flagged divergent
when the integrand overflows or the block sums refuse to settle.  Each
block is integrated by adaptive bisection in numpy (after Gander and
Gautschi, "Adaptive quadrature -- revisited", BIT 40, 2000): the error
estimate of a sub-interval compares a 10-point Gauss-Legendre rule on it
with the same rule on its two halves, and every pending sub-interval of a
refinement level is evaluated in one call of the integrand.  At most 4096
sub-intervals are refined at once; past that budget the block raises
QuadratureFailure.  When bisection stops shrinking the estimates for three
levels, the integrand is resolved to rounding (a cancelling difference,
say) and the block is accepted.  Weight logarithms are evaluated directly
as functions of s, so integrands stay meaningful far below the smallest
positive float in r.  A block on which r^{N + power} mu stays below e^-600
is integrated lifted to that level and scaled back, so that its tolerance,
relative to its total, is never relative to a total near the bottom of the
double range.

Several integrands over one range are one stack, integrated in one pass
that shares every node: a callable returning k rows, or k powers of a pure
moment.  Each member keeps its own tolerance, relative to its own total:
an interval is accepted once every member that has not settled accepts
it, a block and a tail walk stop once every member has settled, and each
member of a power stack is lifted on its own.  A stack of one member
gives the single integrand's value to the bit, and a larger stack agrees
with one pass per member to rounding.

All types are immutable values and all operations are pure; everything here
is safe to share across threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .errors import (
    DivergentIntegral,
    InvalidParams,
    NonPositiveRadius,
    QuadratureFailure,
)

__all__ = [
    "Kind",
    "WeightFamily",
    "RadialGrid",
    "RadialBump",
    "surface_measure",
    "eval_mu",
    "log_mu",
    "log_derivatives",
    "weighted_integral",
    "hat_element_integrals",
    "smooth_transition",
]


def _quiet_overflow(fn):
    """Run fn with numpy overflow/divide noise silenced: infinities out of
    extreme radii are meaningful sentinels for the divergence detectors."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return fn(*args, **kwargs)
    return wrapper


LOG_HALF = math.log(0.5)
_EXP_UNDERFLOW = -745.0  # exp() underflows to 0.0 below this
_LIFT_TOP = -600.0       # log of the level a block of smaller integrand is lifted to
_MAX_TAIL_BLOCKS = 58    # deepest block reaches |log r| ~ 2^57
MAX_NODES = 2**20        # the most nodes a RadialGrid may have: it bounds a ladder's memory


class Kind(str, Enum):
    LEBESGUE = "lebesgue"
    EXP_POWER = "exp_power"
    POWER_EXP_POWER = "power_exp_power"
    LOG_WEIGHT = "log_weight"
    OSCILLATING = "oscillating"

    @classmethod
    def _missing_(cls, value):
        """Kinds match case-insensitively; an unknown one names the kinds."""
        for kind in cls:
            if kind.value == str(value).lower():
                return kind
        raise InvalidParams(f"unknown weight kind {value!r}; expected one of "
                            f"{', '.join(kind.value for kind in cls)}")


def surface_measure(dimension: int) -> float:
    """omega_N, the surface measure of the unit sphere in R^N."""
    return 2.0 * math.pi ** (dimension / 2.0) / math.gamma(dimension / 2.0)


# ----------------------------------------------------------------------
# the bump template exp(1 - 1/(1-s^2)) and its rescalings
# ----------------------------------------------------------------------

def _bump_log(s):
    """log T, (log T)' and (log T)'' of the bump template
    T(s) = exp(1 - 1/(1 - s^2)), for |s| < 1."""
    g = 1.0 - s * s
    return 1.0 - 1.0 / g, -2.0 * s / g**2, -2.0 / g**2 - 8.0 * s * s / g**3


def smooth_transition(r, lo: float, hi: float):
    """C^1 transition from 1 at r <= lo to 0 at r >= hi.

    Rescaling of the bump template exp(1 - 1/(1-s^2)) to [lo, hi].  Smooth
    in (lo, hi) and C-infinity flat at the hi end; only C^1 at the lo seam,
    which is irrelevant here because every quantitative statement is made
    strictly inside or outside the transition window.
    """
    arr = np.asarray(r, dtype=float)
    s = np.atleast_1d((arr - lo) / (hi - lo))
    out = np.where(s >= 1.0, 0.0, 1.0)
    mid = (s > 0.0) & (s < 1.0)
    out[mid] = np.exp(_bump_log(s[mid])[0])
    return float(out[0]) if arr.ndim == 0 else out


# ----------------------------------------------------------------------
# the oscillating family's C^2 closure
# ----------------------------------------------------------------------

# the quintic Hermite blend of 2 + sin(log r) into 2 on [1/2, 1], C^2 at both ends (keeps
# mu in H^2_loc), highest power first, as np.linalg.solve of its 6x6 system gives it
_OSCILLATING_BLEND = np.array([50.9180725220805, -185.30997124709145, 259.08152752920523,
                               -174.56548032587196, 58.535900442091545, -6.660048920413871])


# ----------------------------------------------------------------------
# families
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class WeightFamily:
    """Parametric radial density with analytic log-derivatives.

    Parameters are interpreted per `kind`; irrelevant ones are ignored.  The
    defaults are the Gaussian exp(-r^2) in R^3.  The config's [family]
    section is this class, defaults and rules included.
    """

    kind: Kind = Kind.EXP_POWER
    dimension: int = 3
    b: float = 1.0
    m: float = 2.0
    beta: float = 0.0
    alpha: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "kind", Kind(self.kind))
        # omega_N's Gamma(N/2) overflows a double from N = 344 on
        if int(self.dimension) != self.dimension or not 3 <= self.dimension <= 343:
            raise InvalidParams(f"dimension must be an integer from 3 to 343, got {self.dimension}")
        object.__setattr__(self, "dimension", int(self.dimension))
        if self.kind in (Kind.EXP_POWER, Kind.POWER_EXP_POWER):
            if self.b < 0:
                raise InvalidParams("exponential coefficient b must be >= 0")
            if self.m <= 0:
                raise InvalidParams("exponential power m must be > 0")
            if self.power_order >= self.dimension:
                raise InvalidParams(f"beta must be < dimension for mu to be locally "
                                    f"integrable, got beta={self.beta:g}")

    @property
    def power_order(self) -> float:
        """Exact power-law exponent of mu at the origin (mu ~ r^{-power_order})."""
        return self.beta if self.kind is Kind.POWER_EXP_POWER else 0.0

    @property
    def seams(self) -> Tuple[float, ...]:
        """Radii where the profile switches branches (quadrature split points)."""
        if self.kind in (Kind.LOG_WEIGHT, Kind.OSCILLATING):
            return (0.5, 1.0)
        return ()

    def analytic_N0(self) -> float:
        """Closed-form effective dimension sup{d : r^{-d} in L^1_loc(dmu)}:
        N - beta for the power-singular kind and N for every other."""
        return self.dimension - self.power_order

    def label(self) -> str:
        bits = [self.kind.value, f"N={self.dimension}"]
        if self.kind in (Kind.EXP_POWER, Kind.POWER_EXP_POWER):
            bits.append(f"b={self.b:g}")
            bits.append(f"m={self.m:g}")
        if self.kind is Kind.POWER_EXP_POWER:
            bits.append(f"beta={self.beta:g}")
        if self.kind is Kind.LOG_WEIGHT:
            bits.append(f"alpha={self.alpha:g}")
        return " ".join(bits)


def _check_radius(r):
    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise NonPositiveRadius(f"radius must be positive and finite, got {r!r}")
    return arr


@_quiet_overflow
def eval_mu(family: WeightFamily, r):
    """mu(r) = exp(log_mu(log r)).  Vectorized; scalar in, scalar out.

    For LogWeight/Oscillating beyond r = 1/2 this returns the smooth
    compactly-supported (resp. constant) closure value.
    """
    out = np.exp(log_mu(family, np.log(_check_radius(r))))
    return float(out) if np.ndim(out) == 0 else out


def _log_mu_jet(family: WeightFamily, s: np.ndarray, derivs: bool):
    """g(s) = log mu(e^s) on a 1-d array s, the one definition of mu per
    kind; with `derivs`, the triple (g, g', g'') of s-derivatives.

    g is -inf where mu vanishes (the compact-support closure), and g', g''
    are nan there.
    """
    k = family.kind
    if k is Kind.LEBESGUE:
        return (np.zeros_like(s),) * 3 if derivs else np.zeros_like(s)
    if k in (Kind.EXP_POWER, Kind.POWER_EXP_POWER):
        p, b, m = family.power_order, family.b, family.m
        e = -b * np.exp(np.minimum(m * s, 709.0)) if b else np.zeros_like(s)
        g = e - p * s if p else e
        return (g, m * e - p, m * m * e) if derivs else g
    if k is Kind.LOG_WEIGHT:
        g = np.full_like(s, -np.inf)
        core = s < -1e-15
        sc = s[core]
        g[core] = family.alpha * np.log(-sc)
        if derivs:
            g1, g2 = np.full((2, s.size), np.nan)
            g1[core], g2[core] = family.alpha / sc, -family.alpha / sc**2
        trans = core & (s > LOG_HALF)
        if trans.any():
            w = 2.0 * np.exp(s[trans])       # d/ds of the window coordinate 2r - 1
            t0, t1, t2 = _bump_log(w - 1.0)
            g[trans] += t0
            if derivs:
                g1[trans] += w * t1
                g2[trans] += w * w * t2 + w * t1
        return (g, g1, g2) if derivs else g
    # Kind.OSCILLATING
    near = s <= LOG_HALF
    q = 2.0 + np.sin(s)
    g = np.where(near, np.log(q), np.log(2.0))
    if derivs:
        g1 = np.where(near, np.cos(s) / q, 0.0)
        g2 = np.where(near, (3.0 - 2.0 * q) / q**2, 0.0)
    mid = ~near & (s < 0.0)
    if mid.any():
        p, x = _OSCILLATING_BLEND, np.exp(s[mid])
        p0 = np.polyval(p, x)
        g[mid] = np.log(p0)
        if derivs:
            x1 = x * np.polyval(np.polyder(p), x) / p0
            g1[mid] = x1
            g2[mid] = x1 + x * x * np.polyval(np.polyder(p, 2), x) / p0 - x1 * x1
    return (g, g1, g2) if derivs else g


@_quiet_overflow
def log_mu(family: WeightFamily, s):
    """log mu as a function of s = log r, stable for arbitrarily negative s.

    Returns -inf where mu vanishes (the compact-support closure).  This is
    the quantity the quadrature engine integrates against; it never forms
    r = exp(s), so it remains exact far below the smallest positive float.
    """
    s = np.asarray(s, dtype=float)
    out = _log_mu_jet(family, np.atleast_1d(s), False)
    return float(out[0]) if s.ndim == 0 else out


@_quiet_overflow
def log_derivatives(family: WeightFamily, r):
    """(d1, lap_ratio) = (mu'/mu, Delta mu / mu) at radius r.

    lap_ratio is the radial Laplacian ratio mu''/mu + (N-1)/r * mu'/mu.
    With g(s) = log mu(e^s) these are g'/r and (g'' + (N-2) g' + g'^2)/r^2.
    Where mu vanishes (beyond the LogWeight support) the ratios are
    undefined and returned as nan.
    """
    arr = _check_radius(r)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    _, g1, g2 = _log_mu_jet(family, np.log(arr), True)
    d1 = g1 / arr
    lap = (g2 + (family.dimension - 2.0) * g1 + g1 * g1) / (arr * arr)
    if scalar:
        return float(d1[0]), float(lap[0])
    return d1, lap


# ----------------------------------------------------------------------
# weighted quadrature
# ----------------------------------------------------------------------

# the 10-point Gauss-Legendre rule, as np.polynomial.legendre.leggauss(10)
# gives it; a refinement level evaluates it on both halves of an interval
_QX = np.array([
    -0.9739065285171717, -0.8650633666889845, -0.6794095682990244, -0.4333953941292472,
    -0.14887433898163122, 0.14887433898163122, 0.4333953941292472, 0.6794095682990244,
    0.8650633666889845, 0.9739065285171717])
_QW = np.array([
    0.06667134430868814, 0.1494513491505804, 0.219086362515982, 0.2692667193099965,
    0.2955242247147528, 0.2955242247147528, 0.2692667193099965, 0.219086362515982,
    0.1494513491505804, 0.06667134430868814])
_TOL_SAFETY = 1.0 / 16.0     # estimates are checked against rtol / 16
_INHERIT = 2.0**-16          # share of a parent's estimate its halves carry
_MAX_PENDING = 4096          # sub-intervals one level may refine
_MAX_LEVELS = 100
_STALL_GAIN = 0.75           # a level "gains" when the error sum falls below this
_STALL_LEVELS = 3            # levels without gain before rounding is accepted
_STALL_SHARE = 0.125         # ... if the differences are below this share of the total


def _gauss(F, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The Gauss-Legendre rule on every [lo_i, hi_i], with one call of F.

    F maps the nodes to their values, or to a (k, nodes) stack of k rows of
    values; the rule is applied to each row."""
    half = 0.5 * (hi - lo)
    s = (0.5 * (hi + lo))[:, None] + half[:, None] * _QX
    try:
        vals = F(s.ravel())
    except (ArithmeticError, ValueError) as exc:  # e.g. f refusing r = 0
        raise QuadratureFailure(f"integrand failed: {exc}") from exc
    return (vals.reshape(-1, _QX.size) @ _QW).reshape(*vals.shape[:-1], lo.size) * half


def _quad_block(F, a: float, b: float, rtol: float, pts=()):
    """Adaptive bisection of int_a^b F, every pending interval per F call;
    a float, or one value per member when F returns a stack (see _gauss).

    An interval's estimate is the difference between the rule on it and the
    sum of the rule on its two halves, or 2^-16 of its parent's estimate if
    that is larger: a kink that falls between all the nodes of both rules
    can make the first look converged, but not the parent that straddled it.
    An interval is accepted, at the halves' value, when its estimate is
    below its length share of rtol/16 times the running total; a member
    settles once all its estimates together are below that total tolerance.
    When the sum of a member's pending differences stops falling under
    bisection for three levels, it is resolved to rounding and settles as it
    stands.  In a stack, an interval is accepted when it is so for every
    member that has not settled, and the block stops once every member has.
    Non-finite totals are returned as they are, for the divergence detector.
    """
    edges = np.array([a, *(p for p in pts if a < p < b), b])
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    m = len(lo)
    first = _gauss(F, np.concatenate([lo, lo, mid]), np.concatenate([hi, mid, hi]))
    whole, left, right = first[..., :m], first[..., m:2 * m], first[..., 2 * m:]
    inherited = np.zeros_like(whole)
    done = done_err = 0.0
    prev_err = math.inf
    stalls, settled = 0, False
    for _ in range(_MAX_LEVELS):
        halves = left + right
        diff = np.abs(whole - halves)
        err = np.maximum(diff, inherited)
        total = done + halves.sum(axis=-1)
        if not np.isfinite(total).all():
            return total
        scale = _TOL_SAFETY * rtol * np.abs(total)
        level_diff = diff.sum(axis=-1)
        stalls = np.where(level_diff > _STALL_GAIN * prev_err, stalls + 1, 0)
        settled = settled | (done_err + err.sum(axis=-1) <= scale) | (
            (stalls >= _STALL_LEVELS) & (level_diff <= _STALL_SHARE * np.abs(total)))
        if settled.all():
            return total
        ok = (err <= scale[..., None] * (hi - lo) / (b - a) + 1e-300) | settled[..., None]
        ok = ok.reshape(-1, ok.shape[-1]).all(axis=0)
        done = done + halves[..., ok].sum(axis=-1)
        done_err = done_err + err[..., ok].sum(axis=-1)
        keep = ~ok
        n = 2 * int(keep.sum())
        if n > _MAX_PENDING:
            raise QuadratureFailure(
                f"quadrature did not settle on [{a:g}, {b:g}] within "
                f"{_MAX_PENDING} sub-intervals"
            )
        prev_err = diff[..., keep].sum(axis=-1)
        inherited = np.tile(_INHERIT * err[..., keep], 2)
        lo = np.concatenate([lo[keep], mid[keep]])
        hi = np.concatenate([mid[keep], hi[keep]])
        whole = np.concatenate([left[..., keep], right[..., keep]], axis=-1)
        mid = 0.5 * (lo + hi)
        parts = _gauss(F, np.concatenate([lo, mid]), np.concatenate([mid, hi]))
        left, right = parts[..., :n], parts[..., n:]
    raise QuadratureFailure(
        f"quadrature did not settle on [{a:g}, {b:g}] within {_MAX_LEVELS} levels"
    )


def _log_gamma_inc(a: float, log_x: float, upper: bool) -> float:
    """ln(x^-a Gamma(a, x)) (upper) or ln(x^-a gamma(a, x)) at x = e^log_x,
    with the incomplete gamma functions of DLMF 8.2; the lower one needs a > 0.
    The factor x^-a takes the power that each moment cancels out of the
    logarithm, where it would cost digits.

    gamma sums its series (DLMF 8.7.1) below x = a + 1, and Gamma is its
    continued fraction (DLMF 8.9.2, modified Lentz) above; each is Gamma(a)
    less the other.  Where that would cancel, at a < 1 and x < 1, Gamma is
    Gamma(a, 1) plus int_x^1 t^{a-1} e^{-t} dt term by term, each term
    scaled by x^-min(a, 0) so that none overflows.  Every loop stops on a
    nan, the fraction (2 sqrt(a) terms at x = a + 1) at 10^5.
    """
    x = math.exp(min(log_x, 709.0))
    if upper and x < 1.0 and a < 1.0:
        shift = min(a, 0.0) * log_x
        total = math.exp(_log_gamma_inc(a, 0.0, True) - shift)
        term, n, fact = math.inf, 0, 1.0
        while term > 1e-17 * total:
            c = a + n  # int_x^1 t^{c-1} dt = (1 - x^c)/c
            scale = math.exp(min(c, 0.0) * log_x - shift)
            term = scale * (-math.expm1(-abs(c * log_x)) / abs(c) if c else -log_x) / fact
            total += -term if n % 2 else term
            n += 1
            fact *= n
        return math.log(total) + shift - a * log_x
    if x < a + 1.0 and (a >= 1.0 or not upper):
        term = total = 1.0 / a
        n, got_upper = 0, False
        while term > 1e-17 * total:
            n += 1
            term *= x / (a + n)
            total += term
    else:
        b = x + 1.0 - a
        c, d = 1e300, 1.0 / b
        total, delta, n, got_upper = d, 0.0, 0, True
        while abs(delta - 1.0) > 1e-15 and n < 100_000:
            n += 1
            an = -n * (n - a)
            b += 2.0
            d = 1.0 / (an * d + b)
            c = b + an / c
            delta = d * c
            total *= delta
    log_g = math.log(total) - x
    if got_upper == upper:
        return log_g
    log_full = math.lgamma(a) - a * log_x  # ln(x^-a Gamma(a))
    return log_full + math.log1p(-math.exp(log_g - log_full))


def _log_moment(family: WeightFamily, q: float, s: float) -> float:
    """ln int_{-oo}^s e^{q t} mu(e^t) dt below the kind's first seam, with
    mu's r^{-beta} folded into q = N + power - beta (see the module
    docstring); raises DivergentIntegral exactly when it diverges."""
    k = family.kind
    if k is Kind.LOG_WEIGHT:
        a = family.alpha + 1.0
        if q > 0.0:  # q^-a Gamma(a, x) = log(1/r)^a x^-a Gamma(a, x), x = q log(1/r)
            return a * math.log(-s) + _log_gamma_inc(a, math.log(q) + math.log(-s), True)
        if q == 0.0 and a < 0.0:
            return a * math.log(-s) - math.log(-a)
    elif q > 0.0:
        if k is Kind.OSCILLATING:
            return q * s + math.log(2.0 / q + (q * math.sin(s) - math.cos(s)) / (q * q + 1.0))
        if k is Kind.LEBESGUE or family.b == 0.0:
            return q * s - math.log(q)
        # b^-a gamma(a, x) / m = r^q x^-a gamma(a, x) / m, a = q/m, x = b r^m
        b, m = family.b, family.m
        return q * s - math.log(m) + _log_gamma_inc(q / m, math.log(b) + m * s, False)
    raise DivergentIntegral(
        f"{family.label()}: the moment diverges toward r = 0 (N + power - beta = {q:g})")


def _moment_to_seam(family: WeightFamily, power: float, s_hi: float):
    """(omega_N int_0^r r^power dmu, log r) for r = e^s_hi, or the kind's first
    seam if that lies below it: the closed-form part of a pure moment from 0.
    Its DivergentIntegral is exact, and a moment past the double range
    raises it too."""
    s_cf = min(s_hi, LOG_HALF) if family.seams else s_hi
    lm = _log_moment(family, family.dimension + power - family.power_order, s_cf)
    omega = surface_measure(family.dimension)
    try:  # omega stays out of the exponent unless the moment alone overflows
        value = omega * math.exp(lm) if lm < 709.0 else math.exp(lm + math.log(omega))
    except OverflowError:
        raise DivergentIntegral(f"{family.label()}: the moment exceeds a double") from None
    return value, s_cf


@_quiet_overflow
def weighted_integral(
    family: WeightFamily,
    f: Optional[Callable] = None,
    r_lo: float = 0.0,
    r_hi: float = 1.0,
    *,
    power=0.0,
    rtol: float = 1e-10,
):
    """omega_N * int_{r_lo}^{r_hi} f(r) r^power mu(r) r^{N-1} dr.

    `f` must be bounded on (r_lo, r_hi] and map an array of radii to an
    array (or a scalar); it is called once per refinement level, only at the
    nodes where the rest of the integrand does not underflow (possibly
    none).  Put any singular power-law factor into `power`, where it is
    folded into the log-axis exponent and stays exact at arbitrarily small
    radii.  With f=None the integrand is r^power alone.

    A stack of k integrands over one range is one call, and returns an
    array of k values: either `f` maps the radii to a (k, radii) array, or,
    with f=None, `power` is a 1-d array of k powers.  The stack shares every
    node (see _quad_block); a DivergentIntegral of one member is raised for
    the stack.

    A pure moment (f=None) from r_lo = 0 is closed-form (see the module
    docstring), and its DivergentIntegral, the integrability probe of the
    effective dimension estimator, is exact; one past the double range
    raises it too.  With a callable it means that the tail blocks toward
    r_lo = 0 overflowed or did not settle.
    """
    if r_lo < 0.0 or r_hi <= r_lo:
        raise InvalidParams(f"bad integration range ({r_lo}, {r_hi})")
    power = np.asarray(power, dtype=float)
    if power.ndim and f is not None:
        raise InvalidParams("a stack of powers takes f=None")
    N = family.dimension
    # mu's power law joins r^{N + power} before the product with s: two
    # separate s-products would cancel to rounding noise deep in the tail
    p0 = family.power_order
    smooth = replace(family, beta=0.0) if p0 else family
    total_pow = (N + power - p0)[..., None]   # one row per member of a power stack

    def F(s: np.ndarray, shift) -> np.ndarray:
        e = log_mu(smooth, s) + total_pow * s - shift
        out = np.zeros_like(e)
        live = ~(e < _EXP_UNDERFLOW)   # -inf where mu vanishes; nan stays
        out[live] = np.exp(e[live])
        if f is None:
            return out
        sl = s[live]
        vals = f(np.where(sl > -700.0, np.exp(sl), 0.0))
        if np.ndim(vals) < 2:
            out[live] *= vals
            return out
        stack = np.zeros((len(vals), s.size))
        stack[:, live] = out[live] * vals
        return stack

    pts = [math.log(p) for p in family.seams if r_lo < p < r_hi]

    def block(a: float, b: float):
        # each member lifted to e^_LIFT_TOP and no higher (see the module
        # docstring), so that no later node overflows; the top is read from the
        # weight alone, at the end points and the nodes of the first rule
        s = np.concatenate([[a, b], 0.5 * (a + b) + 0.5 * (b - a) * _QX])
        tops = np.max(log_mu(smooth, s) + total_pow * s, axis=-1)
        shift = np.where((-math.inf < tops) & (tops < _LIFT_TOP), tops - _LIFT_TOP, 0.0)
        # math.exp, as a single integrand is scaled: np.exp may round otherwise
        lift = np.array([math.exp(x) for x in shift.ravel()]).reshape(shift.shape)
        return lift * _quad_block(lambda t: F(t, shift[..., None]), a, b, rtol, pts)

    def value(v):
        return float(v) if np.ndim(v) == 0 else v

    s_hi = math.log(r_hi)
    omega = surface_measure(N)
    if r_lo > 0.0:
        return value(omega * block(math.log(r_lo), s_hi))

    if f is None:
        moments = [_moment_to_seam(family, p, s_hi) for p in power.ravel()]
        s_cf = moments[0][1]
        closed = np.array([v for v, _ in moments]).reshape(power.shape)
        return value(closed + omega * block(s_cf, s_hi) if s_hi > s_cf else closed)

    # blocks doubling toward s = -oo; a divergent tail overflows, or its blocks
    # never shrink.  None is weighed against the first: the outer blocks of
    # exp(-2000 r^2) carry 1e-100 of the total, and growth past them is no
    # blow-up.  A stack stops once each member has settled.
    acc = 0.0
    small = 0
    settled = False
    lo_off, hi_off = 1.0, 0.0
    for j in range(_MAX_TAIL_BLOCKS):
        v = block(s_hi - lo_off, s_hi - hi_off)
        if not np.isfinite(v).all():
            raise DivergentIntegral(f"integrand blows up toward 0 (block {j})")
        acc = acc + v
        small = np.where(np.abs(v) <= rtol * np.abs(acc) + 1e-300, small + 1, 0)
        settled = settled | ((small >= 2) & (j >= 3))
        if settled.all():
            return value(omega * acc)
        hi_off = lo_off
        lo_off *= 2.0
    raise DivergentIntegral("tail contributions refuse to settle toward r = 0")


# ----------------------------------------------------------------------
# grids and element quadrature for the discretized operators
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RadialGrid:
    """Geometric grid r_i = r_min * rho^i on [r_min, r_max].

    The origin is excluded by construction; the singularity is never
    evaluated.  This class states every grid rule: the config's [grid] and
    [evolution] grids and each spectral ladder rung are instances of it.
    """

    r_min: float = 1e-5
    r_max: float = 20.0
    n_points: int = 256

    def __post_init__(self):
        if not 0.0 < self.r_min < self.r_max < math.inf:
            raise InvalidParams(
                f"r_min = {self.r_min}, r_max = {self.r_max} need 0 < r_min < r_max < inf")
        if self.r_min < np.finfo(float).tiny:
            raise InvalidParams(f"r_min = {self.r_min} must be a normal double, "
                                f">= {np.finfo(float).tiny:.3g}")
        if not 16 <= self.n_points <= MAX_NODES:
            raise InvalidParams(f"n_points = {self.n_points} must lie in [16, {MAX_NODES}]")

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.geomspace(self.r_min, self.r_max, self.n_points)


# the 12-point rule, as np.polynomial.legendre.leggauss(12) gives it
_GL_X = np.array([
    -0.9815606342467192, -0.9041172563704748, -0.7699026741943047, -0.5873179542866175,
    -0.3678314989981802, -0.1252334085114689, 0.1252334085114689, 0.3678314989981802,
    0.5873179542866175, 0.7699026741943047, 0.9041172563704748, 0.9815606342467192])
_GL_W = np.array([
    0.04717533638651141, 0.10693932599531907, 0.16007832854334642, 0.20316742672306573,
    0.2334925365383546, 0.2491470458134027, 0.2491470458134027, 0.2334925365383546,
    0.20316742672306573, 0.16007832854334642, 0.10693932599531907, 0.04717533638651141])
_GL_X1, _GL_W2 = _GL_X + 1.0, _GL_W / 2.0
_ELEMENT_BLOCK = 256  # elements per block: each 12-point temporary is 24 KiB


class ElementIntegrals(NamedTuple):
    """Per-element integrals of hat-function products against dmu.

    With psi_L, psi_R the linear hats on element [r_k, r_{k+1}]:
      mass      int mu r^{N-1}
      mass_l/r  int psi_{L/R} mu r^{N-1}
      hardy_*   int psi psi / r^2 mu r^{N-1}
    All entries carry the omega_N surface factor.
    """

    h: np.ndarray
    mass: np.ndarray
    mass_l: np.ndarray
    mass_r: np.ndarray
    hardy_ll: np.ndarray
    hardy_lr: np.ndarray
    hardy_rr: np.ndarray


@_quiet_overflow
def hat_element_integrals(family: WeightFamily, nodes: np.ndarray) -> ElementIntegrals:
    """Fixed-order Gauss-Legendre element integrals (12 points/element).

    Elements of a geometric grid are narrow relative to their distance from
    the origin, so degree-12 quadrature of hat products against the smooth
    weight is exact to well below 1e-12 relative.

    The elements are walked in blocks of _ELEMENT_BLOCK, and each block's
    seven rows are written into one preallocated (7, n - 1) array, whose
    rows are the returned fields.  A block's 12-point temporaries stay in
    cache, and peak memory is the output plus one block, where evaluating
    all elements at once held about 91 doubles per node (730 MiB at 2^20
    nodes).  Every element keeps the one-shot arithmetic, 12-term row sums
    included, so the integrals do not depend on the block size to the bit.
    """
    dim = family.dimension
    omega = surface_measure(dim)
    m = len(nodes) - 1
    out = np.empty((7, m))
    np.subtract(nodes[1:], nodes[:-1], out=out[0])
    for a in range(0, m, _ELEMENT_BLOCK):
        b = min(a + _ELEMENT_BLOCK, m)
        h = out[0, a:b, None]
        rl, rr = nodes[a:b, None], nodes[a + 1:b + 1, None]
        x = rl + h * _GL_X1 / 2.0
        base = eval_mu(family, x.ravel()).reshape(x.shape) * x ** (dim - 1) * (h * _GL_W2)
        base *= omega
        if not np.all(np.isfinite(base)):
            raise QuadratureFailure("weight not finite on the grid")
        psl = (rr - x) / h
        psr = (x - rl) / h
        inv_r2 = 1.0 / (x * x)
        bl, br = base * psl, base * psr
        for row, terms in enumerate((base, bl, br, bl * psl * inv_r2,
                                     bl * psr * inv_r2, br * psr * inv_r2), 1):
            terms.sum(axis=1, out=out[row, a:b])
    return ElementIntegrals(*out)


# ----------------------------------------------------------------------
# smooth radial bumps (shared test functions)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RadialBump:
    """Smooth bump supported on (lo, hi), normalized to 1 at the center.

    The bump template exp(1 - 1/(1 - s^2)) in the mapped coordinate
    s = (2r - lo - hi)/(hi - lo).  For lo = 0 it is the symmetric bump on
    (-hi, hi), i.e. s = r/hi, smooth as a function of x in R^N.
    """

    lo: float
    hi: float

    def __post_init__(self):
        if not 0.0 <= self.lo < self.hi < math.inf:
            raise InvalidParams(f"bump support ({self.lo}, {self.hi}) needs 0 <= lo < hi < inf")

    def _profile(self, r):
        """(scalar input?, value, d log value / dr), zero outside (lo, hi)."""
        arr = np.asarray(r, dtype=float)
        lo = -self.hi if self.lo == 0.0 else self.lo
        half = 0.5 * (self.hi - lo)
        s = np.atleast_1d(arr - (self.hi - half)) / half
        val = np.zeros_like(s)
        dlog = np.zeros_like(s)
        inside = np.abs(s) < 1.0
        log_t, d1, _ = _bump_log(s[inside])
        val[inside] = np.exp(log_t)
        dlog[inside] = d1 / half
        return arr.ndim == 0, val, dlog

    def __call__(self, r):
        scalar, val, _ = self._profile(r)
        return float(val[0]) if scalar else val

    def deriv(self, r):
        scalar, val, dlog = self._profile(r)
        out = val * dlog
        return float(out[0]) if scalar else out
