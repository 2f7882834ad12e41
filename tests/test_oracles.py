"""Closed-form oracles for the smallest eigenvalue of -(L + c/|x|^2) on the
radial subspace of [r_min, r_max], Dirichlet at both ends.

With a = (-(N-2) + sqrt((N-2)^2 - 4c)) / 2 the larger root of the indicial
equation a^2 + (N-2) a + c = 0:

- Gaussian weight mu = exp(-|x|^2), L = Delta - 2 x.grad.  u = r^a U(alpha,
  beta, r^2), U Tricomi's Kummer function, alpha = a/2 - lambda/4 and
  beta = a + N/2, solves the radial equation with the growth the weighted
  L^2 allows.  lambda is the first zero of U(alpha(lambda), beta, r_min^2)
  above 2a, the eigenvalue without the cut at r_min; r_max = 20 lies
  exp(-400) deep in the tail.
- Flat weight, L = Delta.  u = r^(1-N/2) (J_nu(k r) Y_nu(k r_min) -
  Y_nu(k r) J_nu(k r_min)), nu = sqrt((N-2)^2/4 - c), vanishes at r_min;
  lambda = k^2 for the smallest k > 0 with u(r_max) = 0.

Each test checks the single solve (ground_state) against the oracle on a
refinement in n, with r_min and r_max fixed.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import gamma, hyp1f1, jv, rgamma, yv

from hardykit import RadialGrid, ground_state

R_MIN, R_MAX, C = 1e-5, 20.0, 0.2


def _upper_root(N, c):
    return (-(N - 2) + math.sqrt((N - 2) ** 2 - 4 * c)) / 2


def _kummer_lambda(N, c):
    a = _upper_root(N, c)
    beta, x = a + N / 2, R_MIN**2

    def tricomi(lam):
        # U through the two Kummer M branches (beta is not an integer); the
        # reciprocal gammas keep it smooth through alpha = 0
        alpha = a / 2 - lam / 4
        return (gamma(1 - beta) * rgamma(alpha - beta + 1) * hyp1f1(alpha, beta, x)
                + gamma(beta - 1) * rgamma(alpha) * x ** (1 - beta)
                * hyp1f1(alpha - beta + 1, 2 - beta, x))

    # the next eigenvalue lies near 2a + 4
    return brentq(tricomi, 2 * a, 2 * a + 1, xtol=1e-15)


def _bessel_lambda(N, c):
    nu = math.sqrt((N - 2) ** 2 / 4 - c)

    def cross(k):
        return jv(nu, k * R_MAX) * yv(nu, k * R_MIN) - yv(nu, k * R_MAX) * jv(nu, k * R_MIN)

    ks = np.linspace(1e-3, 1.0, 1000)
    i = np.flatnonzero(np.sign(cross(ks[:-1])) != np.sign(cross(ks[1:])))[0]
    return brentq(cross, ks[i], ks[i + 1], xtol=1e-16) ** 2


def _lambda1(family, n):
    return ground_state(family, C, RadialGrid(R_MIN, R_MAX, n))[0]


def test_gaussian_weight_meets_the_kummer_value(exppow3):
    exact = _kummer_lambda(3, C)
    assert exact == pytest.approx(-0.5470603, abs=1e-7)
    err = [abs(_lambda1(exppow3, n) - exact) for n in (256, 1024, 4096)]
    assert err[1] <= 2e-5
    assert err[0] / err[1] >= 12 and err[1] / err[2] >= 12   # second order: 16 per 4x n


def test_flat_weight_meets_the_bessel_value(leb3):
    exact = _bessel_lambda(3, C)
    assert exact == pytest.approx(0.0188165, abs=1e-7)
    err = [abs(_lambda1(leb3, n) / exact - 1) for n in (256, 2048)]
    assert err[1] <= 1e-4
    assert err[0] / err[1] >= 40    # second order: 64 per 8x n
