import math

import numpy as np
import pytest
from scipy.linalg import solve_banded

from hardykit import RadialGrid, evolution, fit_envelope, run_capped
from hardykit.errors import DegenerateSeries, NegativeDatum, SchemeDivergence
from hardykit.evolution import _Stepper
from hardykit.weights import RadialBump

GRID = RadialGrid(1e-4, 8.0, 384)
BUMP = RadialBump(0.25, 1.0)


class TestRunCapped:
    def test_no_potential_is_dissipative(self, exppow3, leb3):
        for fam in (exppow3, leb3):
            s = run_capped(fam, 0.0, 1.0, BUMP, T=1.0, dt=1e-2, grid=GRID, records=16)
            assert (np.diff(s.norms) <= 1e-12 * s.norms[0]).all()

    def test_positivity_preserved(self, exppow3):
        for cap in (1e2, 1e3):
            s = run_capped(exppow3, 0.3, cap, BUMP, T=0.5, dt=1e-2, grid=GRID, records=16)
            assert s.min_value >= -1e-12
            assert (s.norms > 0).all()

    def test_cap_monotonicity_matched_dt(self, exppow3):
        # identical dt across caps: the discrete solutions are ordered
        dt = 2e-4  # <= safety/cap for both caps
        lo = run_capped(exppow3, 0.3, 1e2, BUMP, T=0.5, dt=dt, grid=GRID, records=8)
        hi = run_capped(exppow3, 0.3, 1e3, BUMP, T=0.5, dt=dt, grid=GRID, records=8)
        assert lo.dt == hi.dt
        assert (hi.norms >= lo.norms * (1 - 1e-12)).all()

    def test_negative_datum_rejected(self, exppow3):
        bad = lambda r: np.where(np.asarray(r) > 0.5, -1.0, 1.0)
        with pytest.raises(NegativeDatum):
            run_capped(exppow3, 0.2, 10.0, bad, T=0.1, dt=1e-2, grid=GRID)

    def test_mass_conserved_neumann_variant(self, exppow3):
        # c = 0 with no-flux at r_max: d mu is the invariant measure; the
        # only leak is the Dirichlet end at r_min = 1e-8
        grid = RadialGrid(1e-8, 8.0, 512)
        stepper = _Stepper(exppow3, grid, 0.0, 0.0, boundary="neumann_rmax")
        u = BUMP(stepper.r)
        from scipy.linalg import solve_banded
        dt = 1e-3
        ab = stepper.matrix(dt)
        m0 = stepper.mass(u)
        for _ in range(1000):
            u = solve_banded((1, 1), ab, u, check_finite=False)
        m1 = stepper.mass(u)
        assert abs(m1 - m0) <= 1e-6 * m0  # relative drift per unit time

    @pytest.mark.parametrize("cap", [1e2, 1e4])
    def test_factored_steps_match_banded_solve_bitwise(self, exppow3, cap):
        # oracle: the plain loop, one solve_banded per step on the same matrix
        T, dt, records = 0.05, 1e-3, 8
        s = run_capped(exppow3, 0.3, cap, BUMP, T=T, dt=dt, grid=GRID, records=records)
        stepper = _Stepper(exppow3, GRID, 0.3, cap)
        u = BUMP(stepper.r)
        dt_eff = min(dt, 0.5 / cap)
        per_rec = max(1, math.ceil(T / records / dt_eff))
        dt_eff = T / records / per_rec
        ab = stepper.matrix(dt_eff)
        norms, min_value = [stepper.norm(u)], float(u.min())
        for _ in range(records):
            for _ in range(per_rec):
                u = solve_banded((1, 1), ab, u, check_finite=False)
            min_value = min(min_value, float(u.min()))
            norms.append(stepper.norm(u))
        assert np.array_equal(s.norms, np.asarray(norms))
        assert s.dt == dt_eff
        assert s.min_value == min_value

    def test_singular_matrix_is_scheme_divergence(self, exppow3, monkeypatch):
        # feed gttrf an exactly singular matrix (zero diagonal and superdiagonal)
        real = evolution.dgttrf
        monkeypatch.setattr(evolution, "dgttrf",
                            lambda dl, d, du: real(dl, 0.0 * d, 0.0 * du))
        with pytest.raises(SchemeDivergence, match="singular"):
            run_capped(exppow3, 0.2, 10.0, BUMP, T=0.1, dt=1e-2, grid=GRID)

    def test_dt_clamped_by_cap(self, exppow3):
        s = run_capped(exppow3, 0.3, 1e4, BUMP, T=0.1, dt=1.0, grid=GRID, records=8)
        assert s.dt <= 0.5 / 1e4 * (1 + 1e-12)

    def test_norms_cauchy_in_cap_at_small_time(self, exppow3):
        # subcritical coupling: the capped solutions converge as the cap
        # grows; at t = 0.1 the top two caps agree to within a percent
        norms = {}
        for cap in (1e3, 1e4):
            s = run_capped(exppow3, 0.2, cap, BUMP, T=0.2, dt=1e-2, grid=GRID,
                           records=2)
            norms[cap] = s.norms[1]
        assert abs(norms[1e4] / norms[1e3] - 1.0) < 0.01


class TestFitEnvelope:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 3.0, 32)
        env = fit_envelope(t, np.exp(2.0 * t))
        assert env.omega == pytest.approx(2.0, abs=1e-9)
        assert env.M == pytest.approx(1.0, abs=1e-9)

    def test_dissipative_omega_nonpositive(self, exppow3):
        s = run_capped(exppow3, 0.0, 1.0, BUMP, T=2.0, dt=1e-2, grid=GRID, records=16)
        env = fit_envelope(s.times, s.norms)
        assert env.omega <= 1e-8
        assert env.M >= 1.0

    def test_envelope_bound_holds(self, exppow3):
        s = run_capped(exppow3, 0.25, 100.0, BUMP, T=2.0, dt=1e-2, grid=GRID, records=32)
        env = fit_envelope(s.times, s.norms)
        bound = env.M * np.exp(env.omega * s.times) * s.norms[0]
        assert (s.norms <= bound * (1 + 1e-10)).all()

    def test_degenerate_series(self):
        with pytest.raises(DegenerateSeries):
            fit_envelope([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(DegenerateSeries):
            fit_envelope(np.linspace(0, 1, 10), np.array([1.0] * 9 + [0.0]))
