import json
import math

import numpy as np
import pytest
from scipy.linalg import solve_banded, solveh_banded
from scipy.linalg.lapack import dgttrf, dgttrs, dpttrf, dpttrs

from hardykit import (
    Kind,
    RadialGrid,
    WeightFamily,
    dichotomy_verdict,
    evolution,
    fit_envelope,
    lapack,
    run_capped,
)
from hardykit.config import EvolutionConfig
from hardykit.errors import DegenerateSeries, NegativeDatum, SchemeDivergence
from hardykit.evolution import _implicit_euler
from hardykit.spectral import grid_parts
from hardykit.weights import RadialBump

GRID = RadialGrid(1e-4, 8.0, 384)
BUMP = RadialBump(0.25, 1.0)


def _dt_eff(T, dt, records, cap):
    """(dt_eff, per_rec) as run_capped snaps them at the default safety 0.5."""
    dt_eff = min(dt, 0.5 / cap)
    per_rec = max(1, math.ceil(T / records / dt_eff))
    return T / records / per_rec, per_rec


def _unscaled(family, grid, c, cap, dt):
    """(r, W, (dl, d, du)): the non-symmetric implicit-Euler matrix
    I - dt (A + V_cap), A = -W^{-1} K, that the stepper once factored with
    pivoting, built directly from the spectral grid parts."""
    nodes, K, _, W = grid_parts(family, grid)
    r = nodes[1:-1]
    V = np.minimum(c / r**2, cap)
    return r, W, (dt * K.off / W[1:], 1.0 + dt * K.diag / W - dt * V, dt * K.off / W[:-1])


def _weighted_norms(u, step, W, records, per_rec):
    """sqrt(W u.u) at t = 0 and after each record of per_rec steps."""
    norm = lambda u: math.sqrt(float(W @ (u * u)))
    norms = [norm(u)]
    for _ in range(records):
        for _ in range(per_rec):
            u = step(u)
        norms.append(norm(u))
    return np.asarray(norms)


def _stepped(family, grid, c, cap, T, dt, records):
    """(norms, min_value, dt_eff) of the plain loop, one solveh_banded per
    step on the scaled symmetric matrix S, stepping y = sqrt(W) u from BUMP."""
    dt_eff, per_rec = _dt_eff(T, dt, records, cap)
    r, sqrt_w, (d, e) = _implicit_euler(family, grid, c, cap, dt_eff)
    ab = np.zeros((2, len(d)))
    ab[0, 1:], ab[1] = e, d
    norm = lambda y: math.sqrt(float(y @ y))
    u = BUMP(r)
    y = sqrt_w * u
    norms, min_value = [norm(y)], float(u.min())
    for _ in range(records):
        for _ in range(per_rec):
            y = solveh_banded(ab, y, check_finite=False)
        min_value = min(min_value, float((y / sqrt_w).min()))
        norms.append(norm(y))
    return np.asarray(norms), min_value, dt_eff


class TestRunCapped:
    def test_no_potential_is_dissipative(self, exppow3, leb3):
        for fam in (exppow3, leb3):
            s = run_capped(fam, 0.0, 1.0, BUMP, T=1.0, dt=1e-2, grid=GRID, records=16)
            assert (np.diff(s.norms) <= 1e-12 * s.norms[0]).all()

    def test_positivity_preserved(self, exppow3, monkeypatch):
        # stepped, as only stepping observes grid values (a one-vector basis
        # never settles)
        monkeypatch.setattr(evolution, "_KRYLOV_BASIS", 1)
        for cap in (1e2, 1e3):
            s = run_capped(exppow3, 0.3, cap, BUMP, T=0.5, dt=1e-2, grid=GRID, records=16)
            assert s.path == "steps"
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

    def test_flux_form_conserves_on_interior_rows(self, exppow3):
        # c = 0: every flux leaving a cell enters its neighbour, so the
        # stiffness rows away from the Dirichlet ends sum to zero
        _, K, _, _ = grid_parts(exppow3, RadialGrid(1e-8, 8.0, 512))
        row_sums = K.matvec(np.ones(K.n))
        assert np.all(np.abs(row_sums[1:-1]) <= 1e-12 * K.diag[1:-1])

    @pytest.mark.parametrize("cap", [1e2, 1e4])
    def test_factored_steps_match_banded_solve_bitwise(self, exppow3, cap, monkeypatch):
        # a one-vector basis never settles (two successive bases must agree),
        # so the run is stepped; oracle: the plain solveh_banded loop on S
        monkeypatch.setattr(evolution, "_KRYLOV_BASIS", 1)
        T, dt, records = 0.05, 1e-3, 8
        s = run_capped(exppow3, 0.3, cap, BUMP, T=T, dt=dt, grid=GRID, records=records)
        norms, min_value, dt_eff = _stepped(exppow3, GRID, 0.3, cap, T, dt, records)
        assert s.path == "steps"
        assert np.array_equal(s.norms, norms)
        assert s.dt == dt_eff
        assert s.min_value == min_value

    @pytest.mark.parametrize("cap", [1e2, 1e4])
    def test_symmetric_steps_match_unscaled_banded_solve(self, exppow3, cap):
        # the scaled LDL^T stepping against the plain solve_banded loop on
        # the unscaled matrix I - dt (A + V_cap): the same scheme, rounded
        # differently
        T, dt, records = 0.05, 1e-3, 8
        s = run_capped(exppow3, 0.3, cap, BUMP, T=T, dt=dt, grid=GRID, records=records)
        dt_eff, per_rec = _dt_eff(T, dt, records, cap)
        r, W, (dl, d, du) = _unscaled(exppow3, GRID, 0.3, cap, dt_eff)
        ab = np.zeros((3, len(d)))
        ab[0, 1:], ab[1], ab[2, :-1] = du, d, dl
        step = lambda u: solve_banded((1, 1), ab, u, check_finite=False)
        norms = _weighted_norms(BUMP(r), step, W, records, per_rec)
        assert len(r) == 382
        assert np.max(np.abs(s.norms / norms - 1.0)) <= 1e-13

    def test_singular_matrix_is_scheme_divergence(self, exppow3, monkeypatch):
        # feed pttrf a matrix that is not positive definite (negated diagonal)
        real = evolution.dpttrf
        monkeypatch.setattr(evolution, "dpttrf", lambda d, e: real(-d, e))
        with pytest.raises(SchemeDivergence, match="singular"):
            run_capped(exppow3, 0.2, 10.0, BUMP, T=0.1, dt=1e-2, grid=GRID)

    def test_factors_at_the_safety_edge(self, exppow3, monkeypatch):
        # dt * cap = 0.99: the scaled matrix is still positive definite and
        # inverse-positive, so pttrf succeeds and positivity is kept
        infos = []
        real = evolution.dpttrf

        def factor(d, e):
            factors = real(d, e)
            infos.append(factors[2])
            return factors

        monkeypatch.setattr(evolution, "dpttrf", factor)
        monkeypatch.setattr(evolution, "_KRYLOV_BASIS", 1)  # stepped, so min_value is observed
        s = run_capped(exppow3, 0.3, 1e4, BUMP, T=0.05, dt=1.0, grid=GRID, records=8,
                       cap_dt_safety=0.99)
        assert infos[0] == 0  # S; the later calls factor the Krylov shift M
        assert 0.97 < s.dt * 1e4 <= 0.99
        assert s.path == "steps"
        assert s.min_value >= 0.0

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


class TestPropagatorPath:
    """The Krylov path: every record S^{-k} y0 read from one Lanczos basis."""

    @pytest.mark.parametrize("family,grid,c,T,dt,records,cap", [
        # the default evolve grid, coupling and times
        pytest.param("exppow3", RadialGrid(1e-4, 8.0, 512), 0.2, 8.0, 0.01, 64, 1e3, id="1000.0"),
        pytest.param("exppow3", RadialGrid(1e-4, 8.0, 512), 0.2, 8.0, 0.01, 64, 1e4,
                     id="10000.0"),
        # the short runs test_factored_steps_match_banded_solve_bitwise steps
        pytest.param("exppow3", GRID, 0.3, 0.05, 1e-3, 8, 1e2, id="short-100.0"),
        pytest.param("exppow3", GRID, 0.3, 0.05, 1e-3, 8, 1e4, id="short-10000.0"),
        # one cap for each other built-in family; theta closes log_weight at r = 1
        *(pytest.param(family, RadialGrid(1e-4, r_max, 128), 0.4, 2.0, 0.01, 16, 1e3, id=family)
          for family, r_max in [("pexp4", 8.0), ("leb3", 8.0), ("logw_pos", 0.9),
                                ("oscillating", 8.0)]),
    ])
    def test_propagator_matches_stepping(self, request, family, grid, c, T, dt, records, cap):
        # the oracle is the plain loop of pivoted gttrs steps on the
        # unscaled matrix
        fam = request.getfixturevalue(family)
        s = run_capped(fam, c, cap, BUMP, T=T, dt=dt, grid=grid, records=records)
        dt_eff, per_rec = _dt_eff(T, dt, records, cap)
        r, W, diagonals = _unscaled(fam, grid, c, cap, dt_eff)
        dl, d, du, du2, ipiv, _ = dgttrf(*diagonals)
        step = lambda u: dgttrs(dl, d, du, du2, ipiv, u)[0]
        norms = _weighted_norms(BUMP(r), step, W, records, per_rec)
        assert s.path == "krylov"
        assert np.max(np.abs(s.norms / norms - 1.0)) <= 1e-11
        assert s.dt == dt_eff
        assert s.min_value >= 0.0

    @pytest.mark.parametrize("c", [0.2, 0.5])
    def test_refine_evolve_matches_stepping(self, exppow3, c):
        # the bench's n = 8192 evolve (8190 unknowns), existence and blowup
        # couplings, against the plain pttrs loop on the same scaled matrix
        grid = RadialGrid(1e-4, 8.0, 8192)
        T, dt, records = 8.0, 0.01, 64
        for cap in (10.0, 100.0, 1000.0):
            s = run_capped(exppow3, c, cap, BUMP, T=T, dt=dt, grid=grid, records=records)
            dt_eff, per_rec = _dt_eff(T, dt, records, cap)
            r, sqrt_w, diagonals = _implicit_euler(exppow3, grid, c, cap, dt_eff)
            d, e, _ = dpttrf(*diagonals)
            step = lambda u: dpttrs(d, e, u)[0]
            norms = _weighted_norms(sqrt_w * BUMP(r), step, np.ones_like(r), records, per_rec)
            assert s.path == "krylov"
            assert np.max(np.abs(s.norms / norms - 1.0)) <= 1e-8
            assert s.min_value == 0.0

    def test_shift_halved_until_positive_definite(self, exppow3, monkeypatch):
        # c = 0.5, cap 1e4 grows at omega ~ 8: M = I + gamma A with the record
        # spacing gamma = 0.25 is indefinite, gamma / 2 is not
        kwargs = dict(T=2.0, dt=0.01, grid=GRID, records=8)
        infos = []
        real = evolution.dpttrf
        monkeypatch.setattr(evolution, "dpttrf",
                            lambda d, e: infos.append(real(d, e)) or infos[-1])
        s = run_capped(exppow3, 0.5, 1e4, BUMP, **kwargs)
        assert [info == 0 for *_, info in infos] == [True, False, True]
        monkeypatch.setattr(evolution, "_KRYLOV_BASIS", 1)
        stepped = run_capped(exppow3, 0.5, 1e4, BUMP, **kwargs)
        assert (s.path, stepped.path) == ("krylov", "steps")
        assert np.max(np.abs(s.norms / stepped.norms - 1.0)) <= 1e-10

    def test_basis_cap_falls_back_to_stepping_bitwise(self, exppow3, monkeypatch):
        grid = RadialGrid(1e-4, 8.0, 512)
        monkeypatch.setattr(evolution, "_KRYLOV_BASIS", 4)
        s = run_capped(exppow3, 0.2, 1e3, BUMP, T=8.0, dt=0.01, grid=grid, records=64)
        norms, min_value, _ = _stepped(exppow3, grid, 0.2, 1e3, 8.0, 0.01, 64)
        assert s.path == "steps"
        assert np.array_equal(s.norms, norms)
        assert s.min_value == min_value

    @pytest.mark.parametrize("n_points", [384, 2048])
    def test_unsettled_basis_falls_back_to_stepping_bitwise(self, oscillating, n_points):
        # a real input whose basis does not settle within _KRYLOV_BASIS
        # vectors: its first record never agrees between successive bases
        grid = RadialGrid(1e-4, 8.0, n_points)
        s = run_capped(oscillating, 2.0, 1e4, BUMP, T=0.05, dt=0.01, grid=grid, records=8)
        norms, min_value, dt_eff = _stepped(oscillating, grid, 2.0, 1e4, 0.05, 0.01, 8)
        assert s.path == "steps"
        assert np.array_equal(s.norms, norms)
        assert (s.min_value, s.dt) == (min_value, dt_eff)

    @pytest.mark.parametrize("n_points,c,T,records,path", [
        (16, 0.2, 1.0, 16, "krylov"),  # settles inside the space
        (16, 0.5, 1.0, 16, "steps"),   # grows to the whole space without settling
        (17, 1.2, 0.05, 8, "steps"),
    ])
    def test_basis_never_outgrows_the_space(self, oscillating, monkeypatch,
                                            n_points, c, T, records, path):
        sizes = []
        real = lapack.dstev

        def dstev(d, e):
            sizes.append(len(d))
            return real(d, e)

        monkeypatch.setattr(lapack, "dstev", dstev)
        grid = RadialGrid(1e-4, 8.0, n_points)
        s = run_capped(oscillating, c, 1e4, BUMP, T=T, dt=0.01, grid=grid, records=records)
        assert s.path == path
        assert max(sizes) <= n_points - 2
        assert (max(sizes) == n_points - 2) is (path == "steps")

    def test_overflowing_norms_are_scheme_divergence(self, exppow3, monkeypatch):
        # the norms leave the double range before T = 8 (c = 50 grows like
        # e^{hundreds * t}).  An early basis underestimates the growth and
        # overflows later (at t = 3 and t = 7 here), so a basis whose records
        # overflow hands the cap to stepping: both paths name the record
        # where the stepped norm overflows
        pexp3 = WeightFamily(Kind.POWER_EXP_POWER, 3, b=1.0, m=2.0, beta=1.0)
        cases = [(exppow3, 50.0, 1e3, GRID, 8, "t=1"),
                 (pexp3, 1.2, 1e4, RadialGrid(1e-4, 8.0, 64), 64, "t=0.25")]
        default = evolution._KRYLOV_BASIS
        for family, c, cap, grid, records, t in cases:
            kwargs = dict(T=8.0, dt=0.01, grid=grid, records=records)
            messages = []
            for basis in (default, 1):  # a one-vector basis never settles, so it steps
                monkeypatch.setattr(evolution, "_KRYLOV_BASIS", basis)
                with pytest.raises(SchemeDivergence) as exc:
                    run_capped(family, c, cap, BUMP, **kwargs)
                messages.append(str(exc.value))
            assert messages == [f"non-finite norm at {t}"] * 2

    def test_path_is_reported_but_not_written(self, exppow3):
        # every cap's basis settles, and on the Krylov path min_value is the
        # datum's minimum
        run = dichotomy_verdict(exppow3, 0.2, _knobs())
        assert [s.path for s in run.series] == ["krylov", "krylov", "krylov"]
        assert all(s.min_value == float(BUMP(GRID.nodes[1:-1]).min()) for s in run.series)
        assert "path" not in json.dumps(run.to_json_dict())


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

    def test_times_whose_squares_underflow_are_degenerate(self):
        # once every t^2 underflows (T = 1e-162) a rate in units of 1/T would
        # square past the double range, so the series is refused; at T = 1e-161
        # the line fit reads a finite rate
        assert np.isfinite(fit_envelope(np.linspace(0.0, 1e-161, 16), np.ones(16)).omega)
        with pytest.raises(DegenerateSeries, match="t\\^2 underflows"):
            fit_envelope(np.linspace(0.0, 1e-162, 16), np.ones(16))

    def test_norms_flat_to_rounding_are_degenerate(self):
        # the fit's intercept leaks the log-norms' rounding into omega, scaled
        # by 1/T: log-norms that spread by less than _FIT_ROUNDING ulps of
        # their size carry no rate
        with pytest.raises(DegenerateSeries, match="within rounding of their size"):
            fit_envelope(np.linspace(0.0, 1e-150, 16), np.full(16, 1.5))
        # a rate of 1e-13 over T = 1 moves the fitted half's log-norms by about
        # 30 times that bound, and the fit reads it
        t = np.linspace(0.0, 1.0, 16)
        logs = np.log(1.5 * np.exp(1e-13 * t))[8:]
        assert np.ptp(logs) > 16 * evolution._FIT_ROUNDING * np.finfo(float).eps * logs.max()
        assert fit_envelope(t, 1.5 * np.exp(1e-13 * t)).omega == pytest.approx(1e-13, rel=0.1)


def _knobs(**changes):
    """The cap ladder the cross-check tests run: caps 10..1000, T = 1, on GRID."""
    return EvolutionConfig(caps=(10.0, 100.0, 1000.0), T=1.0, r_min=GRID.r_min,
                           r_max=GRID.r_max, n_points=GRID.n_points, **changes)


class TestDichotomyCrossCheck:
    def test_existence_agrees_with_a_bounded_ladder(self, exppow3):
        run = dichotomy_verdict(exppow3, 0.2, _knobs())
        assert run.verdict == "ExistenceSignature"
        assert run.spectral_verdict == "Bounded"
        assert run.agrees is True

    def test_inconclusive_agrees_with_a_diverging_ladder(self, exppow3):
        run = dichotomy_verdict(exppow3, 0.35, _knobs())
        assert run.verdict == "Inconclusive"
        assert run.spectral_verdict == "Diverging"
        assert run.agrees is True
