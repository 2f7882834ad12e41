import ctypes
import itertools
import math
import re
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal, solve_banded
from scipy.linalg import lapack as scipy_lapack

from hardykit import (
    Kind,
    RadialGrid,
    WeightFamily,
    assemble,
    c0,
    compute_profile,
    critical_sweep,
    ground_state,
    improved_hardy_slack,
    lambda1,
    phi_gamma_ladder,
    quotient_phi_gamma,
    quotient_phi_n,
    weighted_vs_flat_crosscheck,
)
from hardykit.errors import (
    BadBracket,
    HardyKitError,
    InadmissibleGamma,
    InvalidParams,
    NoConvergence,
    NonIntegrableTestFunction,
    UnsupportedFunction,
)
from hardykit import evolution, spectral
from hardykit.spectral import N_GROW, RMIN_SHRINK, RUNGS
from hardykit import lapack as hk_lapack
from hardykit.spectral import phi_n_gamma_bounds, _theta, _theta_deriv
from hardykit.weights import RadialBump, surface_measure

GRID = RadialGrid(1e-5, 20.0, 256)


def shell_oracle_lambda1(N, n):
    """Dense uniform finite-volume solve on the shell [1, 2] (brute force)."""
    r = np.linspace(1.0, 2.0, n)
    h = r[1] - r[0]
    rm = 0.5 * (r[:-1] + r[1:])
    g = rm ** (N - 1) / h
    W = r[1:-1] ** (N - 1) * h
    d = (g[:-1] + g[1:]) / W
    e = -g[1:-1] / (np.sqrt(W[:-1]) * np.sqrt(W[1:]))
    return float(eigh_tridiagonal(d, e, select="i", select_range=(0, 0),
                                  eigvals_only=True)[0])


class TestAssemble:
    def test_stiffness_psd_at_c0(self, leb3):
        A, M = assemble(leb3, 0.0, RadialGrid(0.1, 1.0, 16))
        assert (M > 0).all()
        assert eigh_tridiagonal(A.diag, A.off, select="i", select_range=(0, 0),
                                eigvals_only=True)[0] >= -1e-10

    def test_hardy_block_vanishes_at_c0(self, exppow3):
        g = RadialGrid(1e-3, 10.0, 64)
        A0, _ = assemble(exppow3, 0.0, g)
        A1, _ = assemble(exppow3, 0.5, g)
        # c-dependence is purely the Hardy block
        assert not np.array_equal(A0.diag, A1.diag)
        A0b, _ = assemble(exppow3, 0.0, g)
        assert np.array_equal(A0.diag, A0b.diag)
        assert np.array_equal(A0.off, A0b.off)

    def test_symmetry_shapes(self, exppow3):
        A, M = assemble(exppow3, 0.25, GRID)
        assert A.n == GRID.n_points - 2
        assert len(A.off) == A.n - 1
        assert len(M) == A.n

    @pytest.mark.parametrize("grid, message", [
        (RadialGrid(1e-120, 8.0, 256), "the measure underflows at r_min = 1e-120 -- raise r_min"),
        (RadialGrid(1e-5, 40.0, 256), "the weight underflows before r_max -- shrink the domain"),
        (RadialGrid(1e-107, 8.0, 512), "the measure underflows at r_min = 1e-107 -- raise r_min"),
    ])
    def test_vanished_mass_names_its_end(self, exppow3, grid, message):
        # r^2 dr underflows at 1e-120; exp(-r^2) at 40; at 1e-107 the first
        # masses are subnormal (about 3e-320)
        with pytest.raises(InvalidParams, match=f"lumped mass vanished on the grid; {message}"):
            spectral.grid_parts(exppow3, grid)

    @pytest.mark.parametrize("r_min, ok", [(1e-103, True), (1e-104, False)])
    def test_smallest_normal_mass_is_the_boundary(self, exppow3, r_min, ok):
        # at n = 512 the first lumped mass is 2.97e-308 at r_min = 1e-103 and
        # 3.05e-311 at 1e-104, either side of the smallest normal 2.23e-308
        grid = RadialGrid(r_min, 8.0, 512)
        if ok:
            assert spectral.grid_parts(exppow3, grid)[3][0] >= np.finfo(float).tiny
        else:
            with pytest.raises(InvalidParams, match="raise r_min"):
                spectral.grid_parts(exppow3, grid)


class TestLambda1:
    def test_lebesgue_c0_nonnegative_bounded(self, leb3):
        res = lambda1(leb3, 0.0, GRID)
        assert res.lambda1 >= 0.0
        assert res.verdict == "Bounded"
        assert res.residual < 1e-8

    def test_shell_matches_dense_oracle(self, leb3):
        n = 400
        lam = ground_state(leb3, 0.0, RadialGrid(1.0, 2.0, n))[0]
        want = shell_oracle_lambda1(3, 4 * n)
        assert lam == pytest.approx(want, rel=1e-3)
        # radial Dirichlet eigenvalue of the shell in N=3 is pi^2 exactly
        assert lam == pytest.approx(math.pi**2, rel=1e-3)

    def test_monotone_in_c(self, exppow3):
        lams = [ground_state(exppow3, c, GRID)[0] for c in (0.0, 0.1, 0.2, 0.3)]
        assert all(b <= a + 1e-12 for a, b in zip(lams, lams[1:]))

    def test_domain_monotonicity(self, exppow3):
        small = ground_state(exppow3, 0.1, RadialGrid(1e-3, 10.0, 256))[0]
        large = ground_state(exppow3, 0.1, RadialGrid(1e-4, 20.0, 512))[0]
        assert large <= small + 1e-12

    def test_supercritical_scale_invariance(self, leb3):
        # lambda1 of -u'' - (N-1)/r u' - c/r^2 on [eps, R] scales like 1/eps^2
        lam1_ = ground_state(leb3, 0.5, RadialGrid(1e-3, 20.0, 512))[0]
        lam2_ = ground_state(leb3, 0.5, RadialGrid(2.5e-4, 20.0, 1024))[0]
        assert lam2_ / lam1_ == pytest.approx(16.0, rel=0.01)

    def test_ladder_shape(self, exppow3):
        # at c = 0.2 rungs 0-2 fix the verdict and the deepest rung is not
        # solved; at c = 0.3 they do not, and all RUNGS are
        for c, solved in ((0.2, 3), (0.3, RUNGS)):
            res = lambda1(exppow3, c, GRID)
            assert len(res.ladder) == solved
            r_mins = [row[1] for row in res.ladder]
            ns = [row[0] for row in res.ladder]
            assert r_mins == sorted(r_mins, reverse=True)
            assert ns == sorted(ns)
            assert [(n, r) for n, r, _ in res.ladder] == [
                (g.n_points, g.r_min) for g in spectral.rung_grids(GRID)[:solved]]

    def test_rung_grids(self):
        grid = RadialGrid(1e-5, 20, 256)
        grids = spectral.rung_grids(grid)
        assert grids[0] is grid
        assert [(g.r_min, g.n_points) for g in grids] == [
            (1e-5, 256), (2.5e-6, 512), (6.25e-7, 1024), (1.5625e-7, 2048)]
        assert all(g.r_max == 20 for g in grids)

    def test_out_of_range_rung_raises_before_any_element_integral(self, exppow3, monkeypatch):
        # 2^18 nodes is a valid grid, but its rung 3 would have 2^21 nodes
        def no_call(*args):
            raise AssertionError("an element integral was computed")

        monkeypatch.setattr(spectral, "hat_element_integrals", no_call)
        message = ("rung 3 of the ladder, r_min = 1e-05 / 4^3 and n_points = 262144 * 2^3: "
                   "n_points = 2097152 must lie in [16, 1048576]")
        with pytest.raises(InvalidParams, match=re.escape(message)):
            lambda1(exppow3, 0.2, RadialGrid(n_points=2**18))

    def test_eigensolves_route_through_module_attribute(self, exppow3, monkeypatch):
        # a caller that rebinds spectral.eigh_tridiagonal sees every solve
        want = lambda1(exppow3, 0.2, GRID)
        real = spectral.eigh_tridiagonal
        calls = []

        def counted(d, e, *args, **kwargs):
            calls.append(len(d))
            return real(d, e, *args, **kwargs)

        monkeypatch.setattr(spectral, "eigh_tridiagonal", counted)
        got = lambda1(exppow3, 0.2, GRID)
        assert len(calls) == len(want.ladder) > 0
        assert got.lambda1 == want.lambda1
        assert got.ladder == want.ladder
        assert got.verdict == want.verdict
        assert np.array_equal(got.eigvec, want.eigvec)
        assert callable(evolution.solve_banded)

    @pytest.mark.parametrize("blas_threads", [1, 2, 0])
    @pytest.mark.parametrize("c_scale", [1.0, 2.0])
    @pytest.mark.parametrize("rungs", [RUNGS])
    def test_ladder_matches_serial_solves_bitwise(self, exppow3, monkeypatch, rungs, c_scale,
                                                  blas_threads):
        # whatever the BLAS thread count (0 leaves it as it stands), every
        # rung is solved on the calling thread, and the ladder must read
        # exactly the first rows of a plain loop over all RUNGS = 4 rungs,
        # with that loop's verdict.  c = 0.15 lies below the critical
        # constant 0.25, where rungs 0-2 read Bounded whatever rung 3 reads,
        # and c = 0.3 above it, where the rungs' lambda_1 run away and rung 3
        # decides the verdict
        counts = [hk_lapack._OPENBLAS] if hk_lapack._OPENBLAS and blas_threads else []
        pinned = [get() for get, _ in counts]
        for _, put in counts:
            put(blas_threads)
        try:
            self._check_ladder_against_serial_solves(exppow3, monkeypatch, rungs, c_scale)
        finally:
            for (_, put), n in zip(counts, pinned):
                put(n)

    @staticmethod
    def _check_ladder_against_serial_solves(exppow3, monkeypatch, rungs, c_scale):
        solve, solvers = spectral._solve_smallest, {}

        def recorded(A, M, enforce):
            solvers[A.n + 2] = threading.current_thread()  # by the rung's node count
            return solve(A, M, enforce=enforce)

        monkeypatch.setattr(spectral, "_solve_smallest", recorded)
        c = 0.15 * c_scale
        got = lambda1(exppow3, c, GRID)
        rows = []
        for k in range(rungs):
            r_min = GRID.r_min / RMIN_SHRINK**k
            n = GRID.n_points * N_GROW**k
            rung = replace(GRID, r_min=r_min, n_points=n)
            lam, vec, res = solve(*assemble(exppow3, c, rung), enforce=k == 0)
            rows.append((n, r_min, lam))
            if k == 0:
                assert (got.lambda1, got.residual) == (lam, res)
                assert np.array_equal(got.eigvec, vec)
        solved = {1.0: 3, 2.0: 4}[c_scale]
        assert got.ladder == rows[:solved]
        assert got.verdict == spectral._ladder_verdict([lam for *_, lam in rows])
        assert got.verdict == ("Bounded", "Diverging")[solved - 3]
        assert sorted(solvers) == [n for n, _, _ in rows[:solved]]
        assert all(thread is threading.current_thread() for thread in solvers.values())
        assert len(rows) == 4

    @pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
    @pytest.mark.parametrize("failing, raised", [
        ({3}, 3), ({1, 3}, 1), ({0, 3}, 0), ({2}, 2), ({0, 1, 2, 3}, 0),
    ])
    def test_shallowest_failing_rung_is_raised(self, exppow3, monkeypatch, failing, raised):
        # the rungs are solved in order on the calling thread, and at c = 0.3
        # rung 3 decides the verdict, so it is solved too: whichever rungs
        # fail, the error is the shallowest one's, and no thread is left
        real = spectral.eigh_tridiagonal
        sizes = {GRID.n_points * 2**k - 2: k for k in range(4)}

        def failing_solve(d, e):
            if sizes[len(d)] in failing:
                raise NoConvergence(f"rung {sizes[len(d)]}")
            return real(d, e)

        monkeypatch.setattr(spectral, "eigh_tridiagonal", failing_solve)
        threads = threading.active_count()
        with pytest.raises(NoConvergence, match=f"^rung {raised}$"):
            lambda1(exppow3, 0.3, GRID)
        assert threading.active_count() == threads

    def test_deepest_rung_that_cannot_change_the_verdict_is_not_solved(self, exppow3,
                                                                       monkeypatch):
        # at c = 0.15 rungs 0-2 read Bounded whatever rung 3 reads: a rung 3
        # that would fail is never solved, and the ladder is rungs 0-2
        real = spectral.eigh_tridiagonal
        deepest = GRID.n_points * N_GROW ** (RUNGS - 1) - 2

        def failing_solve(d, e):
            if len(d) == deepest:
                raise NoConvergence("rung 3")
            return real(d, e)

        monkeypatch.setattr(spectral, "eigh_tridiagonal", failing_solve)
        res = lambda1(exppow3, 0.15, GRID)
        assert res.verdict == "Bounded"
        assert [n for n, _, _ in res.ladder] == [GRID.n_points * N_GROW**k for k in range(3)]
        with pytest.raises(NoConvergence, match="^rung 3$"):
            lambda1(exppow3, 0.3, GRID)

    def test_skipping_the_deepest_rung_never_changes_the_verdict(self, exppow3, monkeypatch):
        # a synthetic grid of rung values: 0, the floor and ten times it on
        # both sides and just beyond them, ratios on both sides of 2 and of
        # 4, +-inf and nan.  lambda1 solves rung 3 exactly when some l3 of
        # the grid changes the verdict of rungs 0-2, and when it does not
        # solve it, its verdict is the four-rung verdict for every l3
        f = spectral._LAMBDA_FLOOR
        values = [0.0, f, -f, -1.01 * f, 10 * f, -10 * f, -10.1 * f, -41 * f, 1.0, -1.0,
                  -1.9, -2.1, -3.9, -4.1, -8.5, -16.5, -17.0, -70.0,
                  math.inf, -math.inf, math.nan]
        rung = {g.n_points: k for k, g in enumerate(spectral.rung_grids(GRID))}
        solved = []

        def solve(grid, _, enforce):
            solved.append(rung[grid.n_points])
            return lams[rung[grid.n_points]], None, 0.0

        monkeypatch.setattr(spectral, "assemble", lambda family, c, grid: (grid, None))
        monkeypatch.setattr(spectral, "_solve_smallest", solve)
        skipped = 0
        for lams in itertools.product(values, repeat=3):
            lams = list(lams) + [-17.0]
            solved.clear()
            got = lambda1(exppow3, 0.2, GRID)
            four = {spectral._ladder_verdict(lams[:3] + [l3]) for l3 in values}
            if solved == [0, 1, 2]:
                skipped += 1
                assert len(four) == 1 and got.verdict == four.pop(), lams
                assert len(got.ladder) == 3
            else:
                assert solved == [0, 1, 2, 3] and len(four) == 2, lams
                assert got.verdict == spectral._ladder_verdict(lams), lams
                assert len(got.ladder) == 4
        assert 0 < skipped < len(values) ** 3

    def test_concurrent_ladders_match_serial(self, exppow3):
        # lambda1 shares no state between calls: six ladders on six threads,
        # with a short switch interval, read what they read one at a time
        cs = [0.1 * j for j in range(6)]
        want = [lambda1(exppow3, c, GRID).ladder for c in cs]
        got = [None] * len(cs)

        def run(j):
            got[j] = lambda1(exppow3, cs[j], GRID).ladder

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(j,)) for j in range(len(cs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == want

    @pytest.mark.parametrize("family_name,c0n0", [
        ("exppow3", 0.25), ("pexp4", 0.25), ("leb4", 1.0),
    ])
    def test_sharpness_witness(self, family_name, c0n0, request):
        # H2+H3 families: Diverging just above the critical constant,
        # Bounded just below
        fam = request.getfixturevalue(family_name)
        up = lambda1(fam, c0n0 + 0.1, GRID)
        dn = lambda1(fam, c0n0 - 0.1, GRID)
        assert up.verdict == "Diverging"
        assert dn.verdict == "Bounded"


class TestCriticalSweep:
    def test_exp_power_bracket(self, exppow3):
        res = critical_sweep(exppow3, 0.05, 0.6, grid=GRID)
        assert 0.20 <= res.c_hat <= 0.30
        assert res.trace[0]["c"] == 0.05
        assert res.trace[0]["verdict"] == "Bounded"
        assert res.trace[1]["verdict"] == "Diverging"

    def test_lebesgue_n4_bracket(self, leb4):
        res = critical_sweep(leb4, 0.5, 1.5, grid=GRID)
        assert 0.9 <= res.c_hat <= 1.1

    def test_bad_bracket(self, exppow3):
        with pytest.raises(BadBracket):
            critical_sweep(exppow3, 0.5, 0.6, grid=GRID)


def _scaled_pencil(A, M):
    """(d, e) of B^{-1/2} A B^{-1/2}, as _solve_smallest forms it."""
    sq = np.sqrt(M)
    return A.diag / M, A.off / (sq[:-1] * sq[1:])


class TestLapackLoader:
    def test_solvers_match_scipy_linalg_bitwise(self, leb4):
        # the graded pencil of the n = 8192 spectrum case (Lebesgue N = 4,
        # c = 0.5), where the eigen-solver's rounding matters most
        A, M = assemble(leb4, 0.5, RadialGrid(1e-5, 20.0, 8192))
        d, e = _scaled_pencil(A, M)
        w, v = spectral.eigh_tridiagonal(d, e)
        w_ref, v_ref = eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
        assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)

        ab = np.zeros((3, A.n))
        ab[0, 1:], ab[1], ab[2, :-1] = A.off, A.diag - w[0] * M, A.off
        b = M * v[:, 0]
        assert np.array_equal(spectral.solve_banded((1, 1), ab, b),
                              solve_banded((1, 1), ab, b, check_finite=False))

        s = 1.0 + 1e-3 * d
        t = 1e-3 * e
        factors = evolution.dpttrf(s, t)
        assert factors[2] == 0
        for got, want in zip(factors, scipy_lapack.dpttrf(s, t)):
            assert np.array_equal(got, want)
        x = hk_lapack.dpttrs(*factors[:2], b)
        assert np.array_equal(x, scipy_lapack.dpttrs(*factors[:2], b)[0])
        # repeated solves in place, as the stepping loop makes them
        y, want = b.copy(), b
        for _ in range(3):
            want = scipy_lapack.dpttrs(*factors[:2], want)[0]
        assert hk_lapack.dpttrs(*factors[:2], y, overwrite_b=True, times=3) is y
        assert np.array_equal(y, want)

        # the Krylov records' small projections, here on the most graded rows
        for rows in (1, 2, 64, 512):
            args = (d[:rows], e[:max(rows - 1, 1)])
            got, want = hk_lapack.dstev(*args), scipy_lapack.dstev(*args)
            assert got[2] == want[2] == 0
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("n", [2, 17, 1000, 16384])
    def test_eigensolver_matches_scipy_on_graded_matrices(self, n):
        # entries over 24 decades, as on the deep rungs of a ladder
        rng = np.random.default_rng(n)
        for _ in range(3):
            g = np.geomspace(1e-12, 1e12, n) * rng.uniform(0.5, 2.0, n)
            d = g * rng.uniform(2.0, 2.1, n)
            e = -np.sqrt(g[:-1] * g[1:]) * rng.uniform(0.8, 1.0, n - 1)
            w, v = hk_lapack.eigh_tridiagonal(d, e)
            w_ref, v_ref = eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
            assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)

    def test_eigensolver_releases_the_interpreter_lock(self):
        # this thread keeps running Python while another is in LAPACK: its
        # longest pause is a small part of one solve (a wrapper that holds
        # the lock would pause it for all of stebz, most of the solve)
        d, e = np.full(16384, 2.0), np.full(16383, -1.0)
        clock = time.perf_counter

        def solo():
            start = clock()
            hk_lapack.eigh_tridiagonal(d, e)
            return clock() - start

        fastest = min(solo() for _ in range(3))

        def overlapped():
            window, stamps, done = [], [], threading.Event()

            def solve():
                window.append(clock())
                hk_lapack.eigh_tridiagonal(d, e)
                window.append(clock())
                done.set()

            worker = threading.Thread(target=solve)
            worker.start()
            while not done.is_set():
                stamps.append(clock())
            worker.join(timeout=60)
            assert not worker.is_alive()
            t0, t1 = window
            inside = [t0] + [t for t in stamps if t0 < t < t1] + [t1]
            return max(np.diff(inside)) < 0.5 * fastest

        assert any(overlapped() for _ in range(3))  # a busy host may pause this thread

    def test_routine_lookup(self):
        # the routines are those of the LAPACK numpy links; a missing routine
        # is named with the library file and every symbol tried for it
        path = hk_lapack._LAPACK.path
        (fn,), integer = hk_lapack._routines(path, ["dstebz"])
        assert ctypes.cast(fn, ctypes.c_void_p).value == \
            ctypes.cast(hk_lapack._LAPACK.dstebz, ctypes.c_void_p).value
        assert integer is hk_lapack._LAPACK.int
        with pytest.raises(ImportError) as err:
            hk_lapack._routines(path, ["nosuchroutine"])
        assert str(err.value) == (f"{path} exports none of scipy_nosuchroutine_64_, "
                                  f"scipy_nosuchroutine_, nosuchroutine_64_, nosuchroutine_")

    def test_thread_count_needs_an_openblas(self):
        # an extension that links no OpenBLAS has no thread count to read or
        # set, and the pin passes it by
        import _ctypes
        assert hk_lapack._thread_count(_ctypes.__file__) is None

    def test_public_lapack_wraps_the_same_routines(self):
        # the first candidate is numpy's extension, and it is the one bound;
        # the second is the extension that scipy.linalg.lapack wraps, which
        # exports all six routines with 32-bit integers
        umath = sys.modules.get("numpy._core._multiarray_umath") \
            or sys.modules["numpy.core._multiarray_umath"]
        candidates = list(hk_lapack._candidates())
        assert candidates == [umath.__file__, getattr(scipy_lapack, "_flapack").__file__]
        assert hk_lapack._LAPACK.path == candidates[0]
        assert hk_lapack._bind(candidates[1]).int is ctypes.c_int

    def test_fallback_to_public_lapack_is_bitwise_equal(self, exppow3, monkeypatch):
        # a numpy whose LAPACK lacks a routine: the six come from scipy's
        # _flapack, and every number stays the same, on the Krylov path and
        # on the stepped one (a one-vector basis never settles)
        default = evolution._KRYLOV_BASIS

        def run():
            capped = []
            for basis in (default, 1):
                monkeypatch.setattr(evolution, "_KRYLOV_BASIS", basis)
                capped.append(evolution.run_capped(
                    exppow3, 0.3, 1e3, RadialBump(0.25, 1.0), T=0.5, dt=1e-2,
                    grid=RadialGrid(1e-4, 8.0, 384), records=8))
            return lambda1(exppow3, 0.3, GRID), capped

        direct, capped = run()
        flapack = list(hk_lapack._candidates())[1]
        assert hk_lapack._LAPACK.path != flapack
        monkeypatch.setattr(hk_lapack, "_LAPACK", hk_lapack._bind(flapack))
        fallback, capped_fb = run()
        assert fallback.ladder == direct.ladder
        assert np.array_equal(fallback.eigvec, direct.eigvec)
        assert [s.path for s in capped_fb] == [s.path for s in capped] == ["krylov", "steps"]
        for got, want in zip(capped_fb, capped):
            assert np.array_equal(got.norms, want.norms)

    def test_non_finite_pencil_is_no_convergence(self, exppow3, monkeypatch):
        A, M = assemble(exppow3, 0.2, GRID)
        diag = A.diag.copy()
        diag[A.n // 2] = np.nan
        def no_call(*args):
            raise AssertionError("a non-finite pencil reached dstebz")

        monkeypatch.setattr(hk_lapack._LAPACK, "dstebz", no_call)
        with pytest.raises(NoConvergence, match="dstebz") as err:
            spectral._solve_smallest(spectral.Tridiagonal(diag, A.off), M)
        assert isinstance(err.value, HardyKitError)  # the CLI exits 3

    def test_misshapen_input_never_reaches_lapack(self):
        # the wrappers pass raw pointers: a length or a layout LAPACK would
        # read past is a ValueError before the call
        d, e, b = np.full(8, 4.0), np.full(7, -1.0), np.ones(8)
        factors = hk_lapack.dpttrf(d, e)[:2]
        with pytest.raises(ValueError):
            hk_lapack.solve_banded((1, 1), np.ones((3, 8)), np.ones(9))
        with pytest.raises(ValueError):
            hk_lapack.dpttrf(d, e[:-1])
        with pytest.raises(ValueError):
            hk_lapack.dpttrs(*factors, b[:-1])
        with pytest.raises(ValueError):
            hk_lapack.dpttrs(*factors, np.ones((8, 2))[:, 0], overwrite_b=True)
        with pytest.raises(ValueError):
            hk_lapack.dstev(d, e[:-1])

    def test_singular_banded_solve_is_no_convergence(self):
        with pytest.raises(NoConvergence, match="dgtsv"):
            spectral.solve_banded((1, 1), np.zeros((3, 4)), np.ones(4))


def phi_n_oracle_lebesgue(N, c, g, n):
    """Closed-form power integrals for the inner pieces, direct r-axis
    quadrature for the cutoff annulus (independent of the log-axis engine)."""
    om = surface_measure(N)
    cap_num = -c * n ** (-2.0 * g) * om * (1.0 / n) ** (N - 2) / (N - 2)
    mid_num = (g * g - c) * om * (1.0 - (1.0 / n) ** (2 * g - 2 + N)) / (2 * g - 2 + N)
    out_num = om * quad(
        lambda r: ((g * r ** (g - 1) * _theta(r) + r**g * _theta_deriv(r)) ** 2
                   - c * r ** (2 * g - 2) * _theta(r) ** 2) * r ** (N - 1),
        1.0, 2.0, limit=200)[0]
    cap_den = n ** (-2.0 * g) * om * (1.0 / n) ** N / N
    mid_den = om * (1.0 - (1.0 / n) ** (2 * g + N)) / (2 * g + N)
    out_den = om * quad(lambda r: r ** (2 * g) * _theta(r) ** 2 * r ** (N - 1),
                        1.0, 2.0, limit=200)[0]
    return (cap_num + mid_num + out_num) / (cap_den + mid_den + out_den)


class TestPhiN:
    def test_lebesgue_against_piecewise_oracle(self, leb3, leb4):
        got = quotient_phi_n(leb3, 0.5, -0.6, 4).value
        want = phi_n_oracle_lebesgue(3, 0.5, -0.6, 4)
        assert got == pytest.approx(want, rel=1e-9)
        # acceptance criterion 4's case, at its old and its new last rung
        lo, hi = phi_n_gamma_bounds(1.25, 4.0)
        g = 0.75 * lo + 0.25 * hi
        for n in (256, 4**21):
            got = quotient_phi_n(leb4, 1.25, g, n).value
            assert got == pytest.approx(phi_n_oracle_lebesgue(4, 1.25, g, n), rel=1e-9)

    def test_strictly_decreasing_unbounded(self, exppow3):
        vals = [quotient_phi_n(exppow3, 0.5, -0.6, n).value
                for n in (4, 16, 64)]
        assert vals[1] < vals[0] and vals[2] < vals[1]

    def test_paper_estimates_hold(self, exppow3, pexp4, leb4):
        # the rigorous content of the nonexistence estimate: the numerator
        # is bounded by (g^2-c) I(n) + C1 and the denominator from below by
        # C2.  (The composed ratio bound can sit on either side of the
        # exact quotient at small n, because the true denominator exceeds
        # C2; only the numerator/denominator estimates are one-sided.)
        for fam in (exppow3, pexp4, leb4):
            p = compute_profile(fam)
            cc = p.c0_N0 + 0.25
            lo, hi = phi_n_gamma_bounds(cc, p.N0)
            for g in (0.8 * lo + 0.2 * hi, 0.5 * (lo + hi), 0.2 * lo + 0.8 * hi):
                for n in (4, 64):
                    q = quotient_phi_n(fam, cc, g, n)
                    assert q.numerator <= q.upper_bound * q.C2 + 1e-12
                    assert q.denominator >= q.C2
                    # both are upper bounds for the true bottom of the
                    # spectrum, which is -inf here; the ratio bound itself
                    # majorizes the exact quotient only while its numerator
                    # (g^2-c) I(n) + C1 is nonnegative
            q256 = quotient_phi_n(fam, cc, 0.75 * lo + 0.25 * hi, 256)
            assert q256.upper_bound >= q256.value

    def test_gamma_squared_equals_c_kills_leading_term(self, exppow3):
        # eq. upper bound loses its n-dependence entirely when g^2 = c; the
        # exact quotient keeps only the slow cap-piece drift
        qs = [quotient_phi_n(exppow3, 0.36, -0.6, n) for n in (4, 64, 256)]
        ubs = [q.upper_bound for q in qs]
        assert ubs[0] == pytest.approx(ubs[1], rel=1e-9)
        assert ubs[1] == pytest.approx(ubs[2], rel=1e-9)
        assert all(abs(q.value) < 3.0 for q in qs)

    def test_inadmissible_gamma(self, exppow3):
        with pytest.raises(InadmissibleGamma):
            quotient_phi_n(exppow3, 0.5, -0.3, 4)   # above min((2-N0)/2, 0)
        with pytest.raises(InadmissibleGamma):
            quotient_phi_n(exppow3, 0.5, -0.8, 4)   # below -sqrt(c)

    def test_cap_past_the_double_range_is_a_numeric_failure(self):
        # N0 = 343 puts gamma near -170.5: 16^341 overflows a double, which
        # ended sharpness in an OverflowError traceback
        fam = WeightFamily(Kind.EXP_POWER, 343)
        p = compute_profile(fam)
        c = p.c0_N0 + 0.25
        lo, hi = phi_n_gamma_bounds(c, p.N0)
        g = 0.75 * lo + 0.25 * hi
        with pytest.raises(NonIntegrableTestFunction,
                           match=r"phi_n's cap squared, 16\^341\.\d+, overflows"):
            quotient_phi_n(fam, c, g, 16)

    def test_divergence_is_fast_near_effective_dimension_two(self):
        # the quotient's growth rate n^{-(2 gamma + N0 - 2)} is admissibility
        # -limited to n^{2 sqrt(c) - (N0-2)}; close to N0 = 2 that rate is
        # nearly n^1 and the quotient passes -100 within the short ladder
        fam = WeightFamily(Kind.POWER_EXP_POWER, 3, b=0.0, m=1.0, beta=0.9)
        p = compute_profile(fam)
        assert p.N0 == pytest.approx(2.1)
        c = p.c0_N0 + 0.25
        vals = [quotient_phi_n(fam, c, -0.49, n).value
                for n in (4, 16, 64, 256)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < -1e2

    def test_variational_bound_against_lambda1(self, exppow3):
        # lambda1 <= discrete Rayleigh quotient of any interpolated test
        # function (exact, by the variational principle on the same pencil);
        # and lambda1 sits below the continuum phi_n quotient once the grid
        # resolves deeper states than the test function does
        grid = RadialGrid(1e-4, 20.0, 2048)
        c = 0.5
        A, M = assemble(exppow3, c, grid)
        lam = ground_state(exppow3, c, grid)[0]
        r = grid.nodes[1:-1]
        v = np.minimum(r ** -0.6 * _theta(r), 16.0 ** 0.6)   # phi_n, gamma = -0.6, n = 16
        rq_disc = float(v @ A.matvec(v)) / float(v @ (M * v))
        assert lam <= rq_disc + 1e-12
        q = quotient_phi_n(exppow3, c, -0.6, 16).value
        assert lam <= q
        # the interpolant's discrete quotient matches the continuum quotient
        # for Dirichlet-compatible (compactly supported) test functions
        from hardykit.weights import weighted_integral
        bump = RadialBump(0.2, 0.8)
        w = bump(grid.nodes[1:-1])
        rq_b = float(w @ A.matvec(w)) / float(w @ (M * w))
        num = weighted_integral(exppow3, lambda r: bump.deriv(r) ** 2, 0.2, 0.8) \
            - c * weighted_integral(exppow3, lambda r: bump(r) ** 2, 0.2, 0.8, power=-2.0)
        den = weighted_integral(exppow3, lambda r: bump(r) ** 2, 0.2, 0.8)
        assert rq_b == pytest.approx(num / den, rel=2e-3)


class TestPhiGamma:
    def test_log_weight_alpha_pos_diverges(self, logw_pos):
        ladder = phi_gamma_ladder(logw_pos, 0.25)
        qs = [q for _, q in ladder]
        assert qs[-1] < -1e2
        assert qs[-1] < qs[0]

    def test_log_weight_alpha_neg_bounded(self, logw_neg):
        ladder = phi_gamma_ladder(logw_neg, 0.25)
        qs = [q for _, q in ladder]
        assert min(qs) > -1.0  # stays above a fixed constant

    def test_midpoint_matches_direct_quadrature(self, exppow3):
        # interior admissible point, checked against a plain r-axis quad
        p = compute_profile(exppow3)
        g = -(p.N0 - 2.0) / 4.0
        got = quotient_phi_gamma(exppow3, 0.25, g)
        om = surface_measure(3)
        mu = lambda r: np.exp(-r * r)
        num = om * quad(lambda r: (g * g - 0.25) * r ** (2 * g - 2) * mu(r) * r**2,
                        0.0, 1.0, limit=200)[0]
        num += om * quad(
            lambda r: ((g * r ** (g - 1) * _theta(r) + r**g * _theta_deriv(r)) ** 2
                       - 0.25 * r ** (2 * g - 2) * _theta(r) ** 2) * mu(r) * r**2,
            1.0, 2.0, limit=200)[0]
        den = om * quad(lambda r: r ** (2 * g) * mu(r) * r**2, 0.0, 1.0, limit=200)[0]
        den += om * quad(lambda r: r ** (2 * g) * _theta(r) ** 2 * mu(r) * r**2,
                         1.0, 2.0, limit=200)[0]
        assert got == pytest.approx(num / den, rel=1e-8)

    def test_inadmissible(self, exppow3):
        with pytest.raises(InadmissibleGamma):
            quotient_phi_gamma(exppow3, 0.25, -0.8)
        with pytest.raises(InadmissibleGamma):
            quotient_phi_gamma(exppow3, 0.25, 0.1)

    def test_cutoff_annulus_integrated_once_per_c_gamma(self, exppow3, monkeypatch):
        p = compute_profile(exppow3)
        for cached in vars(spectral).values():   # start from cold caches
            if hasattr(cached, "cache_clear"):
                cached.cache_clear()
        calls = []
        original = spectral.weighted_integral

        def counted(family, f=None, r_lo=0.0, r_hi=1.0, **kwargs):
            calls.append((r_lo, r_hi))
            return original(family, f, r_lo, r_hi, **kwargs)

        monkeypatch.setattr(spectral, "weighted_integral", counted)
        lo, hi = phi_n_gamma_bounds(0.5, p.N0)
        for n in (4, 16, 64, 256):
            quotient_phi_n(exppow3, 0.5, 0.75 * lo + 0.25 * hi, n)
        # each rung: one stacked call for its two cap moments and one for its
        # two middle integrals; once for the ladder: one stacked call for the
        # annulus numerator and denominator and the two C1 integrals
        assert len(calls) == 4 * 2 + 1
        assert calls.count((1.0, 2.0)) == 1
        calls.clear()
        phi_gamma_ladder(exppow3, 0.25)
        # one stacked call for the 24 moments on (0, 1) of the 12 gammas, and
        # one for their 12 annulus numerators and denominators, no C1
        assert calls == [(0.0, 1.0), (1.0, 2.0)]


# slack values frozen from the quadrature oracle below (regression witnesses)
_FROZEN_SLACK = {
    (3, 0.3): 2.078604e00,
    (3, 0.6): 3.960217e00,
    (3, 0.9): 5.267946e00,
    (4, 0.3): 6.274493e-01,
    (4, 0.6): 2.423022e00,
    (4, 0.9): 4.939359e00,
}


class TestImprovedHardy:
    @pytest.mark.parametrize("N", [3, 4])
    @pytest.mark.parametrize("a", [0.3, 0.6, 0.9])
    def test_slack_nonnegative(self, N, a):
        res = improved_hardy_slack(RadialBump(0.0, a), N)
        assert res.slack >= -1e-8 * res.grad_norm2
        assert res.slack == pytest.approx(_FROZEN_SLACK[(N, a)], rel=1e-5)

    @pytest.mark.parametrize("N,a", [(3, 0.6), (4, 0.3)])
    def test_against_direct_quadrature(self, N, a):
        u = RadialBump(0.0, a)
        om = surface_measure(N)
        grad2 = om * quad(lambda r: u.deriv(r) ** 2 * r ** (N - 1), 0, a, limit=200)[0]
        hardy = om * quad(lambda r: u(r) ** 2 * r ** (N - 3), 0, a, limit=200)[0]
        logt = om * quad(lambda r: u(r) ** 2 / np.log(r) ** 2 * r ** (N - 3),
                         0, a, limit=200)[0]
        want = grad2 - c0(N) * hardy - 0.25 * logt
        got = improved_hardy_slack(u, N)
        assert got.slack == pytest.approx(want, rel=1e-7)

    def test_unsupported(self):
        with pytest.raises(UnsupportedFunction):
            improved_hardy_slack(RadialBump(0.0, 1.0), 3)
        with pytest.raises(UnsupportedFunction):
            improved_hardy_slack(RadialBump(0.5, 1.2), 3)


class TestCrosscheck:
    def test_identity_and_gap_all_families(self, exppow3, pexp4, leb3, logw_pos, oscillating):
        bump = RadialBump(0.2, 0.8)
        for fam in (exppow3, pexp4, leb3, logw_pos, oscillating):
            res = weighted_vs_flat_crosscheck(fam, bump)
            assert res.identity_residual < 1e-6
            assert res.gap >= 0.0

    def test_lebesgue_reduces_to_classical_hardy(self, leb3):
        # U = 0: the gap is int |phi'|^2 - c0(N) int phi^2/r^2 >= 0
        bump = RadialBump(0.3, 0.9)
        res = weighted_vs_flat_crosscheck(leb3, bump)
        om = surface_measure(3)
        grad2 = om * quad(lambda r: bump.deriv(r) ** 2 * r**2, 0.3, 0.9, limit=200)[0]
        hardy = om * quad(lambda r: bump(r) ** 2, 0.3, 0.9, limit=200)[0]
        assert res.gap == pytest.approx(grad2 - 0.25 * hardy, rel=1e-8)
        assert res.gap >= 0.0

    def test_caffarelli_nirenberg_family(self):
        fam = WeightFamily(Kind.POWER_EXP_POWER, 4, b=0.0, m=1.0, beta=1.0)
        res = weighted_vs_flat_crosscheck(fam, RadialBump(0.2, 0.8))
        assert res.gap >= 0.0
        assert res.identity_residual < 1e-6

    def test_vanishing_u_mu(self):
        # b = 0 and beta = N - 1: U_mu = 0 exactly, and the U phi^2 integrand
        # is 0, not rounding noise that quadrature cannot settle
        fam = WeightFamily(Kind.POWER_EXP_POWER, 3, b=0.0, m=1.0, beta=2.0)
        res = weighted_vs_flat_crosscheck(fam, RadialBump(0.2, 0.8))
        assert all(math.isfinite(x) for x in (res.gap, res.identity_residual, res.lhs, res.rhs))
        assert res.identity_residual <= 1e-12

    def test_requires_support_away_from_origin(self, leb3):
        with pytest.raises(UnsupportedFunction):
            weighted_vs_flat_crosscheck(leb3, RadialBump(0.0, 0.5))
