"""The LAPACK routines hardykit calls, from scipy's compiled extension.

hardykit needs six: stebz and stein for the smallest eigenpair and gtsv for
inverse iteration (spectral), pttrf and pttrs for the implicit-Euler steps
and stev for the Krylov records' small tridiagonal projections (evolution).  `import scipy.linalg` costs about 0.15 s and 26 MB (2-vCPU
Xeon, scipy 1.17.1), two thirds of it scipy's array-API layer loading
numpy.f2py, numpy.testing, numpy.random and numpy.ma, none of which hardykit
uses; the compiled extension alone loads in about 3 ms and 2.6 MB.
Importing this module loads that extension straight from its file, without
running scipy's package code.  spectral and evolution import it on their
first solve, so the audit tasks (analyze, sharpness) never load it.

The two solvers make exactly the LAPACK calls of the scipy.linalg functions
they are named after, with the same checks, so results are bitwise the same;
a failed check raises NoConvergence.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

from .errors import NoConvergence


def load():
    """scipy's compiled LAPACK extension, scipy/linalg/_flapack.  A scipy
    without that file falls back to the public scipy.linalg.lapack, which
    re-exports the same routines."""
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    spec = importlib.machinery.PathFinder.find_spec(
        "_flapack", [os.path.join(scipy_dir, "linalg")])
    if spec is None:
        from scipy.linalg import lapack
        return lapack
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # an extension with single-phase init registers itself in sys.modules
    # under its bare name; this copy stays private to hardykit
    sys.modules.pop(spec.name, None)
    return module


flapack = load()


def _check_info(routine: str, info: int) -> None:
    if info != 0:
        raise NoConvergence(f"LAPACK {routine} failed (info={info})")


def eigh_tridiagonal(d, e):
    """(w, v): the smallest eigenpair of the symmetric tridiagonal (d, e),
    as scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
    computes it: stebz bisection in block order, then stein.  scipy sorts the
    m selected eigenvalues afterwards; index range 1..1 gives m == 1."""
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise NoConvergence("LAPACK dstebz input has non-finite entries")
    m, w, iblock, isplit, info = flapack.dstebz(d, e, 2, 0.0, 1.0, 1, 1, 0.0, "B")
    _check_info("dstebz", info)
    w = w[:m]
    v, info = flapack.dstein(d, e, w, iblock, isplit)
    _check_info("dstein", info)
    return w, v


def solve_banded(l_and_u, ab, b):
    """x with T x = b for the tridiagonal T in banded storage ab (rows:
    super-, main and sub-diagonal), as scipy.linalg.solve_banded((1, 1), ab, b)
    solves it: one gtsv, LU with partial pivoting."""
    if tuple(l_and_u) != (1, 1):
        raise ValueError(f"only tridiagonal systems, l_and_u = (1, 1); got {l_and_u}")
    *_, x, info = flapack.dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b)
    _check_info("dgtsv", info)
    return x
