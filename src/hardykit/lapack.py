"""The six LAPACK routines hardykit calls, bound with ctypes from the LAPACK
that numpy already links.

hardykit needs six: stebz and stein for the smallest eigenpair and gtsv for
inverse iteration (spectral), pttrf and pttrs for the implicit-Euler steps
and stev for the Krylov records' small tridiagonal projections (evolution).
They come from the first of two libraries that exports all six:

- numpy's extension _multiarray_umath.  A symbol lookup in its file also
  searches the libraries it links, so this is numpy's own LAPACK: on a wheel
  install, scipy-openblas64, which exports scipy_<name>_64_ with 64-bit
  integers (older wheels: <name>_64_).  A numpy built against a plain LAPACK
  exports <name>_, with 32-bit integers.
- Otherwise scipy's compiled extension scipy/linalg/_flapack, opened as a
  shared library and never imported (scipy_<name>_, 32-bit integers).

On a wheel install the process therefore maps one OpenBLAS, numpy's, and
neither scipy's extension nor its OpenBLAS: a default report-all peaks
3.8 MB (10%) lower than with them mapped (2-vCPU Xeon, numpy 2.4.6, scipy
1.17.1).  spectral and evolution import this module on their first solve,
so the audit tasks (analyze, sharpness) never load it.

Each wrapper makes exactly the LAPACK call of the scipy function it is named
after, with the same checks: eigh_tridiagonal and solve_banded those of
scipy.linalg, dpttrf, dpttrs and dstev those of scipy.linalg.lapack.  The
results are bitwise the same; a failed check raises NoConvergence.  A ctypes
call releases the interpreter lock.

Two BLAS threads round the dot products of a deep ladder rung differently
from one.  So, unless OPENBLAS_NUM_THREADS is set, importing this module
sets the OpenBLAS these routines come from (on a wheel install, numpy's) to
one thread at run time, and outputs match a one-thread run: the pin does not
depend on whether numpy was imported first, and no child process inherits
it.  A user's setting is kept.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import os
import sys
from types import SimpleNamespace

import numpy as np

from .errors import NoConvergence

_NAMES = ("dstebz", "dstein", "dgtsv", "dpttrf", "dpttrs", "dstev")
# (prefix, suffix, LAPACK integer) of the symbol conventions, in lookup order
_CONVENTIONS = [(prefix, suffix, integer) for prefix in ("scipy_", "")
                for suffix, integer in (("_64_", ctypes.c_int64), ("_", ctypes.c_int))]


def _candidates():
    """The files to look the routines up in: numpy's _multiarray_umath, then
    scipy's linalg/_flapack where scipy has one."""
    yield (sys.modules.get("numpy._core._multiarray_umath")
           or sys.modules["numpy.core._multiarray_umath"]).__file__
    scipy = importlib.util.find_spec("scipy")
    if scipy is not None:
        spec = importlib.machinery.PathFinder.find_spec(
            "_flapack", [os.path.join(scipy.submodule_search_locations[0], "linalg")])
        if spec is not None:
            yield spec.origin


def _routines(path: str, names):
    """(functions, integer): the routines `names` in the library at `path`,
    under the first symbol convention it exports all of, and that
    convention's LAPACK integer type."""
    lib = ctypes.CDLL(path)
    tried = []
    for prefix, suffix, integer in _CONVENTIONS:
        symbols = [f"{prefix}{name}{suffix}" for name in names]
        missing = [symbol for symbol in symbols if not hasattr(lib, symbol)]
        if not missing:
            return [getattr(lib, symbol) for symbol in symbols], integer
        tried.append(missing[0])
    raise ImportError(f"{path} exports none of {', '.join(tried)}")


def _bind(path: str) -> SimpleNamespace:
    """The six routines of the library at `path`, with their argument types."""
    fns, integer = _routines(path, _NAMES)
    INT, DOUBLE = ctypes.POINTER(integer), ctypes.POINTER(ctypes.c_double)
    F64 = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    INTS = np.ctypeslib.ndpointer(integer, ndim=1, flags="C_CONTIGUOUS")
    COLUMNS = np.ctypeslib.ndpointer(np.float64, ndim=2, flags="F_CONTIGUOUS")
    CHAR = ctypes.c_char_p  # each CHARACTER argument adds a hidden length at the end
    argtypes = {
        # RANGE ORDER N VL VU IL IU ABSTOL D E M NSPLIT W IBLOCK ISPLIT WORK IWORK INFO
        "dstebz": [CHAR, CHAR, INT, DOUBLE, DOUBLE, INT, INT, DOUBLE, F64, F64, INT, INT, F64,
                   INTS, INTS, F64, INTS, INT, ctypes.c_size_t, ctypes.c_size_t],
        # N D E M W IBLOCK ISPLIT Z LDZ WORK IWORK IFAIL INFO
        "dstein": [INT, F64, F64, INT, F64, INTS, INTS, COLUMNS, INT, F64, INTS, INTS, INT],
        # N NRHS DL D DU B LDB INFO
        "dgtsv": [INT, INT, F64, F64, F64, F64, INT, INT],
        # N D E INFO
        "dpttrf": [INT, F64, F64, INT],
        # N NRHS D E B LDB INFO; the arrays as pointers, which dpttrs binds once
        "dpttrs": [INT, INT, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, INT, INT],
        # JOBZ N D E Z LDZ WORK INFO
        "dstev": [CHAR, INT, F64, F64, COLUMNS, INT, F64, INT, ctypes.c_size_t],
    }
    for name, fn in zip(_NAMES, fns):
        fn.argtypes, fn.restype = argtypes[name], None
    return SimpleNamespace(path=path, int=integer, **dict(zip(_NAMES, fns)))


def _first_library() -> SimpleNamespace:
    """The six routines of the first candidate that exports them all."""
    tried = []
    for path in _candidates():
        try:
            return _bind(path)
        except ImportError as err:
            tried.append(str(err))
    raise ImportError("no LAPACK exports all of " + ", ".join(_NAMES) + ": " + "; ".join(tried))


_LAPACK = _first_library()


def _thread_count(path: str):
    """(get, set) of the thread count of the OpenBLAS that the library at
    `path` links, or None when it links no OpenBLAS.  numpy's and scipy's
    wheels prefix these symbols with scipy_, an ILP64 build appends 64_."""
    lib = ctypes.CDLL(path)
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


_OPENBLAS = _thread_count(_LAPACK.path)
if _OPENBLAS is not None and "OPENBLAS_NUM_THREADS" not in os.environ:
    _OPENBLAS[1](1)


def _check_info(routine: str, info: int) -> None:
    if info != 0:
        raise NoConvergence(f"LAPACK {routine} failed (info={info})")


def eigh_tridiagonal(d, e):
    """(w, v): the smallest eigenpair of the symmetric tridiagonal (d, e),
    as scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
    computes it: stebz bisection in block order, then stein.  scipy sorts the
    m selected eigenvalues afterwards; index range 1..1 gives m == 1.

    Both calls release the interpreter lock.  They share one work buffer of
    5n doubles, of which stebz uses 4n; neither reads workspace it has not
    written.  stebz's 3n integers are freed before stein's n."""
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise NoConvergence("LAPACK dstebz input has non-finite entries")
    d, e = np.ascontiguousarray(d, np.float64), np.ascontiguousarray(e, np.float64)
    n = len(d)
    if e.shape != (n - 1,):
        raise ValueError(f"e needs n - 1 = {n - 1} entries, got shape {e.shape}")
    lapack = _LAPACK
    c_int, c_double, ref = lapack.int, ctypes.c_double, ctypes.byref
    size, one, zero = c_int(n), c_int(1), c_double(0.0)
    m, nsplit, info = c_int(), c_int(), c_int()
    w = np.empty(n)
    iblock, isplit = np.empty(n, lapack.int), np.empty(n, lapack.int)
    work, iwork = np.empty(5 * n), np.empty(3 * n, lapack.int)
    lapack.dstebz(b"I", b"B", ref(size), ref(zero), ref(c_double(1.0)), ref(one), ref(one),
                  ref(zero), d, e, ref(m), ref(nsplit), w, iblock, isplit, work, iwork,
                  ref(info), 1, 1)
    del iwork  # stein needs a third of it, freed before the eigenvector is allocated
    _check_info("dstebz", info.value)
    w = w[:m.value]
    v = np.empty((n, m.value), order="F")
    lapack.dstein(ref(size), d, e, ref(m), w, iblock, isplit, v, ref(size), work,
                  np.empty(n, lapack.int), np.empty(m.value, lapack.int), ref(info))
    _check_info("dstein", info.value)
    return w, v


def solve_banded(l_and_u, ab, b):
    """x with T x = b for the tridiagonal T in banded storage ab (rows:
    super-, main and sub-diagonal), as scipy.linalg.solve_banded((1, 1), ab, b)
    solves it for a vector b: one gtsv, LU with partial pivoting, on copies
    of the bands."""
    if tuple(l_and_u) != (1, 1):
        raise ValueError(f"only tridiagonal systems, l_and_u = (1, 1); got {l_and_u}")
    lapack = _LAPACK
    dl, d, du = (np.array(band, np.float64) for band in (ab[2, :-1], ab[1], ab[0, 1:]))
    x = np.array(b, np.float64)
    if x.shape != d.shape:
        raise ValueError(f"b needs shape {d.shape}, got {x.shape}")
    n, one, info = lapack.int(len(d)), lapack.int(1), lapack.int()
    lapack.dgtsv(ctypes.byref(n), ctypes.byref(one), dl, d, du, x, ctypes.byref(n),
                 ctypes.byref(info))
    _check_info("dgtsv", info.value)
    return x


def dpttrf(d, e):
    """(d, e, info): the L D L^T factors of the symmetric positive definite
    tridiagonal (d, e), as scipy.linalg.lapack.dpttrf(d, e) returns them."""
    lapack = _LAPACK
    d, e = np.array(d, np.float64), np.array(e, np.float64)
    if d.ndim != 1 or e.shape != (len(d) - 1,):
        raise ValueError(f"dpttrf needs d of n and e of n - 1 entries, got {d.shape}, {e.shape}")
    info = lapack.int()
    lapack.dpttrf(ctypes.byref(lapack.int(len(d))), d, e, ctypes.byref(info))
    return d, e, info.value


def dpttrs(d, e, b, overwrite_b=False, times=1):
    """x = (L D L^T)^{-times} b for the factors (d, e) of dpttrf: `times`
    solves, each as scipy.linalg.lapack.dpttrs(d, e, b)[0] makes it.  With
    overwrite_b, b must be a contiguous float64 vector, and x is b.  The
    pointers are bound once for all the solves."""
    lapack = _LAPACK
    d, e = np.ascontiguousarray(d, np.float64), np.ascontiguousarray(e, np.float64)
    x = b if overwrite_b else np.array(b, np.float64)
    if x.dtype != np.float64 or x.ndim != 1 or not x.flags.c_contiguous:
        raise ValueError("dpttrs overwrites only a contiguous float64 vector")
    if d.ndim != 1 or e.shape != (len(d) - 1,) or x.shape != d.shape:
        raise ValueError(f"dpttrs needs d and b of n and e of n - 1 entries, "
                         f"got {d.shape}, {x.shape}, {e.shape}")
    n, one, info, ref = lapack.int(len(d)), lapack.int(1), lapack.int(), ctypes.byref
    args = (ref(n), ref(one), *(ctypes.c_void_p(a.ctypes.data) for a in (d, e, x)), ref(n),
            ref(info))
    for _ in range(times):
        lapack.dpttrs(*args)
        _check_info("dpttrs", info.value)
    return x


def dstev(d, e):
    """(w, z, info): the eigenvalues and eigenvectors of the symmetric
    tridiagonal (d, e), as scipy.linalg.lapack.dstev(d, e) returns them.
    e has max(n - 1, 1) entries."""
    lapack = _LAPACK
    w, e = np.array(d, np.float64), np.array(e, np.float64)
    n = len(w)
    if w.ndim != 1 or e.shape != (max(n - 1, 1),):
        raise ValueError(f"dstev needs d of n and e of max(n - 1, 1) entries, "
                         f"got {w.shape}, {e.shape}")
    z = np.empty((n, n), order="F")
    size, info = lapack.int(n), lapack.int()
    lapack.dstev(b"V", ctypes.byref(size), w, e, z, ctypes.byref(size),
                 np.empty(max(1, 2 * n - 2)), ctypes.byref(info), 1)
    return w, z, info.value
