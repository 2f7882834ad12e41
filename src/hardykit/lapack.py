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
a failed check raises NoConvergence.  stebz and stein go through ctypes, not
through the extension's f2py wrappers, which hold the interpreter lock for
the whole call: a ctypes call releases it, so spectral can solve two ladder
rungs at once on two threads.  They are looked up in the extension's file,
and the dynamic linker searches the libraries it links, so they are the
very routines the f2py wrappers call.  gtsv, pttrf, pttrs and stev stay on
f2py.

An OpenBLAS pool thread spins for a while after each threaded call, and
beside the ladder's second thread it holds the second core.  So, unless
OPENBLAS_NUM_THREADS is set, importing this module loads scipy's OpenBLAS
with that variable at 1 for the load only, and then sets numpy's and
scipy's OpenBLAS to one thread at run time, through the same symbol
lookup: the pin does not depend on whether numpy was imported first, and
no child process inherits it.  A user's setting is kept.
"""

from __future__ import annotations

import contextlib
import ctypes
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

from .errors import NoConvergence


@contextlib.contextmanager
def _one_thread_while_loading():
    """OpenBLAS reads OPENBLAS_NUM_THREADS once, as its library loads, and
    a pool thread it starts spins for about 0.1 s of CPU beside the first
    ladder.  Unless the variable is set, it reads 1 for this load only, so
    scipy's OpenBLAS starts no pool thread and no child process inherits it."""
    if "OPENBLAS_NUM_THREADS" in os.environ:
        yield
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        yield
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


def load():
    """scipy's compiled LAPACK extension, scipy/linalg/_flapack.  A scipy
    without that file falls back to the public scipy.linalg.lapack, which
    re-exports the same routines."""
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    spec = importlib.machinery.PathFinder.find_spec(
        "_flapack", [os.path.join(scipy_dir, "linalg")])
    if spec is None:
        with _one_thread_while_loading():
            from scipy.linalg import lapack
        return lapack
    with _one_thread_while_loading():  # module_from_spec loads the library
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    # an extension with single-phase init registers itself in sys.modules
    # under its bare name; this copy stays private to hardykit
    sys.modules.pop(spec.name, None)
    return module


flapack = load()

_INT = ctypes.POINTER(ctypes.c_int)
_DOUBLE = ctypes.POINTER(ctypes.c_double)
_F64 = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
_INTS = np.ctypeslib.ndpointer(np.intc, ndim=1, flags="C_CONTIGUOUS")
_COLUMNS = np.ctypeslib.ndpointer(np.float64, ndim=2, flags="F_CONTIGUOUS")


def _routine(path: str, name: str, argtypes):
    """LAPACK routine `name` as the extension at `path` links it: scipy's
    OpenBLAS prefixes its symbols with scipy_, a plain LAPACK does not.
    Integers are LP64 (np.intc), as in scipy's _flapack."""
    lib = ctypes.CDLL(path)
    for symbol in (f"scipy_{name}_", f"{name}_"):
        try:
            fn = getattr(lib, symbol)
        except AttributeError:
            continue
        fn.argtypes, fn.restype = argtypes, None
        return fn
    raise ImportError(f"{path} links neither scipy_{name}_ nor {name}_")


# the fallback module, scipy.linalg.lapack, wraps the same extension
_PATH = getattr(flapack, "_flapack", flapack).__file__
# RANGE ORDER N VL VU IL IU ABSTOL D E M NSPLIT W IBLOCK ISPLIT WORK IWORK INFO,
# then the hidden lengths of the two CHARACTER arguments
_dstebz = _routine(_PATH, "dstebz", [ctypes.c_char_p, ctypes.c_char_p, _INT, _DOUBLE, _DOUBLE,
                                     _INT, _INT, _DOUBLE, _F64, _F64, _INT, _INT, _F64, _INTS,
                                     _INTS, _F64, _INTS, _INT, ctypes.c_size_t, ctypes.c_size_t])
# N D E M W IBLOCK ISPLIT Z LDZ WORK IWORK IFAIL INFO
_dstein = _routine(_PATH, "dstein", [_INT, _F64, _F64, _INT, _F64, _INTS, _INTS, _COLUMNS,
                                     _INT, _F64, _INTS, _INTS, _INT])


def _thread_count(path: str):
    """(get, set) of the thread count of the OpenBLAS that the extension at
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


_NUMPY_PATH = (sys.modules.get("numpy._core._multiarray_umath")
               or sys.modules["numpy.core._multiarray_umath"]).__file__
_OPENBLAS = [_thread_count(_NUMPY_PATH), _thread_count(_PATH)]
if "OPENBLAS_NUM_THREADS" not in os.environ:
    for _counts in filter(None, _OPENBLAS):
        _counts[1](1)


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
    c_int, c_double, ref = ctypes.c_int, ctypes.c_double, ctypes.byref
    size, one, zero = c_int(n), c_int(1), c_double(0.0)
    m, nsplit, info = c_int(), c_int(), c_int()
    w = np.empty(n)
    iblock, isplit = np.empty(n, np.intc), np.empty(n, np.intc)
    work, iwork = np.empty(5 * n), np.empty(3 * n, np.intc)
    _dstebz(b"I", b"B", ref(size), ref(zero), ref(c_double(1.0)), ref(one), ref(one), ref(zero),
            d, e, ref(m), ref(nsplit), w, iblock, isplit, work, iwork, ref(info), 1, 1)
    del iwork  # stein needs a third of it, freed before the eigenvector is allocated
    _check_info("dstebz", info.value)
    w = w[:m.value]
    v = np.empty((n, m.value), order="F")
    _dstein(ref(size), d, e, ref(m), w, iblock, isplit, v, ref(size), work, np.empty(n, np.intc),
            np.empty(m.value, np.intc), ref(info))
    _check_info("dstein", info.value)
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
