"""Eigenproblems of real symmetric tridiagonal matrices given by their bands.

Every function takes the diagonal ``d`` (length N) and the off-diagonal
``e`` (length N - 1) and never assembles the N x N matrix.  They call
LAPACK's tridiagonal routines:

* ``eigh_bands``: ``dstevd``, the whole spectrum by divide and conquer
  (Cuppen, Numer. Math. 36, 1981; Gu & Eisenstat, SIAM J. Matrix Anal.
  Appl. 16, 1995);
* ``eigpair_bands``: ``dstevx``, one eigenvalue chosen by its index, by
  Sturm bisection, and on request its eigenvector, by inverse iteration
  (Barth, Martin & Wilkinson, Numer. Math. 9, 1967).  It costs O(N) per
  bisection step where the whole spectrum costs O(N^2), and its absolute
  tolerance is pinned at ``2 * dlamch('S')``, LAPACK's most accurate
  setting;
* ``count_below``: the number of eigenvalues below a shift s, as the number
  of negative pivots of the LDL^T factorization of T - s (Sylvester's law
  of inertia), in O(N) (Kahan, Accurate eigenvalues of a symmetric
  tridiagonal matrix, Stanford CS-41, 1966).  It is one bisection step of
  ``dlaebz`` (``IJOB = 3``, ``NITMAX = 1``) on the one interval [0, 0], so
  one recurrence runs, at the point 0.  It is handed the shifted diagonal
  d - s, so each pivot is (d_j - s) - e_{j-1}^2 / p_{j-1}, rounded as
  written.  With pivmin = tiny * max(1, max e^2) and pivmin- the float
  just below it, a pivot below pivmin counts as negative and is replaced
  by min(p, -pivmin-), so a zero pivot counts and the next pivot stays
  finite.  ``SturmCount`` holds the arguments of counts of one size, so a
  caller that writes the bands of many shifted matrices allocates nothing
  per count.

``dstevd`` is the driver that numpy's dense ``eigh`` runs after its
Householder reduction, which leaves a tridiagonal matrix unchanged, so
``eigh_bands`` agrees with numpy's bit for bit on the builds checked (see
the tests); ``eigpair_bands`` agrees with the dense solvers to a few
eps * ||T||, its bisection being the more accurate of the two.  The
routines are reached through ``ctypes`` in the ILP64 OpenBLAS that numpy's
pip wheels bundle: resolving the symbols through numpy's own
``_umath_linalg`` extension finds the library numpy already loaded,
whatever its hashed file name.  The symbols are resolved on first use, not
at import.  Where numpy links another LAPACK (MKL, Accelerate, conda
builds) the symbols are absent: the solvers fall back to numpy's dense
solvers on the assembled matrix, and the count to the same recurrence in
Python; a library that exports the drivers but not ``dlaebz`` keeps the
drivers and counts in Python.
"""

from __future__ import annotations

import ctypes
import functools
import math
from typing import Callable, NamedTuple

import numpy as np

from .operators import Tridiagonal

#: LAPACKE's matrix_layout value for column-major storage.
_COL_MAJOR = 102
#: Components within this relative distance of a ket's largest magnitude tie
#: for fixing its sign, so that rounding cannot flip the ket of a symmetric
#: problem, whose mirrored components are equal in magnitude.
_SIGN_TIE = 1e-8
#: The smallest normal float64, the unit of the count's pivot floor.
_TINY = float(np.finfo(np.float64).tiny)


class _Drivers(NamedTuple):
    stevd: Callable[..., int]
    stevx: Callable[..., int]
    laebz: Callable[..., None] | None      # dlaebz, where the library exports it
    abstol: float           # dstevx's absolute tolerance, 2 * dlamch('S')


@functools.cache
def _lapack() -> _Drivers | None:
    """The LAPACK routines of numpy's OpenBLAS, or None."""
    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)
        stevd = lib.scipy_LAPACKE_dstevd64_
        stevx = lib.scipy_LAPACKE_dstevx64_
        lamch = lib.scipy_LAPACKE_dlamch64_
    except (ImportError, OSError, AttributeError):
        return None
    # a Fortran auxiliary, which a build may leave unexported: without it only
    # the count falls back to Python
    laebz = getattr(lib, "scipy_dlaebz_64_", None)
    vector = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    index = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    stevd.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_int64, vector, vector,
                      np.ctypeslib.ndpointer(np.float64, ndim=2, flags="F_CONTIGUOUS"),
                      ctypes.c_int64]
    stevd.restype = ctypes.c_int64
    # layout, jobz, range, n, d, e, vl, vu, il, iu, abstol, m, w, z, ldz, ifail
    stevx.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_int64, vector,
                      vector, ctypes.c_double, ctypes.c_double, ctypes.c_int64,
                      ctypes.c_int64, ctypes.c_double, index, vector, vector,
                      ctypes.c_int64, index]
    stevx.restype = ctypes.c_int64
    lamch.argtypes = [ctypes.c_char]
    lamch.restype = ctypes.c_double
    if laebz is not None:
        # IJOB .. NBMIN, ABSTOL, RELTOL, PIVMIN, D, E, E2, NVAL, AB, C, MOUT, NAB,
        # WORK, IWORK, INFO: Fortran passes every argument by address
        laebz.argtypes = [ctypes.c_void_p] * 20
        laebz.restype = None
    return _Drivers(stevd, stevx, laebz, 2.0 * lamch(b"S"))


def _work_copies(d, e) -> tuple[np.ndarray, np.ndarray]:
    """Fresh contiguous float64 bands: LAPACK overwrites its inputs."""
    d = np.array(d, dtype=np.float64, order="C")
    e = np.array(e, dtype=np.float64, order="C")
    if d.ndim != 1 or e.shape != (max(d.shape[0] - 1, 0),):
        raise ValueError(f"need bands of lengths N and N - 1, got {d.shape} and {e.shape}")
    return d, e


def _check(info: int, driver: str) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {driver} failed with info = {info}")


def _fix_sign(ket: np.ndarray) -> np.ndarray:
    """The ket with the first of its largest components (to ``_SIGN_TIE``) positive."""
    size = np.abs(ket)
    first = np.argmax(size >= (1.0 - _SIGN_TIE) * size.max())
    return ket * np.sign(ket[first])


def eigh_bands(d, e) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvectors (one per column).

    The vectors are in the solver's own layout: Fortran order from
    ``dstevd``, C order from the dense fallback, as numpy's ``eigh`` gives.
    """
    w, off = _work_copies(d, e)
    lapack = _lapack()
    if lapack is None:
        return np.linalg.eigh(np.asarray(Tridiagonal(w, off)))
    n = w.shape[0]
    z = np.empty((n, n), order="F")
    _check(lapack.stevd(_COL_MAJOR, b"V", n, w, off, z, max(n, 1)), "dstevd")
    return w, z


def eigpair_bands(d, e, n: int, vectors: bool = False):
    """The n-th smallest eigenvalue (n = 0, 1, ...), and its eigenvector if ``vectors``.

    With ``vectors`` the result is (eigenvalue, ket): a unit ket whose largest
    component is positive, the first of them where components tie to a
    relative 1e-8, as the mirrored components of a symmetric problem do.
    ``n`` outside the spectrum raises ValueError, a failed LAPACK call
    ``LinAlgError``.
    """
    w, off = _work_copies(d, e)
    size = w.shape[0]
    if not 0 <= n < size:
        raise ValueError(f"eigenvalue index {n} outside the spectrum of size {size}")
    lapack = _lapack()
    if lapack is None:
        T = np.asarray(Tridiagonal(w, off))
        if not vectors:
            return float(np.linalg.eigvalsh(T)[n])
        values, kets = np.linalg.eigh(T)
        return float(values[n]), _fix_sign(kets[:, n])
    found = np.zeros(1, dtype=np.int64)
    values = np.empty(size)
    ket = np.empty(size if vectors else 1)
    fail = np.empty(size, dtype=np.int64)
    _check(lapack.stevx(_COL_MAJOR, b"V" if vectors else b"N", b"I", size, w, off, 0.0, 0.0,
                        n + 1, n + 1, lapack.abstol, found, values, ket, ket.shape[0], fail),
           "dstevx")
    if found[0] != 1:
        raise np.linalg.LinAlgError(f"LAPACK dstevx found {found[0]} eigenvalues, not 1")
    return (float(values[0]), _fix_sign(ket)) if vectors else float(values[0])


class SturmCount:
    """Counts of eigenvalues below a shift s, for real symmetric tridiagonals of one size.

    The caller writes d - s into ``shifted`` and e * e into the first N - 1
    entries of ``squares``, then calls the counter with the largest of
    those squares, which sets pivmin; the call returns the number of
    eigenvalues of T below s.  With the LAPACK binding a count is one
    ``dlaebz`` bisection step (``IJOB = 3``, ``NITMAX = 1``) on the interval
    [0, 0] with target count -1, on arguments whose addresses are taken
    here, once: it runs the recurrence once, at 0, and writes the count to
    ``NAB(1, 2)``, 0 to ``AB(1, 2)`` and 1 to ``MOUT``, so the next count
    finds its arguments as this one did.  ``dlaebz`` counts a pivot
    ``<= PIVMIN`` and is handed pivmin-, the float below pivmin, so a pivot
    counts exactly when it is below pivmin.  Without the binding the same
    recurrence runs in Python, rounded alike.  A ``dlaebz`` that reports an
    unconverged interval raises ``LinAlgError``.  Every count rewrites the
    counter's buffers, so a counter serves one caller at a time.
    """

    def __init__(self, size: int):
        if size < 1:
            raise ValueError(f"need a matrix of size >= 1, got {size}")
        self._shifted = np.zeros(size)
        self._squares = np.zeros(size)      # dlaebz reads E2(1..N-1), not E2(N)
        lapack = _lapack()
        self._laebz = None if lapack is None else lapack.laebz
        # IJOB = 3 (bisection), NITMAX = 1 (one step), N, MMAX = MINP = 1 (one
        # interval), NBMIN = 0 (the serial loop), NVAL = -1 (below every
        # count, so each count lands in NAB(1, 2)), MOUT, NAB(1, 1:2), IWORK,
        # INFO
        self._ints = np.array([3, 1, size, 1, 1, 0, -1, 0, 0, 0, 0, 0], dtype=np.int64)
        # ABSTOL, RELTOL, PIVMIN, AB(1, 1:2) = 0 (the interval), C = 0 (the
        # point counted: the diagonal comes shifted), WORK
        self._reals = np.zeros(7)

        def at(block: np.ndarray, k: int) -> ctypes.c_void_p:
            return ctypes.c_void_p(block.ctypes.data + k * block.itemsize)

        ints = [at(self._ints, k) for k in range(12)]
        reals = [at(self._reals, k) for k in range(7)]
        squares = at(self._squares, 0)      # also passed as E, which IJOB = 3 does not read
        self._args = (*ints[:6], *reals[:3], at(self._shifted, 0), squares, squares, ints[6],
                      reals[3], reals[5], ints[7], ints[8], reals[6], ints[10], ints[11])

    # read-only attributes: dlaebz reads the arrays at the addresses taken above
    @property
    def shifted(self) -> np.ndarray:
        return self._shifted

    @property
    def squares(self) -> np.ndarray:
        return self._squares

    def __call__(self, largest_square: float) -> int:
        pivmin = _TINY * max(1.0, largest_square)
        floor = math.nextafter(pivmin, 0.0)         # pivmin-
        if self._laebz is not None:
            self._reals[2] = floor
            self._laebz(*self._args)
            _check(int(self._ints[11]), "dlaebz")
            return int(self._ints[9])
        count = 0
        pivot = 1.0
        for d, e2 in zip(self._shifted.tolist(), [0.0] + self._squares[:-1].tolist()):
            pivot = d - e2 / pivot
            if pivot <= floor:
                count += 1
                pivot = min(pivot, -floor)
        return count


def count_below(d, e, shift: float) -> int:
    """Number of eigenvalues below ``shift`` of the real symmetric tridiagonal with bands d, e.

    Counts the negative pivots of the LDL^T factorization of T - shift, as
    ``SturmCount`` does for bands it is handed: a pivot below pivmin counts
    as negative and is replaced by min(p, -pivmin-), pivmin- being the float
    just below pivmin.
    """
    d, e = _work_copies(d, e)
    counter = SturmCount(d.shape[0])
    np.subtract(d, shift, out=counter.shifted)
    np.multiply(e, e, out=counter.squares[:-1])
    return counter(float(counter.squares.max()))
