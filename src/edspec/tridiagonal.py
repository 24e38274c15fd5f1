"""Eigenproblems of real symmetric tridiagonal matrices given by their bands.

Both solvers take the diagonal ``d`` (length N) and the off-diagonal ``e``
(length N - 1) and never assemble the N x N matrix.  They call LAPACK's
tridiagonal drivers:

* ``eigh_bands``: ``dstevd``, the whole spectrum by divide and conquer
  (Cuppen, Numer. Math. 36, 1981; Gu & Eisenstat, SIAM J. Matrix Anal.
  Appl. 16, 1995);
* ``eigpair_bands``: ``dstevx``, one eigenvalue chosen by its index, by
  Sturm bisection, and on request its eigenvector, by inverse iteration
  (Barth, Martin & Wilkinson, Numer. Math. 9, 1967).  It costs O(N) per
  bisection step where the whole spectrum costs O(N^2), and its absolute
  tolerance is pinned at ``2 * dlamch('S')``, LAPACK's most accurate
  setting.

``dstevd`` is the driver that numpy's dense ``eigh`` runs after its
Householder reduction, which leaves a tridiagonal matrix unchanged, so
``eigh_bands`` agrees with numpy's bit for bit on the builds checked (see
the tests); ``eigpair_bands`` agrees with the dense solvers to a few
eps * ||T||, its bisection being the more accurate of the two.  The drivers are reached through ``ctypes`` in the ILP64
OpenBLAS that numpy's pip wheels bundle: resolving the LAPACKE symbols
through numpy's own ``_umath_linalg`` extension finds the library numpy
already loaded, whatever its hashed file name.  The symbols are resolved on
first use, not at import.  Where numpy links another LAPACK (MKL,
Accelerate, conda builds) the symbols are absent and both functions fall
back to numpy's dense solvers on the assembled matrix.  ``Eigenvalues``
serves E_n of one matrix to a caller that asks for several n: on that
fallback it solves the dense spectrum once for all of them.
"""

from __future__ import annotations

import ctypes
import functools
from typing import Callable, NamedTuple

import numpy as np

from .operators import Tridiagonal

#: LAPACKE's matrix_layout value for column-major storage.
_COL_MAJOR = 102
#: Components within this relative distance of a ket's largest magnitude tie
#: for fixing its sign, so that rounding cannot flip the ket of a symmetric
#: problem, whose mirrored components are equal in magnitude.
_SIGN_TIE = 1e-8


class _Drivers(NamedTuple):
    stevd: Callable[..., int]
    stevx: Callable[..., int]
    abstol: float           # dstevx's absolute tolerance, 2 * dlamch('S')


@functools.cache
def _lapack() -> _Drivers | None:
    """The LAPACKE drivers of numpy's OpenBLAS, or None."""
    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)
        stevd = lib.scipy_LAPACKE_dstevd64_
        stevx = lib.scipy_LAPACKE_dstevx64_
        lamch = lib.scipy_LAPACKE_dlamch64_
    except (ImportError, OSError, AttributeError):
        return None
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
    return _Drivers(stevd, stevx, 2.0 * lamch(b"S"))


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


class Eigenvalues:
    """The eigenvalues E_n (n = 0, 1, ...) of one matrix, each solved when first asked for.

    With the LAPACK binding E_n is one ``eigpair_bands`` solve.  Without it
    that solve is the whole dense spectrum, so the first request keeps all of
    it, from the same ``eigvalsh`` call, for every later n.
    """

    def __init__(self, T: Tridiagonal):
        self._bands = T
        self._values: dict[int, float] = {}

    def __getitem__(self, n: int) -> float:
        if n not in self._values:
            d, e = self._bands.diagonal, self._bands.off_diagonal
            # an index outside the spectrum is refused by eigpair_bands
            if _lapack() is not None or not 0 <= n < len(d):
                self._values[n] = eigpair_bands(d, e, n)
            else:
                spectrum = np.linalg.eigvalsh(np.asarray(Tridiagonal(*_work_copies(d, e))))
                self._values = dict(enumerate(spectrum.tolist()))
        return self._values[n]
