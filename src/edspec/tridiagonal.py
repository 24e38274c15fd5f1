"""Eigenproblems of real symmetric tridiagonal matrices given by their bands.

Both solvers take the diagonal ``d`` (length N) and the off-diagonal ``e``
(length N - 1) and never assemble the N x N matrix.  They call LAPACK's
tridiagonal drivers:

* ``eigh_bands``: ``dstevd``, divide and conquer (Cuppen, Numer. Math. 36,
  1981; Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 16, 1995);
* ``eigvalsh_bands``: ``dsterf``, root-free QL/QR iteration.

These are the drivers that numpy's dense ``eigh``/``eigvalsh`` run after
their Householder reduction, which leaves a tridiagonal matrix unchanged, so
the results agree with numpy's bit for bit on the builds checked (see the
tests).  The drivers are reached through ``ctypes`` in the ILP64 OpenBLAS
that numpy's pip wheels bundle: resolving the LAPACKE symbols through
numpy's own ``_umath_linalg`` extension finds the library numpy already
loaded, whatever its hashed file name.  Where numpy links another LAPACK
(MKL, Accelerate, conda builds) the symbols are absent and both functions
fall back to numpy's dense solvers on the assembled matrix.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np

from .operators import Tridiagonal

#: LAPACKE's matrix_layout value for column-major storage.
_COL_MAJOR = 102


@functools.cache
def _lapack():
    """(dstevd, dsterf) LAPACKE entry points of numpy's OpenBLAS, or None."""
    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)
        stevd = lib.scipy_LAPACKE_dstevd64_
        sterf = lib.scipy_LAPACKE_dsterf64_
    except (ImportError, OSError, AttributeError):
        return None
    vector = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    stevd.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_int64, vector, vector,
                      np.ctypeslib.ndpointer(np.float64, ndim=2, flags="F_CONTIGUOUS"),
                      ctypes.c_int64]
    stevd.restype = ctypes.c_int64
    sterf.argtypes = [ctypes.c_int64, vector, vector]
    sterf.restype = ctypes.c_int64
    return stevd, sterf


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


def eigh_bands(d, e) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvectors (one per column)."""
    w, off = _work_copies(d, e)
    lapack = _lapack()
    if lapack is None:
        return np.linalg.eigh(np.asarray(Tridiagonal(w, off)))
    n = w.shape[0]
    z = np.empty((n, n), order="F")
    _check(lapack[0](_COL_MAJOR, b"V", n, w, off, z, max(n, 1)), "dstevd")
    # numpy's eigh returns C-ordered vectors; the same layout keeps the
    # products callers form with them bit-identical to the dense path
    return w, np.ascontiguousarray(z)


def eigvalsh_bands(d, e) -> np.ndarray:
    """Ascending eigenvalues."""
    w, off = _work_copies(d, e)
    lapack = _lapack()
    if lapack is None:
        return np.linalg.eigvalsh(np.asarray(Tridiagonal(w, off)))
    _check(lapack[1](w.shape[0], w, off), "dsterf")
    return w
