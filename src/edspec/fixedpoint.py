"""Eigenvalue branches E_n(z) and fixed points of z = E_n(z).

A branch is labelled across a window of frozen parameters in one of two ways,
each with its own tool and branch type.

* By Sturm index (``collect_physical``, ``trace_branch``; ``IndexedBranch``)
  for a discretized model whose ``build_bands`` gives a real symmetric
  tridiagonal H(z): both stationary forms of the constant and oscillator
  masses, and the Klein-Gordon form of any real mass-squared.  The
  off-diagonals are nonzero, so the eigenvalues are simple and E_n(z) is the
  n-th smallest eigenvalue at every z (Barth, Martin & Wilkinson, Numer.
  Math. 9, 1967).  The sign of f(z) = E_n(z) - z is the inertia of
  H(z) - z: f(z) > 0 exactly when at most n pivots of its LDL^T
  factorization are negative (``count_below``, O(N)).  ``collect_physical``
  samples a window once for all branches and takes one such count per
  sample, which signs every branch at once; bisection counts pivots too.
  A sample's O(N^2) tridiagonal eigenvalue solve (``eigvalsh_bands``) is
  made at most once, and only where a report needs the value: at the ends
  of a sign change and on a window where some branch changes sign nowhere
  (its near miss).  ``trace_branch`` solves every sample.  Each level's ket
  comes from one tridiagonal eigensolve (``eigh_bands``) at the root.  A
  complex mass-squared raises ValueError.
* By eigenvector overlap (``trace_branch_family``; ``EnergyBranch``) for an
  arbitrary matrix family, such as ``build_problem`` with a complex
  mass-squared: at each sample the eigenpair with the largest |<ket_prev|ket>|
  wins, which keeps labels consistent through avoided crossings where index
  sorting would swap them, and each bisection step is a fresh overlap-matched
  eigensolve.

``solve_fixed_points`` takes either branch: fixed points are bracketed by sign
changes of f on the sample grid and refined by bisection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np

from .errors import BranchLost, ComplexBranch, DegenerateMass, RefinementStall, SolverError
from .frozen_spectrum import FrozenDecomposition, decompose
from .operators import Grid, HOQuadratic, MassModel, build_bands
from .tridiagonal import eigh_bands, eigvalsh_bands

#: Minimal admissible continuation overlap between consecutive samples.
OVERLAP_FLOOR = 0.7
#: Default number of samples per search window.
WINDOW_STEPS = 64
#: Default absolute bisection tolerance on z.
REFINE_TOL = 1e-10
#: Roots closer than 1e-8 * (1 + |z|) are merged (tangency guard).
MERGE_FACTOR = 1e-8

Family = Callable[[float], np.ndarray]
#: z -> (diagonal, off_diagonal) of a real symmetric tridiagonal H(z).
BandFamily = Callable[[float], "tuple[np.ndarray, np.ndarray]"]
#: (z, bracket k) -> a number with the sign of f(z) = E_n(z) - z.
SignEvaluator = Callable[[float, int], float]


@dataclass(frozen=True)
class EnergyBranch:
    """One real eigenvalue branch of a matrix family, continued by eigenvector overlap.

    ``kets`` holds the tracked right ket at each sample and
    ``continuity_overlaps`` the overlaps between consecutive samples.
    """

    branch_index: int
    z_samples: np.ndarray
    e_values: np.ndarray
    continuity_overlaps: np.ndarray
    kets: np.ndarray = field(repr=False)        # (N, steps) tracked right kets
    family: Family = field(repr=False, compare=False)


@dataclass(frozen=True)
class IndexedBranch:
    """The n-th smallest eigenvalue of a real symmetric tridiagonal family over a window."""

    branch_index: int
    z_samples: np.ndarray
    e_values: np.ndarray
    bands: BandFamily = field(repr=False, compare=False)


Branch = EnergyBranch | IndexedBranch


@dataclass(frozen=True)
class FixedPointRoot:
    """Solution of z = E_n(z); j counts roots of the branch in ascending z."""

    z: float
    j: int


@dataclass(frozen=True)
class PhysicalLevel:
    """Physical level at multi-index (branch n, root counter j)."""

    multi_index: tuple
    energy: float
    right_ket: np.ndarray
    left_bra: np.ndarray
    residual: float


@dataclass(frozen=True)
class CollectFailure:
    branch_index: int
    window: tuple
    error: str
    message: str


@dataclass(frozen=True)
class WindowDiagnostics:
    """Search record of one (branch, window) pair that was traced and solved.

    ``near_miss`` is min |E_n(z) - z| over the samples when the window
    bracketed no root (a hint of a root the sampling stepped over), else None.
    """

    branch_index: int
    window: tuple
    samples: int
    bisection_steps: int
    near_miss: float | None


@dataclass(frozen=True)
class CollectResult:
    levels: list
    failures: list
    diagnostics: list


def count_below(diagonal: np.ndarray, off_diagonal: np.ndarray, shift: float) -> int:
    """Number of eigenvalues below ``shift`` of a real symmetric tridiagonal.

    Counts the negative pivots of the LDL^T factorization of T - shift
    (Sylvester's law of inertia).  A pivot of magnitude at most pivmin is
    replaced by -pivmin, as in LAPACK's bisection, so a zero pivot counts as
    negative and the next pivot stays finite.
    """
    e2 = off_diagonal * off_diagonal
    pivmin = np.finfo(float).tiny * max(1.0, float(e2.max(initial=0.0)))
    count = 0
    pivot = 1.0
    for d, e2_prev in zip((diagonal - shift).tolist(), [0.0] + e2.tolist()):
        pivot = d - e2_prev / pivot
        if abs(pivot) <= pivmin:
            pivot = -pivmin
        if pivot < 0.0:
            count += 1
    return count


def _pick_by_overlap(dec: FrozenDecomposition, ref_ket: np.ndarray,
                     overlap_floor: float) -> tuple[int, float]:
    overlaps = np.abs(ref_ket.conj() @ dec.right_kets)
    idx = int(np.argmax(overlaps))
    best = float(min(overlaps[idx], 1.0))
    if best < overlap_floor:
        raise BranchLost(
            f"best continuation overlap {best:.3f} below floor {overlap_floor}"
        )
    return idx, best


def _real_or_raise(dec: FrozenDecomposition, idx: int, z: float, n: int) -> float:
    e = dec.eigenvalues[idx]
    if not dec.reality_flags[idx]:
        raise ComplexBranch(f"branch {n} left the real axis at z = {z}: E = {e}")
    return float(e.real)


def _check_window(z_lo: float, z_hi: float, steps: int) -> np.ndarray:
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    if not z_lo < z_hi:
        raise ValueError(f"need z_lo < z_hi, got [{z_lo}, {z_hi}]")
    return np.linspace(z_lo, z_hi, steps)


def trace_branch_family(family: Family, n: int, z_lo: float, z_hi: float,
                        steps: int = WINDOW_STEPS, *,
                        overlap_floor: float = OVERLAP_FLOOR) -> EnergyBranch:
    """Follow branch n of a matrix family H(z) across [z_lo, z_hi].

    The branch starts at the n-th eigenvalue (by (Re, Im) order) of the first
    sample and is continued by eigenvector overlap.
    """
    z_samples = _check_window(z_lo, z_hi, steps)
    e_values = np.empty(steps)
    overlaps = np.empty(steps - 1)
    kets = None
    ref = None
    for k, z in enumerate(z_samples):
        dec = decompose(family(float(z)))
        if k == 0:
            if n < 0 or n >= dec.size:
                raise ValueError(f"branch index {n} outside spectrum of size {dec.size}")
            idx = n
            kets = np.empty((dec.right_kets.shape[0], steps), dtype=complex)
        else:
            idx, overlaps[k - 1] = _pick_by_overlap(dec, ref, overlap_floor)
        e_values[k] = _real_or_raise(dec, idx, float(z), n)
        ref = dec.right_kets[:, idx]
        kets[:, k] = ref
    return EnergyBranch(
        branch_index=n,
        z_samples=z_samples,
        e_values=e_values,
        continuity_overlaps=overlaps,
        kets=kets,
        family=family,
    )


class _SampledWindow:
    """Bands of H(z) at the samples of one window, shared by its branches.

    The inertia count of a sample is taken once for all branches, and its
    eigenvalues are solved when first asked for, then kept.
    """

    def __init__(self, bands: BandFamily, z_samples: np.ndarray):
        self.bands = bands
        self.z_samples = z_samples
        self._sample_bands = [bands(float(z)) for z in z_samples]
        self._spectra: list[np.ndarray | None] = [None] * len(self._sample_bands)

    @property
    def size(self) -> int:
        return self._sample_bands[0][0].shape[0]

    @cached_property
    def counts(self) -> np.ndarray:
        """Number of eigenvalues of H(z_k) below z_k at each sample."""
        return np.array([count_below(d, e, float(z))
                         for (d, e), z in zip(self._sample_bands, self.z_samples)])

    def eigenvalue(self, k: int, n: int) -> float:
        """E_n(z_k)."""
        if self._spectra[k] is None:
            self._spectra[k] = eigvalsh_bands(*self._sample_bands[k])
        return self._spectra[k][n]

    def e_values(self, n: int) -> np.ndarray:
        return np.array([self.eigenvalue(k, n) for k in range(len(self._sample_bands))])


def _sample_window(kind: str, grid: Grid, model: MassModel, z_lo: float, z_hi: float,
                   steps: int) -> _SampledWindow:
    # only the schrodinger form divides by 2 m(z), which vanishes at z = E0
    if kind == "schrodinger" and isinstance(model, HOQuadratic) and z_lo <= model.E0 <= z_hi:
        raise DegenerateMass(
            f"window [{z_lo}, {z_hi}] contains the mass singularity z = {model.E0}; "
            "split the window around it"
        )
    z_samples = _check_window(z_lo, z_hi, steps)
    return _SampledWindow(partial(build_bands, kind, grid, model), z_samples)


def _check_branch(n: int, size: int) -> None:
    if n < 0 or n >= size:
        raise ValueError(f"branch index {n} outside spectrum of size {size}")


def trace_branch(model: MassModel, grid: Grid, n: int, z_lo: float, z_hi: float,
                 steps: int = WINDOW_STEPS, kind: str = "schrodinger") -> IndexedBranch:
    """Sturm-index branch n of the discretized model over one window.

    A schrodinger window must not contain the mass singularity z = E0.  A
    complex mass-squared raises ValueError; continue its branches with
    ``trace_branch_family`` over ``build_problem``.
    """
    window = _sample_window(kind, grid, model, z_lo, z_hi, steps)
    _check_branch(n, window.size)
    return IndexedBranch(
        branch_index=n,
        z_samples=window.z_samples,
        e_values=window.e_values(n),
        bands=window.bands,
    )


def _inertia_sign(bands: BandFamily, n: int) -> SignEvaluator:
    return lambda z, k: 1.0 if count_below(*bands(z), z) <= n else -1.0


def _overlap_sign(branch: EnergyBranch, overlap_floor: float) -> SignEvaluator:
    def sign(z: float, k: int) -> float:
        dec = decompose(branch.family(z))
        idx, _ = _pick_by_overlap(dec, branch.kets[:, k], overlap_floor)
        return _real_or_raise(dec, idx, z, branch.branch_index) - z
    return sign


def _bisect(z: np.ndarray, f: np.ndarray, k: int, f_sign: SignEvaluator,
            refine_tol: float) -> tuple[float, int]:
    """Root of f in the sample bracket k, and the number of evaluations of f."""
    lo, hi = float(z[k]), float(z[k + 1])
    above_lo = f[k] > 0.0
    for evals in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= refine_tol:
            return mid, evals
        if mid == lo or mid == hi:
            raise RefinementStall(
                f"bisection exhausted float resolution at z = {mid} "
                f"before reaching tolerance {refine_tol}"
            )
        f_mid = f_sign(mid, k)
        if f_mid == 0.0:
            return mid, evals + 1
        if (f_mid > 0.0) == above_lo:
            lo = mid
        else:
            hi = mid
    raise RefinementStall(
        f"bisection did not reach tolerance {refine_tol} within 200 iterations"
    )


def _close(z: float, z_prev: float) -> bool:
    """Tangency guard: roots closer than MERGE_FACTOR * (1 + |z|) are one."""
    return abs(z - z_prev) <= MERGE_FACTOR * (1.0 + abs(z))


def _solve(z: np.ndarray, f: np.ndarray, f_sign: SignEvaluator,
           refine_tol: float) -> tuple[list[FixedPointRoot], int]:
    """Fixed points from per-sample values ``f`` with the sign of E_n(z) - z.

    A sample where f is exactly 0 is a root; a sign change between two
    samples is bisected with ``f_sign``.
    """
    if not refine_tol > 0:
        raise ValueError(f"refine_tol must be positive, got {refine_tol}")
    raw: list[float] = []
    evals = 0
    # signs, not values: the product of two tiny values can underflow to 0
    sign = np.sign(f)
    for k in range(z.shape[0] - 1):
        if f[k] == 0.0:
            raw.append(float(z[k]))
            continue
        if sign[k] * sign[k + 1] >= 0.0:
            continue
        root, used = _bisect(z, f, k, f_sign, refine_tol)
        raw.append(root)
        evals += used
    if f[-1] == 0.0:
        raw.append(float(z[-1]))

    raw.sort()
    merged: list[float] = []
    for root in raw:
        if merged and _close(root, merged[-1]):
            continue
        merged.append(root)
    return [FixedPointRoot(z=root, j=j) for j, root in enumerate(merged)], evals


def solve_fixed_points(branch: Branch, refine_tol: float = REFINE_TOL, *,
                       overlap_floor: float = OVERLAP_FLOOR) -> list[FixedPointRoot]:
    """All fixed points z = E_n(z) bracketed by the branch samples.

    Every sign change of f(z) = E_n(z) - z is refined by bisection: by
    inertia counts on an ``IndexedBranch``, by fresh overlap-matched
    eigensolves (held to ``overlap_floor``) on an ``EnergyBranch``.  An f
    that never changes sign yields an empty list.  Roots closer than
    1e-8 * (1 + |z|) are merged.
    """
    f_sign = (_inertia_sign(branch.bands, branch.branch_index)
              if isinstance(branch, IndexedBranch)
              else _overlap_sign(branch, overlap_floor))
    return _solve(branch.z_samples, branch.e_values - branch.z_samples, f_sign, refine_tol)[0]


def _window_signs(window: _SampledWindow, n: int) -> np.ndarray:
    """Per-sample values with the sign of f(z) = E_n(z) - z on one window.

    The sign at a sample is that of its inertia count.  Eigenvalues replace
    the signs at both ends of every sign change: there a sample with
    E_n(z_k) == z_k is itself a root, and the eigenvalue confirms the side
    bisection starts from.  A branch whose count never changes sign gets
    eigenvalues at every sample, for its near miss.  Where an eigenvalue
    and its count disagree in sign, which only rounding at a root next to
    a sample can cause, the window falls back to eigenvalue signs.
    """
    z = window.z_samples
    signs = np.where(window.counts <= n, 1.0, -1.0)
    change = signs[:-1] != signs[1:]
    if not change.any():
        return window.e_values(n) - z
    for k in np.flatnonzero(np.append(change, False) | np.append(False, change)):
        f_k = window.eigenvalue(k, n) - z[k]
        if f_k != 0.0 and (f_k > 0.0) != (signs[k] > 0.0):
            return window.e_values(n) - z
        signs[k] = f_k
    return signs


def _level(bands: BandFamily, n: int, z: float, j: int) -> PhysicalLevel:
    diagonal, off = bands(z)
    ket = eigh_bands(diagonal, off)[1][:, n]
    ket = ket * np.sign(ket[np.argmax(np.abs(ket))])
    r = (diagonal - z) * ket
    r[:-1] += off * ket[1:]
    r[1:] += off * ket[:-1]
    return PhysicalLevel(multi_index=(n, j), energy=z, right_ket=ket,
                         left_bra=ket, residual=float(np.linalg.norm(r)))


def collect_physical(model: MassModel, grid: Grid, n_list: Sequence[int],
                     z_windows: Sequence[tuple[float, float]],
                     kind: str = "schrodinger", *,
                     steps: int = WINDOW_STEPS,
                     refine_tol: float = REFINE_TOL) -> CollectResult:
    """Assemble the physical level set over branches and search windows.

    The branches are labelled by Sturm index, so the stationary form must be
    real symmetric: a complex mass-squared raises ValueError (search such a
    family with ``trace_branch_family`` and ``solve_fixed_points``).  Each
    window is sampled once for all branches, with one inertia count per
    sample; each (branch, window) pair is then solved independently, and a
    sample's eigenvalues are solved at most once, where a sign change ends
    or a branch changes sign nowhere.  Solver failures are recorded per pair
    and the remaining levels are returned, and every solved pair leaves a
    ``WindowDiagnostics`` record.  Roots of one branch found in different
    windows are merged by the rule ``solve_fixed_points`` applies inside a
    window, so a root on an endpoint two windows share counts once; the
    roots are then indexed j = 0, 1, ... in ascending energy.  Windows are
    not deduplicated: listing the same window twice yields coincident
    levels, left for the overlap-matrix conditioning check to reject
    downstream.
    """
    sampled: list[_SampledWindow | SolverError] = []
    for lo, hi in z_windows:
        try:
            sampled.append(_sample_window(kind, grid, model, lo, hi, steps))
        except SolverError as exc:
            sampled.append(exc)
    bands = partial(build_bands, kind, grid, model)
    levels: list[PhysicalLevel] = []
    failures: list[CollectFailure] = []
    diagnostics: list[WindowDiagnostics] = []
    for n in n_list:
        found: list[tuple[float, tuple]] = []
        for window, entry in zip(z_windows, sampled):
            window = (float(window[0]), float(window[1]))
            error = entry if isinstance(entry, SolverError) else None
            if error is None:
                _check_branch(n, entry.size)
                try:
                    roots, evals = _solve(entry.z_samples, _window_signs(entry, n),
                                          _inertia_sign(bands, n), refine_tol)
                except SolverError as exc:
                    error = exc
            if error is not None:
                failures.append(CollectFailure(
                    branch_index=n,
                    window=window,
                    error=type(error).__name__,
                    message=str(error),
                ))
                continue
            near_miss = None if roots else float(
                np.abs(entry.e_values(n) - entry.z_samples).min())
            diagnostics.append(WindowDiagnostics(
                branch_index=n,
                window=window,
                samples=int(entry.z_samples.shape[0]),
                bisection_steps=evals,
                near_miss=near_miss,
            ))
            found.extend((root.z, window) for root in roots)
        found.sort(key=lambda item: item[0])
        kept: list[tuple[float, tuple]] = []
        for z, window in found:
            if kept and window != kept[-1][1] and _close(z, kept[-1][0]):
                continue
            kept.append((z, window))
        levels.extend(_level(bands, n, z, j) for j, (z, _) in enumerate(kept))
    return CollectResult(levels=levels, failures=failures, diagnostics=diagnostics)
