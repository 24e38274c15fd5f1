"""Eigenvalue branches E_n(z) and fixed points of z = E_n(z).

A branch is labelled across a window of frozen parameters in one of two ways.

* By Sturm index, wherever ``build_bands`` gives a real symmetric tridiagonal
  H(z): both stationary forms of the constant and oscillator masses, and the
  Klein-Gordon form of any real mass-squared.  The off-diagonals are nonzero,
  so the eigenvalues are simple and E_n(z) is the n-th smallest eigenvalue at
  every z (Barth, Martin & Wilkinson, Numer. Math. 9, 1967).  A window is
  sampled once for all branches, one O(N^2) tridiagonal eigenvalue solve
  (``eigvalsh_bands``) per sample.  The sign of f(z) = E_n(z) - z is the
  inertia of H(z) - z: f(z) > 0 exactly when at most n pivots of its LDL^T
  factorization are negative, so bisection counts pivots instead of solving
  eigenproblems.  Each level's ket comes from one tridiagonal eigensolve
  (``eigh_bands``) at the root.
* By eigenvector overlap, for an arbitrary matrix family
  (``trace_branch_family``) and where the mass-squared is complex: at each
  sample the eigenpair with the largest |<ket_prev|ket>| wins, which keeps
  labels consistent through avoided crossings where index sorting would swap
  them, and each bisection step is a fresh overlap-matched eigensolve.

Fixed points are bracketed by sign changes of f on the sample grid and
refined by bisection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import BranchLost, ComplexBranch, DegenerateMass, RefinementStall, SolverError
from .frozen_spectrum import FrozenDecomposition, decompose
from .operators import Grid, HOQuadratic, MassModel, build_bands, build_problem
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
#: z -> (diagonal, off_diagonal) of a real symmetric tridiagonal H(z), or None.
BandFamily = Callable[[float], "tuple[np.ndarray, np.ndarray] | None"]


@dataclass(frozen=True)
class EnergyBranch:
    """One real eigenvalue branch sampled over a window of the frozen parameter.

    A branch labelled by Sturm index carries its ``bands``; a branch continued
    by eigenvector overlap carries its ``family``, the tracked right ``kets``
    and the ``continuity_overlaps`` between consecutive samples, which are
    None on index-labelled branches.
    """

    branch_index: int
    z_samples: np.ndarray
    e_values: np.ndarray
    continuity_overlaps: np.ndarray | None
    kets: np.ndarray | None = field(repr=False)        # (N, steps) tracked right kets
    family: Family | None = field(repr=False, compare=False)
    bands: BandFamily | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class FixedPointRoot:
    """Solution of z = E_n(z); j counts roots of the branch in ascending z."""

    z: float
    j: int
    bracket: int       # index of the sample bracketing the root from the left


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


@dataclass(frozen=True)
class _SampledWindow:
    """Sorted spectra of H(z) at the samples of one window, shared by branches.

    ``spectra`` is None when some sample is not real symmetric; the branches
    of such a window are continued by eigenvector overlap.
    """

    kind: str
    grid: Grid
    model: MassModel
    window: tuple
    z_samples: np.ndarray
    spectra: np.ndarray | None


def _sample_window(kind: str, grid: Grid, model: MassModel, z_lo: float, z_hi: float,
                   steps: int) -> _SampledWindow:
    if isinstance(model, HOQuadratic) and z_lo <= model.E0 <= z_hi:
        raise DegenerateMass(
            f"window [{z_lo}, {z_hi}] contains the mass singularity z = {model.E0}; "
            "split the window around it"
        )
    z_samples = _check_window(z_lo, z_hi, steps)
    spectra = np.empty((steps, grid.n_points))
    for k, z in enumerate(z_samples):
        bands = build_bands(kind, grid, model, float(z))
        if bands is None:
            spectra = None
            break
        spectra[k] = eigvalsh_bands(*bands)
    return _SampledWindow(kind, grid, model, (z_lo, z_hi), z_samples, spectra)


def _window_branch(sampled: _SampledWindow, n: int,
                   overlap_floor: float = OVERLAP_FLOOR) -> EnergyBranch:
    kind, grid, model = sampled.kind, sampled.grid, sampled.model
    if sampled.spectra is None:
        return trace_branch_family(lambda z: build_problem(kind, grid, model, z), n,
                                   *sampled.window, sampled.z_samples.shape[0],
                                   overlap_floor=overlap_floor)
    if n < 0 or n >= grid.n_points:
        raise ValueError(f"branch index {n} outside spectrum of size {grid.n_points}")
    return EnergyBranch(
        branch_index=n,
        z_samples=sampled.z_samples,
        e_values=sampled.spectra[:, n].copy(),
        continuity_overlaps=None,
        kets=None,
        family=None,
        bands=partial(build_bands, kind, grid, model),
    )


def trace_branch(model: MassModel, grid: Grid, n: int, z_lo: float, z_hi: float,
                 steps: int = WINDOW_STEPS, kind: str = "schrodinger") -> EnergyBranch:
    """Trace branch n of the discretized model over a singularity-free window.

    The branch is labelled by Sturm index where H(z) is real symmetric at
    every sample, and continued by eigenvector overlap otherwise.
    """
    return _window_branch(_sample_window(kind, grid, model, z_lo, z_hi, steps), n)


def _real_bands(branch: EnergyBranch, z: float) -> tuple[np.ndarray, np.ndarray]:
    bands = branch.bands(z)
    if bands is None:
        raise ComplexBranch(
            f"H(z) stops being real symmetric at z = {z} inside a window whose "
            f"samples were, so branch {branch.branch_index} is not index-labelled there"
        )
    return bands


def _f_sign(branch: EnergyBranch, z: float, k: int, overlap_floor: float) -> float:
    """A number with the sign of f(z) = E_n(z) - z (zero only if f(z) is)."""
    n = branch.branch_index
    if branch.bands is not None:
        return 1.0 if count_below(*_real_bands(branch, z), z) <= n else -1.0
    dec = decompose(branch.family(z))
    idx, _ = _pick_by_overlap(dec, branch.kets[:, k], overlap_floor)
    return _real_or_raise(dec, idx, z, n) - z


def _bisect(branch: EnergyBranch, k: int, refine_tol: float,
            overlap_floor: float) -> tuple[float, int]:
    """Root of f in the sample bracket k, and the number of evaluations of f."""
    lo, hi = float(branch.z_samples[k]), float(branch.z_samples[k + 1])
    above_lo = branch.e_values[k] > lo
    for evals in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= refine_tol:
            return mid, evals
        if mid == lo or mid == hi:
            raise RefinementStall(
                f"bisection exhausted float resolution at z = {mid} "
                f"before reaching tolerance {refine_tol}"
            )
        f_mid = _f_sign(branch, mid, k, overlap_floor)
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


def _solve(branch: EnergyBranch, refine_tol: float,
           overlap_floor: float) -> tuple[list[FixedPointRoot], int]:
    if not refine_tol > 0:
        raise ValueError(f"refine_tol must be positive, got {refine_tol}")
    z = branch.z_samples
    f = branch.e_values - z
    raw: list[tuple[float, int]] = []
    evals = 0
    for k in range(z.shape[0] - 1):
        if f[k] == 0.0:
            raw.append((float(z[k]), k))
            continue
        if f[k] * f[k + 1] >= 0.0:
            continue
        root, used = _bisect(branch, k, refine_tol, overlap_floor)
        raw.append((root, k))
        evals += used
    if f[-1] == 0.0:
        raw.append((float(z[-1]), z.shape[0] - 2))

    raw.sort(key=lambda item: item[0])
    merged: list[tuple[float, int]] = []
    for root, bracket in raw:
        if merged and _close(root, merged[-1][0]):
            continue
        merged.append((root, bracket))
    roots = [FixedPointRoot(z=root, j=j, bracket=bracket)
             for j, (root, bracket) in enumerate(merged)]
    return roots, evals


def solve_fixed_points(branch: EnergyBranch, refine_tol: float = REFINE_TOL, *,
                       overlap_floor: float = OVERLAP_FLOOR) -> list[FixedPointRoot]:
    """All fixed points z = E_n(z) bracketed by the branch samples.

    Every sign change of f(z) = E_n(z) - z is refined by bisection: by
    inertia counts on an index-labelled branch, by fresh overlap-matched
    eigensolves on a continued one.  An f that never changes sign yields an
    empty list.  Roots closer than 1e-8 * (1 + |z|) are merged.
    """
    return _solve(branch, refine_tol, overlap_floor)[0]


def _level(branch: EnergyBranch, root: FixedPointRoot, j: int,
           overlap_floor: float) -> PhysicalLevel:
    n = branch.branch_index
    if branch.bands is not None:
        diagonal, off = _real_bands(branch, root.z)
        ket = eigh_bands(diagonal, off)[1][:, n]
        ket = ket * np.sign(ket[np.argmax(np.abs(ket))])
        r = (diagonal - root.z) * ket
        r[:-1] += off * ket[1:]
        r[1:] += off * ket[:-1]
        return PhysicalLevel(multi_index=(n, j), energy=root.z, right_ket=ket,
                             left_bra=ket, residual=float(np.linalg.norm(r)))
    H_star = branch.family(root.z)
    dec = decompose(H_star)
    idx, _ = _pick_by_overlap(dec, branch.kets[:, root.bracket], overlap_floor)
    ket = dec.right_kets[:, idx]
    return PhysicalLevel(
        multi_index=(n, j),
        energy=root.z,
        right_ket=ket,
        left_bra=dec.left_bras[:, idx],
        residual=float(np.linalg.norm(H_star @ ket - root.z * ket)),
    )


def collect_physical(model: MassModel, grid: Grid, n_list: Sequence[int],
                     z_windows: Sequence[tuple[float, float]],
                     kind: str = "schrodinger", *,
                     steps: int = WINDOW_STEPS,
                     refine_tol: float = REFINE_TOL,
                     overlap_floor: float = OVERLAP_FLOOR) -> CollectResult:
    """Assemble the physical level set over branches and search windows.

    Each window is sampled once for all branches; each (branch, window) pair
    is then solved independently.  Solver failures are recorded per pair and
    the remaining levels are returned, and every solved pair leaves a
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
    levels: list[PhysicalLevel] = []
    failures: list[CollectFailure] = []
    diagnostics: list[WindowDiagnostics] = []
    for n in n_list:
        found: list[tuple[FixedPointRoot, EnergyBranch, tuple]] = []
        for window, entry in zip(z_windows, sampled):
            window = (float(window[0]), float(window[1]))
            error = entry if isinstance(entry, SolverError) else None
            if error is None:
                try:
                    branch = _window_branch(entry, n, overlap_floor)
                    roots, evals = _solve(branch, refine_tol, overlap_floor)
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
                np.abs(branch.e_values - branch.z_samples).min())
            diagnostics.append(WindowDiagnostics(
                branch_index=n,
                window=window,
                samples=int(branch.z_samples.shape[0]),
                bisection_steps=evals,
                near_miss=near_miss,
            ))
            found.extend((root, branch, window) for root in roots)
        found.sort(key=lambda item: item[0].z)
        kept: list[tuple[FixedPointRoot, EnergyBranch, tuple]] = []
        for root, branch, window in found:
            if kept and window != kept[-1][2] and _close(root.z, kept[-1][0].z):
                continue
            kept.append((root, branch, window))
        levels.extend(_level(branch, root, j, overlap_floor)
                      for j, (root, branch, _) in enumerate(kept))
    return CollectResult(levels=levels, failures=failures, diagnostics=diagnostics)
