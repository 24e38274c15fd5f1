"""Eigenvalue-branch continuation and fixed points of z = E_n(z).

A branch is followed across a window of frozen parameters by eigenvector
overlap: at each sample the eigenpair with the largest |<ket_prev|ket>| wins,
which keeps labels consistent through avoided crossings where plain index
sorting would swap them.  Fixed points are bracketed by sign changes of
f(z) = E_n(z) - z on the sample grid and refined by bisection, each
evaluation being a fresh eigensolve with overlap-matched branch selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import BranchLost, ComplexBranch, DegenerateMass, RefinementStall, SolverError
from .frozen_spectrum import FrozenDecomposition, decompose
from .operators import Grid, HOQuadratic, MassModel, build_problem

#: Minimal admissible continuation overlap between consecutive samples.
OVERLAP_FLOOR = 0.7
#: Default number of samples per search window.
WINDOW_STEPS = 64
#: Default absolute bisection tolerance on z.
REFINE_TOL = 1e-10
#: Roots closer than 1e-8 * (1 + |z|) are merged (tangency guard).
MERGE_FACTOR = 1e-8

Family = Callable[[float], np.ndarray]


@dataclass(frozen=True)
class EnergyBranch:
    """One real eigenvalue branch sampled over a window of the frozen parameter."""

    branch_index: int
    z_samples: np.ndarray
    e_values: np.ndarray
    continuity_overlaps: np.ndarray
    kets: np.ndarray = field(repr=False)        # (N, steps) tracked right kets
    family: Family = field(repr=False, compare=False)


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
class CollectResult:
    levels: list
    failures: list


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


def trace_branch_family(family: Family, n: int, z_lo: float, z_hi: float,
                        steps: int = WINDOW_STEPS, *,
                        overlap_floor: float = OVERLAP_FLOOR) -> EnergyBranch:
    """Follow branch n of a matrix family H(z) across [z_lo, z_hi].

    The branch starts at the n-th eigenvalue (by (Re, Im) order) of the first
    sample and is continued by eigenvector overlap.
    """
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    if not z_lo < z_hi:
        raise ValueError(f"need z_lo < z_hi, got [{z_lo}, {z_hi}]")
    z_samples = np.linspace(z_lo, z_hi, steps)
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


def trace_branch(model: MassModel, grid: Grid, n: int, z_lo: float, z_hi: float,
                 steps: int = WINDOW_STEPS, kind: str = "schrodinger", *,
                 overlap_floor: float = OVERLAP_FLOOR) -> EnergyBranch:
    """Trace branch n of the discretized model over a singularity-free window."""
    if isinstance(model, HOQuadratic) and z_lo <= model.E0 <= z_hi:
        raise DegenerateMass(
            f"window [{z_lo}, {z_hi}] contains the mass singularity z = {model.E0}; "
            "split the window around it"
        )
    return trace_branch_family(lambda z: build_problem(kind, grid, model, z),
                               n, z_lo, z_hi, steps, overlap_floor=overlap_floor)


def _eval_branch(family: Family, z: float, ref_ket: np.ndarray, n: int,
                 overlap_floor: float) -> float:
    dec = decompose(family(z))
    idx, _ = _pick_by_overlap(dec, ref_ket, overlap_floor)
    return _real_or_raise(dec, idx, z, n)


def solve_fixed_points(branch: EnergyBranch, refine_tol: float = REFINE_TOL, *,
                       overlap_floor: float = OVERLAP_FLOOR) -> list[FixedPointRoot]:
    """All fixed points z = E_n(z) bracketed by the branch samples.

    Every sign change of f(z) = E_n(z) - z is refined by bisection with fresh
    eigensolves; an f that never changes sign yields an empty list.  Roots
    closer than 1e-8 * (1 + |z|) are merged.
    """
    if not refine_tol > 0:
        raise ValueError(f"refine_tol must be positive, got {refine_tol}")
    z = branch.z_samples
    f = branch.e_values - z
    raw: list[tuple[float, int]] = []
    for k in range(z.shape[0] - 1):
        if f[k] == 0.0:
            raw.append((float(z[k]), k))
            continue
        if f[k] * f[k + 1] >= 0.0:
            continue
        raw.append((_bisect(branch, k, refine_tol, overlap_floor), k))
    if f[-1] == 0.0:
        raw.append((float(z[-1]), z.shape[0] - 2))

    raw.sort(key=lambda item: item[0])
    merged: list[tuple[float, int]] = []
    for root, bracket in raw:
        if merged and abs(root - merged[-1][0]) <= MERGE_FACTOR * (1.0 + abs(root)):
            continue
        merged.append((root, bracket))
    return [FixedPointRoot(z=root, j=j, bracket=bracket)
            for j, (root, bracket) in enumerate(merged)]


def _bisect(branch: EnergyBranch, k: int, refine_tol: float,
            overlap_floor: float) -> float:
    lo, hi = float(branch.z_samples[k]), float(branch.z_samples[k + 1])
    f_lo = float(branch.e_values[k] - lo)
    ref = branch.kets[:, k]
    n = branch.branch_index
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= refine_tol:
            return mid
        if mid == lo or mid == hi:
            raise RefinementStall(
                f"bisection exhausted float resolution at z = {mid} "
                f"before reaching tolerance {refine_tol}"
            )
        f_mid = _eval_branch(branch.family, mid, ref, n, overlap_floor) - mid
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    raise RefinementStall(
        f"bisection did not reach tolerance {refine_tol} within 200 iterations"
    )


def collect_physical(model: MassModel, grid: Grid, n_list: Sequence[int],
                     z_windows: Sequence[tuple[float, float]],
                     kind: str = "schrodinger", *,
                     steps: int = WINDOW_STEPS,
                     refine_tol: float = REFINE_TOL,
                     overlap_floor: float = OVERLAP_FLOOR) -> CollectResult:
    """Assemble the physical level set over branches and search windows.

    Each (branch, window) pair is traced and solved independently; solver
    failures are recorded per pair and the remaining levels are returned.
    Roots of one branch are indexed j = 0, 1, ... in ascending energy across
    all its windows.  Windows are not deduplicated: listing the same window
    twice yields coincident levels, left for the overlap-matrix conditioning
    check to reject downstream.
    """
    levels: list[PhysicalLevel] = []
    failures: list[CollectFailure] = []
    for n in n_list:
        found: list[tuple[FixedPointRoot, EnergyBranch]] = []
        for window in z_windows:
            try:
                branch = trace_branch(model, grid, n, window[0], window[1], steps,
                                      kind, overlap_floor=overlap_floor)
                roots = solve_fixed_points(branch, refine_tol, overlap_floor=overlap_floor)
            except SolverError as exc:
                failures.append(CollectFailure(
                    branch_index=n,
                    window=(float(window[0]), float(window[1])),
                    error=type(exc).__name__,
                    message=str(exc),
                ))
                continue
            found.extend((root, branch) for root in roots)
        found.sort(key=lambda item: item[0].z)
        for j, (root, branch) in enumerate(found):
            H_star = branch.family(root.z)
            dec = decompose(H_star)
            idx, _ = _pick_by_overlap(dec, branch.kets[:, root.bracket], overlap_floor)
            ket = dec.right_kets[:, idx]
            bra = dec.left_bras[:, idx]
            residual = float(np.linalg.norm(H_star @ ket - root.z * ket))
            levels.append(PhysicalLevel(
                multi_index=(n, j),
                energy=root.z,
                right_ket=ket,
                left_bra=bra,
                residual=residual,
            ))
    return CollectResult(levels=levels, failures=failures)
