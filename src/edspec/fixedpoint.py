"""Eigenvalue branches E_n(z) and fixed points of z = E_n(z).

``collect_physical`` is the level search.  It takes a discretized model
whose stationary form H(z) is real symmetric tridiagonal, as every form
``operators.write_bands`` writes is.  The off-diagonals are nonzero,
so the eigenvalues are simple and E_n(z) is the n-th smallest eigenvalue at
every z (Barth, Martin & Wilkinson, Numer. Math. 9, 1967): branches are
labelled by Sturm index.  The sign of f_n(z) = E_n(z) - z is the inertia of
H(z) - z: f_n(z) > 0 exactly when at most n pivots of its LDL^T
factorization are negative (``tridiagonal.count_below``, LAPACK's
``dlaebz``), and that count is the only sign the search takes.  A search
makes one band family of its (kind, grid, model), the one holder of H(z):
every band of the search comes from ``operators.write_bands``, a count's
written as H(z) - s into the family's own buffers.  A window is sampled
once for all branches and takes one count per sample, which signs every
branch at once; each change of sign between two samples is bisected by
the count.  A root that falls on a sample is bisected like any other, from
the bracket on the side its count puts it.  Eigenvalues are solved only
for a near miss, min_k |E_n(z_k) - z_k| on a window where branch n changes
sign nowhere, and there only at the samples no count excludes: a count of
a sample's bands at z_k +- t proves |E_n(z_k) - z_k| > t, and E_n(z_k) is
solved, by index-selective bisection of the same count (``eigpair_bands``),
where no count proves the sample farther than one already solved.  Each
level's ket comes from one selective eigenpair solve (bisection, then
inverse iteration) at the root.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Sequence

import numpy as np

from .errors import DegenerateMass, RefinementStall, SolverError
# unused by the search; bench/test_bench.py asserts that this module binds
# the traced ``decompose``
from .frozen_spectrum import decompose  # noqa: F401
from . import operators
from .operators import Grid, HOQuadratic, MassModel
from .tridiagonal import SturmCount, eigpair_bands

#: Default number of samples per search window.
WINDOW_STEPS = 64
#: Default absolute bisection tolerance on z.
REFINE_TOL = 1e-10
#: Roots closer than 1e-8 * (1 + |z|) are merged (tangency guard).
MERGE_FACTOR = 1e-8
#: An exclusion count's margin per unit of ||H(z)||_1 + |z|: well above the
#: 4 eps ||H||_1 within which a count and dstevx may disagree.
_MARGIN = 64.0 * float(np.finfo(np.float64).eps)


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


class _ModelFamily:
    """H(z) of one stationary form of one model on one grid, and the inertia counts of H(z) - s.

    A count writes H(z) - s into the buffers of its own ``SturmCount``;
    ``bands`` writes H(z) into new arrays, and so does ``written`` unless
    handed a buffer for the diagonal.
    """

    def __init__(self, kind: str, grid: Grid, model: MassModel):
        self.kind = kind
        self.model = model
        # written(z, out=None) gives the diagonal of H(z) and its off-diagonal
        # value.  write_bands is reached through its module, which alone
        # binds it: the benchmark's tracer (bench/spans.py) wraps only what
        # another module binds, and counts build_problem alone as an
        # operators build
        self.written = partial(operators.write_bands, kind, grid, model)
        self._sturm = SturmCount(grid.n_points)

    def bands(self, z: float) -> tuple[np.ndarray, np.ndarray]:
        """The diagonal and off-diagonal of H(z), as new arrays."""
        diagonal, off_diagonal = self.written(z)
        return diagonal, np.full(diagonal.shape[0] - 1, off_diagonal)

    def count(self, z: float, shift: float) -> int:
        """Number of eigenvalues of H(z) below ``shift``."""
        # H(z) is written into the counter's own buffer, then shifted in place
        return self.count_written(*self.written(z, self._sturm.shifted), shift)

    def count_written(self, diagonal: np.ndarray, off_diagonal: float, shift: float) -> int:
        """Number of eigenvalues below ``shift`` of the H(z) that ``written`` gave."""
        sturm = self._sturm
        np.subtract(diagonal, shift, out=sturm.shifted)
        square = off_diagonal * off_diagonal
        sturm.squares.fill(square)
        return sturm(square)


class _SampledWindow:
    """Inertia counts of H(z) at the samples of one window, shared by its branches.

    The count of a sample is taken once for all branches; its bands are
    written once more, for all branches, only for a near miss.
    """

    def __init__(self, family: _ModelFamily, z_samples: np.ndarray):
        self.family = family
        self.z_samples = z_samples
        #: Number of eigenvalues of H(z_k) below z_k at each sample.
        self.counts = np.array([family.count(z, z) for z in z_samples.tolist()])

    @cached_property
    def _bands(self) -> list[tuple[np.ndarray, float]]:
        return [self.family.written(z) for z in self.z_samples.tolist()]

    def near_miss(self, n: int) -> float:
        """min_k |E_n(z_k) - z_k| over the samples, where f_n changes sign nowhere.

        E_n(z_k) is solved (``eigpair_bands``) only at the samples that no
        inertia count excludes.  The count of H(z_k) at z_k + t + m_k, where
        f_n > 0, or at z_k - t - m_k, where f_n < 0, proves
        |E_n(z_k) - z_k| > t: the margin m_k = 64 eps (||H(z_k)||_1 + |z_k|)
        covers the few eps ||H|| by which a count and the solver disagree.
        A sample is dropped once a count proves it farther than the nearest
        solved one, and the next one solved is found by halving t over the
        samples left, so the value is the minimum over all samples, bit for
        bit.
        """
        z = self.z_samples.tolist()
        above = bool(self.counts[0] <= n)
        side = 1.0 if above else -1.0
        margins = [_MARGIN * (float(np.abs(diagonal).max()) + 2.0 * abs(off) + abs(zk))
                   for (diagonal, off), zk in zip(self._bands, z)]

        def beyond(k: int, t: float) -> bool:
            shift = z[k] + side * (t + margins[k])
            return (self.family.count_written(*self._bands[k], shift) <= n) == above

        def solve(k: int) -> float:
            diagonal, off = self._bands[k]
            return abs(eigpair_bands(diagonal, np.full(len(diagonal) - 1, off), n) - z[k])

        best, left = solve(0), range(1, len(z))
        while left := [k for k in left if not beyond(k, best)]:
            # halve t over the samples left, down to the one whose E_n is nearest
            group, lo, hi = left, 0.0, best
            while len(group) > 1 and hi - lo > min(margins):
                t = 0.5 * (lo + hi)
                if closer := [k for k in group if not beyond(k, t)]:
                    group, hi = closer, t
                else:
                    lo = t
            k = group[0]
            left.remove(k)
            best = min(best, solve(k))
        return best


def _sample_window(family: _ModelFamily, z_lo: float, z_hi: float,
                   steps: int) -> _SampledWindow:
    # only the schrodinger form divides by 2 m(z), which vanishes at z = E0
    model = family.model
    if family.kind == "schrodinger" and isinstance(model, HOQuadratic) \
            and z_lo <= model.E0 <= z_hi:
        raise DegenerateMass(
            f"window [{z_lo}, {z_hi}] contains the mass singularity z = {model.E0}; "
            "split the window around it"
        )
    return _SampledWindow(family, np.linspace(z_lo, z_hi, steps))


def _bisect(family: _ModelFamily, n: int, lo: float, hi: float, above_lo: bool,
            refine_tol: float) -> tuple[float, int]:
    """Root of f_n between lo and hi, whose signs differ, and the counts it took.

    ``above_lo`` is the sign at lo, f_n(lo) > 0.
    """
    for evals in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= refine_tol:
            return mid, evals
        if mid == lo or mid == hi:
            raise RefinementStall(
                f"bisection exhausted float resolution at z = {mid} "
                f"before reaching tolerance {refine_tol}"
            )
        if (family.count(mid, mid) <= n) == above_lo:
            lo = mid
        else:
            hi = mid
    raise RefinementStall(
        f"bisection did not reach tolerance {refine_tol} within 200 iterations"
    )


def _close(z: float, z_prev: float, tol: float = 0.0) -> bool:
    """Roots closer than max(MERGE_FACTOR * (1 + |z|), tol) are one.

    The first term is the tangency guard; ``tol`` lets a caller also merge
    estimates that bisection to that tolerance cannot tell apart.
    """
    return abs(z - z_prev) <= max(MERGE_FACTOR * (1.0 + abs(z)), tol)


def _roots(window: _SampledWindow, n: int, refine_tol: float) -> tuple[list[float], int]:
    """Fixed points of branch n on one window, and the counts bisection took.

    The sign of f_n at a sample is its inertia count, and each change of
    sign between two samples is bisected.  The roots come in ascending z,
    merged within MERGE_FACTOR * (1 + |z|).
    """
    z = window.z_samples
    above = window.counts <= n
    roots: list[float] = []
    evals = 0
    for k in np.flatnonzero(above[:-1] != above[1:]):
        root, used = _bisect(window.family, n, float(z[k]), float(z[k + 1]), bool(above[k]),
                             refine_tol)
        evals += used
        if not (roots and _close(root, roots[-1])):
            roots.append(root)
    return roots, evals


def _level(family: _ModelFamily, n: int, z: float, j: int) -> PhysicalLevel:
    diagonal, off = family.bands(z)
    ket = eigpair_bands(diagonal, off, n, vectors=True)[1]
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

    The branches are labelled by Sturm index, as the stationary form is real
    symmetric.  Each window is sampled once for all branches, with one
    inertia count per sample; each (branch, window) pair is then solved
    independently, by bisecting the count, and the eigenvalues E_n of a
    window's samples are solved only where branch n changes sign nowhere, at
    the samples no count excludes from its near miss.  Solver failures, a
    complex mass-squared among them, are recorded per
    pair and the remaining levels are returned, and every solved pair leaves
    a ``WindowDiagnostics`` record.  Roots of one branch found in different
    windows are one level when they lie within
    max(MERGE_FACTOR * (1 + |z|), refine_tol) of each other: bisection leaves
    each estimate within refine_tol / 2 of its root, so a root on an
    endpoint two windows share, or inside two overlapping windows, counts
    once.  The roots are then indexed j = 0, 1, ... in ascending energy.
    Windows are not deduplicated here: the same window listed twice yields
    coincident levels, so the run configuration rejects such a list.
    A branch index outside 0..N-1, ``steps`` below 2 and a window without
    finite bounds z_lo < z_hi raise ValueError before any sampling.
    """
    if not refine_tol > 0:
        raise ValueError(f"refine_tol must be positive, got {refine_tol}")
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    for n in n_list:
        if not 0 <= n < grid.n_points:
            raise ValueError(f"branch index {n} outside spectrum of size {grid.n_points}")
    for lo, hi in z_windows:
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError(f"window bounds must be finite, got [{lo}, {hi}]")
        if not lo < hi:
            raise ValueError(f"need z_lo < z_hi, got [{lo}, {hi}]")
    family = _ModelFamily(kind, grid, model)
    sampled: list[_SampledWindow | SolverError] = []
    for lo, hi in z_windows:
        try:
            sampled.append(_sample_window(family, lo, hi, steps))
        except SolverError as exc:
            sampled.append(exc)
    levels: list[PhysicalLevel] = []
    failures: list[CollectFailure] = []
    diagnostics: list[WindowDiagnostics] = []
    for n in n_list:
        found: list[tuple[float, tuple]] = []
        for window, entry in zip(z_windows, sampled):
            window = (float(window[0]), float(window[1]))
            error = entry if isinstance(entry, SolverError) else None
            if error is None:
                try:
                    roots, evals = _roots(entry, n, refine_tol)
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
            near_miss = None if roots else entry.near_miss(n)
            diagnostics.append(WindowDiagnostics(
                branch_index=n,
                window=window,
                samples=int(entry.z_samples.shape[0]),
                bisection_steps=evals,
                near_miss=near_miss,
            ))
            found.extend((root, window) for root in roots)
        found.sort(key=lambda item: item[0])
        kept: list[tuple[float, tuple]] = []
        for z, window in found:
            if kept and window != kept[-1][1] and _close(z, kept[-1][0], refine_tol):
                continue
            kept.append((z, window))
        levels.extend(_level(family, n, z, j) for j, (z, _) in enumerate(kept))
    return CollectResult(levels=levels, failures=failures, diagnostics=diagnostics)
