"""The two-component system, its time evolution and pseudo-norm conservation.

The second-order-in-time equation is rearranged into the first-order system
i d/dt (phi1, phi2) = h_sr (phi1, phi2), (phi1, phi2) = (i d/dt psi, psi),
with generator h_sr = [[0, H], [I, 0]]; a pseudo-metric eta of the inner
block lifts to the block form [[0, eta], [eta, 0]].  ``FVSystem`` keeps only
the N x N blocks H and eta, and assembles the 2N x 2N forms only on request,
as dense references.  ``FVState`` holds states as rows, one per time;
``eigenstate`` and ``gaussian_state`` give one row.

The system is propagated exactly through one bi-orthogonal decomposition of
H (``FVSystem.modes``), never through the 2N x 2N generator.  An eigenpair
(lambda, psi) of H gives h_sr the eigenvalues +-omega, omega^2 = lambda,
with kets (+-omega psi, psi), so in the modal coordinates c = L^dagger phi
each mode evolves in closed form:

    c2(t) = c2 cos(omega t) - i c1 sin(omega t) / omega
    c1(t) = c1 cos(omega t) - i omega c2 sin(omega t)

Both are even in omega, so the branch of the square root is immaterial and
complex lambda needs no special case.  ``evolve`` returns the trajectory in
these coordinates (``Trajectory``), and the states phi = K c are never
formed.  Conservation tests therefore probe the algebraic
structure rather than integrator error.  A Hermitian metric M conserves
<Phi|M|Phi> along the flow exactly when M intertwines h_sr with its adjoint
and the spectrum is real; for the swap lift [[0, eta], [eta, 0]] the
pseudo-norm is 2 Re <phi1|eta phi2> and the intertwining residual is that
of eta with H, both evaluated from the blocks.  In modal coordinates the
norms are quadratic forms, ||phi||^2 = c^dagger G c and <phi1|eta phi2> =
c1^dagger M c2 with G = K^dagger K and M = K^dagger eta K; orthonormal kets
(a Hermitian H, every band value among them) without an eta make both
the identity, and the norms sums over the modes.

A real, positive spectrum of H (a real mass-squared >= 0: every
``evolve`` of the command line) has real frequencies.  ``evolve`` then
takes the cosines and sines of real phases in float64, and
``FVSystem.modes`` finds the generator gap from the sorted frequencies;
both give the bits of the complex arithmetic, which a complex spectrum
keeps, with its N x N gap.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateSpectrum, DimensionMismatch, NonHermitianMetric, SingularMetric
from .frozen_spectrum import DEGENERACY_FACTOR, _fix_phases, _min_gap, decompose, reality_mask
from .operators import Grid, OperatorMatrix, Tridiagonal

#: Relative pseudo-norm drift accepted as conservation.
DRIFT_TOLERANCE = 1e-8
#: Relative intertwining residual accepted for a conserving metric.
INTERTWINE_TOLERANCE = 1e-10
#: Floor protecting the relative drift against zero initial pseudo-norm.
NORM_FLOOR = 1e-300
#: Block metrics ``conservation_report`` evaluates from the system's blocks:
#: the swap lift [[0, eta], [eta, 0]] and the 2N x 2N identity.
BLOCK_METRICS = ("swap", "identity")


@dataclass(frozen=True)
class FVState:
    """Two-component states (phi1, phi2) = (i d/dt psi, psi): ``t`` has shape (k,),
    ``phi1`` and ``phi2`` shape (k, N), k >= 1, and row j is the state at ``t[j]``.
    ``evolve`` propagates the last row."""

    t: np.ndarray
    phi1: np.ndarray
    phi2: np.ndarray

    def __post_init__(self):
        shape = self.phi1.shape
        if (self.phi2.shape != shape or len(shape) != 2 or shape[0] < 1
                or np.shape(self.t) != shape[:1]):
            raise ValueError("phi1, phi2 must be equal (k, N) arrays, k >= 1, and t of shape (k,)")
        if not (np.all(np.isfinite(self.phi1)) and np.all(np.isfinite(self.phi2))):
            raise ValueError("state entries must be finite")

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class FVModes:
    """Normal modes of the block generator, from one decomposition of H.

    ``frequencies[n]`` is the principal square root of the n-th eigenvalue of
    H, complex-typed even when every one is real (``eigenstate`` builds its
    ket from them, and a real ket would move its bits); ``kets`` and
    ``bras`` are H's right kets and left vectors, in the order of
    ``decompose``.  The generator's eigenvalues are +-frequencies.
    """

    frequencies: np.ndarray
    kets: np.ndarray
    bras: np.ndarray

    @property
    def spectrum_real(self) -> bool:
        return bool(np.all(reality_mask(self.frequencies)))


@dataclass(frozen=True)
class Trajectory:
    """A propagated state in the modal coordinates c = L^dagger phi of ``modes``.

    ``t`` has shape (k,), ``c1`` and ``c2`` complex shape (k, N), and row j
    holds the coefficients at ``t[j]``; the state at ``t[j]`` is
    phi = K c of row j.  ``len`` is the number of rows.
    """

    t: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    modes: FVModes

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class FVSystem:
    """Two-component block system kept as its inner blocks.

    ``H`` is the base operator, a dense matrix or a ``Tridiagonal`` band
    value, and ``eta`` the inner pseudo-metric (None for the identity).
    ``modes`` decomposes H once, on first use, and serves propagation,
    eigenstates and the conservation checks.  The 2N x 2N generator
    ``h_sr`` and block metric ``eta_sr`` are dense references, assembled
    only when asked for; so is the dense N x N form of a band value.
    """

    H: OperatorMatrix | Tridiagonal
    eta: OperatorMatrix | None = None

    @property
    def base_dimension(self) -> int:
        return self.H.shape[0]

    @property
    def h_sr(self) -> OperatorMatrix:
        """Block generator [[0, H], [I, 0]]."""
        H = np.asarray(self.H)
        n = self.base_dimension
        h_sr = np.zeros((2 * n, 2 * n), dtype=np.result_type(H.dtype, float))
        h_sr[:n, n:] = H
        h_sr[n:, :n] = np.eye(n)
        return h_sr

    @property
    def eta_sr(self) -> OperatorMatrix:
        """Block pseudo-metric [[0, eta], [eta, 0]]."""
        n = self.base_dimension
        eta = np.eye(n) if self.eta is None else self.eta
        eta_sr = np.zeros((2 * n, 2 * n), dtype=np.result_type(eta.dtype, float))
        eta_sr[:n, n:] = eta
        eta_sr[n:, :n] = eta
        return eta_sr

    @cached_property
    def modes(self) -> FVModes:
        """Normal modes from one decomposition of H, computed on first use.

        Raises DegenerateSpectrum when two generator eigenvalues
        +-sqrt(lambda) sit closer than 1e-8 * ||h_sr||_F, the gap rule
        ``decompose`` applies; in particular a zero eigenvalue of H (a
        Jordan block of h_sr) raises.  Real frequencies find the gap by a
        sort (``_generator_gap``), with the bits of the dense N x N form.
        """
        dec = decompose(self.H)
        omega = np.sqrt(dec.eigenvalues)
        n = omega.shape[0]
        scale = np.sqrt(_frobenius_sq(self.H) + n)   # ||h_sr||_F >= 1
        gap = _generator_gap(omega)
        if gap < DEGENERACY_FACTOR * scale:
            raise DegenerateSpectrum(
                f"minimal generator eigenvalue gap {gap:.3e} below "
                f"{DEGENERACY_FACTOR * scale:.3e}"
            )
        return FVModes(frequencies=omega, kets=dec.right_kets, bras=dec.left_bras)


def _generator_gap(omega: np.ndarray) -> float:
    """The smallest distance between two of the generator eigenvalues +-omega.

    That is the least of |omega_i - omega_j| over i != j and |omega_i + omega_j|
    over all i, j.  Real frequencies are principal roots, so omega >= 0, and
    rounding is monotone: the differences are least between neighbours in
    sorted order and the sums at 2 min(omega), bit for bit the dense minima.
    Complex frequencies take the dense N x N form.
    """
    if not omega.imag.any():
        real = np.sort(omega.real)
        return float(min(np.diff(real).min(initial=np.inf), 2.0 * real[0]))
    return float(min(_min_gap(omega), np.abs(omega[:, None] + omega[None, :]).min()))


def assemble_fv(H: OperatorMatrix | Tridiagonal, eta: OperatorMatrix | None = None) -> FVSystem:
    """Two-component system of the block generator [[0, H], [I, 0]].

    The spectrum consists of the pairs +/- sqrt(lambda) over eigenvalues
    lambda of H (checked by the test suite, not assumed here).  An inner
    metric must be Hermitian (tolerance 1e-10) and invertible (condition
    number at most 1e12); without one the swap metric [[0, I], [I, 0]] is
    attached.  A ``Tridiagonal`` H is kept as its bands.
    """
    if not isinstance(H, Tridiagonal):
        H = np.asarray(H)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ValueError(f"H must be square, got shape {H.shape}")
    if eta is not None:
        eta = np.asarray(eta)
        if eta.shape != H.shape:
            raise ValueError(f"eta shape {eta.shape} does not match H shape {H.shape}")
        scale = max(1.0, np.abs(eta).max())
        if np.abs(eta - eta.conj().T).max() > 1e-10 * scale:
            raise NonHermitianMetric("eta fails the 1e-10 Hermiticity tolerance")
        cond = np.linalg.cond(eta)
        if not np.isfinite(cond) or cond > 1e12:
            raise SingularMetric(f"eta is numerically singular (condition number {cond:.3e})")
    return FVSystem(H=H, eta=eta)


def _check_dimension(n: int, system: FVSystem) -> None:
    if n != system.base_dimension:
        raise DimensionMismatch(f"state dimension {n} does not match "
                                f"system base {system.base_dimension}")


def eigenstate(system: FVSystem, index: int) -> FVState:
    """Generator eigenstate ``index`` at t = 0, ordered and phased as ``decompose(h_sr)``.

    Eigenvalues ascend by (Re, Im); for a positive spectrum of H, index k < N
    is -sqrt(lambda_{N-1-k}) and k >= N is +sqrt(lambda_{k-N}).  The state is
    (E psi, psi) made unit norm with its largest component real positive.
    An index outside 0..2N-1 raises ValueError before H is decomposed.
    """
    n = system.base_dimension
    if not 0 <= index < 2 * n:
        raise ValueError(f"eigenstate index {index} outside 0..{2 * n - 1}")
    modes = system.modes
    omega = modes.frequencies
    energies = np.concatenate([-omega, omega])
    k = np.lexsort((energies.imag, energies.real))[index]
    psi = modes.kets[:, k % n]
    ket = _fix_phases(np.concatenate([energies[k] * psi, psi])[:, None])[:, 0]
    return FVState(t=np.zeros(1), phi1=ket[None, :n], phi2=ket[None, n:])


def gaussian_state(grid: Grid, center: float, width: float, momentum: float) -> FVState:
    """Both components loaded with the same normalized gaussian profile, at t = 0.

    A profile whose norm on the grid is zero or not finite, such as a width
    far below the spacing away from every node, raises ValueError.
    """
    x = grid.points()
    # an overflow here leaves a norm of 0, inf or nan, which is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        profile = np.exp(-0.5 * ((x - center) / width) ** 2 + 1j * momentum * x)
    norm = np.linalg.norm(profile)
    if not 0.0 < norm < np.inf:
        raise ValueError(f"the gaussian of width {width} at center {center} has norm {norm} "
                         "on the grid nodes; it needs a finite, nonzero one")
    profile = profile / norm
    return FVState(t=np.zeros(1), phi1=profile[None].copy(), phi2=profile[None].copy())


def _modal_rows(c: np.ndarray, cos: np.ndarray, sin: np.ndarray,
                exchange: np.ndarray) -> np.ndarray:
    """Rows c, then c cos - exchange sin, one per time sample."""
    rows = np.empty((len(cos) + 1, len(c)), complex)
    rows[0] = c
    np.multiply(c, cos, out=rows[1:])
    rows[1:] -= exchange * sin
    return rows


def evolve(system: FVSystem, state: FVState, t_final: float, steps: int) -> Trajectory:
    """Exact spectral propagation of the last row of ``state`` over the duration ``t_final``.

    Returns steps+1 rows of modal coefficients: row 0 is L^dagger times that
    start row, and row j sits at ``state.t[-1] + t_final * j / steps``.  A
    real generator spectrum is propagated on real phases omega t, whose cos
    and sin are the real parts of the complex phases' (the same bits on IEEE
    platforms whose complex cos and sin are built from the real ones).
    Complex eigenvalues of the generator are allowed (a warning is issued
    and norms may grow); a degenerate generator spectrum raises, and so
    does, as ValueError, a ``t_final`` whose phases omega t overflow.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    _check_dimension(state.phi1.shape[1], system)
    modes = system.modes
    if not modes.spectrum_real:
        warnings.warn("generator spectrum is not entirely real; evolution proceeds but "
                      "norms may grow", RuntimeWarning, stacklevel=2)
    omega = modes.frequencies
    if not omega.imag.any():
        # real phases: cos and sin run in float64, not complex arithmetic
        omega = omega.real
    c1 = modes.bras.conj().T @ state.phi1[-1]
    c2 = modes.bras.conj().T @ state.phi2[-1]
    # an overflow here leaves a phase of inf or nan, which is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        times = t_final * np.arange(1, steps + 1) / steps if steps else np.empty(0)
        phase = np.outer(times, omega)
    if not np.isfinite(phase).all():
        raise ValueError(f"t_final = {t_final} overflows the phases omega t")
    cos, sin = np.cos(phase), np.sin(phase, out=phase)
    return Trajectory(
        t=np.concatenate([state.t[-1:], state.t[-1] + times]),
        c1=_modal_rows(c1, cos, sin, 1j * (omega * c2)),
        c2=_modal_rows(c2, cos, sin, 1j * (c1 / omega)),
        modes=modes,
    )


def _frobenius_sq(H: OperatorMatrix | Tridiagonal, shift: float = 0.0) -> float:
    """||H - shift I||_F^2; a band value's from its bands, never assembled."""
    if isinstance(H, Tridiagonal):
        entries = np.concatenate([H.diagonal - shift, H.off_diagonal, H.off_diagonal])
    else:
        entries = H - shift * np.eye(H.shape[0])
    return float(np.vdot(entries, entries).real)


def _antihermitian_norm(H: OperatorMatrix | Tridiagonal) -> float:
    """||H - H^dagger||_F; 0 for a band value, which is real symmetric."""
    if isinstance(H, Tridiagonal):
        return 0.0
    return float(np.linalg.norm(H - H.conj().T))


def _intertwine_residual(metric: str, system: FVSystem) -> float:
    """Relative residual ||M h_sr - h_sr^dagger M|| / (||h_sr|| ||M||)."""
    H = system.H
    n = system.base_dimension
    h_norm = np.sqrt(_frobenius_sq(H) + n)
    if metric == "identity":
        # h_sr - h_sr^dagger = [[0, H - I], [I - H^dagger, 0]]
        commutator = np.sqrt(2.0 * _frobenius_sq(H, 1.0))
        metric_norm = np.sqrt(2.0 * n)
    else:
        # M h_sr - h_sr^dagger M = [[0, 0], [0, eta H - H^dagger eta]]
        eta = system.eta
        if eta is None:
            commutator, eta_norm = _antihermitian_norm(H), np.sqrt(n)
        else:
            H = np.asarray(H)
            commutator = np.linalg.norm(eta @ H - H.conj().T @ eta)
            eta_norm = np.linalg.norm(eta)
        metric_norm = np.sqrt(2.0) * eta_norm
    return float(commutator / max(h_norm * metric_norm, NORM_FLOOR))


@dataclass(frozen=True)
class ConservationReport:
    """Pseudo-norm drift along a trajectory, with the metric's credentials."""

    pseudo_norms: np.ndarray
    euclidean_norms: np.ndarray       # ||Phi(t)||^2 of every row
    drift: float                      # max |pn(t) - pn(0)| / max(|pn(0)|, floor)
    passed: bool
    degenerate_norm: bool
    spectrum_real: bool
    intertwine_residual: float
    metric_intertwines: bool


def _forms(a: np.ndarray, b: np.ndarray, matrix: np.ndarray | None) -> np.ndarray:
    """Re a_j^dagger M b_j for every row j of the (k, N) rows a and b; M = I
    when ``matrix`` is None."""
    if matrix is not None:
        b = b @ matrix.T
    # numpy's pairwise sum: an einsum's running sum drifts by more ulps
    return (a.conj() * b).real.sum(axis=1)


def conservation_report(trajectory: Trajectory, metric: str,
                        system: FVSystem) -> ConservationReport:
    """Maximal relative drift of the pseudo-norm <Phi|M|Phi> over the rows of ``trajectory``.

    ``metric`` names the block metric M, one of ``BLOCK_METRICS``, evaluated
    from the N x N blocks of ``system``.  Both norms are read from the modal
    rows as quadratic forms in G = K^dagger K and K^dagger eta K, and no
    state is formed.  Orthonormal kets (``bras is kets``) make G the
    identity, and without an eta K^dagger eta K too, so no N x N product is
    formed.  ``trajectory`` must come from ``system``'s modes.  PASS means
    drift within 1e-8, a real generator spectrum (read from ``system.modes``)
    and a metric that intertwines the generator (relative residual within
    1e-10).
    """
    if metric not in BLOCK_METRICS:
        raise ValueError(f"metric must be one of {BLOCK_METRICS}, got {metric!r}")
    _check_dimension(trajectory.c1.shape[1], system)
    modes = system.modes
    if trajectory.modes is not modes:
        raise ValueError("the trajectory was not propagated through this system's modes")
    kets = modes.kets
    gram = None if modes.bras is kets else kets.conj().T @ kets
    euclidean = (_forms(trajectory.c1, trajectory.c1, gram)
                 + _forms(trajectory.c2, trajectory.c2, gram))
    if metric == "identity":
        values = euclidean
    else:
        pairing = gram if system.eta is None else kets.conj().T @ system.eta @ kets
        values = 2.0 * _forms(trajectory.c1, trajectory.c2, pairing)
    base = float(abs(values[0]))
    degenerate = base < NORM_FLOOR
    if degenerate and np.all(np.abs(values) < NORM_FLOOR):
        drift = 0.0
    else:
        drift = float(np.abs(values - values[0]).max() / max(base, NORM_FLOOR))
    spectrum_real = modes.spectrum_real
    residual = _intertwine_residual(metric, system)
    intertwines = residual <= INTERTWINE_TOLERANCE
    return ConservationReport(
        pseudo_norms=values,
        euclidean_norms=euclidean,
        drift=drift,
        passed=drift <= DRIFT_TOLERANCE and spectrum_real and intertwines,
        degenerate_norm=degenerate,
        spectrum_real=spectrum_real,
        intertwine_residual=residual,
        metric_intertwines=intertwines,
    )
