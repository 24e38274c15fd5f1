"""The two-component system, its time evolution and pseudo-norm conservation.

The second-order-in-time equation is rearranged into the first-order system
i d/dt (phi1, phi2) = h_sr (phi1, phi2), (phi1, phi2) = (i d/dt psi, psi),
with generator h_sr = [[0, H], [I, 0]]; a pseudo-metric eta of the inner
block lifts to the block form [[0, eta], [eta, 0]].  ``FVSystem`` keeps only
the N x N blocks H and eta, and assembles the 2N x 2N forms only on request,
as dense references.

The system is propagated exactly through one bi-orthogonal decomposition of
H (``FVSystem.modes``), never through the 2N x 2N generator.  An eigenpair
(lambda, psi) of H gives h_sr the eigenvalues +-omega, omega^2 = lambda,
with kets (+-omega psi, psi), so in the modal coordinates c = L^dagger phi
each mode evolves in closed form:

    c2(t) = c2 cos(omega t) - i c1 sin(omega t) / omega
    c1(t) = c1 cos(omega t) - i omega c2 sin(omega t)

Both are even in omega, so the branch of the square root is immaterial and
complex lambda needs no special case.  Conservation tests therefore probe
the algebraic structure rather than integrator error.  A Hermitian metric M
conserves <Phi|M|Phi> along the flow exactly when M intertwines h_sr with
its adjoint and the spectrum is real; for the swap lift [[0, eta], [eta, 0]]
the pseudo-norm is 2 Re <phi1|eta phi2> and the intertwining residual is
that of eta with H, both evaluated from the blocks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateSpectrum, DimensionMismatch, NonHermitianMetric, SingularMetric
from .frozen_spectrum import DEGENERACY_FACTOR, _fix_phases, decompose, reality_mask
from .operators import OperatorMatrix

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
    """Two-component state (phi1, phi2) = (i d/dt psi, psi) at time t."""

    phi1: np.ndarray
    phi2: np.ndarray
    t: float

    def __post_init__(self):
        if self.phi1.shape != self.phi2.shape or self.phi1.ndim != 1:
            raise ValueError("phi1 and phi2 must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(self.phi1)) and np.all(np.isfinite(self.phi2))):
            raise ValueError("state entries must be finite")

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.phi1, self.phi2])


@dataclass(frozen=True)
class FVModes:
    """Normal modes of the block generator, from one decomposition of H.

    ``frequencies[n]`` is the principal square root of the n-th eigenvalue of
    H; ``kets`` and ``bras`` are H's right kets and left vectors, in the order
    of ``decompose``.  The generator's eigenvalues are +-frequencies.
    """

    frequencies: np.ndarray
    kets: np.ndarray
    bras: np.ndarray

    @property
    def spectrum_real(self) -> bool:
        return bool(np.all(reality_mask(self.frequencies)))


@dataclass(frozen=True)
class FVSystem:
    """Two-component block system kept as its inner blocks.

    ``H`` is the base operator and ``eta`` the inner pseudo-metric (None for
    the identity).  ``modes`` decomposes H once, on first use, and serves
    propagation, eigenstates and the conservation checks.  The 2N x 2N
    generator ``h_sr`` and block metric ``eta_sr`` are dense references,
    assembled only when asked for.
    """

    H: OperatorMatrix
    eta: OperatorMatrix | None = None

    @property
    def base_dimension(self) -> int:
        return self.H.shape[0]

    @property
    def h_sr(self) -> OperatorMatrix:
        """Block generator [[0, H], [I, 0]]."""
        n = self.base_dimension
        h_sr = np.zeros((2 * n, 2 * n), dtype=np.result_type(self.H.dtype, float))
        h_sr[:n, n:] = self.H
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
        Jordan block of h_sr) raises.
        """
        dec = decompose(self.H)
        omega = np.sqrt(dec.eigenvalues)
        n = omega.shape[0]
        scale = np.sqrt(np.linalg.norm(self.H) ** 2 + n)    # ||h_sr||_F >= 1
        # gaps of {-omega, omega}: |omega_i - omega_j| for i != j (twice each)
        # and |omega_i + omega_j| for all i, j (2 |omega_i| on the diagonal)
        same = np.abs(omega[:, None] - omega[None, :])
        np.fill_diagonal(same, np.inf)
        gap = min(same.min(), np.abs(omega[:, None] + omega[None, :]).min())
        if gap < DEGENERACY_FACTOR * scale:
            raise DegenerateSpectrum(
                f"minimal generator eigenvalue gap {gap:.3e} below "
                f"{DEGENERACY_FACTOR * scale:.3e}"
            )
        return FVModes(frequencies=omega, kets=dec.right_kets, bras=dec.left_bras)


def assemble_fv(H: OperatorMatrix, eta: OperatorMatrix | None = None) -> FVSystem:
    """Two-component system of the block generator [[0, H], [I, 0]].

    The spectrum consists of the pairs +/- sqrt(lambda) over eigenvalues
    lambda of H (checked by the test suite, not assumed here).  An inner
    metric must be Hermitian (tolerance 1e-10) and invertible (condition
    number at most 1e12); without one the swap metric [[0, I], [I, 0]] is
    attached.
    """
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


def eigenstate(system: FVSystem, index: int) -> FVState:
    """Generator eigenstate ``index``, ordered and phased as ``decompose(h_sr)``.

    Eigenvalues ascend by (Re, Im); for a positive spectrum of H, index k < N
    is -sqrt(lambda_{N-1-k}) and k >= N is +sqrt(lambda_{k-N}).  The state is
    (E psi, psi) made unit norm with its largest component real positive.
    """
    modes = system.modes
    omega = modes.frequencies
    n = omega.shape[0]
    if not 0 <= index < 2 * n:
        raise ValueError(f"eigenstate index {index} outside 0..{2 * n - 1}")
    energies = np.concatenate([-omega, omega])
    k = np.lexsort((energies.imag, energies.real))[index]
    psi = modes.kets[:, k % n]
    ket = _fix_phases(np.concatenate([energies[k] * psi, psi])[:, None])[:, 0]
    return FVState(phi1=ket[:n], phi2=ket[n:], t=0.0)


def evolve(system: FVSystem, state: FVState, t_final: float, steps: int) -> list[FVState]:
    """Exact spectral propagation, returning steps+1 states including t = 0.

    Complex eigenvalues of the generator are allowed (a warning is issued and
    norms may grow); a degenerate generator spectrum raises.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    n = system.base_dimension
    if state.phi1.shape[0] != n:
        raise DimensionMismatch(
            f"state dimension {state.phi1.shape[0]} does not match system base {n}"
        )
    modes = system.modes
    if not modes.spectrum_real:
        warnings.warn(
            "generator spectrum is not entirely real; evolution proceeds but "
            "norms may grow",
            RuntimeWarning,
            stacklevel=2,
        )
    omega = modes.frequencies
    c1 = modes.bras.conj().T @ state.phi1
    c2 = modes.bras.conj().T @ state.phi2
    times = t_final * np.arange(1, steps + 1) / steps if steps else np.empty(0)
    phase = np.outer(times, omega)
    cos, sin = np.cos(phase), np.sin(phase)
    # one row per time sample; mapped back with one product per component
    phi1 = (c1 * cos - 1j * (omega * c2) * sin) @ modes.kets.T
    phi2 = (c2 * cos - 1j * (c1 / omega) * sin) @ modes.kets.T
    return [state] + [FVState(phi1=p1, phi2=p2, t=float(t))
                      for p1, p2, t in zip(phi1, phi2, times)]


def _pseudo_norms(trajectory: list[FVState], metric: str, system: FVSystem) -> np.ndarray:
    """<Phi|M|Phi> of every state, for the block metric M named by ``metric``."""
    phi1 = np.array([s.phi1 for s in trajectory])
    phi2 = np.array([s.phi2 for s in trajectory])
    if phi1.shape[1] != system.base_dimension:
        raise DimensionMismatch(
            f"state dimension {phi1.shape[1]} does not match system base "
            f"{system.base_dimension}"
        )
    if metric == "identity":
        return (np.abs(phi1) ** 2).sum(axis=1) + (np.abs(phi2) ** 2).sum(axis=1)
    eta_phi2 = phi2 if system.eta is None else phi2 @ system.eta.T
    return 2.0 * (phi1.conj() * eta_phi2).sum(axis=1).real


def _intertwine_residual(metric: str, system: FVSystem) -> float:
    """Relative residual ||M h_sr - h_sr^dagger M|| / (||h_sr|| ||M||)."""
    H = system.H
    n = system.base_dimension
    h_norm = np.sqrt(np.linalg.norm(H) ** 2 + n)
    if metric == "identity":
        # h_sr - h_sr^dagger = [[0, H - I], [I - H^dagger, 0]]
        commutator = np.sqrt(2.0) * np.linalg.norm(H - np.eye(n))
        metric_norm = np.sqrt(2.0 * n)
    else:
        # M h_sr - h_sr^dagger M = [[0, 0], [0, eta H - H^dagger eta]]
        eta = system.eta
        if eta is None:
            commutator, eta_norm = np.linalg.norm(H - H.conj().T), np.sqrt(n)
        else:
            commutator = np.linalg.norm(eta @ H - H.conj().T @ eta)
            eta_norm = np.linalg.norm(eta)
        metric_norm = np.sqrt(2.0) * eta_norm
    return float(commutator / max(h_norm * metric_norm, NORM_FLOOR))


@dataclass(frozen=True)
class ConservationReport:
    """Pseudo-norm drift along a trajectory, with the metric's credentials."""

    pseudo_norms: np.ndarray
    drift: float                      # max |pn(t) - pn(0)| / max(|pn(0)|, floor)
    passed: bool
    degenerate_norm: bool
    spectrum_real: bool
    intertwine_residual: float
    metric_intertwines: bool


def conservation_report(trajectory: list[FVState], metric: str,
                        system: FVSystem) -> ConservationReport:
    """Maximal relative pseudo-norm drift over a non-empty trajectory.

    ``metric`` is one of ``BLOCK_METRICS``, evaluated from the N x N blocks
    of ``system``.  PASS means drift within 1e-8, a real generator spectrum
    (read from ``system.modes``) and a metric that intertwines the generator
    (relative residual within 1e-10).
    """
    if metric not in BLOCK_METRICS:
        raise ValueError(f"metric must be one of {BLOCK_METRICS}, got {metric!r}")
    values = _pseudo_norms(trajectory, metric, system)
    base = float(abs(values[0]))
    degenerate = base < NORM_FLOOR
    if degenerate and np.all(np.abs(values) < NORM_FLOOR):
        drift = 0.0
    else:
        drift = float(np.abs(values - values[0]).max() / max(base, NORM_FLOOR))
    spectrum_real = system.modes.spectrum_real
    residual = _intertwine_residual(metric, system)
    intertwines = residual <= INTERTWINE_TOLERANCE
    return ConservationReport(
        pseudo_norms=values,
        drift=drift,
        passed=drift <= DRIFT_TOLERANCE and spectrum_real and intertwines,
        degenerate_norm=degenerate,
        spectrum_real=spectrum_real,
        intertwine_residual=residual,
        metric_intertwines=intertwines,
    )
