"""Two-component time evolution and pseudo-norm conservation checks.

The first-order system i d/dt (phi1, phi2) = h_sr (phi1, phi2) is propagated
exactly through the bi-orthogonal spectral representation of h_sr, so
conservation tests probe the algebraic structure rather than integrator
error.  A Hermitian metric M conserves <Phi|M|Phi> along the flow exactly
when M intertwines h_sr with its adjoint and the spectrum is real.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .frozen_spectrum import decompose, reality_mask
from .operators import FVSystem, OperatorMatrix

#: Relative pseudo-norm drift accepted as conservation.
DRIFT_TOLERANCE = 1e-8
#: Relative intertwining residual accepted for a conserving metric.
INTERTWINE_TOLERANCE = 1e-10
#: Floor protecting the relative drift against zero initial pseudo-norm.
NORM_FLOOR = 1e-300


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


def _unstack(vector: np.ndarray, n: int, t: float) -> FVState:
    return FVState(phi1=vector[:n], phi2=vector[n:], t=t)


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
    dec = decompose(system.h_sr)
    if not bool(np.all(dec.reality_flags)):
        warnings.warn(
            "generator spectrum is not entirely real; evolution proceeds but "
            "norms may grow",
            RuntimeWarning,
            stacklevel=2,
        )
    coeff = dec.left_bras.conj().T @ state.stacked()
    trajectory = [state]
    for k in range(1, steps + 1):
        t = t_final * k / steps if steps else 0.0
        amplitudes = coeff * np.exp(-1j * dec.eigenvalues * t)
        trajectory.append(_unstack(dec.right_kets @ amplitudes, n, float(t)))
    return trajectory


def pseudo_norm(state: FVState, metric: OperatorMatrix) -> float:
    """Quadratic form <Phi|metric|Phi>; real for a Hermitian metric."""
    v = state.stacked()
    if metric.shape != (v.shape[0], v.shape[0]):
        raise DimensionMismatch(
            f"metric shape {metric.shape} does not match state dimension {v.shape[0]}"
        )
    value = complex(np.vdot(v, metric @ v))
    if abs(value.imag) > 1e-10 * (1.0 + abs(value.real)):
        warnings.warn(
            f"pseudo-norm has imaginary residue {value.imag:.3e}; metric may "
            "not be Hermitian",
            RuntimeWarning,
            stacklevel=2,
        )
    return value.real


@dataclass(frozen=True)
class ConservationReport:
    """Pseudo-norm drift along a trajectory, with the metric's credentials."""

    pseudo_norms: np.ndarray
    drift: float                      # max |pn(t) - pn(0)| / max(|pn(0)|, floor)
    passed: bool
    degenerate_norm: bool
    spectrum_real: bool | None = None
    intertwine_residual: float | None = None
    metric_intertwines: bool | None = None


def conservation_report(trajectory: list[FVState], metric: OperatorMatrix,
                        system: FVSystem | None = None) -> ConservationReport:
    """Maximal relative pseudo-norm drift over a trajectory.

    PASS means drift within 1e-8; when the generating system is supplied the
    flag additionally requires a real generator spectrum and a metric that
    intertwines the generator (relative residual within 1e-10).
    """
    values = np.array([pseudo_norm(s, metric) for s in trajectory])
    base = float(abs(values[0])) if len(values) else 0.0
    degenerate = base < NORM_FLOOR
    if degenerate and np.all(np.abs(values) < NORM_FLOOR):
        drift = 0.0
    else:
        drift = float(np.abs(values - values[0]).max() / max(base, NORM_FLOOR))
    passed = drift <= DRIFT_TOLERANCE
    spectrum_real = None
    residual = None
    intertwines = None
    if system is not None:
        h = system.h_sr
        spectrum_real = bool(np.all(reality_mask(np.linalg.eigvals(h))))
        residual = float(
            np.linalg.norm(metric @ h - h.conj().T @ metric)
            / max(np.linalg.norm(h) * np.linalg.norm(metric), NORM_FLOOR)
        )
        intertwines = residual <= INTERTWINE_TOLERANCE
        passed = passed and spectrum_real and intertwines
    return ConservationReport(
        pseudo_norms=values,
        drift=drift,
        passed=passed,
        degenerate_norm=degenerate,
        spectrum_real=spectrum_real,
        intertwine_residual=residual,
        metric_intertwines=intertwines,
    )
