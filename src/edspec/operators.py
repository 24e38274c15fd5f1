"""Finite-difference operators for energy-dependent wave equations.

Conventions
-----------
* Grids are uniform: x_i = x_min + i*h with h = (x_max - x_min)/(n_points - 1).
  Matrices act on the values at all n_points nodes; homogeneous Dirichlet
  conditions are imposed at the virtual nodes x_min - h and x_max + h.
* ``build_laplacian`` returns the 3-point matrix of -d^2/dx^2 (positive
  definite, symmetric).
* Every stationary form is tridiagonal.  Its coefficients live in one band
  builder per form; ``build_bands`` hands them out for a real symmetric
  matrix (and refuses a complex mass-squared), and the dense builders
  assemble them with ``tridiagonal``.
* Mass models:
    ConstantMass(m)          fixed mass m > 0,
    HOQuadratic(A, E0)       2 m(z) = A^2 (z - E0)^2 (singular at z = E0),
    GeneralMassSquared(f)    f(z, x) -> m^2, possibly complex valued.
* The one-dimensional stationary forms built here, selected by name through
  ``build_problem``, are
    schrodinger:  (1/(2 m(z))) * (-d^2/dx^2) + x^2
    kleingordon:  -d^2/dx^2 + m^2(z, x)
* The two-component rearrangement pairs (phi1, phi2) = (i d/dt psi, psi).
  Its generator is the block matrix [[0, H], [I, 0]]; a pseudo-metric eta of
  the inner block lifts to the block form [[0, eta], [eta, 0]].  ``FVSystem``
  keeps only the N x N blocks H and eta and assembles the 2N x 2N forms on
  request; ``evolution`` works from the blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .errors import (
    AsymmetricGrid,
    DegenerateMass,
    EvaluationFailure,
    NonHermitianMetric,
    SingularMetric,
)

# Finite matrix representation of the operators; always dense and square.
OperatorMatrix = np.ndarray

#: Threshold on 2 m(z) below which the kinetic coefficient blows up.
MASS_EPSILON = 1e-12


@dataclass(frozen=True)
class Grid:
    """Uniform coordinate grid on [x_min, x_max] with Dirichlet boundaries."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ValueError(f"x_min must be < x_max, got [{self.x_min}, {self.x_max}]")
        if self.n_points < 3:
            raise ValueError(f"n_points must be >= 3, got {self.n_points}")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @property
    def symmetric(self) -> bool:
        """True iff the endpoints are mirror images (required for parity)."""
        return abs(self.x_min + self.x_max) <= 1e-12 * abs(self.x_max)

    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)


@dataclass(frozen=True)
class ConstantMass:
    m: float

    def __post_init__(self):
        if not self.m > 0:
            raise ValueError(f"constant mass must be positive, got {self.m}")


@dataclass(frozen=True)
class HOQuadratic:
    """Oscillator mass ansatz 2 m(z) = A^2 (z - E0)^2."""

    A: float
    E0: float

    def __post_init__(self):
        if not self.A > 0:
            raise ValueError(f"A must be positive, got {self.A}")


@dataclass(frozen=True)
class GeneralMassSquared:
    """Pointwise mass-squared model m^2 = evaluator(z, x)."""

    evaluator: Callable[[float, float], complex] = field(compare=False)


MassModel = Union[ConstantMass, HOQuadratic, GeneralMassSquared]


def mass_2m(model: MassModel, z: float) -> float:
    """Coefficient 2 m(z) entering the kinetic term of the schrodinger form."""
    if isinstance(model, ConstantMass):
        return 2.0 * model.m
    if isinstance(model, HOQuadratic):
        return model.A ** 2 * (z - model.E0) ** 2
    raise EvaluationFailure(
        "general mass-squared models do not define a coordinate-independent m(z)"
    )


def mass_squared(model: MassModel, z: float, x: float) -> complex:
    """Mass-squared m^2(z, x) entering the kleingordon form."""
    if isinstance(model, ConstantMass):
        return model.m ** 2
    if isinstance(model, HOQuadratic):
        return (0.5 * model.A ** 2 * (z - model.E0) ** 2) ** 2
    try:
        value = model.evaluator(z, x)
    except Exception as exc:
        raise EvaluationFailure(f"mass-squared evaluator failed at (z={z}, x={x}): {exc}") from exc
    if not np.isfinite(complex(value)):
        raise EvaluationFailure(f"mass-squared evaluator non-finite at (z={z}, x={x})")
    return value


def tridiagonal(diagonal: np.ndarray, off_diagonal: np.ndarray) -> OperatorMatrix:
    """Dense symmetric tridiagonal matrix with the given diagonal and off-diagonal."""
    matrix = np.diag(diagonal)
    idx = np.arange(off_diagonal.shape[0])
    matrix[idx, idx + 1] = off_diagonal
    matrix[idx + 1, idx] = off_diagonal
    return matrix


def build_laplacian(grid: Grid) -> OperatorMatrix:
    """3-point Dirichlet matrix of -d^2/dx^2: diagonal 2/h^2, off-diagonals -1/h^2."""
    inv_h2 = 1.0 / grid.h ** 2
    n = grid.n_points
    return tridiagonal(np.full(n, 2.0 * inv_h2), np.full(n - 1, -inv_h2))


def _schrodinger_bands(grid: Grid, model: MassModel, z: float):
    two_m = mass_2m(model, z)
    if two_m <= MASS_EPSILON:
        raise DegenerateMass(f"2 m(z) = {two_m} at z = {z} is below {MASS_EPSILON}")
    inv_h2 = 1.0 / grid.h ** 2
    x = grid.points()
    return 2.0 * inv_h2 / two_m + x * x, np.full(grid.n_points - 1, -inv_h2 / two_m)


def _kleingordon_bands(grid: Grid, model: MassModel, z: float):
    values = np.array([mass_squared(model, z, xi) for xi in grid.points()])
    if np.iscomplexobj(values) and not values.imag.any():
        values = values.real
    inv_h2 = 1.0 / grid.h ** 2
    return 2.0 * inv_h2 + values, np.full(grid.n_points - 1, -inv_h2)


_BANDS = {"schrodinger": _schrodinger_bands, "kleingordon": _kleingordon_bands}

#: Stationary forms ``build_problem`` can build, named as in ``[problem] kind``.
PROBLEM_KINDS = tuple(_BANDS)


def _problem_bands(kind: str, grid: Grid, model: MassModel, z: float):
    if kind not in _BANDS:
        raise ValueError(f"kind must be one of {PROBLEM_KINDS}, got {kind!r}")
    return _BANDS[kind](grid, model, z)


def build_schrodinger(grid: Grid, model: MassModel, z: float) -> OperatorMatrix:
    """Matrix of (1/(2 m(z))) * (-d^2/dx^2) + x^2 at frozen parameter z."""
    return tridiagonal(*_schrodinger_bands(grid, model, z))


def build_kleingordon(grid: Grid, model: MassModel, z: float) -> OperatorMatrix:
    """Matrix of -d^2/dx^2 + m^2(z, x); non-Hermitian iff m^2 is complex."""
    return tridiagonal(*_kleingordon_bands(grid, model, z))


def build_problem(kind: str, grid: Grid, model: MassModel, z: float) -> OperatorMatrix:
    """Matrix of the stationary form named by ``kind`` at frozen parameter z."""
    return tridiagonal(*_problem_bands(kind, grid, model, z))


def build_bands(kind: str, grid: Grid, model: MassModel,
                z: float) -> tuple[np.ndarray, np.ndarray]:
    """Bands of the stationary form named by ``kind``, which must be real symmetric.

    Returns ``(diagonal, off_diagonal)`` of the tridiagonal matrix that
    ``build_problem`` assembles.  The off-diagonal is nonzero for any finite
    mass, so the eigenvalues are simple.  A complex mass-squared raises
    ValueError: that form is not real symmetric, and its branches are
    continued by eigenvector overlap with ``fixedpoint.trace_branch_family``
    over ``build_problem``.
    """
    diagonal, off_diagonal = _problem_bands(kind, grid, model, z)
    if np.iscomplexobj(diagonal):
        raise ValueError(
            f"the {kind} form at z = {z} has a complex mass-squared and is not real "
            "symmetric; continue its branches with fixedpoint.trace_branch_family"
        )
    if not (np.isfinite(diagonal).all() and np.isfinite(off_diagonal).all()):
        raise ValueError(f"H({z}) has non-finite entries")
    return diagonal, off_diagonal


def build_parity(grid: Grid) -> OperatorMatrix:
    """Coordinate-reversal permutation matrix; involutory and Hermitian."""
    if not grid.symmetric:
        raise AsymmetricGrid(
            f"parity needs x_min = -x_max, got [{grid.x_min}, {grid.x_max}]"
        )
    return np.fliplr(np.eye(grid.n_points))


@dataclass(frozen=True)
class FVSystem:
    """Two-component block system kept as its inner blocks.

    ``H`` is the base operator and ``eta`` the inner pseudo-metric (None for
    the identity).  The 2N x 2N generator ``h_sr`` and block metric
    ``eta_sr`` are assembled only when asked for; propagation and the
    conservation checks work from the blocks.
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
        return _swap_lift(np.eye(self.base_dimension) if self.eta is None else self.eta)


def assemble_fv(H: OperatorMatrix, eta: OperatorMatrix | None = None) -> FVSystem:
    """Two-component system of the block generator [[0, H], [I, 0]].

    The spectrum consists of the pairs +/- sqrt(lambda) over eigenvalues
    lambda of H (checked by the test suite, not assumed here).  When no inner
    metric is supplied the swap metric [[0, I], [I, 0]] is attached.
    """
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"H must be square, got shape {H.shape}")
    if eta is not None:
        eta = _checked_metric(eta)
        if eta.shape != H.shape:
            raise ValueError(f"eta shape {eta.shape} does not match H shape {H.shape}")
    return FVSystem(H=H, eta=eta)


def _checked_metric(eta: OperatorMatrix) -> OperatorMatrix:
    eta = np.asarray(eta)
    if eta.ndim != 2 or eta.shape[0] != eta.shape[1]:
        raise ValueError(f"eta must be square, got shape {eta.shape}")
    scale = max(1.0, np.abs(eta).max())
    if np.abs(eta - eta.conj().T).max() > 1e-10 * scale:
        raise NonHermitianMetric("eta fails the 1e-10 Hermiticity tolerance")
    cond = np.linalg.cond(eta)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularMetric(f"eta is numerically singular (condition number {cond:.3e})")
    return eta


def _swap_lift(eta: OperatorMatrix) -> OperatorMatrix:
    n = eta.shape[0]
    eta_sr = np.zeros((2 * n, 2 * n), dtype=np.result_type(eta.dtype, float))
    eta_sr[:n, n:] = eta
    eta_sr[n:, :n] = eta
    return eta_sr


def assemble_fv_metric(eta: OperatorMatrix) -> OperatorMatrix:
    """Block pseudo-metric [[0, eta], [eta, 0]] for the two-component system.

    Requires eta Hermitian (tolerance 1e-10) and invertible; the result
    intertwines the block generator whenever eta intertwines the inner block.
    """
    return _swap_lift(_checked_metric(eta))
