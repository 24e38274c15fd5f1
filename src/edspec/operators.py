"""Finite-difference operators for energy-dependent wave equations.

Conventions
-----------
* Grids are uniform: x_i = x_min + i*h with h = (x_max - x_min)/(n_points - 1).
  Matrices act on the values at all n_points nodes; homogeneous Dirichlet
  conditions are imposed at the virtual nodes x_min - h and x_max + h, so
  -d^2/dx^2 is the 3-point matrix with diagonal 2/h^2 and off-diagonals -1/h^2.
* Every stationary form is tridiagonal and is carried as a ``Tridiagonal``
  band value, never as a dense matrix: ``np.asarray`` assembles the N x N
  form where a dense reference needs it.  Its diagonal is real, or complex
  for a complex mass-squared; the off-diagonal is real.
* Mass models:
    ConstantMass(m)          fixed mass m > 0,
    HOQuadratic(A, E0)       2 m(z) = A^2 (z - E0)^2 (singular at z = E0),
    GeneralMassSquared(f)    f(z, x) -> m^2, possibly complex valued.
* The one-dimensional stationary forms built here, selected by name through
  ``build_problem``, are
    schrodinger:  (1/(2 m(z))) * (-d^2/dx^2) + x^2
    kleingordon:  -d^2/dx^2 + m^2(z, x)
  ``write_bands`` is their one band writer: ``build_problem`` wraps what it
  writes as a ``Tridiagonal``, and the level search writes the bands of
  many z into buffers of its own.
* The two-component block system built on these forms lives in
  ``evolution``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Union

import numpy as np

from .errors import DegenerateMass, EvaluationFailure

# Dense finite matrix representation of an operator; square.
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
        # an infinite bound or width would make h = inf and the kinetic term vanish
        if not math.isfinite(self.x_max - self.x_min):
            raise ValueError(f"grid width must be finite, got [{self.x_min}, {self.x_max}]")
        if not self.x_min < self.x_max:
            raise ValueError(f"x_min must be < x_max, got [{self.x_min}, {self.x_max}]")
        if self.n_points < 3:
            raise ValueError(f"n_points must be >= 3, got {self.n_points}")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        """The n_points nodes, computed once per grid and read-only."""
        return self._points

    def squares(self) -> np.ndarray:
        """x_i^2 at the n_points nodes, computed once per grid and read-only."""
        return self._squares

    @cached_property
    def _points(self) -> np.ndarray:
        x = np.linspace(self.x_min, self.x_max, self.n_points)
        x.flags.writeable = False
        return x

    @cached_property
    def _squares(self) -> np.ndarray:
        x = self._points
        squares = x * x
        squares.flags.writeable = False
        return squares

    @cached_property
    def _largest_square(self) -> float:
        return float(self._squares.max())


@dataclass(frozen=True)
class ConstantMass:
    m: float

    def __post_init__(self):
        if not self.m > 0:
            raise ValueError(f"constant mass must be positive, got {self.m}")
        if not math.isfinite(self.m):
            raise ValueError(f"constant mass must be finite, got {self.m}")


@dataclass(frozen=True)
class HOQuadratic:
    """Oscillator mass ansatz 2 m(z) = A^2 (z - E0)^2."""

    A: float
    E0: float

    def __post_init__(self):
        if not self.A > 0:
            raise ValueError(f"A must be positive, got {self.A}")
        if not (math.isfinite(self.A) and math.isfinite(self.E0)):
            raise ValueError(f"A and E0 must be finite, got A={self.A}, E0={self.E0}")


@dataclass(frozen=True)
class GeneralMassSquared:
    """Pointwise mass-squared model m^2 = evaluator(z, x)."""

    evaluator: Callable[[float, float], complex] = field(compare=False)


MassModel = Union[ConstantMass, HOQuadratic, GeneralMassSquared]


@dataclass(frozen=True)
class Tridiagonal:
    """Symmetric tridiagonal matrix held as its bands.

    ``diagonal`` has length N and ``off_diagonal`` length N - 1.  The matrix
    is real symmetric when the diagonal is real and complex symmetric (not
    Hermitian) when it is complex.  ``np.asarray`` assembles the dense form.
    """

    diagonal: np.ndarray
    off_diagonal: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        n = self.diagonal.shape[0]
        return n, n

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("the dense form of a Tridiagonal is always a new array")
        matrix = np.diag(self.diagonal)
        idx = np.arange(self.off_diagonal.shape[0])
        matrix[idx, idx + 1] = self.off_diagonal
        matrix[idx + 1, idx] = self.off_diagonal
        return matrix if dtype is None else matrix.astype(dtype, copy=False)


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


# Each writer returns the diagonal, the off-diagonal value and the diagonal's
# largest entry, computed as that entry is, or None where only a scan of the
# diagonal can tell whether it is finite.

def _schrodinger_bands(grid: Grid, model: MassModel, z: float, out):
    two_m = mass_2m(model, z)
    if two_m <= MASS_EPSILON:
        raise DegenerateMass(f"2 m(z) = {two_m} at z = {z} is below {MASS_EPSILON}")
    inv_h2 = 1.0 / grid.h ** 2
    kinetic = 2.0 * inv_h2 / two_m
    # kinetic + x^2 rounds monotonically in x^2, so its largest entry is the
    # one at the largest x^2
    return (np.add(kinetic, grid.squares(), out=out), -inv_h2 / two_m,
            kinetic + grid._largest_square)


def _kleingordon_bands(grid: Grid, model: MassModel, z: float, out):
    general = isinstance(model, GeneralMassSquared)
    if general:
        values = np.array([mass_squared(model, z, xi) for xi in grid.points()])
        if np.iscomplexobj(values) and not values.imag.any():
            values = values.real
        out = None          # the diagonal takes the values' type, complex or real
    else:  # independent of x: evaluated once for every node
        values = mass_squared(model, z, grid.x_min)
        out = np.empty(grid.n_points) if out is None else out
    inv_h2 = 1.0 / grid.h ** 2
    diagonal = np.add(2.0 * inv_h2, values, out=out)
    return diagonal, -inv_h2, None if general else float(diagonal[0])


_BANDS = {"schrodinger": _schrodinger_bands, "kleingordon": _kleingordon_bands}

#: Stationary forms ``build_problem`` can build, named as in ``[problem] kind``.
PROBLEM_KINDS = tuple(_BANDS)


def write_bands(kind: str, grid: Grid, model: MassModel, z: float,
                out: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Diagonal of the stationary form named by ``kind`` at z, and its off-diagonal value.

    Every form's off-diagonal is one value at every position.  The diagonal
    of a constant or oscillator mass is written into ``out`` when given (a
    float64 array of ``grid.n_points``), so a caller that writes many z
    allocates nothing; a GeneralMassSquared's, which may be complex, is
    always a new array.  Coefficients that overflow or come out non-finite
    raise EvaluationFailure: a constant or oscillator diagonal is checked at
    its largest entry, a GeneralMassSquared's at every node.
    """
    if kind not in _BANDS:
        raise ValueError(f"kind must be one of {PROBLEM_KINDS}, got {kind!r}")
    try:
        diagonal, off_diagonal, largest = _BANDS[kind](grid, model, z, out)
    except OverflowError:
        raise EvaluationFailure(f"the {kind} coefficients overflow at z = {z}") from None
    finite = np.isfinite(diagonal).all() if largest is None else math.isfinite(largest)
    if not (math.isfinite(off_diagonal) and finite):
        raise EvaluationFailure(f"H({z}) has non-finite entries")
    return diagonal, off_diagonal


def build_problem(kind: str, grid: Grid, model: MassModel, z: float) -> Tridiagonal:
    """Bands of the stationary form named by ``kind`` at frozen parameter z.

    Coefficients that overflow or come out non-finite raise EvaluationFailure.
    """
    diagonal, off_diagonal = write_bands(kind, grid, model, z)
    return Tridiagonal(diagonal, np.full(grid.n_points - 1, off_diagonal))
