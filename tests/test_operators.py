import math

import numpy as np
import pytest

from edspec.errors import (
    DegenerateMass,
    EvaluationFailure,
    NonHermitianMetric,
    SingularMetric,
)
from edspec.evolution import assemble_fv
from edspec.fixedpoint import collect_physical
from edspec.operators import (
    ConstantMass,
    GeneralMassSquared,
    Grid,
    HOQuadratic,
    Tridiagonal,
    build_problem,
)


def dense(kind, grid, model, z):
    return np.asarray(build_problem(kind, grid, model, z))


def laplacian(grid):
    """-d^2/dx^2: the kleingordon form of a zero mass-squared."""
    return dense("kleingordon", grid, GeneralMassSquared(lambda z, x: 0.0), 0.0)


def assembled(diagonal, off_diagonal):
    """Dense symmetric tridiagonal matrix, assembled entry by entry."""
    n = len(diagonal)
    matrix = np.zeros((n, n), dtype=np.result_type(diagonal, off_diagonal))
    for i in range(n):
        matrix[i, i] = diagonal[i]
    for i in range(n - 1):
        matrix[i, i + 1] = matrix[i + 1, i] = off_diagonal[i]
    return matrix


# ---------------------------------------------------------------- grid

@pytest.mark.parametrize("make", [
    lambda: Grid(-math.inf, 0.0, 10),
    lambda: Grid(0.0, math.inf, 10),
    lambda: Grid(-1e308, 1e308, 10),
    lambda: ConstantMass(math.inf),
    lambda: HOQuadratic(math.inf, 1.0),
    lambda: HOQuadratic(1.0, math.nan),
    lambda: HOQuadratic(1.0, math.inf),
], ids=["grid-lo-inf", "grid-hi-inf", "grid-width-overflow",
        "mass-inf", "A-inf", "E0-nan", "E0-inf"])
def test_non_finite_grid_and_model_values_rejected(make):
    with pytest.raises(ValueError, match="must be finite"):
        make()


def test_grid_invariants():
    with pytest.raises(ValueError):
        Grid(1.0, -1.0, 10)
    with pytest.raises(ValueError):
        Grid(-1.0, 1.0, 2)
    g = Grid(-1.0, 1.0, 3)
    assert g.h == 1.0


def test_grid_points_computed_once(monkeypatch):
    grid = Grid(-2.0, 3.0, 11)
    expected = np.linspace(-2.0, 3.0, 11)
    calls = []
    linspace = np.linspace
    monkeypatch.setattr(np, "linspace", lambda *a, **k: calls.append(a) or linspace(*a, **k))
    first = grid.points()
    build_problem("schrodinger", grid, HOQuadratic(1.5, 2.0), 0.5)
    build_problem("kleingordon", grid, ConstantMass(1.0), 0.5)
    assert grid.points() is first and len(calls) == 1
    np.testing.assert_array_equal(first, expected)
    with pytest.raises(ValueError):
        first[0] = 0.0


# ---------------------------------------------------------------- laplacian

def test_laplacian_3x3_stencil():
    lap = laplacian(Grid(-1.0, 1.0, 3))
    np.testing.assert_array_equal(lap, [[2, -1, 0], [-1, 2, -1], [0, -1, 2]])


@pytest.mark.parametrize("grid", [Grid(-1.0, 1.0, 5), Grid(0.0, 3.0, 17),
                                  Grid(-12.0, 12.0, 101)])
def test_laplacian_symmetric_positive_definite(grid):
    lap = laplacian(grid)
    assert np.array_equal(lap, lap.T)
    assert np.linalg.eigvalsh(lap).min() > 0


def test_laplacian_harmonic_ground_state():
    # oracle: the continuum ground state of -d2/dx2 + x^2 sits at 1
    errors = []
    for n in (101, 201, 401):
        grid = Grid(-10.0, 10.0, n)
        x = grid.points()
        h = laplacian(grid) + np.diag(x * x)
        errors.append(abs(np.linalg.eigvalsh(h)[0] - 1.0))
    assert errors[1] < 1e-3
    # second-order convergence: halving h divides the error by ~4
    assert 3.0 < errors[0] / errors[1] < 5.0
    assert 3.0 < errors[1] / errors[2] < 5.0


# ---------------------------------------------------------------- schrodinger

def test_schrodinger_unit_coefficient():
    grid = Grid(-5.0, 5.0, 11)
    x = grid.points()
    h = dense("schrodinger", grid, ConstantMass(0.5), z=7.3)
    np.testing.assert_array_equal(h, laplacian(grid) + np.diag(x * x))


def test_schrodinger_degenerate_mass():
    with pytest.raises(DegenerateMass):
        build_problem("schrodinger", Grid(-5.0, 5.0, 11), HOQuadratic(1.0, 0.0), z=0.0)


def test_schrodinger_frozen_branch_values():
    # frozen oracle: dense eigensolve of (1/4) L + x^2 on [-12, 12], 400 nodes
    grid = Grid(-12.0, 12.0, 400)
    w = np.linalg.eigvalsh(dense("schrodinger", grid, HOQuadratic(1.0, 0.0), z=2.0))
    assert w[0] == pytest.approx(0.4997737683593432, abs=1e-10)
    # continuum levels of the frozen family: (2n+1)/(A |z - E0|)
    for n in range(3):
        assert w[n] == pytest.approx((2 * n + 1) / 2.0, rel=3e-3)


def test_schrodinger_rejects_general_mass():
    model = GeneralMassSquared(lambda z, x: x * x)
    with pytest.raises(EvaluationFailure):
        build_problem("schrodinger", Grid(-5.0, 5.0, 11), model, z=1.0)


# ---------------------------------------------------------------- kleingordon

def test_kleingordon_constant_mass():
    grid = Grid(-4.0, 4.0, 9)
    h = dense("kleingordon", grid, ConstantMass(3.0), z=0.0)
    np.testing.assert_array_equal(h, laplacian(grid) + 9.0 * np.eye(9))


def test_kleingordon_harmonic_reduction():
    grid = Grid(-4.0, 4.0, 9)
    x = grid.points()
    h = dense("kleingordon", grid, GeneralMassSquared(lambda z, xi: xi * xi), z=0.0)
    np.testing.assert_allclose(h, laplacian(grid) + np.diag(x * x))
    assert not np.iscomplexobj(h)


def test_kleingordon_complex_mass_is_non_hermitian():
    grid = Grid(-4.0, 4.0, 9)
    h = dense("kleingordon", grid, GeneralMassSquared(lambda z, xi: xi * xi + 1j * xi), z=0.0)
    assert np.linalg.norm(h - h.conj().T) > 0


def test_kleingordon_evaluator_failure():
    grid = Grid(-4.0, 4.0, 9)

    def bad(z, x):
        raise ArithmeticError("undefined")

    with pytest.raises(EvaluationFailure):
        build_problem("kleingordon", grid, GeneralMassSquared(bad), z=0.0)
    with pytest.raises(EvaluationFailure):
        build_problem("kleingordon", grid, GeneralMassSquared(lambda z, x: float("nan")), z=0.0)


def test_kleingordon_band_evaluates_an_x_independent_mass_once(monkeypatch):
    import edspec.operators as ops

    rng = np.random.default_rng(11)
    mass_squared = ops.mass_squared
    calls = []

    def counted(model, z, x):
        calls.append(x)
        return mass_squared(model, z, x)

    monkeypatch.setattr(ops, "mass_squared", counted)
    for trial in range(300):
        grid = Grid(-rng.uniform(1.0, 20.0), rng.uniform(1.0, 20.0), int(rng.integers(3, 400)))
        model = (ConstantMass(rng.uniform(0.01, 10.0)) if trial % 2
                 else HOQuadratic(rng.uniform(0.1, 5.0), rng.uniform(-5.0, 5.0)))
        z = rng.uniform(-10.0, 10.0)
        calls.clear()
        T = build_problem("kleingordon", grid, model, z)
        assert len(calls) == 1
        # the per-node evaluation, bit for bit
        per_node = 2.0 / grid.h ** 2 + np.array([mass_squared(model, z, xi)
                                                 for xi in grid.points()])
        assert np.array_equal(T.diagonal, per_node)
    # a general model is still evaluated at every node
    calls.clear()
    build_problem("kleingordon", Grid(-4.0, 4.0, 9), GeneralMassSquared(lambda z, xi: xi), 0.0)
    assert len(calls) == 9


@pytest.mark.parametrize("kind, z", [("schrodinger", 1e200), ("kleingordon", 1e100),
                                     ("kleingordon", 1.3e154)])
def test_coefficient_overflow_is_an_evaluation_failure(kind, z):
    # the first two overflow in a float power, the last to an infinite diagonal
    with pytest.raises(EvaluationFailure):
        build_problem(kind, Grid(-4.0, 4.0, 9), HOQuadratic(1.5, 2.0), z)


@pytest.mark.parametrize("kind, model", [
    ("schrodinger", ConstantMass(0.7)),
    ("schrodinger", HOQuadratic(1.3, 0.4)),
    ("kleingordon", ConstantMass(0.7)),
    ("kleingordon", HOQuadratic(1.3, 0.4)),
    ("kleingordon", GeneralMassSquared(lambda z, xi: z + xi * xi)),
], ids=["schrodinger-constant", "schrodinger-ho", "kleingordon-constant",
        "kleingordon-ho", "kleingordon-real-general"])
def test_bands_assemble_the_dense_form(kind, model):
    grid = Grid(-4.0, 4.0, 9)
    T = build_problem(kind, grid, model, 1.7)
    assert isinstance(T, Tridiagonal) and T.shape == (9, 9)
    assert T.diagonal.dtype == T.off_diagonal.dtype == np.float64
    assert (T.off_diagonal != 0.0).all()
    H = np.asarray(T)
    assert H.dtype == np.float64
    np.testing.assert_array_equal(H, assembled(T.diagonal, T.off_diagonal))


def test_bands_of_complex_mass_are_not_real_symmetric():
    grid = Grid(-4.0, 4.0, 9)
    model = GeneralMassSquared(lambda z, xi: xi * xi + 1j * xi)
    T = build_problem("kleingordon", grid, model, 0.0)
    assert T.diagonal.dtype == np.complex128 and T.off_diagonal.dtype == np.float64
    H = np.asarray(T)
    np.testing.assert_array_equal(H, assembled(T.diagonal, T.off_diagonal))
    np.testing.assert_array_equal(H, H.T)
    with pytest.raises(ValueError, match="needs a real mass-squared"):
        collect_physical(model, grid, [0], [(0.0, 1.0)], "kleingordon", steps=4)
    with pytest.raises(DegenerateMass):
        build_problem("schrodinger", grid, HOQuadratic(1.0, 2.0), 2.0)
    with pytest.raises(EvaluationFailure):
        build_problem("kleingordon", grid, GeneralMassSquared(lambda z, x: float("nan")), 0.0)


def test_band_value_array_protocol():
    T = build_problem("kleingordon", Grid(-4.0, 4.0, 5), ConstantMass(1.0), 0.0)
    block = np.zeros((10, 10))
    block[:5, 5:] = T                    # numpy passes dtype and copy here
    np.testing.assert_array_equal(block[:5, 5:], np.asarray(T))
    assert np.asarray(T, dtype=complex).dtype == np.complex128
    with pytest.raises(ValueError):
        np.asarray(T, copy=False)


# ---------------------------------------------------------------- FV blocks

def test_fv_single_site():
    system = assemble_fv(np.array([[4.0]]))
    np.testing.assert_array_equal(system.h_sr, [[0, 4], [1, 0]])
    np.testing.assert_allclose(np.sort(np.linalg.eigvals(system.h_sr).real), [-2, 2],
                               atol=1e-12)


def test_fv_identity_block():
    system = assemble_fv(np.eye(2))
    w = np.sort(np.linalg.eigvals(system.h_sr).real)
    np.testing.assert_allclose(w, [-1, -1, 1, 1], atol=1e-12)


def test_fv_diagonal_block():
    system = assemble_fv(np.diag([1.0, 4.0]))
    w = np.sort(np.linalg.eigvals(system.h_sr).real)
    np.testing.assert_allclose(w, [-2, -1, 1, 2], atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_fv_square_law_random(seed):
    rng = np.random.default_rng(seed)
    for n in (2, 7, 16):
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        fv = np.sort_complex(np.linalg.eigvals(assemble_fv(h).h_sr))
        roots = np.sqrt(np.linalg.eigvals(h).astype(complex))
        expected = np.sort_complex(np.concatenate([roots, -roots]))
        assert np.abs(fv - expected).max() <= 1e-8 * np.linalg.norm(h)


def test_fv_metric_swap():
    eta_sr = assemble_fv(np.eye(2), np.eye(2)).eta_sr
    np.testing.assert_array_equal(eta_sr, np.block(
        [[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]]))
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(eta_sr)), [-1, -1, 1, 1])


def test_fv_metric_hermitian_case(rng):
    h = rng.standard_normal((4, 4))
    h = h + h.T
    system = assemble_fv(h)
    lhs = system.eta_sr @ system.h_sr @ np.linalg.inv(system.eta_sr)
    assert np.linalg.norm(lhs - system.h_sr.conj().T) < 1e-10


def test_fv_metric_pseudo_hermitian_construction(rng):
    # H = eta^-1 M satisfies H^dagger eta = eta H for Hermitian M, eta > 0
    w = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    eta = np.eye(4) + 0.3 * (w @ w.conj().T) / 4
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = 0.5 * (m + m.conj().T)
    h = np.linalg.solve(eta, m)
    assert np.linalg.norm(eta @ h @ np.linalg.inv(eta) - h.conj().T) <= 1e-8 * np.linalg.norm(h)
    system = assemble_fv(h, eta=eta)
    h_sr, eta_sr = system.h_sr, system.eta_sr
    residual = np.linalg.norm(eta_sr @ h_sr @ np.linalg.inv(eta_sr) - h_sr.conj().T)
    assert residual <= 1e-8 * np.linalg.norm(h_sr)


def test_fv_metric_rejections():
    with pytest.raises(NonHermitianMetric):
        assemble_fv(np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]])).eta_sr
    with pytest.raises(SingularMetric):
        assemble_fv(np.eye(2), np.diag([1.0, 1e-15])).eta_sr
