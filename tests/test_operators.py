import numpy as np
import pytest

from edspec.errors import (
    AsymmetricGrid,
    DegenerateMass,
    EvaluationFailure,
    NonHermitianMetric,
    SingularMetric,
)
from edspec.operators import (
    ConstantMass,
    GeneralMassSquared,
    Grid,
    HOQuadratic,
    assemble_fv,
    assemble_fv_metric,
    build_kleingordon,
    build_bands,
    build_laplacian,
    build_parity,
    build_problem,
    build_schrodinger,
    tridiagonal,
)


# ---------------------------------------------------------------- grid

def test_grid_invariants():
    with pytest.raises(ValueError):
        Grid(1.0, -1.0, 10)
    with pytest.raises(ValueError):
        Grid(-1.0, 1.0, 2)
    g = Grid(-1.0, 1.0, 3)
    assert g.h == 1.0
    assert g.symmetric
    assert not Grid(-1.0, 2.0, 5).symmetric


# ---------------------------------------------------------------- laplacian

def test_laplacian_3x3_stencil():
    lap = build_laplacian(Grid(-1.0, 1.0, 3))
    np.testing.assert_array_equal(lap, [[2, -1, 0], [-1, 2, -1], [0, -1, 2]])


@pytest.mark.parametrize("grid", [Grid(-1.0, 1.0, 5), Grid(0.0, 3.0, 17),
                                  Grid(-12.0, 12.0, 101)])
def test_laplacian_symmetric_positive_definite(grid):
    lap = build_laplacian(grid)
    assert np.array_equal(lap, lap.T)
    assert np.linalg.eigvalsh(lap).min() > 0


def test_laplacian_harmonic_ground_state():
    # oracle: the continuum ground state of -d2/dx2 + x^2 sits at 1
    errors = []
    for n in (101, 201, 401):
        grid = Grid(-10.0, 10.0, n)
        x = grid.points()
        h = build_laplacian(grid) + np.diag(x * x)
        errors.append(abs(np.linalg.eigvalsh(h)[0] - 1.0))
    assert errors[1] < 1e-3
    # second-order convergence: halving h divides the error by ~4
    assert 3.0 < errors[0] / errors[1] < 5.0
    assert 3.0 < errors[1] / errors[2] < 5.0


# ---------------------------------------------------------------- schrodinger

def test_schrodinger_unit_coefficient():
    grid = Grid(-5.0, 5.0, 11)
    x = grid.points()
    h = build_schrodinger(grid, ConstantMass(0.5), z=7.3)
    np.testing.assert_array_equal(h, build_laplacian(grid) + np.diag(x * x))


def test_schrodinger_degenerate_mass():
    with pytest.raises(DegenerateMass):
        build_schrodinger(Grid(-5.0, 5.0, 11), HOQuadratic(1.0, 0.0), z=0.0)


def test_schrodinger_frozen_branch_values():
    # frozen oracle: dense eigensolve of (1/4) L + x^2 on [-12, 12], 400 nodes
    grid = Grid(-12.0, 12.0, 400)
    w = np.linalg.eigvalsh(build_schrodinger(grid, HOQuadratic(1.0, 0.0), z=2.0))
    assert w[0] == pytest.approx(0.4997737683593432, abs=1e-10)
    # continuum levels of the frozen family: (2n+1)/(A |z - E0|)
    for n in range(3):
        assert w[n] == pytest.approx((2 * n + 1) / 2.0, rel=3e-3)


def test_schrodinger_rejects_general_mass():
    model = GeneralMassSquared(lambda z, x: x * x)
    with pytest.raises(EvaluationFailure):
        build_schrodinger(Grid(-5.0, 5.0, 11), model, z=1.0)


# ---------------------------------------------------------------- kleingordon

def test_kleingordon_constant_mass():
    grid = Grid(-4.0, 4.0, 9)
    h = build_kleingordon(grid, ConstantMass(3.0), z=0.0)
    np.testing.assert_array_equal(h, build_laplacian(grid) + 9.0 * np.eye(9))


def test_kleingordon_harmonic_reduction():
    grid = Grid(-4.0, 4.0, 9)
    x = grid.points()
    h = build_kleingordon(grid, GeneralMassSquared(lambda z, xi: xi * xi), z=0.0)
    np.testing.assert_allclose(h, build_laplacian(grid) + np.diag(x * x))
    assert not np.iscomplexobj(h)


def test_kleingordon_complex_mass_is_non_hermitian():
    grid = Grid(-4.0, 4.0, 9)
    h = build_kleingordon(grid, GeneralMassSquared(lambda z, xi: xi * xi + 1j * xi), z=0.0)
    assert np.linalg.norm(h - h.conj().T) > 0


def test_kleingordon_evaluator_failure():
    grid = Grid(-4.0, 4.0, 9)

    def bad(z, x):
        raise ArithmeticError("undefined")

    with pytest.raises(EvaluationFailure):
        build_kleingordon(grid, GeneralMassSquared(bad), z=0.0)
    with pytest.raises(EvaluationFailure):
        build_kleingordon(grid, GeneralMassSquared(lambda z, x: float("nan")), z=0.0)


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
    diagonal, off_diagonal = build_bands(kind, grid, model, 1.7)
    assert diagonal.dtype == off_diagonal.dtype == np.float64
    assert (off_diagonal != 0.0).all()
    np.testing.assert_array_equal(tridiagonal(diagonal, off_diagonal),
                                  build_problem(kind, grid, model, 1.7))


def test_bands_of_complex_mass_are_not_real_symmetric():
    grid = Grid(-4.0, 4.0, 9)
    model = GeneralMassSquared(lambda z, xi: xi * xi + 1j * xi)
    with pytest.raises(ValueError, match="trace_branch_family"):
        build_bands("kleingordon", grid, model, 0.0)
    with pytest.raises(DegenerateMass):
        build_bands("schrodinger", grid, HOQuadratic(1.0, 2.0), 2.0)
    with pytest.raises(EvaluationFailure):
        build_bands("kleingordon", grid, GeneralMassSquared(lambda z, x: float("nan")), 0.0)


# ---------------------------------------------------------------- parity

def test_parity_reversal_matrix():
    p = build_parity(Grid(-1.0, 1.0, 3))
    np.testing.assert_array_equal(p, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])


@pytest.mark.parametrize("n", [5, 8, 33])
def test_parity_involution_and_reflection(n):
    grid = Grid(-2.5, 2.5, n)
    p = build_parity(grid)
    np.testing.assert_array_equal(p @ p, np.eye(n))
    x = np.diag(grid.points())
    np.testing.assert_allclose(p @ x @ p, -x, atol=1e-12)


def test_parity_asymmetric_grid():
    with pytest.raises(AsymmetricGrid):
        build_parity(Grid(-1.0, 2.0, 7))


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
    eta_sr = assemble_fv_metric(np.eye(2))
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
        assemble_fv_metric(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(SingularMetric):
        assemble_fv_metric(np.diag([1.0, 1e-15]))
