import dataclasses
import tracemalloc

import numpy as np
import pytest

from edspec.errors import IllConditionedOverlap
from edspec.fixedpoint import PhysicalLevel
from edspec.operators import ConstantMass, Grid, build_problem
from edspec.physical_basis import (
    build_basis,
    build_K,
    build_L,
    build_metrics,
    build_mu,
    build_nu,
    levels_from_matrix,
    projector_residual,
)


def unit_projector(basis):
    """Reference: the R^-1-weighted sum sum_b |phi^b>> <phi_b|, the unit projector
    on the level set."""
    return basis.double_kets @ basis.left_vectors.conj().T


def _level(n, energy, ket, bra):
    ket = np.asarray(ket, complex)
    bra = np.asarray(bra, complex)
    return PhysicalLevel(multi_index=(n, 0), energy=energy,
                         right_ket=ket, left_bra=bra, residual=0.0)


def two_levels(dim=2):
    """R = [[1, 0.6], [0, 1]]: self-biorthonormal levels with one-way overlap."""
    c, s = 0.6, 0.8
    ket1 = np.zeros(dim)
    ket1[0] = 1.0
    ket2 = np.zeros(dim)
    ket2[0], ket2[1] = c, s
    bra2 = np.zeros(dim)
    bra2[1] = 1.0 / s
    return [_level(0, 1.0, ket1, ket1), _level(1, 2.5, ket2, bra2)]


# ---------------------------------------------------------------- basis

def test_single_level_basis():
    (level,) = levels_from_matrix(np.array([[2.0]]))
    basis = build_basis([level])
    np.testing.assert_allclose(basis.R, [[1.0]])
    np.testing.assert_allclose(basis.double_kets[:, 0], level.right_ket)
    np.testing.assert_allclose(basis.double_bras[:, 0], level.left_bra)


def test_constant_mass_full_basis_is_orthonormal():
    grid = Grid(-5.0, 5.0, 10)
    h = build_problem("kleingordon", grid, ConstantMass(1.0), 0.0)
    basis = build_basis(levels_from_matrix(h))
    np.testing.assert_allclose(basis.R, np.eye(10), atol=1e-12)
    np.testing.assert_allclose(basis.double_kets, basis.right_vectors, atol=1e-12)
    assert projector_residual(basis) < 1e-8


def test_two_level_overlap_matrix():
    basis = build_basis(two_levels())
    np.testing.assert_allclose(basis.R, [[1.0, 0.6], [0.0, 1.0]], atol=1e-15)
    # duality both ways: <<phi_a|phi^b> = <phi_a|phi^b>> = delta
    dual1 = basis.double_bras.conj().T @ basis.right_vectors
    dual2 = basis.left_vectors.conj().T @ basis.double_kets
    np.testing.assert_allclose(dual1, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(dual2, np.eye(2), atol=1e-14)


def test_projector_orderings_agree():
    basis = build_basis(two_levels(dim=3))
    left = unit_projector(basis)
    right = basis.right_vectors @ basis.double_bras.conj().T
    np.testing.assert_allclose(left, right, atol=1e-10)


def test_partial_basis_projector_is_idempotent():
    basis = build_basis(two_levels(dim=3))
    S = unit_projector(basis)
    np.testing.assert_allclose(S @ S, S, atol=1e-8)
    assert np.isfinite(projector_residual(basis))


def test_partial_hermitian_basis_metrics_are_projectors():
    grid = Grid(-5.0, 5.0, 16)
    h = build_problem("kleingordon", grid, ConstantMass(1.0), 0.0)
    levels = levels_from_matrix(h)[:5]
    basis = build_basis(levels)
    span = basis.right_vectors
    q, _ = np.linalg.qr(span)
    projector = q @ q.conj().T
    assert np.linalg.norm(build_mu(basis) - projector) < 1e-8
    assert np.linalg.norm(build_nu(basis) - projector) < 1e-8


def test_duplicated_level_rejected():
    levels = two_levels()
    with pytest.raises(IllConditionedOverlap):
        build_basis([levels[0], levels[0]])


def test_unnormalized_levels_rejected():
    level = _level(0, 1.0, [2.0, 0.0], [1.0, 0.0])    # <bra|ket> = 2
    with pytest.raises(ValueError):
        build_basis([level])


def test_too_many_levels_rejected():
    levels = two_levels()      # dim 2
    with pytest.raises(ValueError):
        build_basis(levels + [levels[0]])


# ---------------------------------------------------------------- K and L

def test_constant_mass_limit_collapses_to_h():
    grid = Grid(-5.0, 5.0, 12)
    bands = build_problem("kleingordon", grid, ConstantMass(1.0), 0.0)
    basis = build_basis(levels_from_matrix(bands))
    h = np.asarray(bands)
    K = build_K(basis)
    L = build_L(basis)
    assert np.linalg.norm(K - h) < 1e-8
    assert np.linalg.norm(L - h) < 1e-8
    suite = build_metrics(basis)
    assert np.linalg.norm(build_mu(basis) - np.eye(12)) < 1e-8
    assert np.linalg.norm(build_nu(basis) - np.eye(12)) < 1e-8
    assert suite.min_eig_mu == pytest.approx(1.0, abs=1e-10)
    assert suite.min_eig_nu == pytest.approx(1.0, abs=1e-10)


def test_two_level_hand_values():
    # direct expansion algebra: K = [[1, 1.125], [0, 2.5]], L = diag(1, 2.5),
    # mu = [[1, -0.75], [-0.75, 2.125]], nu = diag(1, 1.5625)
    basis = build_basis(two_levels())
    K = build_K(basis)
    L = build_L(basis)
    np.testing.assert_allclose(K, [[1.0, 1.125], [0.0, 2.5]], atol=1e-14)
    np.testing.assert_allclose(L, [[1.0, 0.0], [0.0, 2.5]], atol=1e-14)
    assert np.linalg.norm(K - L) > 1.0
    mu, nu = build_mu(basis), build_nu(basis)
    np.testing.assert_allclose(mu, [[1.0, -0.75], [-0.75, 2.125]], atol=1e-14)
    np.testing.assert_allclose(nu, [[1.0, 0.0], [0.0, 1.5625]], atol=1e-14)
    # inverse expansions: mu^-1 = sum |phi^a><phi^a|, nu^-1 = sum |phi^a>> (|phi^a>>)^dagger
    phi_r, dkets = basis.right_vectors, basis.double_kets
    np.testing.assert_allclose(mu @ (phi_r @ phi_r.conj().T), np.eye(2), atol=1e-12)
    np.testing.assert_allclose(nu @ (dkets @ dkets.conj().T), np.eye(2), atol=1e-12)
    assert build_metrics(basis).min_eig_mu == pytest.approx(0.625, abs=1e-12)


def test_one_sided_actions():
    basis = build_basis(two_levels())
    K = build_K(basis)
    L = build_L(basis)
    for level in basis.levels:
        assert np.linalg.norm(K @ level.right_ket - level.energy * level.right_ket) \
            <= 1e-10 * (1.0 + abs(level.energy))
        assert np.linalg.norm(level.left_bra.conj() @ L - level.energy * level.left_bra.conj()) \
            <= 1e-10 * (1.0 + abs(level.energy))


def test_quasi_hermiticity_residuals():
    basis = build_basis(two_levels())
    suite = build_metrics(basis)
    assert suite.residual_K < 1e-9
    assert suite.residual_L < 1e-9
    mu, nu = build_mu(basis), build_nu(basis)
    np.testing.assert_allclose(mu, mu.conj().T, atol=1e-10)
    np.testing.assert_allclose(nu, nu.conj().T, atol=1e-10)


def test_k_and_l_share_eigenvalues():
    basis = build_basis(two_levels(dim=3))
    K = build_K(basis)
    L = build_L(basis)
    wk = np.sort_complex(np.linalg.eigvals(K))
    wl = np.sort_complex(np.linalg.eigvals(L))
    np.testing.assert_allclose(wk, wl, atol=1e-8)


def test_subspace_metrics():
    basis = build_basis(two_levels(dim=3))
    suite = build_metrics(basis)
    assert suite.residual_K < 1e-9
    assert suite.residual_L < 1e-9
    # positivity holds on the spanned subspace even though the full matrices
    # are singular there
    assert suite.min_eig_mu > 0
    assert suite.min_eig_nu > 0
    # mu mu^-1 and nu nu^-1 both reproduce the adjoint of the unit projector,
    # with mu^-1 = sum |phi^a><phi^a| and nu^-1 = sum |phi^a>> (|phi^a>>)^dagger
    S = unit_projector(basis)
    phi_r, dkets = basis.right_vectors, basis.double_kets
    np.testing.assert_allclose(build_mu(basis) @ (phi_r @ phi_r.conj().T), S.conj().T,
                               atol=1e-10)
    np.testing.assert_allclose(build_nu(basis) @ (dkets @ dkets.conj().T), S.conj().T,
                               atol=1e-10)


# ---------------------------------------------------------------- factored suite

def _random_basis(rng, n, m, is_complex, coupling):
    """Levels with a unit upper-triangular overlap R whose corner entry is
    coupling, so that condition_R grows as coupling^2.

    The left vectors reproduce R on the right vectors' span and, for a
    partial set, leave it along a random orthogonal complement.
    """
    def draw(*shape):
        a = rng.standard_normal(shape)
        return a + 1j * rng.standard_normal(shape) if is_complex else a

    phi_r = draw(n, m)
    R = np.eye(m) + np.triu(0.2 * draw(m, m), 1)
    R[0, -1] += coupling
    phi_l = phi_r @ np.linalg.solve(phi_r.conj().T @ phi_r, R.conj().T)
    if m < n:
        q, _ = np.linalg.qr(phi_r, mode="complete")
        phi_l = phi_l + q[:, m:] @ draw(n - m, m)
    energies = np.sort(rng.uniform(0.5, 4.0, m))
    return build_basis([
        PhysicalLevel(multi_index=(k, 0), energy=energies[k], right_ket=phi_r[:, k],
                      left_bra=phi_l[:, k], residual=0.0)
        for k in range(m)
    ])


def _with_inverse(basis, R_inv):
    """The same levels with a given (not necessarily exact) inverse of R."""
    return dataclasses.replace(
        basis, R_inv=R_inv,
        double_kets=basis.right_vectors @ R_inv,
        double_bras=basis.left_vectors @ R_inv.conj().T,
    )


def _dense_suite(basis):
    """The five reported scalars from the dense N x N definitions, each with
    the norm product of its factors, which sets its rounding noise."""
    phi_r, phi_l = basis.right_vectors, basis.left_vectors
    B, D, E = basis.double_bras, basis.double_kets, np.diag(basis.energies)
    K = phi_r @ E @ B.conj().T
    L = D @ E @ phi_l.conj().T
    mu = B @ B.conj().T
    nu = phi_l @ phi_l.conj().T
    q_l, _ = np.linalg.qr(phi_l)
    q_r, _ = np.linalg.qr(phi_r)
    S = D @ phi_l.conj().T
    values = {
        "residual_K": np.linalg.norm(K.conj().T @ mu - mu @ K),
        "residual_L": np.linalg.norm(nu @ L - L.conj().T @ nu),
        "min_eig_mu": np.linalg.eigvalsh(q_l.conj().T @ mu @ q_l).min(),
        "min_eig_nu": np.linalg.eigvalsh(q_l.conj().T @ nu @ q_l).min(),
        "projector_residual": np.linalg.norm(S - q_r @ q_r.conj().T),
    }
    norm = np.linalg.norm
    scales = {
        "residual_K": norm(E) * norm(phi_r) * norm(B) ** 3,
        "residual_L": norm(E) * norm(D) * norm(phi_l) ** 3,
        "min_eig_mu": norm(B) ** 2,
        "min_eig_nu": norm(phi_l) ** 2,
        "projector_residual": 1.0 + norm(D) * norm(phi_l),
    }
    return values, scales


@pytest.mark.parametrize("is_complex", [False, True])
@pytest.mark.parametrize("n, m", [(9, 3), (6, 6)])
@pytest.mark.parametrize("coupling, min_condition", [(0.3, 1.0), (30.0, 1e2), (1e3, 1e5)])
def test_factored_suite_matches_dense(is_complex, n, m, coupling, min_condition):
    rng = np.random.default_rng([n, m, int(coupling), int(is_complex)])
    exact = _random_basis(rng, n, m, is_complex, coupling)
    assert min_condition <= exact.condition_R < 1e7
    # a perturbed inverse lifts both residuals far above rounding noise
    perturbed = _with_inverse(exact, exact.R_inv * (1.0 + 1e-3 * rng.standard_normal((m, m))))
    for basis in (exact, perturbed):
        suite = build_metrics(basis)
        factored = dataclasses.asdict(suite)
        factored["projector_residual"] = projector_residual(basis)
        dense, scales = _dense_suite(basis)
        for key, value in dense.items():
            assert factored[key] == pytest.approx(value, rel=1e-9, abs=1e-13 * scales[key]), key
    assert dense["residual_K"] > 1e-6 and dense["residual_L"] > 1e-6


def test_real_levels_stay_real():
    rng = np.random.default_rng(3)
    basis = _random_basis(rng, 8, 3, False, 1.0)
    assert not any(np.iscomplexobj(a) for a in (basis.R, basis.R_inv, basis.double_kets,
                                                basis.double_bras, build_mu(basis)))
    # a single real level intertwines exactly: E G - G^dagger E is e (g - g)
    suite = build_metrics(_random_basis(rng, 8, 1, False, 0.0))
    assert (suite.residual_K, suite.residual_L) == (0.0, 0.0)


def test_factored_suite_forms_no_dense_matrix():
    n = 1000
    basis = _random_basis(np.random.default_rng(11), n, 3, True, 1.0)
    tracemalloc.start()
    try:
        build_metrics(basis)
        projector_residual(basis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one complex N x N array alone is 16 MB
    assert peak < 16 * n * n / 16
