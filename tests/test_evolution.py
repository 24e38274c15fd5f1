import warnings

import numpy as np
import pytest

import edspec.evolution as evolution
from edspec.errors import DegenerateSpectrum, DimensionMismatch
from edspec.evolution import (
    FVState,
    assemble_fv,
    conservation_report,
    eigenstate,
    evolve,
)
from edspec.frozen_spectrum import decompose
from edspec.operators import (
    ConstantMass,
    GeneralMassSquared,
    Grid,
    build_kleingordon,
)
from edspec.validate import criterion_pseudo_unitarity, gaussian_state, pseudo_hermitian_pair


def _hermitian_system(n_points=40):
    grid = Grid(-8.0, 8.0, n_points)
    h = build_kleingordon(grid, ConstantMass(1.0), 0.0)
    return grid, assemble_fv(h)


def test_eigenstate_picks_up_a_phase():
    _, system = _hermitian_system()
    dec = decompose(system.h_sr)
    n = system.base_dimension
    ket = dec.right_kets[:, 3]
    energy = dec.eigenvalues[3].real
    state = FVState(phi1=ket[:n], phi2=ket[n:], t=0.0)
    trajectory = evolve(system, state, t_final=2.0, steps=4)
    expected = np.exp(-1j * energy * 2.0) * ket
    np.testing.assert_allclose(trajectory[-1].stacked(), expected, atol=1e-8)


def test_single_site_analytic_solution():
    # h = [[0, 4], [1, 0]]: phi2(t) = a e^{-2it} + b e^{+2it} with
    # a = (phi2(0) + phi1(0)/2)/2, b = (phi2(0) - phi1(0)/2)/2
    system = assemble_fv(np.array([[4.0]]))
    state = FVState(phi1=np.array([1.0 + 0.0j]), phi2=np.array([1.0 + 0.0j]), t=0.0)
    trajectory = evolve(system, state, t_final=1.0, steps=10)
    a, b = 0.75, 0.25
    for s in trajectory:
        phi2 = a * np.exp(-2j * s.t) + b * np.exp(2j * s.t)
        phi1 = 2 * a * np.exp(-2j * s.t) - 2 * b * np.exp(2j * s.t)
        assert s.phi2[0] == pytest.approx(phi2, abs=1e-10)
        assert s.phi1[0] == pytest.approx(phi1, abs=1e-10)


def test_zero_time_returns_initial_state():
    _, system = _hermitian_system()
    n = system.base_dimension
    state = FVState(phi1=np.zeros(n, complex), phi2=np.ones(n, complex), t=0.0)
    trajectory = evolve(system, state, t_final=0.0, steps=0)
    assert len(trajectory) == 1
    assert trajectory[0] is state


def test_group_property():
    grid, system = _hermitian_system()
    state = gaussian_state(grid, center=0.5, width=1.0, momentum=1.0)
    direct = evolve(system, state, t_final=3.0, steps=3)[-1]
    partway = evolve(system, state, t_final=1.0, steps=1)[-1]
    resumed = evolve(system, partway, t_final=2.0, steps=2)[-1]
    np.testing.assert_allclose(resumed.stacked(), direct.stacked(), atol=1e-8)


@pytest.mark.parametrize("phi1, phi2", [
    ([complex(1.0, np.nan)], [0.0]),
    ([0.0], [complex(0.0, np.inf)]),
    ([np.nan], [0.0]),
], ids=["nan-imag", "inf-imag", "nan-real"])
def test_state_rejects_non_finite_entries(phi1, phi2):
    with pytest.raises(ValueError, match="finite"):
        FVState(phi1=np.array(phi1, complex), phi2=np.array(phi2, complex), t=0.0)

def test_complex_spectrum_warns_but_proceeds():
    grid = Grid(-6.0, 6.0, 16)
    h = build_kleingordon(grid, GeneralMassSquared(lambda z, x: 1.0 + 0.4j * x), 0.0)
    system = assemble_fv(h)
    state = gaussian_state(grid, center=0.0, width=1.0, momentum=0.0)
    with pytest.warns(RuntimeWarning):
        trajectory = evolve(system, state, t_final=1.0, steps=2)
    assert len(trajectory) == 3


def _expm_trajectory(system, state, t_final, steps):
    from scipy.linalg import expm

    h_sr = system.h_sr
    return [expm(-1j * (t_final * k / steps) * h_sr) @ state.stacked()
            for k in range(steps + 1)]


@pytest.mark.parametrize("mass_squared", [
    lambda z, x: 1.0 + 0.1 * x * x,
    lambda z, x: 1.0 + 0.1j * x,
], ids=["hermitian", "complex-mass-squared"])
def test_trajectory_matches_matrix_exponential(mass_squared):
    # independent oracle: the 2N x 2N propagator exp(-i t h_sr) applied to Phi(0)
    grid = Grid(-6.0, 6.0, 30)
    system = assemble_fv(build_kleingordon(grid, GeneralMassSquared(mass_squared), 0.0))
    state = gaussian_state(grid, center=0.5, width=1.2, momentum=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        trajectory = evolve(system, state, t_final=3.0, steps=6)
    reference = _expm_trajectory(system, state, 3.0, 6)
    scale = max(np.abs(v).max() for v in reference)
    for s, expected in zip(trajectory, reference):
        assert np.abs(s.stacked() - expected).max() <= 1e-9 * scale


@pytest.mark.parametrize("pick", [lambda n: 0, lambda n: n - 1, lambda n: n,
                                  lambda n: 2 * n - 1], ids=["0", "N-1", "N", "2N-1"])
def test_eigenstate_matches_generator_decomposition(pick):
    # no parity symmetry, so the largest component of each ket is unique
    grid = Grid(-6.0, 6.0, 30)
    h = build_kleingordon(grid, GeneralMassSquared(lambda z, x: 1.0 + 0.3 * x + 0.1 * x * x),
                          0.0)
    system = assemble_fv(h)
    k = pick(system.base_dimension)
    state = eigenstate(system, k)
    expected = decompose(system.h_sr).right_kets[:, k]
    assert np.abs(state.stacked() - expected).max() <= 1e-12


def test_eigenstate_index_out_of_range():
    system = assemble_fv(np.array([[4.0]]))
    for index in (-1, 2):
        with pytest.raises(ValueError, match="index"):
            eigenstate(system, index)


def test_zero_frequency_is_degenerate():
    # lambda = 0 makes h_sr = [[0, 0], [1, 0]], a Jordan block
    system = assemble_fv(np.zeros((1, 1)))
    state = FVState(phi1=np.array([1.0 + 0.0j]), phi2=np.array([0.0j]), t=0.0)
    with pytest.raises(DegenerateSpectrum):
        evolve(system, state, t_final=1.0, steps=2)


def test_negative_mass_squared_warns():
    # m^2 = -4 pushes the lowest eigenvalues of H below zero: imaginary frequencies
    grid = Grid(-6.0, 6.0, 30)
    system = assemble_fv(build_kleingordon(grid, GeneralMassSquared(lambda z, x: -4.0), 0.0))
    assert np.isrealobj(system.H)
    state = gaussian_state(grid, center=0.0, width=1.0, momentum=0.0)
    with pytest.warns(RuntimeWarning, match="not entirely real"):
        trajectory = evolve(system, state, t_final=0.5, steps=2)
    assert len(trajectory) == 3


# ---------------------------------------------------------------- pseudo-norm

def test_identity_metric_is_euclidean():
    v = np.array([1.0, 2.0j])
    state = FVState(phi1=v[:1], phi2=v[1:], t=0.0)
    system = assemble_fv(np.array([[4.0]]))
    assert conservation_report([state], "identity", system).pseudo_norms[0] == pytest.approx(5.0)


def test_swap_metric_signature():
    # no inner eta: the swap metric is [[0, I], [I, 0]]
    v = np.array([1.0 + 1.0j, 0.5])
    system = assemble_fv(np.diag([1.0, 4.0]))
    plus = FVState(phi1=v, phi2=v, t=0.0)
    minus = FVState(phi1=v, phi2=-v, t=0.0)
    norm2 = float(np.linalg.norm(v) ** 2)
    values = conservation_report([plus, minus], "swap", system).pseudo_norms
    assert values[0] == pytest.approx(2.0 * norm2)
    assert values[1] == pytest.approx(-2.0 * norm2)


def test_dimension_mismatch():
    state = FVState(phi1=np.ones(3), phi2=np.ones(3), t=0.0)
    with pytest.raises(DimensionMismatch):
        conservation_report([state], "identity", assemble_fv(np.diag([1.0, 4.0]))).pseudo_norms


# ---------------------------------------------------------------- conservation

def test_swap_metric_conserves_pseudo_norm():
    grid, system = _hermitian_system()
    state = gaussian_state(grid, center=0.0, width=1.2, momentum=1.5)
    trajectory = evolve(system, state, t_final=10.0, steps=100)
    report = conservation_report(trajectory, "swap", system)
    assert report.drift < 1e-8
    assert report.passed
    assert report.spectrum_real
    assert report.metric_intertwines


def test_wrong_metric_shows_drift():
    grid, system = _hermitian_system()
    state = gaussian_state(grid, center=0.0, width=1.2, momentum=1.5)
    trajectory = evolve(system, state, t_final=10.0, steps=100)
    report = conservation_report(trajectory, "identity", system)
    assert report.drift > 1e-3
    assert not report.passed
    assert not report.metric_intertwines


def test_zero_state_has_zero_drift():
    _, system = _hermitian_system(16)
    n = system.base_dimension
    state = FVState(phi1=np.zeros(n), phi2=np.zeros(n), t=0.0)
    trajectory = evolve(system, state, t_final=1.0, steps=3)
    report = conservation_report(trajectory, "swap", system)
    assert report.drift == 0.0
    assert report.degenerate_norm


# ---------------------------------------------------------------- block path vs dense

def _block_cases():
    rng = np.random.default_rng(7)
    n = 6
    general = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h, eta = pseudo_hermitian_pair(rng, n)
    return [
        pytest.param(assemble_fv(general), "swap", id="swap-no-eta"),
        pytest.param(assemble_fv(h, eta), "swap", id="swap-inner-eta"),
        pytest.param(assemble_fv(general, eta), "swap", id="swap-inner-eta-not-intertwining"),
        pytest.param(assemble_fv(general), "identity", id="identity"),
    ]


@pytest.mark.parametrize("system, metric", _block_cases())
def test_block_metric_matches_dense_form(system, metric):
    rng = np.random.default_rng(11)
    n = system.base_dimension
    M = system.eta_sr if metric == "swap" else np.eye(2 * n)
    h = system.h_sr
    states = [FVState(phi1=rng.standard_normal(n) + 1j * rng.standard_normal(n),
                      phi2=rng.standard_normal(n) + 1j * rng.standard_normal(n), t=0.0)
              for _ in range(5)]
    report = conservation_report(states, metric, system)
    dense = np.array([np.vdot(s.stacked(), M @ s.stacked()).real for s in states])
    np.testing.assert_allclose(report.pseudo_norms, dense, rtol=1e-12)
    residual = (np.linalg.norm(M @ h - h.conj().T @ M)
                / (np.linalg.norm(h) * np.linalg.norm(M)))
    assert report.intertwine_residual == pytest.approx(residual, rel=1e-12, abs=1e-15)


@pytest.fixture
def decompositions(monkeypatch):
    """Count the decompositions the evolution layer makes."""
    calls = []
    original = evolution.decompose
    monkeypatch.setattr(evolution, "decompose", lambda H: calls.append(H) or original(H))
    return calls


def test_one_decomposition_serves_a_system(decompositions):
    _, system = _hermitian_system()
    state = eigenstate(system, 3)
    trajectory = evolve(system, state, t_final=1.0, steps=4)
    conservation_report(trajectory, "swap", system)
    conservation_report(trajectory, "identity", system)
    assert len(decompositions) == 1


def test_pseudo_unitarity_criterion_decomposes_once(decompositions):
    assert criterion_pseudo_unitarity().passed
    assert len(decompositions) == 1
