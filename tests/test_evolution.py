import warnings

import numpy as np
import pytest

import edspec.evolution as evolution
from edspec.errors import DegenerateSpectrum, DimensionMismatch
from edspec.evolution import (
    BLOCK_METRICS,
    FVState,
    Trajectory,
    assemble_fv,
    conservation_report,
    eigenstate,
    evolve,
    gaussian_state,
)
from edspec.frozen_spectrum import decompose
from edspec.operators import (
    ConstantMass,
    GeneralMassSquared,
    Grid,
    HOQuadratic,
    Tridiagonal,
    build_problem,
)
from edspec.validate import criterion_pseudo_unitarity, pseudo_hermitian_pair

EPS = np.finfo(float).eps


def _state(phi1, phi2):
    """One-row state at t = 0."""
    return FVState(t=np.zeros(1), phi1=np.array([phi1]), phi2=np.array([phi2]))


def _row(states, j):
    """Row j as the stacked 2N vector (phi1, phi2)."""
    return np.concatenate([states.phi1[j], states.phi2[j]])


def _modal(system, states):
    """The rows of ``states`` as a trajectory of ``system``: c = L^dagger phi for each."""
    bras = system.modes.bras.conj()
    return Trajectory(t=states.t, c1=(states.phi1 @ bras).astype(complex),
                      c2=(states.phi2 @ bras).astype(complex), modes=system.modes)


def _states(trajectory):
    """The states phi = K c of the rows of ``trajectory``."""
    kets = trajectory.modes.kets
    return FVState(t=trajectory.t, phi1=trajectory.c1 @ kets.T, phi2=trajectory.c2 @ kets.T)


def _complex_form(grid, real_mass, imaginary):
    """The dense Klein-Gordon form of m^2 = real_mass + i imaginary(x), complex symmetric."""
    real = build_problem("kleingordon", grid, real_mass, 0.0)
    return np.asarray(real) + np.diag(1j * imaginary(grid.points()))


def _hermitian_system(n_points=40):
    grid = Grid(-8.0, 8.0, n_points)
    h = build_problem("kleingordon", grid, ConstantMass(1.0), 0.0)
    return grid, assemble_fv(h)


def test_eigenstate_picks_up_a_phase():
    _, system = _hermitian_system()
    dec = decompose(system.h_sr)
    n = system.base_dimension
    ket = dec.right_kets[:, 3]
    energy = dec.eigenvalues[3].real
    state = _state(ket[:n], ket[n:])
    trajectory = _states(evolve(system, state, t_final=2.0, steps=4))
    expected = np.exp(-1j * energy * 2.0) * ket
    np.testing.assert_allclose(_row(trajectory, -1), expected, atol=1e-8)


def test_single_site_analytic_solution():
    # h = [[0, 4], [1, 0]]: phi2(t) = a e^{-2it} + b e^{+2it} with
    # a = (phi2(0) + phi1(0)/2)/2, b = (phi2(0) - phi1(0)/2)/2
    system = assemble_fv(np.array([[4.0]]))
    state = _state([1.0 + 0.0j], [1.0 + 0.0j])
    trajectory = _states(evolve(system, state, t_final=1.0, steps=10))
    a, b = 0.75, 0.25
    for t, row1, row2 in zip(trajectory.t, trajectory.phi1, trajectory.phi2):
        phi2 = a * np.exp(-2j * t) + b * np.exp(2j * t)
        phi1 = 2 * a * np.exp(-2j * t) - 2 * b * np.exp(2j * t)
        assert row2[0] == pytest.approx(phi2, abs=1e-10)
        assert row1[0] == pytest.approx(phi1, abs=1e-10)


def test_zero_time_returns_initial_state():
    _, system = _hermitian_system()
    n = system.base_dimension
    state = _state(np.zeros(n, complex), np.ones(n, complex))
    trajectory = evolve(system, state, t_final=0.0, steps=0)
    assert len(trajectory) == 1
    assert trajectory.t.tobytes() == state.t.tobytes()
    states = _states(trajectory)
    for field in ("phi1", "phi2"):
        np.testing.assert_allclose(getattr(states, field), getattr(state, field),
                                   rtol=0, atol=4 * n * EPS)


@pytest.mark.parametrize("steps", [1, 7])
def test_trajectory_has_a_row_per_step_and_starts_at_the_state(steps):
    grid, system = _hermitian_system()
    state = gaussian_state(grid, center=0.5, width=1.0, momentum=1.0)
    trajectory = evolve(system, state, t_final=2.0, steps=steps)
    assert len(trajectory) == steps + 1
    assert trajectory.c1.shape == trajectory.c2.shape == (steps + 1, grid.n_points)
    # modal row 0 is L^dagger times the start row
    bras = system.modes.bras
    assert trajectory.c1[0].tobytes() == (bras.conj().T @ state.phi1[0]).tobytes()
    assert trajectory.c2[0].tobytes() == (bras.conj().T @ state.phi2[0]).tobytes()
    assert trajectory.t[0] == state.t[0]
    # K c of row 0 is the start state, to the kets' orthonormality
    states = _states(trajectory)
    scale = 4 * grid.n_points * EPS * np.abs(state.phi1).max()
    np.testing.assert_allclose(states.phi1[0], state.phi1[0], rtol=0, atol=scale)
    np.testing.assert_allclose(states.phi2[0], state.phi2[0], rtol=0, atol=scale)


def test_evolve_continues_the_clock():
    # t_final is a duration: a state at t = 1 evolved for 2 in 2 steps sits at 1, 2, 3
    grid, system = _hermitian_system()
    start = evolve(system, gaussian_state(grid, center=0.5, width=1.0, momentum=1.0),
                   t_final=1.0, steps=1)
    assert start.t.tolist() == [0.0, 1.0]
    assert evolve(system, _states(start), t_final=2.0, steps=2).t.tolist() == [1.0, 2.0, 3.0]


def test_group_property():
    grid, system = _hermitian_system()
    state = gaussian_state(grid, center=0.5, width=1.0, momentum=1.0)
    direct = _states(evolve(system, state, t_final=3.0, steps=3))
    partway = _states(evolve(system, state, t_final=1.0, steps=1))
    resumed = _states(evolve(system, partway, t_final=2.0, steps=2))
    np.testing.assert_allclose(_row(resumed, -1), _row(direct, -1), atol=1e-8)


@pytest.mark.parametrize("phi1, phi2", [
    ([complex(1.0, np.nan)], [0.0]),
    ([0.0], [complex(0.0, np.inf)]),
    ([np.nan], [0.0]),
], ids=["nan-imag", "inf-imag", "nan-real"])
def test_state_rejects_non_finite_entries(phi1, phi2):
    with pytest.raises(ValueError, match="finite"):
        _state(np.array(phi1, complex), np.array(phi2, complex))


@pytest.mark.parametrize("t, phi1, phi2", [
    (np.zeros(2), np.ones((3, 2)), np.ones((3, 2))),
    (np.zeros(1), np.ones(2), np.ones(2)),
    (0.0, np.ones(2), np.ones(2)),
    (np.zeros(1), np.ones((1, 2)), np.ones((1, 3))),
    (np.zeros(2), np.ones((2, 2)), np.ones((1, 2))),
    (np.zeros(0), np.ones((0, 2)), np.ones((0, 2))),
], ids=["rows-of-t-and-phi", "one-d-phi", "scalar-t-one-d-phi", "columns-of-phi1-and-phi2",
        "rows-of-phi1-and-phi2", "no-rows"])
def test_state_rejects_inconsistent_shapes(t, phi1, phi2):
    with pytest.raises(ValueError, match=r"\(k, N\) arrays"):
        FVState(t=t, phi1=phi1, phi2=phi2)


def test_complex_spectrum_warns_but_proceeds():
    grid = Grid(-6.0, 6.0, 16)
    system = assemble_fv(_complex_form(grid, ConstantMass(1.0), lambda x: 0.4 * x))
    state = gaussian_state(grid, center=0.0, width=1.0, momentum=0.0)
    with pytest.warns(RuntimeWarning):
        trajectory = evolve(system, state, t_final=1.0, steps=2)
    assert len(trajectory) == 3


def _expm_trajectory(system, state, t_final, steps):
    from scipy.linalg import expm

    h_sr = system.h_sr
    return [expm(-1j * (t_final * k / steps) * h_sr) @ _row(state, 0)
            for k in range(steps + 1)]


@pytest.mark.parametrize("operator", [
    lambda grid: build_problem("kleingordon", grid,
                               GeneralMassSquared(lambda z, x: 1.0 + 0.1 * x * x), 0.0),
    lambda grid: _complex_form(grid, ConstantMass(1.0), lambda x: 0.1 * x),
], ids=["hermitian", "complex-mass-squared"])
def test_trajectory_matches_matrix_exponential(operator):
    # independent oracle: the 2N x 2N propagator exp(-i t h_sr) applied to Phi(0)
    grid = Grid(-6.0, 6.0, 30)
    system = assemble_fv(operator(grid))
    state = gaussian_state(grid, center=0.5, width=1.2, momentum=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        trajectory = _states(evolve(system, state, t_final=3.0, steps=6))
    reference = _expm_trajectory(system, state, 3.0, 6)
    scale = max(np.abs(v).max() for v in reference)
    assert len(trajectory) == len(reference)
    for j, expected in enumerate(reference):
        assert np.abs(_row(trajectory, j) - expected).max() <= 1e-9 * scale


@pytest.mark.parametrize("pick", [lambda n: 0, lambda n: n - 1, lambda n: n,
                                  lambda n: 2 * n - 1], ids=["0", "N-1", "N", "2N-1"])
def test_eigenstate_matches_generator_decomposition(pick):
    # no parity symmetry, so the largest component of each ket is unique
    grid = Grid(-6.0, 6.0, 30)
    model = GeneralMassSquared(lambda z, x: 1.0 + 0.3 * x + 0.1 * x * x)
    h = build_problem("kleingordon", grid, model, 0.0)
    system = assemble_fv(h)
    k = pick(system.base_dimension)
    state = eigenstate(system, k)
    expected = decompose(system.h_sr).right_kets[:, k]
    assert np.abs(_row(state, 0) - expected).max() <= 1e-12


def test_eigenstate_index_out_of_range(monkeypatch):
    calls = []
    original = evolution.decompose
    monkeypatch.setattr(evolution, "decompose", lambda H: calls.append(H) or original(H))
    system = assemble_fv(np.array([[4.0]]))
    for index in (-1, 2):
        with pytest.raises(ValueError, match="index"):
            eigenstate(system, index)
    # the index is refused before H is decomposed
    assert calls == []


def test_zero_frequency_is_degenerate():
    # lambda = 0 makes h_sr = [[0, 0], [1, 0]], a Jordan block
    system = assemble_fv(np.zeros((1, 1)))
    state = _state([1.0 + 0.0j], [0.0j])
    with pytest.raises(DegenerateSpectrum):
        evolve(system, state, t_final=1.0, steps=2)


def test_negative_mass_squared_warns():
    # m^2 = -4 pushes the lowest eigenvalues of H below zero: imaginary frequencies
    grid = Grid(-6.0, 6.0, 30)
    model = GeneralMassSquared(lambda z, x: -4.0)
    system = assemble_fv(build_problem("kleingordon", grid, model, 0.0))
    assert np.isrealobj(system.H.diagonal)
    state = gaussian_state(grid, center=0.0, width=1.0, momentum=0.0)
    with pytest.warns(RuntimeWarning, match="not entirely real"):
        trajectory = evolve(system, state, t_final=0.5, steps=2)
    assert len(trajectory) == 3


# ---------------------------------------------------------------- real phases

def _complex_phase_rows(system, state, t_final, steps):
    """The modal rows of ``evolve`` by complex phases omega t on the same
    ``system.modes``, with the phases."""
    modes = system.modes
    omega = modes.frequencies
    c1 = modes.bras.conj().T @ state.phi1[-1]
    c2 = modes.bras.conj().T @ state.phi2[-1]
    times = t_final * np.arange(1, steps + 1) / steps if steps else np.empty(0)
    phase = np.outer(times, omega)
    cos, sin = np.cos(phase), np.sin(phase)
    rows1 = np.vstack([c1, c1 * cos - 1j * (omega * c2) * sin])
    rows2 = np.vstack([c2, c2 * cos - 1j * (c1 / omega) * sin])
    return rows1, rows2, phase


def _kleingordon_bands(model, n):
    """Klein-Gordon bands of N = n points, or the leading n x n block of a 3-point grid."""
    grid = Grid(-6.0, 6.0, max(n, 3))
    bands = build_problem("kleingordon", grid, model, 0.5)
    return grid, Tridiagonal(bands.diagonal[:n], bands.off_diagonal[:n - 1])


@pytest.mark.parametrize("start", ["gaussian", "eigenstate"])
@pytest.mark.parametrize("n", [1, 2, 33, 200])
@pytest.mark.parametrize("model", [ConstantMass(1.3), HOQuadratic(1.0, 3.0)],
                         ids=["constant", "oscillator"])
def test_real_phases_keep_the_complex_phase_bits(model, n, start):
    grid, bands = _kleingordon_bands(model, n)
    system = assemble_fv(bands)
    # the frequencies stay complex-typed: eigenstate's ket is built from them
    frequencies = system.modes.frequencies
    assert frequencies.dtype == complex and not frequencies.imag.any()
    if start == "gaussian":
        profile = gaussian_state(grid, center=0.4, width=1.1, momentum=1.5).phi1[:, :n]
        state = FVState(t=np.zeros(1), phi1=profile, phi2=0.5 * profile)
    else:
        state = eigenstate(system, n)
    same_trig = True
    for steps in (0, 1, 50):
        trajectory = evolve(system, state, t_final=3.7, steps=steps)
        c1, c2, phase = _complex_phase_rows(system, state, 3.7, steps)
        same_trig &= (np.array_equal(np.cos(phase.real), np.cos(phase).real)
                      and np.array_equal(np.sin(phase.real), np.sin(phase).real))
        for rows, reference in ((trajectory.c1, c1), (trajectory.c2, c2)):
            assert rows.dtype == reference.dtype
            np.testing.assert_allclose(rows, reference, rtol=0,
                                       atol=8 * EPS * np.abs(reference).max())
            if same_trig:
                # equal values: a zero's sign can differ where the complex
                # phase multiplies in its zero imaginary part
                assert np.array_equal(rows, reference)
        if same_trig:
            # and the states K c of both, bit for bit
            states = _states(trajectory)
            reference = _states(Trajectory(t=trajectory.t, c1=c1, c2=c2, modes=system.modes))
            for rows, expected in ((states.phi1, reference.phi1), (states.phi2, reference.phi2)):
                assert np.array_equal(rows.view(np.uint64), expected.view(np.uint64))
    if not same_trig:
        pytest.skip("this platform's real cos and sin differ from the real parts of its "
                    "complex ones, so only the few-ulp agreement is checked")


def _dense_gap(omega):
    """The generator gap from the N x N distances |omega_i -+ omega_j|."""
    same = np.abs(omega[:, None] - omega[None, :])
    np.fill_diagonal(same, np.inf)
    return min(same.min(), np.abs(omega[:, None] + omega[None, :]).min())


_RNG = np.random.default_rng(23)


@pytest.mark.parametrize("eigenvalues", [
    _RNG.uniform(0.0, 10.0, 200),
    10.0 ** _RNG.uniform(-12.0, 12.0, 200),
    np.repeat(_RNG.uniform(1.0, 2.0, 20), 2),
    np.r_[_RNG.uniform(0.5, 4.0, 20), 0.0],
    np.r_[0.0, 0.0],
    [7.0],
    [1.0, 1.0 + 2 ** -52],
], ids=["uniform", "wide", "repeated", "zero", "double-zero", "single", "one-ulp"])
def test_sorted_gap_is_the_dense_gap(eigenvalues):
    omega = np.sqrt(np.asarray(eigenvalues, dtype=complex))
    assert not omega.imag.any()
    assert evolution._generator_gap(omega) == _dense_gap(omega)


@pytest.mark.parametrize("near", ["sum", "difference"])
def test_degeneracy_threshold_is_unchanged(near):
    # walk the eigenvalue that sets the gap across 1e-8 ||h_sr||_F, one ulp at a time:
    # "sum" sets it by 2 sqrt(lambda) of a 1 x 1 H, "difference" by
    # sqrt(lambda) - 1 of diag(1, lambda, 4)
    threshold = 1e-8 * (1.0 if near == "sum" else np.sqrt(21.0))   # ~1e-8 ||h_sr||_F
    centre = (threshold / 2) ** 2 if near == "sum" else (1.0 + threshold) ** 2
    verdicts = set()
    for lam in centre + np.spacing(centre) * np.arange(-16, 17):
        if near == "sum":
            bands = Tridiagonal(np.array([lam]), np.empty(0))
        else:
            bands = Tridiagonal(np.array([1.0, lam, 4.0]), np.zeros(2))
        omega = np.sqrt(decompose(bands).eigenvalues)
        scale = np.sqrt(evolution._frobenius_sq(bands) + bands.shape[0])
        degenerate = _dense_gap(omega) < 1e-8 * scale
        verdicts.add(degenerate)
        system = assemble_fv(bands)
        if degenerate:
            with pytest.raises(DegenerateSpectrum):
                system.modes
        else:
            assert np.array_equal(system.modes.frequencies, omega)
    assert verdicts == {True, False}


# ---------------------------------------------------------------- pseudo-norm

def test_identity_metric_is_euclidean():
    v = np.array([1.0, 2.0j])
    state = _state(v[:1], v[1:])
    system = assemble_fv(np.array([[4.0]]))
    trajectory = evolve(system, state, t_final=0.0, steps=0)
    assert conservation_report(trajectory, "identity", system).pseudo_norms[0] == pytest.approx(5.0)


def test_swap_metric_signature():
    # no inner eta: the swap metric is [[0, I], [I, 0]]
    v = np.array([1.0 + 1.0j, 0.5])
    system = assemble_fv(np.diag([1.0, 4.0]))
    plus_and_minus = FVState(t=np.zeros(2), phi1=np.array([v, v]), phi2=np.array([v, -v]))
    norm2 = float(np.linalg.norm(v) ** 2)
    values = conservation_report(_modal(system, plus_and_minus), "swap", system).pseudo_norms
    assert values[0] == pytest.approx(2.0 * norm2)
    assert values[1] == pytest.approx(-2.0 * norm2)


def test_dimension_mismatch():
    state = _state(np.ones(3), np.ones(3))
    system = assemble_fv(np.diag([1.0, 4.0]))
    trajectory = evolve(assemble_fv(np.diag([1.0, 4.0, 9.0])), state, t_final=1.0, steps=2)
    with pytest.raises(DimensionMismatch):
        conservation_report(trajectory, "identity", system)
    with pytest.raises(DimensionMismatch):
        evolve(system, state, t_final=1.0, steps=2)


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


def test_euclidean_norms_follow_the_per_state_formula():
    grid, system = _hermitian_system()
    state = gaussian_state(grid, center=0.0, width=1.2, momentum=1.5)
    trajectory = evolve(system, state, t_final=10.0, steps=100)
    report = conservation_report(trajectory, "swap", system)
    identity = conservation_report(trajectory, "identity", system)
    assert report.euclidean_norms.tobytes() == identity.pseudo_norms.tobytes()
    # orthonormal kets: the sum over the modes of each component, |c1|^2 + |c2|^2
    per_row = [(np.abs(trajectory.c1[j]) ** 2).sum() + (np.abs(trajectory.c2[j]) ** 2).sum()
               for j in range(len(trajectory))]
    np.testing.assert_allclose(report.euclidean_norms, per_row, rtol=8 * EPS, atol=0)
    # the stacked 2N state's norm, squared, to the kets' orthonormality
    states = _states(trajectory)
    stacked = [np.linalg.norm(_row(states, j)) ** 2 for j in range(len(states))]
    n = system.base_dimension
    np.testing.assert_allclose(report.euclidean_norms, stacked, rtol=4 * n * EPS, atol=0)
    assert np.abs(report.euclidean_norms - 2.0).max() > 1e-3


def test_zero_state_has_zero_drift():
    _, system = _hermitian_system(16)
    n = system.base_dimension
    state = _state(np.zeros(n), np.zeros(n))
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
    # five states, drawn phi1 then phi2 each
    draws = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(10)]
    states = FVState(t=np.zeros(5), phi1=np.array(draws[0::2]), phi2=np.array(draws[1::2]))
    report = conservation_report(_modal(system, states), metric, system)
    dense = np.array([np.vdot(_row(states, j), M @ _row(states, j)).real for j in range(5)])
    np.testing.assert_allclose(report.pseudo_norms, dense, rtol=1e-12)
    residual = (np.linalg.norm(M @ h - h.conj().T @ M)
                / (np.linalg.norm(h) * np.linalg.norm(M)))
    assert report.intertwine_residual == pytest.approx(residual, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("mass", [
    pytest.param(ConstantMass(1.0), id="real"),
    pytest.param(GeneralMassSquared(lambda z, x: 1.0 + 0.3 * x), id="general"),
])
@pytest.mark.parametrize("metric", BLOCK_METRICS)
def test_band_norms_match_the_dense_form(mass, metric):
    # a band value's residual comes from its bands, a dense matrix's from all N^2 entries
    bands = build_problem("kleingordon", Grid(-8.0, 8.0, 60), mass, 0.3)
    n = bands.shape[0]
    state = _state(np.ones(n), np.linspace(-1.0, 1.0, n))

    def residual(system):
        return conservation_report(_modal(system, state), metric, system).intertwine_residual

    band = residual(assemble_fv(bands))
    dense = residual(assemble_fv(np.asarray(bands)))
    if metric == "swap":
        # a real symmetric H commutes with the swap metric exactly, either way
        assert band == dense == 0.0
    else:
        assert dense > 0.0 and abs(band - dense) <= 8 * EPS * dense
    H = np.asarray(bands)
    for shift in (0.0, 1.0):
        reference = np.linalg.norm(H - shift * np.eye(n))
        norm = np.sqrt(evolution._frobenius_sq(bands, shift))
        assert abs(norm - reference) <= 4 * EPS * reference


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


# ---------------------------------------------------------------- modal norms

def _norm_cases():
    rng = np.random.default_rng(29)
    n = 24
    grid = Grid(-6.0, 6.0, n)
    bands = build_problem("kleingordon", grid, HOQuadratic(1.0, 2.0), 0.6)
    general = _complex_form(grid, GeneralMassSquared(lambda z, x: 1.0 + 0.3 * x),
                            lambda x: 0.1 * x)
    h, eta = pseudo_hermitian_pair(rng, n)
    w = rng.standard_normal((n, n))
    band_eta = np.eye(n) + 0.1 * (w @ w.T) / n
    return grid, [
        pytest.param(assemble_fv(bands), id="real-band"),
        pytest.param(assemble_fv(np.asarray(bands)), id="dense-real-symmetric"),
        pytest.param(assemble_fv(general), id="complex-general"),
        pytest.param(assemble_fv(h, eta), id="explicit-eta"),
        pytest.param(assemble_fv(bands, band_eta), id="real-band-explicit-eta"),
    ]


_NORM_GRID, _NORM_SYSTEMS = _norm_cases()


@pytest.mark.parametrize("system", _NORM_SYSTEMS)
def test_modal_norms_match_the_ket_space_norms(system):
    # the quadratic forms in G = K^dagger K and K^dagger eta K against the formed states
    n = system.base_dimension
    state = gaussian_state(_NORM_GRID, center=0.3, width=1.1, momentum=1.2)
    state = FVState(t=state.t, phi1=state.phi1, phi2=(0.5 - 0.2j) * state.phi2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        trajectory = evolve(system, state, t_final=2.5, steps=20)
    states = _states(trajectory)
    phi1, phi2 = states.phi1, states.phi2
    eta = np.eye(n) if system.eta is None else system.eta
    euclidean = (np.abs(phi1) ** 2).sum(axis=1) + (np.abs(phi2) ** 2).sum(axis=1)
    swap = 2.0 * (phi1.conj() * (phi2 @ eta.T)).sum(axis=1).real
    scale = euclidean.max()
    for metric, expected in (("identity", euclidean), ("swap", swap)):
        report = conservation_report(trajectory, metric, system)
        assert np.abs(report.euclidean_norms - euclidean).max() <= 4 * n * EPS * scale
        assert np.abs(report.pseudo_norms - expected).max() <= 4 * n * EPS * scale


def test_report_refuses_another_systems_trajectory():
    grid, system = _hermitian_system(16)
    _, twin = _hermitian_system(16)
    trajectory = evolve(system, gaussian_state(grid, 0.0, 1.0, 0.0), t_final=1.0, steps=2)
    with pytest.raises(ValueError, match="modes"):
        conservation_report(trajectory, "swap", twin)
