import tracemalloc

import numpy as np
import pytest

import edspec.frozen_spectrum as fs
import edspec.tridiagonal as tri
from conftest import pseudo_hermitian_pair, shifted_random_matrix
from edspec.errors import ComplexSpectrum, DegenerateSpectrum, PairingFailure
from edspec.frozen_spectrum import (
    classify_spectrum,
    decompose,
    eta_from_decomposition,
)
from edspec.operators import ConstantMass, Grid, HOQuadratic, Tridiagonal, build_problem


def eta_inverse_from_decomposition(dec, signs=None):
    """Reference eta^-1 = sum_n s_n psi_n psi_n^dagger, the right-vector expansion."""
    s = np.ones(dec.size) if signs is None else np.asarray(signs, dtype=float)
    inv = (dec.right_kets * s) @ dec.right_kets.conj().T
    return 0.5 * (inv + inv.conj().T)


def test_hermitian_diagonal():
    dec = decompose(np.diag([1.0, 2.0]))
    np.testing.assert_allclose(dec.eigenvalues, [1.0, 2.0])
    np.testing.assert_allclose(dec.right_kets, np.eye(2), atol=1e-15)
    np.testing.assert_allclose(dec.left_bras, np.eye(2), atol=1e-15)
    assert dec.biorth_residual < 1e-14
    assert dec.completeness_residual < 1e-14
    assert dec.reality_flags.all()


def test_triangular_2x2_hand_values():
    # eigenvectors of [[1,1],[0,2]] and its adjoint, bi-orthonormalized by hand
    dec = decompose(np.array([[1.0, 1.0], [0.0, 2.0]]))
    np.testing.assert_allclose(dec.eigenvalues, [1.0, 2.0], atol=1e-14)
    np.testing.assert_allclose(dec.right_kets[:, 0], [1.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(dec.right_kets[:, 1],
                               [1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)], atol=1e-14)
    np.testing.assert_allclose(dec.left_bras[:, 0], [1.0, -1.0], atol=1e-13)
    np.testing.assert_allclose(dec.left_bras[:, 1], [0.0, np.sqrt(2.0)], atol=1e-13)
    assert dec.biorth_residual < 1e-13


def test_eta_2x2_hand_values():
    h = np.array([[1.0, 1.0], [0.0, 2.0]])
    dec = decompose(h)
    eta = eta_from_decomposition(dec)
    np.testing.assert_allclose(eta, [[1.0, -1.0], [-1.0, 3.0]], atol=1e-12)
    assert np.linalg.norm(h.conj().T @ eta - eta @ h) < 1e-12
    eta_inv = eta_inverse_from_decomposition(dec)
    np.testing.assert_allclose(eta_inv, [[1.5, 0.5], [0.5, 0.5]], atol=1e-12)
    np.testing.assert_allclose(eta @ eta_inv, np.eye(2), atol=1e-12)
    assert np.linalg.eigvalsh(eta).min() > 0


def test_hermitian_limit(rng):
    h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    h = h + h.conj().T
    dec = decompose(h)
    assert dec.right_kets.dtype == np.complex128
    np.testing.assert_allclose(dec.left_bras, dec.right_kets)
    np.testing.assert_allclose(eta_from_decomposition(dec), np.eye(8), atol=1e-10)
    np.testing.assert_allclose(eta_inverse_from_decomposition(dec), np.eye(8), atol=1e-10)


@pytest.mark.parametrize("seed,n", [(0, 4), (1, 8), (2, 16), (3, 32), (4, 64)])
def test_random_biorthogonal_identities(seed, n):
    rng = np.random.default_rng(seed)
    h = shifted_random_matrix(rng, n)
    dec = decompose(h)
    assert dec.biorth_residual <= 1e-8
    assert dec.completeness_residual <= 1e-8
    rebuilt = (dec.right_kets * dec.eigenvalues) @ dec.left_bras.conj().T
    assert np.linalg.norm(rebuilt - h) <= 1e-8 * np.linalg.norm(h)


@pytest.mark.parametrize("seed", range(4))
def test_intertwining_for_all_sign_choices(seed):
    rng = np.random.default_rng(seed)
    h, _ = pseudo_hermitian_pair(rng, 6)
    dec = decompose(h)
    assert dec.reality_flags.all()
    scale = np.linalg.norm(h)
    for _ in range(4):
        signs = rng.choice([-1.0, 1.0], size=6)
        eta = eta_from_decomposition(dec, signs)
        eta_inv = eta_inverse_from_decomposition(dec, signs)
        assert np.linalg.norm(h.conj().T @ eta - eta @ h) <= 1e-8 * scale * np.linalg.norm(eta)
        assert np.linalg.norm(h @ eta_inv - eta_inv @ h.conj().T) <= \
            1e-8 * scale * np.linalg.norm(eta_inv)
        np.testing.assert_allclose(eta @ eta_inv, np.eye(6), atol=1e-8)
    # the all-plus expansion is a Gram matrix of a basis, hence positive
    assert np.linalg.eigvalsh(eta_from_decomposition(dec)).min() > 0


def test_phase_convention_is_deterministic(rng):
    h = shifted_random_matrix(rng, 12)
    first = decompose(h)
    second = decompose(h)
    np.testing.assert_array_equal(first.right_kets, second.right_kets)
    np.testing.assert_array_equal(first.left_bras, second.left_bras)


def test_degenerate_spectrum_rejected():
    with pytest.raises(DegenerateSpectrum):
        decompose(np.array([[1.0, 5.0], [0.0, 1.0 + 1e-10]]))


@pytest.mark.parametrize("H", [
    np.array([[np.nan, 1.0], [1.0, 2.0]]),
    Tridiagonal(np.array([np.inf, 2.0]), np.array([1.0])),
], ids=["dense", "bands"])
def test_non_finite_input_rejected(H):
    with pytest.raises(ValueError, match="non-finite"):
        decompose(H)


def test_signs_validation():
    dec = decompose(np.diag([1.0, 2.0]))
    with pytest.raises(ValueError):
        eta_from_decomposition(dec, [1.0])
    with pytest.raises(ValueError):
        eta_from_decomposition(dec, [1.0, 0.5])


def test_complex_spectrum_blocks_eta():
    dec = decompose(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert not dec.reality_flags.any()
    with pytest.raises(ComplexSpectrum):
        eta_from_decomposition(dec)


def _bidiagonal(n, gap):
    """Upper bidiagonal with diagonal gap * k and a unit superdiagonal.

    It is non-normal, and its eigenvalue condition numbers blow up as gap
    shrinks or n grows.
    """
    return np.diag(gap * np.arange(n, dtype=float)) + np.diag(np.ones(n - 1), 1)


def test_non_normal_decomposition_is_complete():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    q, _ = np.linalg.qr(z)
    h = q @ _bidiagonal(6, 0.02) @ q.conj().T
    dec = decompose(h)
    assert dec.completeness_residual <= 1e-7
    rebuilt = (dec.right_kets * dec.eigenvalues) @ dec.left_bras.conj().T
    assert np.linalg.norm(rebuilt - h) <= 1e-7 * np.linalg.norm(h)


@pytest.mark.parametrize("n,gap", [(20, 1e-3), (40, 1e-6), (200, 1e-6)])
def test_ill_conditioned_eigenvalue_raises_pairing_failure(n, gap):
    # (40, 1e-6) overflows the left-vector norms and (200, 1e-6) makes the
    # ket matrix singular; pytest turns any RuntimeWarning into an error
    with pytest.raises(PairingFailure):
        decompose(_bidiagonal(n, gap))


def test_general_decompose_solves_one_eigenproblem(monkeypatch):
    calls = []
    eig = np.linalg.eig

    def counting_eig(a):
        calls.append(a.shape)
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counting_eig)
    decompose(shifted_random_matrix(np.random.default_rng(0), 16))
    assert calls == [(16, 16)]


def test_classify_real_spectrum():
    report = classify_spectrum(decompose(np.diag([1.0, 2.0, 3.0])))
    assert report.real_indices == (0, 1, 2)
    assert report.conjugate_pairs == ()
    assert report.conjugation_symmetric


def test_classify_conjugate_pair():
    report = classify_spectrum(decompose(np.array([[0.0, 1.0], [-1.0, 0.0]])))
    assert report.real_indices == ()
    assert report.conjugate_pairs == ((0, 1),)
    assert report.conjugation_symmetric


def test_classify_unpaired_warns():
    report = classify_spectrum(decompose(np.diag([1.0j, 2.0j])))
    assert len(report.unpaired_indices) == 2
    assert not report.conjugation_symmetric


def test_real_symmetric_path_stays_real(rng):
    h = rng.standard_normal((40, 40))
    h = h + h.T
    dec = decompose(h)
    kets = dec.right_kets
    assert kets.dtype == np.float64
    np.testing.assert_array_equal(dec.left_bras, kets)
    assert np.abs(kets.T @ kets - np.eye(40)).max() <= 1e-12
    assert dec.biorth_residual <= 1e-12
    assert dec.completeness_residual <= 1e-12
    np.testing.assert_array_equal(dec.eigenvalues, np.linalg.eigh(h)[0])
    lead = kets[np.argmax(np.abs(kets), axis=0), np.arange(40)]
    assert (lead > 0).all()
    eta = eta_from_decomposition(dec)
    eta_inv = eta_inverse_from_decomposition(dec)
    scale = np.linalg.norm(h)
    assert np.linalg.norm(h.T @ eta - eta @ h) <= 1e-12 * scale * np.linalg.norm(eta)
    assert np.linalg.norm(h @ eta_inv - eta_inv @ h.T) <= 1e-12 * scale * np.linalg.norm(eta_inv)


def _paths():
    rng = np.random.default_rng(5)
    real = rng.standard_normal((30, 30))
    complex_ = real + 1j * rng.standard_normal((30, 30))
    bands = build_problem("schrodinger", Grid(-6.0, 6.0, 30), HOQuadratic(1.5, 2.0), 0.7)
    return [
        pytest.param(bands, True, id="band"),
        pytest.param(real + real.T, True, id="real-symmetric"),
        pytest.param(complex_ + complex_.conj().T, True, id="hermitian"),
        pytest.param(shifted_random_matrix(rng, 30), False, id="general"),
    ]


@pytest.mark.parametrize("H, orthonormal", _paths())
def test_residuals_are_those_of_the_gram_products(H, orthonormal):
    dec = decompose(H)
    kets, lefts, eye = dec.right_kets, dec.left_bras, np.eye(dec.size)
    if isinstance(H, Tridiagonal):
        # a band value's residuals are those of the solver's own kets,
        # unphased and in dstevd's layout; at N = 30 every ket is sampled
        kets = lefts = np.asfortranarray(tri.eigh_bands(H.diagonal, H.off_diagonal)[1])
    gram = lefts.conj().T @ kets - eye
    assert dec.biorth_residual == float(np.abs(gram).max())
    # one Gram product serves both residuals on the orthonormal path;
    # K L^dagger - I and L^dagger K - I differ in norm on the general one
    outer = gram if orthonormal else kets @ lefts.conj().T - eye
    assert dec.completeness_residual == float(np.linalg.norm(outer))


def _bands(kind, n):
    if kind == "random":
        rng = np.random.default_rng(n)
        return Tridiagonal(rng.standard_normal(n), rng.standard_normal(n - 1))
    return build_problem(kind, Grid(-10.0, 10.0, n), HOQuadratic(1.5, 2.0), 0.7)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is float64 on this platform")
@pytest.mark.parametrize("kind", ["random", "schrodinger", "kleingordon"])
@pytest.mark.parametrize("n", [64, 200])
def test_orthonormal_completeness_matches_extended_precision(kind, n):
    # ||V V^T - I||_F = ||V^T V - I||_F for the square ket matrix V; the
    # float64 residual is rounding-sized, so its own rounding shows in percent.
    # Dense input forms the whole V^T V; a band value samples its columns.
    dec = decompose(np.asarray(_bands(kind, n)))
    kets = dec.right_kets.astype(np.longdouble)
    residual = kets.T @ kets - np.eye(n)
    exact = float(np.sqrt((residual * residual).sum()))
    assert abs(dec.completeness_residual - exact) <= 0.05 * exact


def _phased_out_of_place(vectors):
    """The phase convention as one out-of-place formula, the pivot from one N x N ``abs``."""
    out = vectors / np.linalg.norm(vectors, axis=0)
    lead = np.argmax(np.abs(out), axis=0)
    pivot = out[lead, np.arange(out.shape[1])]
    return out * (np.abs(pivot) / pivot)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_fix_phases_overwrites_its_argument_with_the_same_bits(dtype):
    rng = np.random.default_rng(3)
    cols = 2 * fs._PIVOT_BLOCK + 7
    vectors = rng.standard_normal((40, cols)).astype(dtype)
    if dtype == np.complex128:
        vectors += 1j * rng.standard_normal((40, cols))
    # magnitude ties in the last block, where the first component must win:
    # -a before a flips the column, a before -a (or i a before a) keeps it
    a = 3 * np.abs(vectors).max()
    tie = -a if dtype == np.float64 else 1j * a
    vectors[[5, 9], cols - 3] = -a, a
    vectors[[2, 30], cols - 2] = a, -a
    vectors[[0, 39], cols - 1] = tie, a
    expected = _phased_out_of_place(vectors)
    got = fs._fix_phases(vectors)
    assert got is vectors
    assert np.array_equal(got, expected)
    pivots = got[[5, 2, 0], [cols - 3, cols - 2, cols - 1]]
    assert (pivots.real > 0).all() and (pivots.imag == 0).all()


def test_band_decomposition_peaks_at_two_square_arrays():
    if tri._lapack() is None:
        pytest.skip("the dense fallback assembles the band value by design")
    n = 400
    T = build_problem("schrodinger", Grid(-10.0, 10.0, n), HOQuadratic(1.5, 2.0), 0.7)
    decompose(T)
    tracemalloc.start()
    try:
        decompose(T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # dstevd's Fortran-order output beside its C-order copy, which is phased
    # once the output is dropped; the out-of-place phasing peaked at 4.00
    assert peak < 2.25 * n * n * 8


def _sample(n):
    """The kets whose Gram columns give the residuals of a band value: the
    16 lowest and 16 highest, as README documents."""
    return np.arange(n) if n <= 32 else np.r_[:16, n - 16:n]


def _sampled_gram(T):
    """The Gram columns of the sampled kets, ``V^T V - I`` over the columns
    ``_sample(N)``, of the solver's own V: unphased, in dstevd's layout."""
    n = T.shape[0]
    kets = np.asfortranarray(tri.eigh_bands(T.diagonal, T.off_diagonal)[1])
    rows = _sample(n)
    columns = kets if rows.size == n else kets[:, rows]
    return kets, rows, kets.T @ columns - np.eye(n)[:, rows]


def _values_only_fields(dec):
    return (dec.eigenvalues, dec.reality_flags, dec.biorth_residual, dec.completeness_residual)


@pytest.mark.parametrize("kind", ["random", "schrodinger"])
@pytest.mark.parametrize("n", [20, 32, 33, 400])
def test_values_only_band_keeps_the_eigenvalues(kind, n, monkeypatch):
    T = _bands(kind, n)
    results = []
    for fallback in (False, True):
        if fallback:
            monkeypatch.setattr(tri, "_lapack", lambda: None)
        full, values = decompose(T), decompose(T, vectors=False)
        assert np.array_equal(values.eigenvalues, full.eigenvalues)
        assert np.array_equal(values.reality_flags, full.reality_flags)
        assert values.right_kets is None and values.left_bras is None
        assert values.biorth_residual <= 1e-12 and values.completeness_residual <= 1e-12
        results.append(_values_only_fields(values))
    # the dense fallback's kets have dstevd's bits and are read in its layout
    for got, expected in zip(*results):
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("fallback", [False, True], ids=["lapack", "dense-fallback"])
@pytest.mark.parametrize("kind", ["random", "schrodinger", "kleingordon"])
@pytest.mark.parametrize("n", [20, 33, 400])
def test_values_only_residuals_read_the_sampled_gram_columns(kind, n, fallback, monkeypatch):
    if fallback:
        monkeypatch.setattr(tri, "_lapack", lambda: None)
    T = _bands(kind, n)
    dec = decompose(T, vectors=False)
    kets, rows, gram = _sampled_gram(T)
    assert dec.biorth_residual == float(np.abs(gram).max())
    assert dec.completeness_residual == float(np.linalg.norm(gram))
    # BLAS rounds a product of |S| columns and the full V^T V alike only when
    # S is every ket; otherwise the full Gram's columns agree to rounding
    full = (kets.T @ kets - np.eye(n))[:, rows]
    if rows.size == n:
        assert np.array_equal(gram, full)
    eps = np.finfo(float).eps
    assert abs(dec.biorth_residual - float(np.abs(full).max())) <= eps
    assert dec.completeness_residual == pytest.approx(float(np.linalg.norm(full)), rel=0.05)


@pytest.mark.parametrize("fallback", [False, True], ids=["lapack", "dense-fallback"])
@pytest.mark.parametrize("kind", ["random", "schrodinger", "kleingordon"])
@pytest.mark.parametrize("n", [20, 32, 33, 400])
def test_band_residuals_do_not_depend_on_vectors(kind, n, fallback, monkeypatch):
    if fallback:
        monkeypatch.setattr(tri, "_lapack", lambda: None)
    T = _bands(kind, n)
    full, values = decompose(T), decompose(T, vectors=False)
    for got, expected in zip(_values_only_fields(full), _values_only_fields(values)):
        assert np.array_equal(got, expected)
    gram = _sampled_gram(T)[2]
    assert full.biorth_residual == float(np.abs(gram).max())
    assert full.completeness_residual == float(np.linalg.norm(gram))
    # vectors only add the kets: copied to C order and phased
    solved = tri.eigh_bands(T.diagonal, T.off_diagonal)[1]
    assert np.array_equal(full.right_kets, fs._fix_phases(np.ascontiguousarray(solved)))
    assert full.right_kets.flags.c_contiguous and full.left_bras is full.right_kets


def _dense_paths():
    rng = np.random.default_rng(6)
    real = rng.standard_normal((30, 30))
    complex_ = real + 1j * rng.standard_normal((30, 30))
    # the dense Klein-Gordon form of m^2 = 1 + 0.2i x, complex symmetric
    grid = Grid(-6.0, 6.0, 30)
    complex_band = (np.asarray(build_problem("kleingordon", grid, ConstantMass(1.0), 0.0))
                    + np.diag(0.2j * grid.points()))
    return [
        pytest.param(complex_band, id="complex-band"),
        pytest.param(real + real.T, id="real-symmetric"),
        pytest.param(complex_ + complex_.conj().T, id="hermitian"),
        pytest.param(shifted_random_matrix(rng, 30), id="general"),
    ]


@pytest.mark.parametrize("H", _dense_paths())
def test_values_only_dense_input_keeps_its_residuals(H):
    full, values = decompose(H), decompose(H, vectors=False)
    assert values.right_kets is None and values.left_bras is None
    for field in ("eigenvalues", "reality_flags", "biorth_residual", "completeness_residual"):
        assert np.array_equal(getattr(values, field), getattr(full, field))


def test_values_only_band_decomposition_peaks_at_one_square_array():
    if tri._lapack() is None:
        pytest.skip("the dense fallback assembles the band value by design")
    n = 400
    T = build_problem("schrodinger", Grid(-10.0, 10.0, n), HOQuadratic(1.5, 2.0), 0.7)
    decompose(T, vectors=False)
    tracemalloc.start()
    try:
        decompose(T, vectors=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # dstevd's Fortran-order output, the sampled columns and their Gram
    # columns (2 * 32 / N square arrays); no C-order copy or phasing
    assert peak < 1.25 * n * n * 8
