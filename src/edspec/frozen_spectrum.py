"""Bi-orthogonal spectral decomposition of a frozen-parameter operator.

The operator is a dense matrix or an ``operators.Tridiagonal`` band value;
a real band value is solved from its bands and never assembled.

A diagonalizable H = K diag(E) K^-1 is resolved into right kets |psi_n>
(the columns of K, eigenvectors of H) and left bras <l_n| (the rows of K^-1,
eigenvectors of H^dagger with conjugated eigenvalues), so <l_m|psi_n> =
delta_mn by construction.  Left vectors are stored as columns l_n whose
Hermitian conjugate is the bra, so the pairing is vdot(l_m, psi_n).

Normalization puts the full scale factor on the left vector: right kets are
unit norm with their largest-magnitude component made real and positive,
which keeps decompositions reproducible across runs.  ||l_n|| is then the
condition number of E_n; a decomposition with ||l_n|| > 1e12 is rejected.

From the decomposition, the intertwining metric and its inverse are the
sign-weighted expansions

    eta      = sum_n s_n l_n l_n^dagger        (H^dagger eta = eta H)
    eta^{-1} = sum_n s_n psi_n psi_n^dagger    (H eta^{-1} = eta^{-1} H^dagger)

with s_n = +-1; the all-plus choice is the positive candidate metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ComplexSpectrum, DegenerateSpectrum, PairingFailure
from .operators import OperatorMatrix, Tridiagonal
from .tridiagonal import eigh_bands

#: Relative eigenvalue-gap floor below which bi-orthonormalization is rejected.
DEGENERACY_FACTOR = 1e-8
#: Relative tolerance of the reality rule applied by ``reality_mask``.
REAL_TOLERANCE = 1e-8


@dataclass(frozen=True)
class FrozenDecomposition:
    """Eigen-data of H at one frozen parameter value.

    ``right_kets`` and ``left_bras`` hold one vector per column, ordered by
    (Re E, Im E); ``left_bras[:, n]`` is the vector whose conjugate transpose
    is the n-th bra.  For Hermitian H both are the same array, real
    (float64) when H is real symmetric.  Both are None when ``decompose``
    ran without vectors.  A real band value's residuals describe kets the
    result does not keep, with or without vectors (see ``decompose``).
    """

    eigenvalues: np.ndarray
    right_kets: np.ndarray | None
    left_bras: np.ndarray | None
    biorth_residual: float
    completeness_residual: float
    reality_flags: np.ndarray

    @property
    def size(self) -> int:
        return self.eigenvalues.shape[0]


#: Kets at each end of the spectrum whose Gram columns give a band value's residuals.
_SAMPLE_END = 16

#: Columns per block of the pivot search in ``_fix_phases``: the ``abs``
#: temporary is N x _PIVOT_BLOCK, not N x N.
_PIVOT_BLOCK = 32


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Unit-normalize columns and rotate the largest component real positive.

    Overwrites ``vectors`` and returns it.  Real columns stay real: the
    rotation is then a sign.  Where components tie in magnitude, the first
    one is the pivot.
    """
    vectors /= np.linalg.norm(vectors, axis=0)
    cols = vectors.shape[1]
    lead = np.empty(cols, dtype=np.intp)
    for start in range(0, cols, _PIVOT_BLOCK):
        block = slice(start, start + _PIVOT_BLOCK)
        lead[block] = np.argmax(np.abs(vectors[:, block]), axis=0)
    pivot = vectors[lead, np.arange(cols)]
    vectors *= np.abs(pivot) / pivot
    return vectors


def _minus_identity(gram: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``gram - I[:, rows]`` in place: the Gram columns of the kets ``rows``."""
    gram[rows, np.arange(rows.shape[0])] -= 1.0
    return gram


def _min_gap(w: np.ndarray) -> float:
    """The smallest distance between two of the eigenvalues ``w``."""
    gaps = np.abs(w[:, None] - w[None, :])
    np.fill_diagonal(gaps, np.inf)
    return gaps.min()


def reality_mask(w: np.ndarray) -> np.ndarray:
    """Elementwise reality rule |Im E| <= REAL_TOLERANCE * (1 + |E|)."""
    return np.abs(w.imag) <= REAL_TOLERANCE * (1.0 + np.abs(w))


def decompose(H: OperatorMatrix | Tridiagonal, vectors: bool = True) -> FrozenDecomposition:
    """Bi-orthonormalized eigen-decomposition of a diagonalizable matrix.

    A real ``Tridiagonal``, the band value of every stationary form
    ``operators.build_problem`` builds without a complex mass-squared, is
    solved from its bands by LAPACK's divide and conquer ``dstevd``
    (``tridiagonal.eigh_bands``) and never assembled.  Its residuals are
    read from the columns S of the ``_SAMPLE_END`` lowest and highest kets
    (all of them when N <= 2 * _SAMPLE_END) of the solver's own V, before
    any copy or phasing: max |(V^T V - I)[:, S]| and ||(V^T V - I)[:, S]||_F,
    an O(N^2 |S|) product, so ``dstevd`` is its only N^3 step.  Any other
    input is taken as the dense ``np.asarray(H)``: a Hermitian matrix takes
    an exact orthonormal path (``eigh``), in real arithmetic when it is real
    symmetric; a general matrix takes one ``eig`` and left vectors from the
    inverse of the ket matrix, L^dagger = K^-1.  On the general path
    DegenerateSpectrum is raised when two eigenvalues sit closer than
    1e-8 * ||H||_F, and PairingFailure when K is singular or some ||l_n||
    (the condition number of E_n) exceeds 1e12 or is not finite.  Dense
    residuals are those of the kept vectors, max |<l_m|psi_n> - delta_mn|
    and ||K L^dagger - I||_F.  The orthonormal path forms one N^3 product,
    the Gram matrix V^dagger V: for a square V, ||V V^dagger - I||_F =
    ||V^dagger V - I||_F in exact arithmetic.  The general path forms both.

    Without ``vectors`` the kets and bras are None and nothing else changes:
    a real band value skips the C-order copy and phasing of its kets.
    """
    banded = isinstance(H, Tridiagonal) and not np.iscomplexobj(H.diagonal)
    hermitian = banded
    if banded:
        if not (np.isfinite(H.diagonal).all() and np.isfinite(H.off_diagonal).all()):
            raise ValueError("H has non-finite entries")
        w, kets = eigh_bands(H.diagonal, H.off_diagonal)
        # in dstevd's layout on either path of ``eigh_bands``, which keeps
        # the residuals bit-identical across the two
        kets = np.asfortranarray(kets)
    else:
        H = np.asarray(H)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ValueError(f"H must be square, got shape {H.shape}")
        if not np.all(np.isfinite(H)):
            raise ValueError("H has non-finite entries")
        hermitian = np.array_equal(H, H.conj().T)
        if hermitian:
            w, kets = np.linalg.eigh(H)
    n = H.shape[0]
    rows = np.arange(n)
    if banded and n > 2 * _SAMPLE_END:
        rows = np.r_[rows[:_SAMPLE_END], rows[-_SAMPLE_END:]]
    if hermitian:
        # Orthonormalization stays well posed under degeneracy, so the gap
        # check below is skipped on this path.  Both solvers return the
        # eigenvalues in ascending order, and real vectors stay real:
        # bra = ket, and the Gram product below is real.  A band value's
        # kets are phased once its residuals are read (see above).
        w = w.astype(complex)
        kets = lefts = kets if banded else _fix_phases(kets)
    else:
        scale = max(np.linalg.norm(H), 1e-300)
        w, kets = np.linalg.eig(H)
        if n > 1:
            gap = _min_gap(w)
            if gap < DEGENERACY_FACTOR * scale:
                raise DegenerateSpectrum(
                    f"minimal eigenvalue gap {gap:.3e} below {DEGENERACY_FACTOR * scale:.3e}"
                )
        kets = _fix_phases(kets)
        # L^dagger = K^-1 pairs the bras with the kets by construction, and
        # ||l_k|| is the condition number of eigenvalue k (unit kets)
        try:
            lefts = np.linalg.inv(kets).conj().T
        except np.linalg.LinAlgError:
            raise PairingFailure("right eigenvectors are linearly dependent") from None
        with np.errstate(over="ignore", invalid="ignore"):
            norms = np.linalg.norm(lefts, axis=0)
        bad = np.flatnonzero(~(norms <= 1e12))
        if bad.size:
            raise PairingFailure(
                f"paired left/right eigenvectors nearly orthogonal at index {bad[0]}"
            )
        order = np.lexsort((w.imag, w.real))
        w, kets, lefts = w[order], kets[:, order], lefts[:, order]

    # <l_m|psi_n> - delta_mn for the kets ``rows`` (a real kets.T @ kets is one
    # syrk); on the orthonormal path also the completeness residual (see above)
    columns = kets if rows.size == n else kets[:, rows]
    residual = _minus_identity(lefts.conj().T @ columns, rows)
    completeness = float(np.linalg.norm(residual)) if hermitian else None
    # |residual| in place, as nothing reads the Gram columns again
    biorth = float(np.abs(residual, out=residual).real.max())
    if not hermitian:
        # K L^dagger - I, formed once the Gram matrix is dropped
        del residual
        completeness = float(np.linalg.norm(_minus_identity(kets @ lefts.conj().T, rows)))
    if banded and vectors:
        # C order, as numpy's eigh gives, keeps the kets' later products
        # bit-identical to dense input's; dstevd's array goes before phasing
        del lefts, columns, residual
        kets = np.ascontiguousarray(kets)
        kets = lefts = _fix_phases(kets)
    return FrozenDecomposition(
        eigenvalues=w,
        right_kets=kets if vectors else None,
        left_bras=lefts if vectors else None,
        biorth_residual=biorth,
        completeness_residual=completeness,
        reality_flags=reality_mask(w),
    )


def _checked_signs(dec: FrozenDecomposition, signs) -> np.ndarray:
    if not bool(np.all(dec.reality_flags)):
        raise ComplexSpectrum(
            "metric expansions need a real spectrum; some eigenvalues are complex"
        )
    if signs is None:
        return np.ones(dec.size)
    signs = np.asarray(signs, dtype=float)
    if signs.shape != (dec.size,):
        raise ValueError(f"need {dec.size} signs, got shape {signs.shape}")
    if not np.all(np.abs(signs) == 1.0):
        raise ValueError("signs must be +1 or -1")
    return signs


def eta_from_decomposition(dec: FrozenDecomposition, signs=None) -> OperatorMatrix:
    """Sign-weighted left-vector expansion sum_n s_n l_n l_n^dagger.

    All-plus signs give the positive candidate metric; every sign choice
    intertwines H with H^dagger.
    """
    s = _checked_signs(dec, signs)
    eta = (dec.left_bras * s) @ dec.left_bras.conj().T
    return 0.5 * (eta + eta.conj().T)


def eta_inverse_from_decomposition(dec: FrozenDecomposition, signs=None) -> OperatorMatrix:
    """Sign-weighted right-vector expansion sum_n s_n psi_n psi_n^dagger."""
    s = _checked_signs(dec, signs)
    inv = (dec.right_kets * s) @ dec.right_kets.conj().T
    return 0.5 * (inv + inv.conj().T)


@dataclass(frozen=True)
class SpectrumClassification:
    """Partition of the eigenvalues into real singlets and conjugate pairs."""

    real_indices: tuple
    conjugate_pairs: tuple       # pairs (i, j) with E_i ~ conj(E_j)
    unpaired_indices: tuple      # complex eigenvalues without a conjugate partner

    @property
    def conjugation_symmetric(self) -> bool:
        return len(self.unpaired_indices) == 0


def classify_spectrum(dec: FrozenDecomposition) -> SpectrumClassification:
    """Report-only classification into real singlets and conjugate pairs.

    Broken conjugation symmetry shows as ``unpaired_indices``, and
    ``conjugation_symmetric`` is then False.
    """
    w = dec.eigenvalues
    real = np.flatnonzero(dec.reality_flags).tolist()
    open_idx = np.flatnonzero(~dec.reality_flags).tolist()
    pairs = []
    unpaired = []
    while open_idx:
        i = open_idx.pop(0)
        best_j, best_d = None, np.inf
        for j in open_idx:
            d = abs(w[i] - np.conj(w[j]))
            if d < best_d:
                best_j, best_d = j, d
        if best_j is not None and best_d <= REAL_TOLERANCE * (1.0 + abs(w[i])):
            open_idx.remove(best_j)
            pairs.append((i, best_j))
        else:
            unpaired.append(i)
    return SpectrumClassification(
        real_indices=tuple(real),
        conjugate_pairs=tuple(pairs),
        unpaired_indices=tuple(unpaired),
    )
