"""Overlap structure, energy-independent operators, and metrics of a level set.

With right vectors |phi^a> and left vectors |phi_a> drawn from different
fixed-point energies, the Gram-type overlap matrix R_ab = <phi_a|phi^b> is
generally non-Hermitian.  Its inverse dresses the dual ("double-bracket")
vectors

    |phi^b>>  = sum_a |phi^a> (R^-1)_ab          <<phi_a| . |phi^b> = delta
    <<phi_a|  = sum_b (R^-1)_ab <phi_b|          <phi_a| . |phi^b>> = delta

and, mirroring the ket dressing on the left family, |phi_b>> has coefficient
matrix (R^dagger)^-1, the unique choice closing the duality relations.

Two energy-independent operators share the one-sided action of the
energy-dependent problem on the level set,

    K = sum_a |phi^a> E_a <<phi_a|     K |phi^b>  = E_b |phi^b>
    L = sum_b |phi^b>> E_b <phi_b|     <phi_a| L  = E_a <phi_a|

and become Hermitian under the positive expansions

    mu = sum_a |phi_a>> <<phi_a|       K^dagger mu = mu K
    nu = sum_a |phi_a>  <phi_a|        nu L = L^dagger nu

All four have rank m, the number of levels: the metric suite and the
projector residual cost O(N m^2), and the dense N x N matrices are built
only on request (build_K, build_L, build_mu, build_nu).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ComplexSpectrum, IllConditionedOverlap
from .fixedpoint import PhysicalLevel
from .frozen_spectrum import decompose
from .operators import OperatorMatrix, Tridiagonal

#: Overlap-matrix condition number above which the basis is rejected.
CONDITION_LIMIT = 1e10


@dataclass(frozen=True)
class PhysicalBasis:
    """Level set with overlap matrix R, its inverse, and the dressed duals.

    ``double_kets[:, b]`` is |phi^b>>; ``double_bras[:, a]`` is the vector
    whose conjugate transpose is <<phi_a|.
    """

    levels: tuple
    R: np.ndarray
    R_inv: np.ndarray
    condition_R: float
    double_kets: np.ndarray
    double_bras: np.ndarray

    @property
    def size(self) -> int:
        return len(self.levels)

    @property
    def energies(self) -> np.ndarray:
        return np.array([lv.energy for lv in self.levels])

    @property
    def right_vectors(self) -> np.ndarray:
        return np.column_stack([lv.right_ket for lv in self.levels])

    @property
    def left_vectors(self) -> np.ndarray:
        return np.column_stack([lv.left_bra for lv in self.levels])


@dataclass(frozen=True)
class MetricSuite:
    """Intertwining residuals and minimal eigenvalues of the metrics mu, nu."""

    residual_K: float            # ||K^dagger mu - mu K||
    residual_L: float            # ||nu L - L^dagger nu||
    min_eig_mu: float            # on the spanned subspace
    min_eig_nu: float


def build_basis(levels: Sequence[PhysicalLevel]) -> PhysicalBasis:
    """Overlaps, rank-revealing inverse, and dual vectors of a level set."""
    if len(levels) < 1:
        raise ValueError("need at least one physical level")
    phi_r = np.column_stack([lv.right_ket for lv in levels])
    phi_l = np.column_stack([lv.left_bra for lv in levels])
    n, m = phi_r.shape
    if m > n:
        raise ValueError(f"{m} levels exceed the ambient dimension {n}")
    R = phi_l.conj().T @ phi_r
    diag_defect = float(np.abs(np.diag(R) - 1.0).max())
    if diag_defect > 1e-8:
        raise ValueError(
            f"levels are not self-biorthonormalized: max |R_aa - 1| = {diag_defect:.3e}"
        )
    u, s, vh = np.linalg.svd(R)
    condition = float(s[0] / s[-1]) if s[-1] > 0.0 else np.inf
    if condition > CONDITION_LIMIT:
        raise IllConditionedOverlap(
            f"overlap matrix condition number {condition:.3e} exceeds {CONDITION_LIMIT:.0e}; "
            "the physical vectors are nearly dependent"
        )
    R_inv = (vh.conj().T / s) @ u.conj().T
    return PhysicalBasis(
        levels=tuple(levels),
        R=R,
        R_inv=R_inv,
        condition_R=condition,
        double_kets=phi_r @ R_inv,
        double_bras=phi_l @ R_inv.conj().T,
    )


def levels_from_matrix(H: OperatorMatrix | Tridiagonal) -> list[PhysicalLevel]:
    """Treat a fixed operator's whole spectrum as the physical level set.

    This is the energy-independent limit: every eigenpair is its own fixed
    point, indexed (n, 0).  Requires a real spectrum.
    """
    dec = decompose(H)
    if not bool(np.all(dec.reality_flags)):
        raise ComplexSpectrum("physical levels require real energies")
    H = np.asarray(H)
    levels = []
    for k in range(dec.size):
        energy = float(dec.eigenvalues[k].real)
        ket = dec.right_kets[:, k]
        levels.append(PhysicalLevel(
            multi_index=(k, 0),
            energy=energy,
            right_ket=ket,
            left_bra=dec.left_bras[:, k],
            residual=float(np.linalg.norm(H @ ket - energy * ket)),
        ))
    return levels


def projector_residual(basis: PhysicalBasis) -> float:
    """Distance of sum_b |phi^b>> <phi_b| from the projector onto the span.

    The reference is the orthogonal projector Q_r Q_r^dagger onto the right
    vectors' span (the identity for a complete set); for a partial set the
    sum is oblique, and the residual reports its non-orthogonality.  The sum
    maps into the span, so this is ||Q_r^dagger D Phi_l^dagger - Q_r^dagger||.
    """
    q, _ = np.linalg.qr(basis.right_vectors)
    w = q.conj().T @ basis.double_kets
    return float(np.linalg.norm(w @ basis.left_vectors.conj().T - q.conj().T))


def build_K(basis: PhysicalBasis) -> OperatorMatrix:
    """Energy-independent operator reproducing the right action on the levels."""
    return (basis.right_vectors * basis.energies) @ basis.double_bras.conj().T


def build_L(basis: PhysicalBasis) -> OperatorMatrix:
    """Energy-independent operator reproducing the left action on the levels."""
    return (basis.double_kets * basis.energies) @ basis.left_vectors.conj().T


def build_mu(basis: PhysicalBasis) -> OperatorMatrix:
    """Dense metric mu = sum_a |phi_a>> <<phi_a| of K."""
    return _hermitize(basis.double_bras @ basis.double_bras.conj().T)


def build_nu(basis: PhysicalBasis) -> OperatorMatrix:
    """Dense metric nu = sum_a |phi_a> <phi_a| of L."""
    return _hermitize(basis.left_vectors @ basis.left_vectors.conj().T)


def _hermitize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().T)


def _min_gram_eig(a: np.ndarray) -> float:
    """Smallest eigenvalue of a a^dagger, the squared least singular value of a."""
    return float(np.linalg.svd(a, compute_uv=False)[-1] ** 2)


def build_metrics(basis: PhysicalBasis) -> MetricSuite:
    """Intertwining residuals of K, L and the minimal eigenvalues of mu, nu.

    With the thin QR factorization Phi_l = Q r, the double bras are B = Q M,
    M = Q^dagger B = r R^-dagger, and with E = diag(energies)

        K^dagger mu - mu K = B (E G - G^dagger E) B^dagger,   G = Phi_r^dagger B
        nu L - L^dagger nu = Phi_l (J E - E J^dagger) Phi_l^dagger,   J = Phi_l^dagger D

    while mu = Q M M^dagger Q^dagger and nu = Q r r^dagger Q^dagger.  Q drops
    out of the norms and of the eigenvalues on the span (both metrics vanish
    on its orthogonal complement), leaving m x m algebra.
    """
    E = np.diag(basis.energies)
    phi_l = basis.left_vectors
    q, r = np.linalg.qr(phi_l)
    # not r R^-dagger: both factors grow with cond(R) and their product cancels
    M = q.conj().T @ basis.double_bras
    G = basis.right_vectors.conj().T @ basis.double_bras
    J = phi_l.conj().T @ basis.double_kets
    return MetricSuite(
        residual_K=float(np.linalg.norm(M @ (E @ G - G.conj().T @ E) @ M.conj().T)),
        residual_L=float(np.linalg.norm(r @ (J @ E - E @ J.conj().T) @ r.conj().T)),
        min_eig_mu=_min_gram_eig(M),
        min_eig_nu=_min_gram_eig(r),
    )
