"""Exception types shared across the solver pipeline."""


class SolverError(Exception):
    """Base class for numerical-contract violations raised by the pipeline."""


class DegenerateMass(SolverError):
    """The effective mass 2 m(z) fell below the singularity threshold."""


class EvaluationFailure(SolverError):
    """A mass-squared evaluator was undefined or non-finite at some (z, x)."""


class NonHermitianMetric(SolverError):
    """A metric operator failed its Hermiticity tolerance."""


class SingularMetric(SolverError):
    """A metric operator is numerically non-invertible."""


class DegenerateSpectrum(SolverError):
    """Two eigenvalues are too close for bi-orthonormalization to be well posed."""


class PairingFailure(SolverError):
    """An eigenvalue is too ill-conditioned for bi-orthonormalization.

    Raised when the ket matrix is singular or a left vector of the unit kets
    has norm (the eigenvalue's condition number) above 1e12 or not finite.
    """


class ComplexSpectrum(SolverError):
    """An operation requiring a real spectrum met complex eigenvalues."""


class RefinementStall(SolverError):
    """Bisection could not reach the requested tolerance."""


class IllConditionedOverlap(SolverError):
    """The overlap matrix of the physical level set is nearly singular."""


class DimensionMismatch(SolverError):
    """Operands have incompatible dimensions."""
