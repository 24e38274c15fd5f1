"""Energy-dependent eigenvalue problems via frozen spectra and fixed points.

The pipeline: discretize the energy-dependent operator family H(z), trace its
real eigenvalue branches E_n(z) (by Sturm index for the real symmetric
tridiagonal model families, by bi-orthogonal eigenvector overlap for a general
matrix family), solve the fixed-point constraint z = E_n(z) for the physical
level set, and build the energy-independent operators K and L together with
the metrics that make them quasi-Hermitian.  A two-component rearrangement
with pseudo-unitary evolution covers the second-order-in-time case.
"""

__version__ = "0.1.0"

from .closed_form import NUMERIC_TO_CLOSED, ClosedSpectrum, HOParams
from .errors import SolverError
from .evolution import (
    FVModes,
    FVState,
    FVSystem,
    assemble_fv,
    conservation_report,
    eigenstate,
    evolve,
)
from .fixedpoint import (
    CollectResult,
    EnergyBranch,
    FixedPointRoot,
    IndexedBranch,
    PhysicalLevel,
    WindowDiagnostics,
    collect_physical,
    solve_fixed_points,
    trace_branch,
    trace_branch_family,
)
from .frozen_spectrum import (
    FrozenDecomposition,
    classify_spectrum,
    decompose,
    eta_from_decomposition,
    eta_inverse_from_decomposition,
)
from .operators import (
    ConstantMass,
    GeneralMassSquared,
    Grid,
    HOQuadratic,
    MassModel,
    OperatorMatrix,
    build_bands,
    build_kleingordon,
    build_laplacian,
    build_parity,
    build_problem,
    build_schrodinger,
)
from .physical_basis import (
    ChargeOperator,
    MetricSuite,
    PhysicalBasis,
    build_basis,
    build_charge,
    build_K,
    build_L,
    build_metrics,
    levels_from_decomposition,
    levels_from_matrix,
    projector_residual,
    unit_projector,
)

__all__ = [
    "__version__",
    "NUMERIC_TO_CLOSED", "ClosedSpectrum", "HOParams",
    "SolverError",
    "FVModes", "FVState", "FVSystem", "assemble_fv", "conservation_report",
    "eigenstate", "evolve",
    "CollectResult", "EnergyBranch", "FixedPointRoot", "IndexedBranch",
    "PhysicalLevel", "WindowDiagnostics", "collect_physical", "solve_fixed_points",
    "trace_branch", "trace_branch_family",
    "FrozenDecomposition", "classify_spectrum", "decompose",
    "eta_from_decomposition", "eta_inverse_from_decomposition",
    "ConstantMass", "GeneralMassSquared", "Grid", "HOQuadratic", "MassModel",
    "OperatorMatrix", "build_bands", "build_kleingordon", "build_laplacian",
    "build_parity", "build_problem", "build_schrodinger",
    "ChargeOperator", "MetricSuite", "PhysicalBasis", "build_basis",
    "build_charge", "build_K", "build_L", "build_metrics",
    "levels_from_decomposition", "levels_from_matrix", "projector_residual",
    "unit_projector",
]
