"""Energy-dependent eigenvalue problems via frozen spectra and fixed points.

The pipeline: discretize the energy-dependent operator family H(z), label its
real eigenvalue branches E_n(z) by Sturm index (H(z) is real symmetric
tridiagonal for a real mass-squared), solve the fixed-point constraint
z = E_n(z) for the physical level set, and build the energy-independent
operators K and L together with the metrics that make them quasi-Hermitian.
A two-component rearrangement with pseudo-unitary evolution covers the
second-order-in-time case.
"""

__version__ = "0.1.0"

from .closed_form import NUMERIC_TO_CLOSED
from .errors import SolverError
from .evolution import (
    FVModes,
    FVState,
    FVSystem,
    Trajectory,
    assemble_fv,
    conservation_report,
    eigenstate,
    evolve,
)
from .fixedpoint import CollectResult, PhysicalLevel, WindowDiagnostics, collect_physical
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
    Tridiagonal,
    build_problem,
)
from .physical_basis import (
    MetricSuite,
    PhysicalBasis,
    build_basis,
    build_K,
    build_L,
    build_metrics,
    build_mu,
    build_nu,
    levels_from_matrix,
    projector_residual,
    unit_projector,
)

__all__ = [
    "__version__",
    "NUMERIC_TO_CLOSED",
    "SolverError",
    "FVModes", "FVState", "FVSystem", "Trajectory", "assemble_fv",
    "conservation_report", "eigenstate", "evolve",
    "CollectResult", "PhysicalLevel", "WindowDiagnostics", "collect_physical",
    "FrozenDecomposition", "classify_spectrum", "decompose",
    "eta_from_decomposition", "eta_inverse_from_decomposition",
    "ConstantMass", "GeneralMassSquared", "Grid", "HOQuadratic", "MassModel",
    "OperatorMatrix", "Tridiagonal", "build_problem",
    "MetricSuite", "PhysicalBasis", "build_basis",
    "build_K", "build_L", "build_metrics", "build_mu", "build_nu",
    "levels_from_matrix", "projector_residual", "unit_projector",
]
