"""quasifree: Gaussian-preserving Markovian dynamics of bosonic modes in a
common bath, with exact partial-transpose entanglement tests and an
independent truncated-Fock verifier.
"""

from . import errors, fock_oracle, matkit
from .dynamics import (
    BathSpec,
    DriftDiffusion,
    Trajectory,
    check_cp,
    collective_bath,
    collective_sector_bath,
    collective_steady_moments,
    drift_diffusion,
    kossakowski,
    propagate_exact,
    propagate_steps,
    steady_state,
)
from .entanglement import (
    WitnessReport,
    asymptotic_covariance,
    asymptotic_pt_eigenvalues,
    asymptotic_threshold,
    generation_witness,
    initial_null_basis,
    ppt_test,
    pt_min_eigenvalue,
    scan_generation_witness,
    symmetric_null_vector,
    vacuum_condition,
)
from .gaussian_state import (
    Covariance,
    CovarianceBlocks,
    collective_covariance,
    from_blocks,
    is_physical,
    pure_product,
    sigma_matrix,
    thermal,
    vacuum,
)

__version__ = "0.1.0"

__all__ = [
    "BathSpec",
    "Covariance",
    "CovarianceBlocks",
    "DriftDiffusion",
    "Trajectory",
    "WitnessReport",
    "asymptotic_covariance",
    "asymptotic_pt_eigenvalues",
    "asymptotic_threshold",
    "check_cp",
    "collective_bath",
    "collective_covariance",
    "collective_sector_bath",
    "collective_steady_moments",
    "drift_diffusion",
    "errors",
    "fock_oracle",
    "from_blocks",
    "generation_witness",
    "initial_null_basis",
    "is_physical",
    "kossakowski",
    "matkit",
    "ppt_test",
    "propagate_exact",
    "propagate_steps",
    "pt_min_eigenvalue",
    "pure_product",
    "scan_generation_witness",
    "sigma_matrix",
    "steady_state",
    "symmetric_null_vector",
    "thermal",
    "vacuum",
    "vacuum_condition",
]
