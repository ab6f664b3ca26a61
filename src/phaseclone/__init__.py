"""Multi-phase quantum Fisher information for equatorial qudits sent
through cloning channels.

The library builds d-dimensional equatorial states, passes them through
universal or phase-covariant 1->2 cloning machines (or any channel with a
shrinking-form single-copy output), and computes the quantum Fisher
information matrix of the result in closed form, via a spectral
decomposition, and via a definition-level finite-difference oracle.  It also
evaluates Cramer-Rao total-variance bounds and the attainability matrix that
certifies simultaneous estimation of all phases.
"""

from .channels import (
    FULL_UNITARY_DMAX,
    MACHINES,
    ParamChannel,
    eta_pqcm,
    eta_uqcm,
    pqcm_coefficients,
    pqcm_full_output,
    reduce_first_qudit,
    shrink_output,
    uqcm_full_output,
)
from .crb import (
    attainability_closed,
    qfim_eigenvalues,
    total_variance_bound,
)
from .oracle import (
    DEFAULT_FD_STEP,
    attainability_numeric,
    qfim_numeric,
    rho_derivative,
    sld_solve,
)
from .qfim import (
    SpectralDecomposition,
    closed_entries,
    closed_qfim,
    equatorial_structure_residuals,
    qfim_from_spectral,
    qfim_pqcm_entries,
    qfim_pure_entries,
    qfim_shrink_entries,
    qfim_uqcm_entries,
    reconstruct_density,
    spectral_output,
    uqcm_diagonal_terms,
)
from .states import (
    PhaseVector,
    basis_derivatives,
    complement_basis,
    equatorial_state,
    phase_shift_unitary,
)
from .verify import CheckResult, run_verification

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "DEFAULT_FD_STEP",
    "FULL_UNITARY_DMAX",
    "MACHINES",
    "ParamChannel",
    "PhaseVector",
    "SpectralDecomposition",
    "attainability_closed",
    "attainability_numeric",
    "basis_derivatives",
    "closed_entries",
    "closed_qfim",
    "complement_basis",
    "equatorial_state",
    "equatorial_structure_residuals",
    "eta_pqcm",
    "eta_uqcm",
    "phase_shift_unitary",
    "pqcm_coefficients",
    "pqcm_full_output",
    "qfim_eigenvalues",
    "qfim_from_spectral",
    "qfim_numeric",
    "qfim_pqcm_entries",
    "qfim_pure_entries",
    "qfim_shrink_entries",
    "qfim_uqcm_entries",
    "reconstruct_density",
    "reduce_first_qudit",
    "rho_derivative",
    "run_verification",
    "shrink_output",
    "sld_solve",
    "spectral_output",
    "total_variance_bound",
    "uqcm_diagonal_terms",
    "uqcm_full_output",
]
