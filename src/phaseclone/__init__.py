"""Multi-phase quantum Fisher information for equatorial qudits sent
through cloning channels.

The library builds d-dimensional equatorial states, passes them through
universal or phase-covariant 1->2 cloning machines (or any channel with a
shrinking-form single-copy output), and computes the quantum Fisher
information matrix of the result in closed form, via a spectral
decomposition, and via a definition-level finite-difference oracle.  It also
evaluates Cramer-Rao total-variance bounds and the attainability matrix that
certifies simultaneous estimation of all phases.

The complement basis and its derivatives, the dense cloner outputs and
oracle.rho_derivative are check references that no program path calls, not API.
The verification suite and the finite-difference oracle load on first use of
one of their names, so the closed forms import without them.
"""

from .channels import (
    MACHINES,
    ParamChannel,
    eta_pqcm,
    eta_uqcm,
    shrink_output,
)
from .crb import (
    attainability_closed,
    qfim_eigenvalues,
    total_variance_bound,
)
from .qfim import (
    SpectralDecomposition,
    closed_entries,
    closed_qfim,
    qfim_from_spectral,
    qfim_pqcm_entries,
    qfim_pure_entries,
    qfim_shrink_entries,
    qfim_uqcm_entries,
    spectral_output,
)
from .states import (
    PhaseVector,
    equatorial_state,
    phase_shift_unitary,
)

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "DEFAULT_FD_STEP",
    "MACHINES",
    "ParamChannel",
    "PhaseVector",
    "SpectralDecomposition",
    "attainability_closed",
    "attainability_numeric",
    "closed_entries",
    "closed_qfim",
    "equatorial_state",
    "eta_pqcm",
    "eta_uqcm",
    "phase_shift_unitary",
    "qfim_eigenvalues",
    "qfim_from_spectral",
    "qfim_numeric",
    "qfim_pqcm_entries",
    "qfim_pure_entries",
    "qfim_shrink_entries",
    "qfim_uqcm_entries",
    "run_verification",
    "shrink_output",
    "sld_solve",
    "spectral_output",
    "total_variance_bound",
]

# names whose submodule is imported on their first use (PEP 562)
_LAZY = {"CheckResult": "verify", "run_verification": "verify", "DEFAULT_FD_STEP": "oracle",
         "attainability_numeric": "oracle", "qfim_numeric": "oracle", "sld_solve": "oracle"}


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
