"""Definition-level numeric cross-check path.

The channels are channels.ParamChannel instances, and the oracle calls
nothing on them but .density; for the two cloners that builds the full
tripartite state and traces, never the scaling form.  Everything here is
computed from finite differences of the density matrix and an eigenbasis
solve of the symmetric-logarithmic-derivative equation

    d_rho = (rho L + L rho) / 2,

followed by the defining traces F_mn = Re Tr(rho L_m L_n) and
A_mn = Im Tr(rho L_m L_n).  None of the closed forms from the analytic
module are used, so agreement between the two paths is a genuine check.
"""

from __future__ import annotations

import numpy as np

from .channels import ParamChannel
from .states import PhaseVector

DEFAULT_FD_STEP = 1e-5
SLD_SUPPORT_TOL = 1e-12


def rho_derivative(
    channel: ParamChannel, p: PhaseVector, mu: int, h: float = DEFAULT_FD_STEP
) -> np.ndarray:
    """Central-difference derivative of channel.density with respect to phi_mu."""
    if h <= 0:
        raise ValueError(f"step must be positive, got {h}")
    shift = np.zeros(p.dim - 1)
    shift[mu - 1] = h
    plus = channel.density(PhaseVector(p.dim, p.phases + shift))
    minus = channel.density(PhaseVector(p.dim, p.phases - shift))
    return (plus - minus) / (2.0 * h)


def sld_solve(rho: np.ndarray, drho: np.ndarray, support_tol: float = SLD_SUPPORT_TOL) -> np.ndarray:
    """Symmetric logarithmic derivative solved in the eigenbasis of rho.

    In the eigenbasis L_ij = 2 drho_ij / (lam_i + lam_j) wherever the
    denominator exceeds support_tol; kernel-kernel entries are set to zero
    (any completion solves the defining equation there, and the information
    traces are insensitive to that block).
    """
    lam, v = np.linalg.eigh(rho)
    dtil = v.conj().T @ drho @ v
    denom = lam[:, None] + lam[None, :]
    solvable = denom > support_tol
    total = np.linalg.norm(dtil)
    if total > 1e-10 and np.linalg.norm(dtil[solvable]) < 1e-14 * total:
        raise ValueError("derivative has no weight on the support of rho")
    ltil = np.zeros_like(dtil)
    ltil[solvable] = 2.0 * dtil[solvable] / denom[solvable]
    return v @ ltil @ v.conj().T


def _slds(channel: ParamChannel, p: PhaseVector, h: float) -> tuple[np.ndarray, list[np.ndarray]]:
    rho = channel.density(p)
    slds = [sld_solve(rho, rho_derivative(channel, p, mu, h)) for mu in range(1, p.dim)]
    return rho, slds


def qfim_numeric(channel: ParamChannel, p: PhaseVector, h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """QFIM from the defining symmetrized trace, Tr[rho (L_m L_n + L_n L_m)]/2."""
    rho, slds = _slds(channel, p, h)
    n = len(slds)
    f = np.zeros((n, n))
    for m in range(n):
        for k in range(m, n):
            val = 0.5 * np.trace(rho @ (slds[m] @ slds[k] + slds[k] @ slds[m])).real
            f[m, k] = val
            f[k, m] = val
    return f


def attainability_numeric(
    channel: ParamChannel, p: PhaseVector, h: float = DEFAULT_FD_STEP
) -> np.ndarray:
    """Commutator-trace imaginary parts Im Tr(rho L_m L_n), as a real matrix."""
    rho, slds = _slds(channel, p, h)
    n = len(slds)
    out = np.zeros((n, n))
    for m in range(n):
        for k in range(n):
            out[m, k] = np.trace(rho @ slds[m] @ slds[k]).imag
    return out
