"""Definition-level numeric cross-check path.

The channels are channels.ParamChannel instances, and the oracle calls
nothing on them but .density; for the two cloners that is the partial
trace of the cloner isometry, never the scaling form.  Everything here is
computed from central finite differences of the density matrix, one per
phase, with every shifted point built by one density call on a stack, and
the symmetric-logarithmic-derivative equation

    d_rho_m = (rho L_m + L_m rho) / 2,

solved for the whole (d-1, d, d) stack of derivatives in one eigenbasis of
rho.  The defining traces G_mn = Tr(rho L_m L_n) for every pair (m, n) are
one Gram product of the flattened rho L_m with the flattened transposes
L_n^T; then F = Re(G + G^T)/2 and A = Im G.  Every function takes one
phase point or a (k, d-1) stack of them and returns one result or a
(k, ...) stack; each point of a stack gets the arithmetic of a single
point, so the results agree bit for bit.  This module imports only
ParamChannel and PhaseVector, none of the closed forms or generator
helpers, so agreement between the two paths is a genuine check.
"""

from __future__ import annotations

import numpy as np

from .channels import ParamChannel
from .states import PhaseVector

DEFAULT_FD_STEP = 1e-5
SLD_SUPPORT_TOL = 1e-12


def _check_step(h: float) -> None:
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"step must be finite and positive, got {h}")
    if 1.0 / (2.0 * float(h)) == np.inf:  # Python floats overflow to inf without a warning
        raise ValueError(f"step {h} is too small: 1/(2h) overflows")


def _central_differences(fn, p: PhaseVector, h: float, rows=slice(None)) -> np.ndarray:
    """(fn(phi + h e_mu) - fn(phi - h e_mu)) / 2h for every mu (or the mu - 1
    picked by rows), stacked as [..., mu-1] after the stack axes of p.

    fn is any function of the phases that maps a stack of points to a stack
    of results; it is called once, on every shifted point of every point of p.
    """
    _check_step(h)
    shifts = h * np.eye(p.dim - 1)[rows]
    x = p.phases[..., None, :]
    pts = np.stack((x + shifts, x - shifts))
    out = fn(PhaseVector(p.dim, pts.reshape(-1, p.dim - 1)))
    out = out.reshape(pts.shape[:-1] + out.shape[1:])
    return (out[0] - out[1]) / (2.0 * h)


def rho_derivative(
    channel: ParamChannel, p: PhaseVector, mu: int, h: float = DEFAULT_FD_STEP
) -> np.ndarray:
    """Central-difference derivative of channel.density with respect to phi_mu, 1 <= mu <= d-1.

    Builds only the two points phi +- h e_mu, as one stack.  A test reference,
    kept for the benchmark tracer: the program calls _central_differences.
    """
    if not isinstance(mu, (int, np.integer)) or not 1 <= mu <= p.dim - 1:
        raise IndexError(f"parameter index must be in 1..d-1, got {mu} for d={p.dim}")
    return _central_differences(channel.density, p, h, [mu - 1])[..., 0, :, :]


def sld_solve(rho: np.ndarray, drho: np.ndarray) -> np.ndarray:
    """Symmetric logarithmic derivative solved in the eigenbasis of rho.

    In the eigenbasis L_ij = 2 drho_ij / (lam_i + lam_j) wherever the
    denominator exceeds SLD_SUPPORT_TOL; kernel-kernel entries are set to zero
    (any completion solves the defining equation there, and the information
    traces are insensitive to that block).  rho has shape (..., d, d) and
    drho is any stack that broadcasts against it, e.g. (k, 1, d, d) against
    (k, d-1, d, d); one eigendecomposition per rho serves every slice, and
    a slice with no weight on the support raises ValueError.
    """
    lam, v = np.linalg.eigh(rho)
    vh = v.conj().swapaxes(-1, -2)
    dtil = vh @ drho @ v
    denom = lam[..., :, None] + lam[..., None, :]
    solvable = denom > SLD_SUPPORT_TOL
    total = np.linalg.norm(dtil, axis=(-2, -1))
    on_support = np.linalg.norm(np.where(solvable, dtil, 0.0), axis=(-2, -1))
    if np.any((total > 1e-10) & (on_support < 1e-14 * total)):
        raise ValueError("derivative has no weight on the support of rho")
    ltil = np.divide(2.0 * dtil, denom, out=np.zeros_like(dtil), where=solvable)
    return v @ ltil @ vh


def _sld_gram(channel: ParamChannel, p: PhaseVector, h: float) -> np.ndarray:
    """G_mn = Tr(rho L_m L_n) = sum_ab (rho L_m)_ab (L_n)_ba, as one matrix product per point."""
    rho = channel.density(p)[..., None, :, :]
    slds = sld_solve(rho, _central_differences(channel.density, p, h))
    flat = slds.shape[:-2] + (slds.shape[-2] * slds.shape[-1],)  # explicit: a k = 0 stack reshapes too
    return (rho @ slds).reshape(flat) @ slds.swapaxes(-1, -2).reshape(flat).swapaxes(-1, -2)


def qfim_numeric(channel: ParamChannel, p: PhaseVector, h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """QFIM from the defining symmetrized trace, Tr[rho (L_m L_n + L_n L_m)]/2."""
    g = _sld_gram(channel, p, h)
    return 0.5 * (g + g.swapaxes(-1, -2)).real


def attainability_numeric(
    channel: ParamChannel, p: PhaseVector, h: float = DEFAULT_FD_STEP
) -> np.ndarray:
    """Commutator-trace imaginary parts Im Tr(rho L_m L_n), as a real matrix."""
    return _sld_gram(channel, p, h).imag
