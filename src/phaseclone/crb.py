"""Cramer-Rao machinery: attainability matrix, structured QFIM eigenvalues,
and total-variance lower bounds.

The simultaneous bound for all phases is attainable exactly when the
commutator-trace matrix

    A_mn = Im Tr(rho L_m L_n) = Im G_mn
         = sum_{i,j} (2 (lam_i - lam_j)^3/(lam_i + lam_j)^2) Im (P_m)_ij (P_n)_ji

vanishes, in the notation of qfim: only the antisymmetric part of G's weight
enters.  For the equatorial family it does vanish, entrywise: the output is
U(phi) applied to a real matrix, so in a real eigenbasis rotated by U(phi)
every (P_m)_ij is real.
"""

from __future__ import annotations

import numpy as np

from .qfim import SpectralDecomposition, _check_shrink_args, _gram
from .states import _check_dims


def attainability_closed(sd: SpectralDecomposition) -> np.ndarray:
    """Imaginary parts of the commutator traces, as a real antisymmetric matrix.

    The bound for simultaneous estimation is attainable iff every entry
    vanishes.  Taken as Im(G - G^T)/2, exactly antisymmetric with a zero
    diagonal; a stack of decompositions gives a stack of matrices.
    """
    g = _gram(sd)
    return (g - g.swapaxes(-1, -2)).imag / 2.0


def _attainability_raw_weight(sd: SpectralDecomposition) -> np.ndarray:
    # Im G from the antisymmetric weight 2(lam_i - lam_j)^3/(lam_i + lam_j)^2 alone;
    # equal to attainability_closed by the antisymmetric-sum identity
    return _gram(sd, lambda li, lj, r: 2.0 * (li - lj) * r * r).imag


def qfim_eigenvalues(d: int | np.ndarray, fdiag, foff) -> tuple:
    """Eigenvalues of the equatorial-structure QFIM with entries (fdiag, foff).

    lam1 = F_diag + (d-2) F_off, once (on the all-ones vector), and
    lam2 = F_diag - F_off, d-2 times.  Under the structure relation
    F_diag = -(d-1) F_off, lam1 is exactly -F_off, and that is what is
    returned: the sum cancels, losing up to 3e-10 relative at d ~ 10^6.  For
    d = 2 there is no second eigenvalue and lam2 is NaN.  d may be a 1-D
    integer array with entry columns to match, giving two columns.
    """
    return -foff, np.where(_check_dims(d) > 2, fdiag - foff, np.nan)[()]


def total_variance_bound(d: int | np.ndarray, eta: float | np.ndarray) -> float | np.ndarray:
    """Minimum total variance of all d-1 phases for the shrinking-channel output.

    Pure closed form (d-1)[2+(d-2)eta]/(2 eta^2), the trace of the inverse
    QFIM.  The QFIM is symmetric under permutations of the phases, so each
    per-parameter bound is this total over d-1.  The dense-inverse and
    -2(d-1)/(d F_off) cross-checks live in verify (variance_trace_inverse)
    and the tests, not here.  An eta whose QFIM entries underflow raises
    ValueError, as in qfim_shrink_entries.  d and eta may be columns, as
    there.
    """
    d, eta = _check_shrink_args(d, eta)
    return (d - 1) * (2.0 + (d - 2) * eta) / (2.0 * (eta * eta))
