"""Cramer-Rao machinery: attainability matrix, structured QFIM eigenvalues,
and total-variance lower bounds.

The simultaneous bound for all phases is attainable exactly when the
commutator-trace matrix

    L_mn = Im Tr(rho L_m L_n)
         = sum_k 4 lam_k Im<d_m psi_k|d_n psi_k>
         - sum_{k,l} (8 lam_k lam_l (lam_k-lam_l)/(lam_k+lam_l)^2)
                     Im <d_m psi_k|psi_l><psi_l|d_n psi_k>

vanishes; for the equatorial family it does, entrywise, because every inner
product entering it is real.  As in qfim, the sums run over the support
lam_k > 0.  The classical (eigenvalue-derivative) term of the QFIM is zero
for this family, and being real it never enters this matrix anyway.
"""

from __future__ import annotations

import numpy as np

from .qfim import SpectralDecomposition, _check_shrink_args, _merge_last_two, _spectral_terms
from .states import _check_dims


def _imag_form(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Im sum_j conj(x[..., m, j]) w[j] x[..., n, j] over the two trailing axes of x, as
    M - M^T with M = (Re x * w) @ (Im x)^T: exactly antisymmetric, zero diagonal."""
    m = _merge_last_two(x.real * w) @ _merge_last_two(x.imag).swapaxes(-1, -2)
    return m - m.swapaxes(-1, -2)


def attainability_closed(sd: SpectralDecomposition) -> np.ndarray:
    """Imaginary parts of the commutator traces, as a real antisymmetric matrix.

    The bound for simultaneous estimation is attainable iff every entry
    vanishes.  The sums use the eigenvector derivatives sd carries, and a
    stack of decompositions gives a stack of matrices.
    """
    ls, dsup, g = sd._blocks
    out = 4.0 * _imag_form(dsup, ls[:, None])
    w = 8.0 * np.outer(ls, ls) * (ls[:, None] - ls[None, :]) / (ls[:, None] + ls[None, :]) ** 2
    out -= _imag_form(g.conj(), w)
    return out


def _attainability_raw_weight(sd: SpectralDecomposition) -> np.ndarray:
    # Im G with the unsymmetrized weight 16 lam_k^2 lam_l/(lam_k+lam_l)^2; equal to
    # attainability_closed after the antisymmetric-sum identity
    first, second = _spectral_terms(sd)
    return (first - second).imag


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
