"""Cramer-Rao machinery: attainability matrix, structured QFIM eigenvalues,
and total-variance lower bounds.

The simultaneous bound for all phases is attainable exactly when the
commutator-trace matrix

    L_mn = Im Tr(rho L_m L_n)
         = sum_k 4 lam_k Im<d_m psi_k|d_n psi_k>
         - sum_{k,l} (8 lam_k lam_l (lam_k-lam_l)/(lam_k+lam_l)^2)
                     Im <d_m psi_k|psi_l><psi_l|d_n psi_k>

vanishes; for the equatorial family it does, entrywise, because every inner
product entering it is real.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import _check_eta
from .qfim import SUPPORT_TOL, SpectralDecomposition, _check_closed_form_dim


def _support_blocks(sd: SpectralDecomposition, dvecs: np.ndarray):
    lam = sd.eigenvalues
    dvecs = np.asarray(dvecs)
    sup = np.flatnonzero(lam > SUPPORT_TOL)
    if sup.size == 0:
        raise ValueError("density matrix has empty support")
    ls = lam[sup]
    dsup = dvecs[:, sup, :]
    g = np.einsum("mkc,lc->mkl", dsup.conj(), sd.eigenvectors[sup])
    return ls, dsup, g


def _imag_form(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Im sum_j conj(x[m, j]) w[j] x[n, j] over the trailing axes of x, as
    M - M.T with M = (Re x * w) @ (Im x).T: exactly antisymmetric, zero diagonal."""
    m = (x.real * w).reshape(x.shape[0], -1) @ x.imag.reshape(x.shape[0], -1).T
    return m - m.T


def attainability_closed(sd: SpectralDecomposition, dvecs: np.ndarray) -> np.ndarray:
    """Imaginary parts of the commutator traces, as a real antisymmetric matrix.

    The bound for simultaneous estimation is attainable iff every entry
    vanishes.  dvecs is laid out as in qfim_from_spectral.
    """
    ls, dsup, g = _support_blocks(sd, dvecs)
    out = 4.0 * _imag_form(dsup, ls[:, None])
    w = 8.0 * np.outer(ls, ls) * (ls[:, None] - ls[None, :]) / (ls[:, None] + ls[None, :]) ** 2
    out -= _imag_form(g.conj(), w)
    return out


def _attainability_raw_weight(sd: SpectralDecomposition, dvecs: np.ndarray) -> np.ndarray:
    # unsymmetrized weight 16 lam_k^2 lam_l/(lam_k+lam_l)^2; equal to
    # attainability_closed after the antisymmetric-sum identity
    ls, dsup, g = _support_blocks(sd, dvecs)
    nparams = dsup.shape[0]
    weighted = (dsup.conj() * ls[None, :, None]).reshape(nparams, -1)
    out = 4.0 * (weighted @ dsup.reshape(nparams, -1).T).imag
    w = 16.0 * np.outer(ls**2, ls) / (ls[:, None] + ls[None, :]) ** 2
    gw = (g * w[None, :, :]).reshape(nparams, -1)
    out -= (gw @ g.conj().reshape(nparams, -1).T).imag
    return out


def qfim_eigenvalues(f: np.ndarray, tol: float = 1e-10) -> tuple[float, float, int]:
    """Eigenvalues of an equatorial-structure QFIM without diagonalizing.

    Returns (lam1, lam2, mult2): lam1 = F_diag + (d-2) F_off with
    multiplicity 1, lam2 = F_diag - F_off with multiplicity d-2.  For d = 2
    there is no second eigenvalue and lam2 is NaN.  Raises ValueError when
    the entries are not constant within tol.
    """
    f = np.asarray(f)
    n = f.shape[0]
    diag = np.diag(f)
    if diag.max() - diag.min() > tol:
        raise ValueError("diagonal entries are not constant")
    fdiag = float(diag.mean())
    if n == 1:
        return fdiag, float("nan"), 0
    off = f[~np.eye(n, dtype=bool)]
    if off.max() - off.min() > tol:
        raise ValueError("off-diagonal entries are not constant")
    foff = float(off.mean())
    d = n + 1
    return fdiag + (d - 2) * foff, fdiag - foff, d - 2


@dataclass(frozen=True, eq=False)
class VarianceBound:
    """Lower bounds on estimator variances for all d-1 phases at once.

    total_variance_min is the trace of the inverse QFIM;
    per_parameter_bounds is its diagonal.
    """

    total_variance_min: float
    per_parameter_bounds: np.ndarray


def total_variance_bound(d: int, eta: float) -> VarianceBound:
    """Minimum total variance for the shrinking-channel output.

    Pure closed form (d-1)[2+(d-2)eta]/(2 eta^2).  The QFIM is symmetric
    under permutations of the phases, so the diagonal of its inverse is
    constant and each per-parameter bound is total/(d-1).  The dense-inverse
    and -2(d-1)/(d F_off) cross-checks live in verify (variance_trace_inverse)
    and the tests, not here.
    """
    _check_closed_form_dim(d)
    _check_eta(eta)
    total = (d - 1) * (2.0 + (d - 2) * eta) / (2.0 * eta**2)
    return VarianceBound(total, np.full(d - 1, total / (d - 1)))
