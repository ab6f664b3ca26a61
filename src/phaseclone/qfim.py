"""Closed-form quantum Fisher information matrices for cloned equatorial states.

For the equatorial family every information matrix produced here has constant
diagonal entries, constant off-diagonal entries, and the two are locked
together by F_diag = -(d-1) * F_offdiag.  The module provides the closed
forms for the pure input, the generic shrinking channel, and both cloning
machines, together with the spectral-decomposition route that rebuilds the
same matrices from eigenvector derivatives,

    F_mn = sum_i 4 lam_i Re<d_m psi_i|d_n psi_i>
         - sum_{i,j} (8 lam_i lam_j/(lam_i+lam_j))
                     Re <d_m psi_i|psi_j><psi_j|d_n psi_i>,

with every sum restricted to the support lam_i > 0 of the density matrix
(the unitary-parametrisation form; Liu, Yuan, Lu, Wang, J. Phys. A 53,
023001 (2020)).  The classical term sum_i (d_m lam_i)(d_n lam_i)/lam_i is
zero for this family: the eigenvalues of a shrinking-channel output carry
no phase dependence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import _check_dim, _check_eta, eta_uqcm
from .states import PhaseVector, _check_point, basis_derivatives, complement_basis

# polynomial numerators stay well inside float range up to here
CLOSED_FORM_DMAX = 10**6


def _check_closed_form_dim(d: int) -> int:
    d = _check_dim(d)
    if d > CLOSED_FORM_DMAX:
        raise ValueError(f"closed forms are limited to d <= {CLOSED_FORM_DMAX}, got {d}")
    return d


def _structured_matrix(d: int, fdiag: float, foff: float) -> np.ndarray:
    out = np.full((d - 1, d - 1), foff)
    np.fill_diagonal(out, fdiag)
    return out


def qfim_pure_entries(d: int) -> tuple[float, float]:
    """(diagonal, off-diagonal) entries 4(delta/d - 1/d^2) for the pure input."""
    d = _check_closed_form_dim(d)
    return 4.0 * (1.0 / d - 1.0 / d**2), -4.0 / d**2


def qfim_shrink_entries(d: int, eta: float) -> tuple[float, float]:
    """Entries of the QFIM for the generic shrinking-channel output.

    F_diag = 4(d-1)eta^2 / (d[2+(d-2)eta]) and F_off = -F_diag/(d-1).
    """
    d = _check_closed_form_dim(d)
    _check_eta(eta)
    denom = d * (2.0 + (d - 2) * eta)
    return 4.0 * (d - 1) * eta**2 / denom, -4.0 * eta**2 / denom


def qfim_uqcm_entries(d: int) -> tuple[float, float]:
    """Entries of the universal-cloner QFIM.

    F_diag = 2(d-1)(d+2)^2 / ((d+1)(d+4)d^2); F_off = -F_diag/(d-1).
    """
    d = _check_closed_form_dim(d)
    denom = (d + 1) * (d + 4) * d**2
    return 2.0 * (d - 1) * (d + 2) ** 2 / denom, -2.0 * (d + 2) ** 2 / denom


def qfim_pqcm_entries(d: int) -> tuple[float, float]:
    """Entries of the phase-covariant-cloner QFIM.

    With g = sqrt(d^2+4d-4),
    F_diag = 2(d^2 + d*g - 2g) / (d[d^2 + d(g+4) - 2(g+2)]); the off-diagonal
    entry follows from the structural relation F_off = -F_diag/(d-1).
    """
    d = _check_closed_form_dim(d)
    g = np.sqrt(d * d + 4.0 * d - 4.0)
    fdiag = 2.0 * (d * d + d * g - 2.0 * g) / (d * (d * d + d * (g + 4.0) - 2.0 * (g + 2.0)))
    return fdiag, -fdiag / (d - 1)


def closed_entries(channel, d: int) -> tuple[float, float]:
    """Closed-form (diagonal, off-diagonal) QFIM entries for a ParamChannel at dimension d."""
    if channel.kind == "pure":
        return qfim_pure_entries(d)
    if channel.kind == "uqcm":
        return qfim_uqcm_entries(d)
    if channel.kind == "pqcm":
        return qfim_pqcm_entries(d)
    return qfim_shrink_entries(d, channel.eta)


def closed_qfim(channel, d: int) -> np.ndarray:
    """Closed-form (d-1, d-1) QFIM of a ParamChannel at dimension d; independent of the phases."""
    return _structured_matrix(d, *closed_entries(channel, d))


def equatorial_structure_residuals(f: np.ndarray) -> tuple[float, float, float]:
    """How far a matrix is from the equatorial-family QFIM structure.

    Returns (diagonal spread, off-diagonal spread, relation residual), where
    the relation residual is max |F_diag + (d-1) F_off|.  All three are zero
    for d = 2 up to the diagonal spread.
    """
    f = np.asarray(f)
    n = f.shape[0]
    diag = np.diag(f)
    dspread = float(diag.max() - diag.min())
    if n == 1:
        return dspread, 0.0, 0.0
    off = f[~np.eye(n, dtype=bool)]
    ospread = float(off.max() - off.min())
    relation = float(np.abs(diag.mean() + n * off.mean()).max())
    return dspread, ospread, relation


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigen-decomposition of a density matrix restricted to what the
    information formulas need.

    eigenvalues are stored in descending order; eigenvectors is a (d, d)
    array whose row i is the eigenvector of eigenvalues[i], or a (k, d, d)
    stack of them for a stack of phase points with the same eigenvalues.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def spectral_output(p: PhaseVector, eta: float) -> SpectralDecomposition:
    """Spectral decomposition of the shrinking-channel output.

    The equatorial state itself is an eigenvector with eigenvalue
    eta + (1-eta)/d, and each complement-basis vector carries (1-eta)/d,
    exactly 0 at eta = 1.  A stack of phase points gives a stack of
    eigenvector sets.
    """
    _check_eta(eta)
    d = p.dim
    lam = np.concatenate(([eta + (1.0 - eta) / d], np.full(d - 1, (1.0 - eta) / d)))
    return SpectralDecomposition(lam, complement_basis(p))


def reconstruct_density(sd: SpectralDecomposition) -> np.ndarray:
    """Rebuild sum_i lam_i |psi_i><psi_i| from a spectral decomposition, per point of a stack."""
    v = sd.eigenvectors
    return (v.swapaxes(-1, -2) * sd.eigenvalues) @ v.conj()


def _support_blocks(sd: SpectralDecomposition, dvecs: np.ndarray):
    """Support eigenvalues ls, their eigenvector derivatives dsup (..., nparams, r, d)
    and the overlaps g[..., m, i, j] = <d_m psi_i|psi_j> over the support lam > 0."""
    lam = sd.eigenvalues
    sup = np.flatnonzero(lam > 0)
    if sup.size == 0:
        raise ValueError("density matrix has empty support")
    dsup = np.asarray(dvecs)[..., sup, :]
    g = np.einsum("...mic,...jc->...mij", dsup.conj(), sd.eigenvectors[..., sup, :])
    return lam[sup], dsup, g


def _spectral_terms(sd: SpectralDecomposition, dvecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two complex sums of the spectral route, G = first - second, over the support:

        first[..., m, n]  = sum_i 4 lam_i <d_m psi_i|d_n psi_i>
        second[..., m, n] = sum_{i,j} (16 lam_i^2 lam_j/(lam_i+lam_j)^2)
                            <d_m psi_i|psi_j><psi_j|d_n psi_i>

    G = Tr(rho L_m L_n) as in the oracle: the QFIM is Re(G + G^T)/2 and the
    attainability matrix Im G.
    """
    ls, dsup, g = _support_blocks(sd, dvecs)
    flat = dsup.shape[:-2] + (-1,)
    weighted = (dsup.conj() * ls[:, None]).reshape(flat)
    first = 4.0 * (weighted @ dsup.reshape(flat).swapaxes(-1, -2))
    w = 16.0 * np.outer(ls**2, ls) / (ls[:, None] + ls[None, :]) ** 2
    second = (g * w).reshape(flat) @ g.conj().reshape(flat).swapaxes(-1, -2)
    return first, second


def qfim_from_spectral(sd: SpectralDecomposition, dvecs: np.ndarray) -> np.ndarray:
    """QFIM from a spectral decomposition and its eigenvector derivatives.

    dvecs has shape (nparams, d, d) with dvecs[m, i] the derivative of
    eigenvector i with respect to parameter m (see basis_derivatives), or
    (k, nparams, d, d) for a stack, which gives a (k, nparams, nparams)
    stack.  The eigenvalues carry no phase dependence, so there is no
    classical term.  All sums run over the support only.
    """
    first, second = _spectral_terms(sd, dvecs)
    g = first - second
    return (g + g.swapaxes(-1, -2)).real / 2.0


def qfim_shrink_spectral(p: PhaseVector, eta: float) -> np.ndarray:
    """Spectral-route QFIM of the shrinking-channel output at phases p."""
    return qfim_from_spectral(spectral_output(p, eta), basis_derivatives(p))


def uqcm_diagonal_terms(d: int, p: PhaseVector | None = None) -> tuple[float, float]:
    """The two quantum sums making up the first diagonal QFIM entry of the
    universal-cloner output, evaluated numerically at one phase point p of dim d.

    Returns (first, second) with

        first  = sum_n 4 lam_n <d_1 psi_n | d_1 psi_n>
        second = sum_{n,m} (8 lam_n lam_m/(lam_n+lam_m)) |<psi_m|d_1 psi_n>|^2

    so that first - second equals the closed-form diagonal entry.  They are
    the [0, 0] entries of _spectral_terms, whose raw weight gives the same
    second sum because |<psi_m|d_1 psi_n>| is symmetric in n, m.  In closed
    form first = 4/d and second = 2(d^3+7d^2+8d+4)/((d+1)(d+4)d^2).
    """
    if p is None:
        p = PhaseVector.zero(d)
    _check_point(p)
    if p.dim != d:
        raise ValueError(f"phase point has dim={p.dim}, expected d={d}")
    first, second = _spectral_terms(spectral_output(p, eta_uqcm(d)), basis_derivatives(p))
    return float(first[0, 0].real), float(second[0, 0].real)
