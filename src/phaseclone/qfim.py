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
no phase dependence.  The overlaps <d_m psi_i|psi_j> are one matmul per
decomposition, computed once and read by the QFIM and by both forms of the
attainability matrix in crb.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .states import (
    PhaseVector,
    _check_dim,
    _check_dims,
    _check_eta,
    _check_one_eta,
    _derivatives_of_basis,
    complement_basis,
)

# polynomial numerators stay well inside float range up to here
CLOSED_FORM_DMAX = 10**6

_TINY = float(np.finfo(float).tiny)


def _check_shrink_args(d: int | np.ndarray, eta: float | np.ndarray) -> tuple:
    """(_check_dims(d, CLOSED_FORM_DMAX), _check_eta(eta)), both float64, so a list d or
    eta runs as the column it spells, after also rejecting an eta whose |F_off| =
    4 eta^2/(d[2+(d-2)eta]) is below the smallest normal float (lost digits or zero; a
    normal F_off keeps the total variance 2(d-1)/(d|F_off|) finite).  eta is one value
    or an array that broadcasts against a column d; a column raises the scalar error
    of its last underflowing entry (its largest d if ascending)."""
    d, eta = _check_dims(d, CLOSED_FORM_DMAX), _check_eta(eta)
    small = 4.0 * (eta * eta) / (d * (2.0 + (d - 2) * eta)) < _TINY
    if small.any():
        i = np.flatnonzero(small)[-1]
        d_i, eta_i = (np.broadcast_to(x, np.shape(small)).flat[i] for x in (d, eta))
        raise ValueError(f"eta={float(eta_i)} is too small: the QFIM entries underflow at d={int(d_i)}")
    return d, eta


# Each closed form below runs one numpy path: one integer d is a 0-d column,
# giving numpy floats, and a 1-D integer array of d gives float64 columns.
# Squares are written x * x: after the checks one d and one eta are numpy scalars,
# whose ** 2 calls pow, which can round a square differently from the x * x that an
# array's ** 2 computes; x * x keeps one d equal to its entry of a column.


def qfim_pure_entries(d: int | np.ndarray) -> tuple:
    """(diagonal, off-diagonal) entries 4(delta/d - 1/d^2) for the pure input."""
    d = _check_dims(d, CLOSED_FORM_DMAX)
    return 4.0 * (1.0 / d - 1.0 / (d * d)), -4.0 / (d * d)


def qfim_shrink_entries(d: int | np.ndarray, eta: float | np.ndarray) -> tuple:
    """Entries of the QFIM for the generic shrinking-channel output.

    F_diag = 4(d-1)eta^2 / (d[2+(d-2)eta]) and F_off = -F_diag/(d-1).
    """
    d, eta = _check_shrink_args(d, eta)
    denom = d * (2.0 + (d - 2) * eta)
    return 4.0 * (d - 1) * (eta * eta) / denom, -4.0 * (eta * eta) / denom


def qfim_uqcm_entries(d: int | np.ndarray) -> tuple:
    """Entries of the universal-cloner QFIM.

    F_diag = 2(d-1)(d+2)^2 / ((d+1)(d+4)d^2); F_off = -F_diag/(d-1).
    """
    d = _check_dims(d, CLOSED_FORM_DMAX)
    denom = (d + 1) * (d + 4) * (d * d)
    return 2.0 * (d - 1) * ((d + 2) * (d + 2)) / denom, -2.0 * ((d + 2) * (d + 2)) / denom


def qfim_pqcm_entries(d: int | np.ndarray) -> tuple:
    """Entries of the phase-covariant-cloner QFIM.

    With g = sqrt(d^2+4d-4),
    F_diag = 2(d^2 + d*g - 2g) / (d[d^2 + d(g+4) - 2(g+2)]); the off-diagonal
    entry follows from the structural relation F_off = -F_diag/(d-1).
    """
    d = _check_dims(d, CLOSED_FORM_DMAX)
    g = np.sqrt(d * d + 4.0 * d - 4.0)
    fdiag = 2.0 * (d * d + d * g - 2.0 * g) / (d * (d * d + d * (g + 4.0) - 2.0 * (g + 2.0)))
    return fdiag, -fdiag / (d - 1)


def closed_entries(channel, d: int | np.ndarray) -> tuple:
    """Closed-form (diagonal, off-diagonal) QFIM entries for a ParamChannel at one d or a column of d."""
    if channel.kind == "pure":
        return qfim_pure_entries(d)
    if channel.kind == "uqcm":
        return qfim_uqcm_entries(d)
    if channel.kind == "pqcm":
        return qfim_pqcm_entries(d)
    return qfim_shrink_entries(d, channel.eta)


def closed_qfim(channel, d: int) -> np.ndarray:
    """Closed-form (d-1, d-1) QFIM of a ParamChannel at one integer dimension d; independent
    of the phases.  Unlike the entry forms it takes no column of d: the matrix size is d-1."""
    d = _check_dim(d)
    return _from_entries(*closed_entries(channel, d), d)


def _from_entries(fdiag, foff, d: int) -> np.ndarray:
    """The (d-1, d-1) matrix with diagonal fdiag and off-diagonal foff, or a stack of
    them, one per entry of the columns fdiag and foff."""
    foff = np.asarray(foff)
    out = np.empty(foff.shape + (d - 1, d - 1))
    out[...] = foff[..., None, None]
    out[..., range(d - 1), range(d - 1)] = np.asarray(fdiag)[..., None]
    return out


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigen-decomposition of a density matrix restricted to what the
    information formulas need.

    eigenvalues are stored in descending order; eigenvectors is a (d, d)
    array whose row i is the eigenvector of eigenvalues[i], or a (k, d, d)
    stack of them for a stack of phase points with the same eigenvalues.
    derivatives has shape (nparams, d, d), derivatives[m, i] being the
    derivative of eigenvector i with respect to parameter m, or
    (k, nparams, d, d) for a stack.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    derivatives: np.ndarray

    @cached_property
    def _blocks(self):
        """_support_blocks(self), contracted once however many routes read them."""
        return _support_blocks(self)


def spectral_output(p: PhaseVector, eta: float) -> SpectralDecomposition:
    """Spectral decomposition of the shrinking-channel output, with the
    eigenvector derivatives of states.basis_derivatives(p), taken from the
    one complement basis it builds.

    The equatorial state itself is an eigenvector with eigenvalue
    eta + (1-eta)/d, and each complement-basis vector carries (1-eta)/d,
    exactly 0 at eta = 1.  A stack of phase points gives a stack of
    eigenvector sets, all with the one eigenvalue set of the one eta.
    """
    _check_one_eta(eta)
    d = p.dim
    lam = np.concatenate(([eta + (1.0 - eta) / d], np.full(d - 1, (1.0 - eta) / d)))
    basis = complement_basis(p)
    return SpectralDecomposition(lam, basis, _derivatives_of_basis(basis))


def reconstruct_density(sd: SpectralDecomposition) -> np.ndarray:
    """Rebuild sum_i lam_i |psi_i><psi_i| from a spectral decomposition, per point of a stack."""
    v = sd.eigenvectors
    return (v.swapaxes(-1, -2) * sd.eigenvalues) @ v.conj()


def _support_blocks(sd: SpectralDecomposition):
    """Support eigenvalues ls, their eigenvector derivatives dsup (..., nparams, r, d)
    and the overlaps g[..., m, i, j] = <d_m psi_i|psi_j> over the support lam > 0.

    g is one matmul per point: the nparams * r rows of conj(dsup) against the r
    support eigenvectors.  Read it through sd._blocks, which computes it once.
    """
    lam = sd.eigenvalues
    sup = np.flatnonzero(lam > 0)
    if sup.size == 0:
        raise ValueError("density matrix has empty support")
    dsup = np.asarray(sd.derivatives)[..., sup, :]
    rows = dsup.shape[:-3] + (dsup.shape[-3] * sup.size, dsup.shape[-1])
    g = dsup.conj().reshape(rows) @ sd.eigenvectors[..., sup, :].swapaxes(-1, -2)
    return lam[sup], dsup, g.reshape(dsup.shape[:-1] + (sup.size,))


def _merge_last_two(x: np.ndarray) -> np.ndarray:
    """x with its two trailing axes merged, sized explicitly: a -1 fails on an empty (k = 0) stack."""
    return x.reshape(x.shape[:-2] + (x.shape[-2] * x.shape[-1],))


def _spectral_terms(sd: SpectralDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """The two complex sums of the spectral route, G = first - second, over the support:

        first[..., m, n]  = sum_i 4 lam_i <d_m psi_i|d_n psi_i>
        second[..., m, n] = sum_{i,j} (16 lam_i^2 lam_j/(lam_i+lam_j)^2)
                            <d_m psi_i|psi_j><psi_j|d_n psi_i>

    G = Tr(rho L_m L_n) as in the oracle: the QFIM is Re(G + G^T)/2 and the
    attainability matrix Im G.
    """
    ls, dsup, g = sd._blocks
    weighted = _merge_last_two(dsup.conj() * ls[:, None])
    first = 4.0 * (weighted @ _merge_last_two(dsup).swapaxes(-1, -2))
    w = 16.0 * np.outer(ls**2, ls) / (ls[:, None] + ls[None, :]) ** 2
    second = _merge_last_two(g * w) @ _merge_last_two(g.conj()).swapaxes(-1, -2)
    return first, second


def qfim_from_spectral(sd: SpectralDecomposition) -> np.ndarray:
    """QFIM from a spectral decomposition and the eigenvector derivatives it carries.

    A stack of decompositions gives a (k, nparams, nparams) stack.  The
    eigenvalues carry no phase dependence, so there is no classical term.
    All sums run over the support only.
    """
    first, second = _spectral_terms(sd)
    g = first - second
    return (g + g.swapaxes(-1, -2)).real / 2.0
