"""Closed-form quantum Fisher information matrices for cloned equatorial states.

For the equatorial family every information matrix produced here has constant
diagonal entries, constant off-diagonal entries, and the two are locked
together by F_diag = -(d-1) * F_offdiag.  The module provides the closed
forms for the pure input, the generic shrinking channel, and both cloning
machines, together with the spectral route that rebuilds the same matrices
from one eigen-decomposition of any density matrix of a phase-covariant
family rho(phi) = U(phi) rho_0 U(phi)^dagger, U = exp(i sum_m phi_m P_m),
P_m = |m><m|.  There d_m rho = i[P_m, rho], and in the eigenbasis of rho

    G_mn = Tr(rho L_m L_n) = sum_{i,j} w_ij (P_m)_ij (P_n)_ji,
    w_ij = 4 lam_i ((lam_i - lam_j)/(lam_i + lam_j))^2,

(the unitary-parametrisation form; Liu, Yuan, Lu, Wang, J. Phys. A 53,
023001 (2020)).  The QFIM is Re(G + G^T)/2 and the attainability matrix in
crb is Im G.  As w_ij <= 4 lam_i for any lam >= 0, no support cut or
eigenvalue grouping is needed: a rounding-sized eigenvalue carries a
rounding-sized weight.  Only a pair whose lam_i + lam_j is below eigh's
rounding floor gets w_ij = 0: both are rounding of a zero eigenvalue.  The
route never sees eta; for the two cloners it reads the traced cloner output.
Its check-only forms, the rebuilt V diag(lam) V^dagger and the raw weight of
Im G alone, live in verify.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ParamChannel
from .states import _check_dim, _check_dims, _check_eta

# polynomial numerators stay well inside float range up to here
CLOSED_FORM_DMAX = 10**6

_TINY = float(np.finfo(float).tiny)
_EPS = float(np.finfo(float).eps)


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


def closed_entries(channel: ParamChannel, d: int | np.ndarray) -> tuple:
    """Closed-form (diagonal, off-diagonal) QFIM entries for a ParamChannel at one d or a column of d."""
    if not isinstance(channel, ParamChannel):
        raise ValueError(f"expected a ParamChannel, got {channel!r}")
    if channel.kind == "pure":
        return qfim_pure_entries(d)
    if channel.kind == "uqcm":
        return qfim_uqcm_entries(d)
    if channel.kind == "pqcm":
        return qfim_pqcm_entries(d)
    return qfim_shrink_entries(d, channel.eta)


def closed_qfim(channel: ParamChannel, d: int) -> np.ndarray:
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
    """Eigen-decomposition of a density matrix, or of each of a stack: eigenvalues (..., d), ascending
    and clipped at 0, and eigenvectors (..., d, d), column i that of eigenvalues[..., i], as eigh gives them."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        lam, vecs = np.asarray(self.eigenvalues), np.asarray(self.eigenvectors)
        if lam.dtype.kind not in "iuf" or lam.ndim < 1:
            raise ValueError(f"eigenvalues must be a real (..., d) array, got {lam.dtype} of shape {lam.shape}")
        if vecs.dtype.kind not in "iufc" or vecs.shape != lam.shape + lam.shape[-1:]:
            raise ValueError(
                f"eigenvectors must be a numeric (..., d, d) array of the eigenvalues' stack and d, "
                f"got {vecs.dtype} of shape {vecs.shape} for eigenvalues of shape {lam.shape}"
            )
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "eigenvectors", vecs)


def spectral_output(rho: np.ndarray) -> SpectralDecomposition:
    """One np.linalg.eigh of a (d, d) density matrix, d >= 2, or of each of a stack of them;
    negative eigenvalues are rounding, clipped to 0.  A non-numeric or non-square array,
    a non-finite entry, a matrix that is not Hermitian up to rounding (eigh would read
    its lower triangle alone), or a matrix with no positive eigenvalue raises ValueError."""
    rho = np.asarray(rho)
    if rho.dtype.kind not in "iufc" or rho.ndim < 2 or not rho.shape[-1] == rho.shape[-2] >= 2:
        raise ValueError(f"density matrix must be a numeric (..., d, d) array with d >= 2, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValueError("density matrix must have finite entries")
    # the asymmetry that rounding leaves in a product U rho_0 U^dagger stays below d eps max|rho|
    # (dense random unitaries, d = 2..128); 8 times that is the bound
    size = np.abs(rho).max(axis=(-2, -1))
    if (np.abs(rho - rho.conj().swapaxes(-1, -2)).max(axis=(-2, -1)) > 8 * rho.shape[-1] * _EPS * size).any():
        raise ValueError("density matrix must be Hermitian")
    lam, vecs = np.linalg.eigh(rho)
    lam = np.maximum(lam, 0.0)
    if not lam.any(axis=-1).all():
        raise ValueError("density matrix has empty support")
    return SpectralDecomposition(lam, vecs)


def _merge_last_two(x: np.ndarray) -> np.ndarray:
    """x with its two trailing axes merged, sized explicitly: a -1 fails on an empty (k = 0) stack."""
    return x.reshape(x.shape[:-2] + (x.shape[-2] * x.shape[-1],))


def _gram(sd: SpectralDecomposition, weight=lambda li, lj, r: 4.0 * li * r * r) -> np.ndarray:
    """sum_ij w_ij (P_m)_ij (P_n)_ji for m, n = 1..d-1 with (P_m)_ij = <psi_i|m><m|psi_j>, per
    point, as one (d-1, d^2) weighted matmul; w = weight(l_i, l_j, r_ij), an array over (i, j),
    by default that of G = Tr(rho L_m L_n).  r_ij = (l_i - l_j)/(l_i + l_j), and 0 where
    l_i + l_j <= d eps max(l), eigh's rounding floor as in np.linalg.matrix_rank: there both
    eigenvalues are rounding of a zero, and r would be noise of size 1."""
    if not isinstance(sd, SpectralDecomposition):
        raise ValueError(f"expected a SpectralDecomposition, got {sd!r}")
    lam = sd.eigenvalues
    li, lj = lam[..., :, None], lam[..., None, :]
    s = li + lj
    floor = lam.shape[-1] * _EPS * lam.max(axis=-1)[..., None, None]
    r = np.divide(li - lj, s, out=np.zeros(s.shape), where=s > floor)
    w = _merge_last_two(weight(li, lj, r))
    v = sd.eigenvectors[..., 1:, :]  # v[..., m-1, i] = <m|psi_i>
    p = _merge_last_two(v.conj()[..., :, None] * v[..., None, :])
    pw = p * w[..., None, :]
    return pw @ np.conjugate(p, out=p).swapaxes(-1, -2)  # in place: two (..., d-1, d^2) tensors, not three


def qfim_from_spectral(sd: SpectralDecomposition) -> np.ndarray:
    """QFIM Re(G + G^T)/2 from a spectral decomposition, or a (k, d-1, d-1) stack of them."""
    g = _gram(sd)
    return (g + g.swapaxes(-1, -2)).real / 2.0
