"""Definition-level numeric cross-check path.

The channels are channels.ParamChannel instances, and the oracle calls
nothing on them but .density; for the two cloners that is the partial
trace of the cloner isometry, never the scaling form.  Everything here is
computed from central finite differences of the density matrix, one per
phase, and the symmetric-logarithmic-derivative equation

    d_rho_m = (rho L_m + L_m rho) / 2,

solved for the whole (d-1, d, d) stack of derivatives in one eigenbasis of
rho.  The solve's right products (drho V and L~ V^dagger, V the
eigenvectors) run on each point's (d-1)*d merged rows, one matrix product
per point.  sld_pass is the one evaluation, in two halves.  Its stencil,
_stencil, takes rho and all 2(d-1) shifted points from one density call
on a stack.  Its solve, solve_pass, takes that rho and its differences and
forms the SLDs and the defining traces G_mn = Tr(rho L_m L_n) =
Tr(L_m (L_n rho)) for every pair (m, n): one Gram product of the
flattened L_m with the flattened transposes (L_n rho)^T, every L_n rho
from one merged-row product per point.  Its views are the QFIM
F = Re(G + G^T)/2 and the attainability matrix A = Im G, which
qfim_numeric and attainability_numeric return.  Every function takes one
phase point or a (k, d-1) stack of them and returns one result or a
(k, ...) stack; each point of a stack gets the arithmetic of a single
point, merged-row products of the same shapes included, so the results
agree bit for bit.  The same holds across stencils: those of several
channels or steps, concatenated along the stack axis, take one solve_pass
and give each its own pass's bits.  This module imports only ParamChannel and
PhaseVector, none of the closed forms or generator helpers, so agreement
between the two paths is a genuine check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ParamChannel
from .states import PhaseVector

DEFAULT_FD_STEP = 1e-5
SLD_SUPPORT_TOL = 1e-12
MIN_FD_STEP = 2.0 * np.pi * np.finfo(float).eps


def _check_args(p: PhaseVector, h: float) -> None:
    if not isinstance(p, PhaseVector):
        raise ValueError(f"expected a PhaseVector, got {p!r}")
    if np.ndim(h) != 0 or np.asarray(h).dtype.kind not in "iuf" or not (np.isfinite(h) and h > 0):
        raise ValueError(f"step must be a finite positive real number, got {h!r}")
    # phases are stored mod 2 pi: a shift below 2 pi eps can round away at a phase near 2 pi
    # (or near 0, whose phi - h wraps there), and at h = pi the points phi + h and phi - h coincide
    if h < MIN_FD_STEP:
        raise ValueError(f"step {h} is too small: h must be at least 2*pi*eps = {MIN_FD_STEP:.3g}")
    if h >= np.pi:
        raise ValueError(f"step {h} is too large: h must be below pi, where phi + h and phi - h are one point")


def _stencil(fn, p: PhaseVector, h: float):
    """fn at phi and at phi +- h e_mu for every mu, from one call of fn on one
    stack of every point.

    fn is any function of the phases that maps a stack of points to a stack
    of results.  Returns (fn(phi); the central differences (fn(phi + h e_mu)
    - fn(phi - h e_mu)) / 2h stacked as [..., mu-1] after the stack axes of
    p).  fn(phi) is copied out of the stack of results, so the stack is
    freed on return.  A result that is not a numeric array with one leading
    entry per point of the stack raises ValueError.
    """
    _check_args(p, h)
    shifts = h * np.eye(p.dim - 1)
    x = p.phases[..., None, :]
    shifted = np.stack((x + shifts, x - shifts))
    centres = p.phases.reshape(-1, p.dim - 1)
    points = np.concatenate((centres, shifted.reshape(-1, p.dim - 1)))
    out = np.asarray(fn(PhaseVector(p.dim, points)))
    if out.dtype.kind not in "iufc" or out.shape[:1] != points.shape[:1]:
        raise ValueError(
            f"the differentiated function must return a numeric array with one leading entry per point, "
            f"{len(points)} here; got {out.dtype} of shape {out.shape}"
        )
    n = len(centres)
    at = out[:n].reshape(p.phases.shape[:-1] + out.shape[1:]).copy()
    out = out[n:].reshape(shifted.shape[:-1] + out.shape[1:])
    return at, (out[0] - out[1]) / (2.0 * h)


def _central_differences(fn, p: PhaseVector, h: float) -> np.ndarray:
    """The central differences of _stencil alone."""
    return _stencil(fn, p, h)[1]


def rho_derivative(
    channel: ParamChannel, p: PhaseVector, mu: int, h: float = DEFAULT_FD_STEP
) -> np.ndarray:
    """Central-difference derivative of channel.density with respect to phi_mu, 1 <= mu <= d-1.

    Row mu - 1 of the central differences for every phase.  A test reference,
    kept for the benchmark tracer: the program takes density differences from sld_pass.
    """
    _check_args(p, h)
    if isinstance(mu, bool) or not isinstance(mu, (int, np.integer)) or not 1 <= mu <= p.dim - 1:
        raise IndexError(f"parameter index must be in 1..d-1, got {mu} for d={p.dim}")
    return _central_differences(channel.density, p, h)[..., mu - 1, :, :]


def _times_per_point(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x @ m.  Where m is one matrix per point, (d, d) or (..., 1, d, d), against
    slices x (..., n, d, d), the n slices of each point are merged into n * d rows:
    one gemm per point, with the same shapes for a single point and for a stack."""
    if x.ndim < 3 or (m.ndim > 2 and m.shape[-3] != 1):
        return x @ m
    if m.ndim > 2:
        m = m[..., 0, :, :]
    out = x.reshape(x.shape[:-3] + (x.shape[-3] * x.shape[-2], x.shape[-1])) @ m
    return out.reshape(out.shape[:-2] + x.shape[-3:])


def sld_solve(rho: np.ndarray, drho: np.ndarray) -> np.ndarray:
    """Symmetric logarithmic derivative solved in the eigenbasis of rho.

    In the eigenbasis L_ij = 2 drho_ij / (lam_i + lam_j) wherever the
    denominator exceeds SLD_SUPPORT_TOL; kernel-kernel entries are set to zero
    (any completion solves the defining equation there, and the information
    traces are insensitive to that block).  One path serves every rank: drho~
    is multiplied by the real factor 2 / (lam_i + lam_j), zero where the
    denominator is too small, which gives the bits of the complex quotient;
    for a full-rank rho the mask is all true and the support guard, which
    cannot fire, is skipped.  rho has shape
    (..., d, d) and drho is any stack that broadcasts against it, e.g.
    (k, 1, d, d) against (k, d-1, d, d); one eigendecomposition per rho
    serves every slice, and a slice with no weight on the support raises
    ValueError.  The right products drho V and L~ V^dagger run on each
    point's merged rows.  A non-numeric or non-square rho, a rho that is not
    Hermitian up to rounding (|rho - rho^dagger| <= 8 d eps max|rho| per
    matrix, as in the spectral route; eigh would read its lower triangle
    alone), or a non-numeric drho whose last axes are not (d, d) or whose
    leading axes do not broadcast, raises ValueError; a NaN in either
    triangle of rho, or in drho, gives NaN SLDs, for verify to report.
    """
    rho, drho = np.asarray(rho), np.asarray(drho)
    if rho.dtype.kind not in "iufc" or rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ValueError(f"rho must be a numeric (..., d, d) array, got {rho.dtype} of shape {rho.shape}")
    if drho.dtype.kind not in "iufc" or drho.shape[-2:] != rho.shape[-2:]:
        raise ValueError(f"drho must be a numeric array of rho's (d, d) slices, got {drho.dtype} of shape {drho.shape}")
    try:
        np.broadcast_shapes(rho.shape[:-2], drho.shape[:-2])
    except ValueError:
        raise ValueError(f"drho's stack {drho.shape[:-2]} does not broadcast against rho's {rho.shape[:-2]}") from None
    size = np.abs(rho).max(axis=(-2, -1), initial=0.0)  # initial: a d = 0 rho has nothing to compare
    asymmetry = np.abs(rho - rho.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    if (asymmetry > 8 * rho.shape[-1] * np.finfo(float).eps * size).any():
        raise ValueError("rho must be Hermitian")
    lam, v = np.linalg.eigh(rho)
    v[np.isnan(asymmetry)] = np.nan  # eigh skips a NaN in the upper triangle; it reaches every SLD of its rho
    vh = v.conj().swapaxes(-1, -2)
    dtil = vh @ _times_per_point(drho, v)
    denom = lam[..., :, None] + lam[..., None, :]
    solvable = denom > SLD_SUPPORT_TOL
    if not solvable.all():  # with every pair solvable, every slice has weight on the support
        # squared Frobenius norms: no weight on the support means |on| < 1e-14 |total|
        mag = dtil.real**2 + dtil.imag**2
        total = mag.sum(axis=(-2, -1))
        on_support = np.where(solvable, mag, 0.0).sum(axis=(-2, -1))
        if np.any((total > 1e-20) & (on_support < 1e-28 * total)):
            raise ValueError("derivative has no weight on the support of rho")
    dtil *= np.divide(2.0, denom, out=np.zeros(denom.shape), where=solvable)  # the quotient, and then the SLDs
    return np.matmul(v, _times_per_point(dtil, vh), out=dtil)


@dataclass(frozen=True, eq=False)
class SldPass:
    """One finite-difference SLD evaluation at a phase point or a stack of them.

    rho (..., d, d), its central differences drho (..., d-1, d, d), their
    SLDs (..., d-1, d, d) and the traces gram[..., m, n] = Tr(rho L_m L_n).
    """

    rho: np.ndarray
    drho: np.ndarray
    slds: np.ndarray
    gram: np.ndarray

    @property
    def qfim(self) -> np.ndarray:
        """Tr[rho (L_m L_n + L_n L_m)]/2 = Re(G + G^T)/2."""
        return 0.5 * (self.gram + self.gram.swapaxes(-1, -2)).real

    @property
    def attainability(self) -> np.ndarray:
        """Im Tr(rho L_m L_n) = Im G, as a real matrix."""
        return self.gram.imag


def sld_pass(channel: ParamChannel, p: PhaseVector, h: float = DEFAULT_FD_STEP) -> SldPass:
    """rho, its central differences, their SLDs and G from one density call:
    solve_pass on the stencil of channel.density at p."""
    if not callable(getattr(channel, "density", None)):  # a ParamChannel, or any family with a density
        raise ValueError(f"expected a ParamChannel or an object with a density method, got {channel!r}")
    return solve_pass(*_stencil(channel.density, p, h))


def solve_pass(rho: np.ndarray, drho: np.ndarray) -> SldPass:
    """The pass of a stencil: rho (..., d, d) and its central differences
    drho (..., d-1, d, d), as _stencil returns them, with their SLDs and G.

    G_mn = Tr(L_m (L_n rho)) = sum_ab (L_m)_ab (L_n rho)_ba: L_n rho on each point's
    merged rows, then one matrix product per point.  Each point of the stack gets a
    single point's arithmetic, so the stencils of several channels or steps,
    concatenated along the stack axis, solve together to the bits of their own passes.
    """
    rho_b = rho[..., None, :, :]
    slds = sld_solve(rho_b, drho)
    flat = slds.shape[:-2] + (slds.shape[-2] * slds.shape[-1],)  # explicit: a k = 0 stack reshapes too
    l_rho_t = _times_per_point(slds, rho_b).swapaxes(-1, -2)
    gram = slds.reshape(flat) @ l_rho_t.reshape(flat).swapaxes(-1, -2)
    return SldPass(rho, drho, slds, gram)


def qfim_numeric(channel: ParamChannel, p: PhaseVector, h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """QFIM from the defining symmetrized trace, Tr[rho (L_m L_n + L_n L_m)]/2."""
    return sld_pass(channel, p, h).qfim


def attainability_numeric(
    channel: ParamChannel, p: PhaseVector, h: float = DEFAULT_FD_STEP
) -> np.ndarray:
    """Commutator-trace imaginary parts Im Tr(rho L_m L_n), as a real matrix."""
    return sld_pass(channel, p, h).attainability
