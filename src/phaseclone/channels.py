"""Symmetric 1->2 cloning channels for qudits.

Both machines implemented here admit an exact single-copy description: the
reduced output of one clone is the input projector shrunk toward the
maximally mixed state,

    rho_out = eta * |psi><psi| + ((1 - eta)/d) * I,

with a machine-specific shrinking factor eta(d).  ParamChannel.density takes
the partial trace of each cloner isometry in Kraus form, straight from its
two amplitudes, so the scaling form is validated without being assumed and
no length-d^3 state is built.  The dense tripartite outputs and
reduce_first_qudit are test references, kept here for the benchmark tracer.
ParamChannel is the one model of a machine that the CLI, the verification
suite and the finite-difference oracle share.  The outputs map a stack of
phase points to a stack of results, with the same arithmetic as one point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import (
    PhaseVector,
    _cached_to_full_limit,
    _check_dim,
    _check_dims,
    _check_one_eta,
    _check_point,
    equatorial_state,
)

MACHINES = ("pure", "uqcm", "pqcm", "shrink")


def eta_uqcm(d: int | np.ndarray) -> float | np.ndarray:
    """Shrinking factor (d+2)/(2(d+1)) of the universal cloner; d is one integer
    or a 1-D integer array (states._check_dims), giving a numpy float or a column."""
    d = _check_dims(d)
    return (d + 2) / (2.0 * (d + 1))


def eta_pqcm(d: int | np.ndarray) -> float | np.ndarray:
    """Shrinking factor (d-2+sqrt(d^2+4d-4))/(4(d-1)) of the phase-covariant cloner,
    at one d or a column of them as eta_uqcm."""
    d = _check_dims(d)
    return (d - 2 + np.sqrt(d * d + 4.0 * d - 4.0)) / (4.0 * (d - 1))


def shrink_output(p: PhaseVector, eta: float) -> np.ndarray:
    """Single-copy output eta*|psi><psi| + ((1-eta)/d)*I as a (d, d) matrix per point;
    eta is one number, which every point shares."""
    _check_one_eta(eta)
    psi = equatorial_state(p)
    rho = eta * (psi[..., :, None] * psi.conj()[..., None, :])
    rho.reshape(rho.shape[:-2] + (p.dim * p.dim,))[..., :: p.dim + 1] += (1.0 - eta) / p.dim
    return rho


def _isometry_amplitudes(kind: str, d: int) -> tuple[float, float]:
    """Amplitudes (diag, off) of the "uqcm" or "pqcm" cloner isometry at dimension d,
    as _tripartite and _first_clone take them, for any d >= 2.  The PQCM's are
    alpha and beta/sqrt(2(d-1)), with alpha^2 = 1/2 - (d-2)/(2 sqrt(d^2+4d-4)) = 1 - beta^2."""
    _check_dim(d)
    if kind == "uqcm":
        return 2.0 / np.sqrt(2.0 * (d + 1)), 1.0 / np.sqrt(2.0 * (d + 1))
    gamma = np.sqrt(d * d + 4.0 * d - 4.0)
    beta = np.sqrt(0.5 + (d - 2) / (2.0 * gamma))
    return np.sqrt(0.5 - (d - 2) / (2.0 * gamma)), beta / np.sqrt(2.0 * (d - 1))


def _tripartite(a: np.ndarray, diag: float, off: float) -> np.ndarray:
    """Flat d^3 vector sum_i a_i (diag |iii> + off sum_{j != i} (|ijj> + |jij>)).

    The three index sets (i,i,i), (i,j,j) and (j,i,j) with i != j are
    disjoint, so each entry is written once.
    """
    d = a.shape[-1]
    out = np.zeros(a.shape[:-1] + (d, d, d), dtype=complex)
    k = np.arange(d)
    out[..., k, k, k] = diag * a
    i, j = np.nonzero(k[:, None] != k)
    out[..., i, j, j] = out[..., j, i, j] = off * a[..., i]
    return out.reshape(a.shape[:-1] + (d**3,))


@_cached_to_full_limit
def _clone_weights(d: int, diag: float, off: float) -> np.ndarray:
    """Read-only W W^T of _first_clone, W holding diag on its diagonal and off elsewhere;
    keyed on the amplitudes themselves, so other amplitudes at the same d get their own."""
    w = np.where(np.eye(d, dtype=bool), diag, off)
    out = w @ w.T
    out.setflags(write=False)
    return out


def _first_clone(a: np.ndarray, diag: float, off: float) -> np.ndarray:
    """Tr_{B,C} of _tripartite(a, diag, off), as a (d, d) matrix per point.

    For ancilla k the B = k terms give clone A the vector a_i W[i, k], W
    holding diag on its diagonal and off elsewhere; the terms off a_j |iji>,
    j != i, are orthogonal to those and to each other.  So, elementwise,

        rho_A = (a a^dagger) * (W W^T) + off^2 diag_i(sum_{j != i} |a_j|^2).
    """
    d = a.shape[-1]
    rho = a[..., :, None] * a.conj()[..., None, :]
    rho *= _clone_weights(d, diag, off)
    weight = a.real**2 + a.imag**2
    rho.reshape(rho.shape[:-2] + (d * d,))[..., :: d + 1] += off**2 * (weight.sum(axis=-1, keepdims=True) - weight)
    return rho


def uqcm_full_output(p: PhaseVector) -> np.ndarray:
    """Tripartite output of the universal cloner on an equatorial input.

    Each basis input transforms as

        |i>|0>|X> -> alpha |ii>|X_i> + beta sum_{j != i} (|ij> + |ji>)|X_j>

    with alpha = 2/sqrt(2(d+1)) and beta = 1/sqrt(2(d+1)); the map is
    extended linearly to equatorial_state(p).  Returned as a flat length-d^3
    unit vector over clone A x clone B x ancilla.
    """
    return _tripartite(equatorial_state(p), *_isometry_amplitudes("uqcm", p.dim))


def pqcm_full_output(p: PhaseVector) -> np.ndarray:
    """Tripartite output of the phase-covariant cloner on an equatorial input.

    Basis inputs transform as

        |j>|Q> -> alpha |jj>|R_j>
                  + (beta/sqrt(2(d-1))) sum_{l != j} (|jl> + |lj>)|R_l>

    with (alpha, beta) as in _isometry_amplitudes.
    """
    return _tripartite(equatorial_state(p), *_isometry_amplitudes("pqcm", p.dim))


def reduce_first_qudit(psi: np.ndarray) -> np.ndarray:
    """Reduced density matrix of the first qudit of a tripartite pure state.

    The input is a flat vector of length d^3, or a stack of them along the
    leading axis; rho[i, i'] sums psi[i, j, k] * conj(psi[i', j, k]) over
    the other two slots.
    """
    psi = np.asarray(psi)
    n = psi.shape[-1]
    d = round(n ** (1.0 / 3.0))
    if d < 2 or d**3 != n:
        raise ValueError(f"state length {n} is not a qudit-cube d**3 with d >= 2")
    m = psi.reshape(psi.shape[:-1] + (d, d * d))
    return m @ m.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class ParamChannel:
    """A phase-parametrized family of single-copy outputs: the one machine model.

    kind is one of MACHINES: "pure" (the input projector), "uqcm"/"pqcm"
    (the two cloners), or "shrink" (the scaling form with a fixed eta, the
    only kind that stores eta).  density has two paths.  For the two cloners
    it is definition-level: the partial trace of the cloner isometry onto one
    clone, taken in Kraus form from the isometry's amplitudes, so it never
    touches the scaling form.  For "pure" and "shrink" it is the scaling form
    shrink_output itself, the pure input being eta = 1 (1.0 |psi><psi| + 0 I).
    shrinking_factor gives eta(d) for any kind.
    """

    kind: str
    eta: float | None = None

    def __post_init__(self):
        if self.kind not in MACHINES:
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if self.kind == "shrink":
            if self.eta is None:
                raise ValueError("shrink channel requires eta")
            _check_one_eta(self.eta)
        elif self.eta is not None:
            raise ValueError(f"eta is not a parameter of the {self.kind!r} channel")

    def shrinking_factor(self, d: int | np.ndarray) -> float | np.ndarray:
        """eta at one d (a numpy float) or at a 1-D integer array of d (a column)."""
        if self.kind == "uqcm":
            return eta_uqcm(d)
        if self.kind == "pqcm":
            return eta_pqcm(d)
        eta = 1.0 if self.kind == "pure" else float(self.eta)
        return np.full(np.shape(_check_dims(d)), eta)[()]

    def density(self, p: PhaseVector) -> np.ndarray:
        _check_point(p)  # before p.dim is read
        if self.kind in ("uqcm", "pqcm"):
            return _first_clone(equatorial_state(p), *_isometry_amplitudes(self.kind, p.dim))
        return shrink_output(p, self.shrinking_factor(p.dim))
