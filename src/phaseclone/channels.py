"""Symmetric 1->2 cloning channels for qudits.

Both machines implemented here admit an exact single-copy description: the
reduced output of one clone is the input projector shrunk toward the
maximally mixed state,

    rho_out = eta * |psi><psi| + ((1 - eta)/d) * I,

with a machine-specific shrinking factor eta(d).  The full tripartite
unitaries (original x copy x ancilla, ancilla dimension d) are implemented as
well, so the scaling form can be validated independently via partial trace.
ParamChannel is the one model of a machine that the CLI, the verification
suite and the finite-difference oracle share.  The outputs map a stack of
phase points to a stack of results, with the same arithmetic as one point.

A stack of k tripartite vectors holds k d^3 complex amplitudes, and the
partial trace holds a conjugate copy of them, so ParamChannel.density
builds and traces a cloner stack in slices of max(1, 2**14 // d**3)
points: at most 256 KiB of amplitudes at a time, whatever k is.  Peak
memory then stays flat in k, and at large d every point is its own slice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import PhaseVector, equatorial_state

# vector length d**3 caps the explicit tripartite path; closed forms cover larger d
FULL_UNITARY_DMAX = 32

MACHINES = ("pure", "uqcm", "pqcm", "shrink")

# complex amplitudes per tripartite slice in ParamChannel.density (256 KiB)
_SLICE_AMPLITUDES = 2**14


def _check_dim(d: int) -> int:
    """Return d as a Python int: numpy integers overflow in the closed forms' products."""
    if not isinstance(d, (int, np.integer)) or d < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {d!r}")
    return int(d)


def _check_eta(eta: float) -> None:
    if not (0.0 < eta <= 1.0):
        raise ValueError(f"shrinking factor must lie in (0, 1], got {eta}")


def eta_uqcm(d: int) -> float:
    """Shrinking factor (d+2)/(2(d+1)) of the universal cloner."""
    d = _check_dim(d)
    return (d + 2) / (2.0 * (d + 1))


def eta_pqcm(d: int) -> float:
    """Shrinking factor (d-2+sqrt(d^2+4d-4))/(4(d-1)) of the phase-covariant cloner."""
    d = _check_dim(d)
    return (d - 2 + np.sqrt(d * d + 4.0 * d - 4.0)) / (4.0 * (d - 1))


def shrink_output(p: PhaseVector, eta: float) -> np.ndarray:
    """Single-copy output eta*|psi><psi| + ((1-eta)/d)*I as a (d, d) matrix per point."""
    _check_eta(eta)
    psi = equatorial_state(p)
    return eta * (psi[..., :, None] * psi.conj()[..., None, :]) + (1.0 - eta) / p.dim * np.eye(p.dim)


def pqcm_coefficients(d: int) -> tuple[float, float]:
    """Amplitudes (alpha, beta) of the phase-covariant cloning unitary.

    alpha^2 = 1/2 - (d-2)/(2*sqrt(d^2+4d-4)) and beta^2 is its complement,
    so alpha^2 + beta^2 = 1.
    """
    d = _check_dim(d)
    gamma = np.sqrt(d * d + 4.0 * d - 4.0)
    alpha = np.sqrt(0.5 - (d - 2) / (2.0 * gamma))
    beta = np.sqrt(0.5 + (d - 2) / (2.0 * gamma))
    return alpha, beta


def _check_full_unitary_dim(d: int) -> None:
    _check_dim(d)
    if d > FULL_UNITARY_DMAX:
        raise ValueError(
            f"full tripartite outputs are capped at d={FULL_UNITARY_DMAX}, got {d}"
        )


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


def uqcm_full_output(p: PhaseVector) -> np.ndarray:
    """Tripartite output of the universal cloner on an equatorial input.

    Each basis input transforms as

        |i>|0>|X> -> alpha |ii>|X_i> + beta sum_{j != i} (|ij> + |ji>)|X_j>

    with alpha = 2/sqrt(2(d+1)) and beta = 1/sqrt(2(d+1)); the map is
    extended linearly to equatorial_state(p).  Returned as a flat length-d^3
    unit vector over clone A x clone B x ancilla.
    """
    d = p.dim
    _check_full_unitary_dim(d)
    alpha = 2.0 / np.sqrt(2.0 * (d + 1))
    beta = 1.0 / np.sqrt(2.0 * (d + 1))
    return _tripartite(equatorial_state(p), alpha, beta)


def pqcm_full_output(p: PhaseVector) -> np.ndarray:
    """Tripartite output of the phase-covariant cloner on an equatorial input.

    Basis inputs transform as

        |j>|Q> -> alpha |jj>|R_j>
                  + (beta/sqrt(2(d-1))) sum_{l != j} (|jl> + |lj>)|R_l>

    with (alpha, beta) from pqcm_coefficients(d).
    """
    d = p.dim
    _check_full_unitary_dim(d)
    alpha, beta = pqcm_coefficients(d)
    return _tripartite(equatorial_state(p), alpha, beta / np.sqrt(2.0 * (d - 1)))


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
    only kind that stores eta).  density is definition-level: for the two
    cloners it builds the full tripartite state and traces, so it never
    touches the scaling form.  shrinking_factor gives eta(d) for any kind.
    """

    kind: str
    eta: float | None = None

    def __post_init__(self):
        if self.kind not in MACHINES:
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if self.kind == "shrink":
            if self.eta is None:
                raise ValueError("shrink channel requires eta")
            _check_eta(self.eta)
        elif self.eta is not None:
            raise ValueError(f"eta is not a parameter of the {self.kind!r} channel")

    def shrinking_factor(self, d: int) -> float:
        if self.kind == "pure":
            return 1.0
        if self.kind == "uqcm":
            return eta_uqcm(d)
        if self.kind == "pqcm":
            return eta_pqcm(d)
        return float(self.eta)

    def density(self, p: PhaseVector) -> np.ndarray:
        if self.kind == "pure":
            psi = equatorial_state(p)
            return psi[..., :, None] * psi.conj()[..., None, :]
        if self.kind == "shrink":
            return shrink_output(p, self.eta)
        full = uqcm_full_output if self.kind == "uqcm" else pqcm_full_output
        rows = p.phases.reshape(-1, p.dim - 1)
        step = max(1, _SLICE_AMPLITUDES // p.dim**3)
        out = np.empty((len(rows), p.dim, p.dim), dtype=complex)
        for i in range(0, len(rows), step):
            out[i : i + step] = reduce_first_qudit(full(PhaseVector(p.dim, rows[i : i + step])))
        return out.reshape(p.phases.shape[:-1] + (p.dim, p.dim))
