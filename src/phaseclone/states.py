"""Equatorial qudit states and the orthonormal basis of their orthogonal complement.

A d-dimensional equatorial state carries all of its parameter dependence in
d-1 relative phases,

    |psi(phi)> = (1/sqrt(d)) * sum_j exp(i*phi_j) |j>,    phi_0 = 0,

and is generated from the uniform reference state by the diagonal phase-shift
unitary U(phi) = diag(e^{i phi_j}).  The same unitary carries a fixed real
basis to the complement basis, |psi_n(phi)> = e^{-i phi_n} U(phi) |psi_n(0)>,
so every phase derivative follows from the generator P_mu = |mu><mu|:
d_mu |psi_n> = i (P_mu - delta_{mu n}) |psi_n> (the unitary-parametrisation
form; Liu, Yuan, Lu, Wang, J. Phys. A 53, 023001 (2020)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi


def _check_dim(d: int) -> int:
    """Return d as a Python int, after rejecting a non-integer or d < 2."""
    if not isinstance(d, (int, np.integer)) or d < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {d!r}")
    return int(d)


def _check_dims(d: int | np.ndarray, dmax: int | None = None) -> float | np.ndarray:
    """One integer d as a float, or a 1-D integer array of them as float64, after
    rejecting any d < 2 (and any d > dmax): the closed forms evaluate a whole
    column of dimensions at once.  They compute in float64, which holds their
    d^4 products exactly below d ~ 9700 and, unlike int64, never overflows."""
    if isinstance(d, np.ndarray):
        if d.ndim != 1 or d.size == 0 or d.dtype.kind not in "iu":
            raise ValueError(f"dimensions must be one integer or a 1-D integer array, got {d!r}")
        if d.min() < 2:
            raise ValueError(f"dimension must be an integer >= 2, got {int(d.min())}")
        top, col = int(d.max()), d.astype(float)
    else:
        top = _check_dim(d)
        col = float(top)
    if dmax is not None and top > dmax:
        raise ValueError(f"closed forms are limited to d <= {dmax}, got {top}")
    return col


@dataclass(frozen=True, eq=False)
class PhaseVector:
    """The d-1 free phases of an equatorial qudit; the reference phase is 0.

    phases has shape (d-1,), or (k, d-1) for a stack of k points that the
    state, basis and density builders map to a stack of results.  Phases are
    wrapped into [0, 2*pi) on construction, so adding 2*pi to any component
    yields the same stored vector (up to rounding of the wrap).
    """

    dim: int
    phases: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dim", _check_dim(self.dim))
        phases = np.array(self.phases, dtype=float, ndmin=1)
        if phases.ndim > 2 or phases.shape[-1] != self.dim - 1:
            raise ValueError(
                f"expected {self.dim - 1} phases for dim={self.dim}, "
                f"got shape {phases.shape}"
            )
        if not np.isfinite(phases).all():
            raise ValueError("phases must be finite")
        np.mod(phases, TWO_PI, out=phases)
        # np.mod can round tiny negatives up to exactly 2*pi
        phases[phases >= TWO_PI] = 0.0
        phases.setflags(write=False)
        object.__setattr__(self, "phases", phases)

    @classmethod
    def zero(cls, dim: int) -> "PhaseVector":
        return cls(dim, np.zeros(dim - 1))

    @classmethod
    def random(cls, dim: int, rng: np.random.Generator, k: int | None = None) -> "PhaseVector":
        """Uniform phases; with k, a (k, dim-1) stack from the stream of k single draws."""
        return cls(dim, rng.uniform(0.0, TWO_PI, size=(dim - 1,) if k is None else (k, dim - 1)))

    @property
    def full_phases(self) -> np.ndarray:
        """All d phases including the fixed reference phase phi_0 = 0, per point."""
        return np.concatenate((np.zeros(self.phases.shape[:-1] + (1,)), self.phases), axis=-1)


def _check_point(p: PhaseVector) -> None:
    if p.phases.ndim != 1:
        raise ValueError(f"expected one phase point, got a stack of shape {p.phases.shape}")


def equatorial_state(p: PhaseVector) -> np.ndarray:
    """Amplitude vector (1/sqrt(d)) * exp(i*phi_j), j = 0..d-1, one row per point of a stack."""
    return np.exp(1j * p.full_phases) / np.sqrt(p.dim)


def phase_shift_unitary(p: PhaseVector) -> np.ndarray:
    """Diagonal unitary diag(1, e^{i phi_1}, ..., e^{i phi_{d-1}}).

    Applied to the zero-phase reference state it generates equatorial_state(p).
    """
    _check_point(p)
    return np.diag(np.exp(1j * p.full_phases))


@lru_cache(maxsize=64)  # an entry holds 8 d^2 bytes; the bound caps memory at large d
def _helmert_rows(d: int) -> np.ndarray:
    """Read-only (d, d) phase-free basis: the uniform row, then Helmert rows 1..d-1."""
    n = np.arange(1, d, dtype=float)[:, None]
    k = np.arange(d)
    rows = np.where(k == n, np.sqrt(n / (n + 1.0)), 0.0)
    rows = np.where(k < n, -1.0 / np.sqrt(n * (n + 1.0)), rows)
    out = np.vstack((np.full(d, 1.0 / np.sqrt(d)), rows))
    out.setflags(write=False)
    return out


def complement_basis(p: PhaseVector) -> np.ndarray:
    """Orthonormal basis of the full space adapted to the equatorial state.

    Returns a (d, d) array whose rows are the basis vectors: row 0 is
    equatorial_state(p) itself and rows 1..d-1 span its orthogonal
    complement.  Row n (n >= 1) is the normalized Gram-Schmidt combination

        sqrt(2n/(n+1)) * (chi_n - (1/n) sum_{j<n} e^{i(phi_j - phi_n)} chi_j),

    with chi_n = (-e^{-i phi_n} |0> + |n>)/sqrt(2).  It is built in one step
    as e^{-i phi_n} U(phi) applied to the real Helmert row (-1/sqrt(n(n+1))
    on slots 0..n-1, sqrt(n/(n+1)) on slot n).  The phase-free rows are
    cached per d; each call applies only the phases.
    """
    e = np.exp(1j * p.full_phases)
    return _helmert_rows(p.dim) * (e.conj()[..., :, None] * e[..., None, :])


def basis_derivatives(p: PhaseVector) -> np.ndarray:
    """All basis-vector derivatives, shape (d-1, d, d), or (k, d-1, d, d) for a stack.

    Entry [mu-1, n] is the derivative of complement_basis(p)[n] with respect
    to phi_mu, i (P_mu - delta_{mu n}) |psi_n> by the generator identity;
    exact up to rounding, with no finite differences involved.  Row
    [mu-1, 0] is the derivative of the state, i e^{i phi_mu}/sqrt(d) |mu>.
    """
    mu = np.arange(1, p.dim)[:, None, None]
    k = np.arange(p.dim)
    # entries [mu-1, n, k] = delta_{k mu} - delta_{n mu}
    weights = (k == mu).astype(float) - (k[:, None] == mu)
    return 1j * weights * complement_basis(p)[..., None, :, :]
