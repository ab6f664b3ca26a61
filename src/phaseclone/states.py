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

The complement basis and its derivatives are check references outside the
package API: verify and the tests call them, no program path does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

TWO_PI = 2.0 * np.pi

# verify's default seed and largest dmax_full, here so that the command-line parser reads them
# without importing verify: its traced-cloner, attainability and oracle blocks run every d up to
# DMAX_FULL_LIMIT, and take 2-3 s at 32 on a 2-vCPU host; the library itself has no cap
DEFAULT_SEED = 12345
DMAX_FULL_LIMIT = 32


def _cached_to_full_limit(fn):
    """fn with an lru_cache(64) for d <= DMAX_FULL_LIMIT, the largest d that verify
    repeats: an entry holds 8 d^2 bytes, so the cache stays below 1 MiB, and a larger d
    is built on each call."""
    cached = lru_cache(maxsize=64)(fn)
    return wraps(fn)(lambda d, *args: (cached if d <= DMAX_FULL_LIMIT else fn)(d, *args))


def _check_dim(d: int) -> int:
    """Return d as a Python int, after rejecting a non-integer or d < 2."""
    if not isinstance(d, (int, np.integer)) or d < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {d!r}")
    return int(d)


def _check_count(n: int, what: str) -> int:
    """Return n as a Python int, after rejecting a bool, a non-integer or n < 0."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"{what} must be an integer >= 0, got {n!r}")
    return int(n)


def _check_dims(d: int | np.ndarray, dmax: int | None = None) -> float | np.ndarray:
    """d as float64, after rejecting anything but one integer or a 1-D integer array
    (a 0-d column), and any d < 2 or d > dmax: the closed forms run one numpy path,
    so one d gives a numpy float and a column of d a float64 column.  They compute in
    float64, which holds their d^4 products exactly below d ~ 9700 and, unlike int64,
    never overflows."""
    a = np.asarray(d)
    if a.ndim > 1 or a.size == 0 or a.dtype.kind not in "iu":
        raise ValueError(f"dimension must be an integer >= 2, or a 1-D array of them, got {d!r}")
    if a.min() < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {int(a.min())}")
    if dmax is not None and a.max() > dmax:
        raise ValueError(f"closed forms are limited to d <= {dmax}, got {int(a.max())}")
    return a.astype(float)[()]


def _check_eta(eta: float | np.ndarray) -> float | np.ndarray:
    """eta as float64, after rejecting a shrinking factor that is not a real number in
    (0, 1], or an array of them whose extremes are not: the input rule of every output
    eta*|psi><psi| + (1-eta)I/d and of its closed forms.  A list runs as the column it spells."""
    a = np.asarray(eta)
    if a.dtype.kind not in "iuf":
        raise ValueError(f"shrinking factor must be a real number in (0, 1], got {eta!r}")
    if a.size == 0:
        raise ValueError("shrinking factor eta must hold at least one value, got an empty array")
    for e in (a.min(), a.max()):
        if not (0.0 < e <= 1.0):
            raise ValueError(f"shrinking factor must lie in (0, 1], got {e}")
    return a.astype(float)[()]


def _check_one_eta(eta: float) -> None:
    """_check_eta for a routine that builds one output per point: an eta array
    would broadcast into a wrong matrix or fail inside numpy, so it is rejected."""
    if np.ndim(eta) != 0:
        raise ValueError(f"expected one eta, got {eta!r}")
    _check_eta(eta)


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
        phases = np.asarray(self.phases)
        if phases.dtype.kind not in "iuf":  # a complex part or a bool is no phase
            raise ValueError(f"phases must be real numbers, got dtype {phases.dtype}")
        phases = np.array(phases, dtype=float, ndmin=1)
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
        return cls(dim, np.zeros(_check_dim(dim) - 1))

    @classmethod
    def random(cls, dim: int, rng: np.random.Generator, k: int | None = None) -> "PhaseVector":
        """Uniform phases; with k, a (k, dim-1) stack from the stream of k single draws."""
        n = _check_dim(dim) - 1
        if not isinstance(rng, np.random.Generator):
            raise ValueError(f"rng must be a numpy.random.Generator, got {rng!r}")
        return cls(dim, rng.uniform(0.0, TWO_PI, size=(n,) if k is None else (_check_count(k, "stack size k"), n)))

    @property
    def full_phases(self) -> np.ndarray:
        """All d phases including the fixed reference phase phi_0 = 0, per point."""
        return np.concatenate((np.zeros(self.phases.shape[:-1] + (1,)), self.phases), axis=-1)


def _check_point(p: PhaseVector) -> None:
    if not isinstance(p, PhaseVector):
        raise ValueError(f"expected a PhaseVector, got {p!r}")


def equatorial_state(p: PhaseVector) -> np.ndarray:
    """Amplitude vector (1/sqrt(d)) * exp(i*phi_j), j = 0..d-1, one row per point of a stack."""
    _check_point(p)
    return np.exp(1j * p.full_phases) / np.sqrt(p.dim)


def phase_shift_unitary(p: PhaseVector) -> np.ndarray:
    """Diagonal unitary diag(1, e^{i phi_1}, ..., e^{i phi_{d-1}}): (d, d) per point, (k, d, d) for a stack.

    Applied to the zero-phase reference state it generates equatorial_state(p).
    """
    _check_point(p)
    return np.exp(1j * p.full_phases)[..., :, None] * np.eye(p.dim)


@_cached_to_full_limit
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
    cached per d; each call applies only the phases.  No program path calls
    it (the spectral route takes eigh's eigenvectors): verify's basis checks
    and the benchmark tracer keep it.
    """
    _check_point(p)
    e = np.exp(1j * p.full_phases)
    return _helmert_rows(p.dim) * (e.conj()[..., :, None] * e[..., None, :])


def basis_derivatives(p: PhaseVector) -> np.ndarray:
    """All basis-vector derivatives, shape (d-1, d, d), or (k, d-1, d, d) for a stack.

    Entry [mu-1, n] is the derivative of complement_basis(p)[n] with respect
    to phi_mu, i (P_mu - delta_{mu n}) |psi_n> by the generator identity;
    exact up to rounding, with no finite differences involved.  Row
    [mu-1, 0] is the derivative of the state, i e^{i phi_mu}/sqrt(d) |mu>.
    Kept, like complement_basis, for verify's basis checks and the tracer.
    """
    basis = complement_basis(p)
    mu = np.arange(1, p.dim)[:, None, None]
    k = np.arange(p.dim)
    # entries [mu-1, n, k] = delta_{k mu} - delta_{n mu}
    weights = (k == mu).astype(float) - (k[:, None] == mu)
    return 1j * weights * basis[..., None, :, :]
