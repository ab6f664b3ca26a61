"""Built-in verification suite.

Every structural property the library promises is re-checked here at runtime:
basis orthonormality, scaling-form reduction of the traced cloner isometries,
closed-form versus spectral-route agreement, ordering and positivity of the
information matrices, variance-bound identities, attainability, and the
finite-difference oracle comparisons.  Each check reports its worst observed
error against a fixed tolerance.  TOLERANCES declares every check, in run
order, with that tolerance; it is the one list of check names, and no
argument or config key changes a tolerance or the oracle's step.  The checks
run in BLOCKS, each block on its own random stream seeded by the seed and the
block's name, so one block's draws never move another block's errors.  Checks
that share a quantity share its draws, in one block, and each quantity is
computed once per pass.  At each d the stencils of the four channels' draw
stacks take one oracle.solve_pass, whose merged derivatives stay within
ORACLE_SOLVE_BYTES (a larger d splits the stacks into more solves, whose
passes are concatenated), and the oracle attainability, QFIM-agreement and
SLD-residual checks read that one pass's rho, G and residual, split by the
stacks' rows; the residual is formed in solve_pass.  A step-robustness
point's two steps join the solve of its d (a d above dmax_full solves only
them).  closed_vs_spectral decomposes every density it reads at one d in
one spectral_output.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from . import channels, crb, oracle, qfim, states
from .states import DEFAULT_SEED, DMAX_FULL_LIMIT, PhaseVector

PURE = channels.ParamChannel("pure")
UQCM = channels.ParamChannel("uqcm")
PQCM = channels.ParamChannel("pqcm")
SHRINK = channels.ParamChannel("shrink", 0.4)
CHANNELS = (PURE, UQCM, PQCM, SHRINK)

# qfim._gram weights of the two term sums of G, whose difference is G's own weight
TERM_WEIGHTS = (lambda li, lj, r: 4.0 * li * np.ones_like(r), lambda li, lj, r: 4.0 * li * (1.0 - r * r))

# the antisymmetric part of G's weight, 2 (l_i - l_j) r_ij^2 = 2 (l_i - l_j)^3/(l_i + l_j)^2: the
# symmetric part drops out of Im G, so this weight alone gives the attainability matrix again
RAW_WEIGHT = lambda li, lj, r: 2.0 * (li - lj) * r * r

ETA_SWEEP = np.repeat([2, 4, 8], 10), np.tile(np.linspace(0.1, 1.0, 10), 3)  # (d, eta) of both *_monotone_in_eta

# every check in run order; an inequality check at 0.0 allows no violation
TOLERANCES: dict[str, float] = {
    # state and basis construction
    "complement_basis_orthonormality": 1e-12,
    "phase_shift_generates_state": 1e-14,
    "state_derivative_finite_difference": 1e-8,
    "basis_derivative_finite_difference": 1e-6,
    "gauge_period_invariance": 1e-12,
    # cloning channels
    "scaling_form_uqcm": 1e-10,
    "scaling_form_pqcm": 1e-10,
    "fidelity_phase_independence_uqcm": 1e-12,
    "fidelity_phase_independence_pqcm": 1e-12,
    "eta_uqcm_large_d_limit": 0.02,
    "eta_pqcm_large_d_limit": 0.02,
    "eta_gap_large_d": 1e-3,
    # closed forms vs the spectral route
    "spectral_vs_closed_uqcm": 1e-10,
    "spectral_vs_closed_pqcm": 1e-10,
    "spectral_vs_closed_shrink": 1e-10,
    "uqcm_diagonal_term_sums": 1e-10,
    "telescoping_sum_identity": 1e-14,
    "diag_offdiag_relation": 1e-10,
    "qfim_phase_independence": 1e-10,
    # orderings and inequalities
    "pqcm_minus_uqcm_psd": 1e-12,
    "pqcm_diagonal_dominates": 0.0,
    "information_shrinks_under_cloning": 0.0,
    "uqcm_matches_generic_shrink": 1e-14,
    "pqcm_matches_generic_shrink": 1e-12,
    "qfim_monotone_in_eta": 0.0,
    # variance bounds
    "variance_trace_inverse": 1e-8,
    "variance_pure_closed_form": 0.0,
    "variance_ordering": 0.0,
    "variance_monotone_in_eta": 0.0,
    "pure_inverse_eigenvalues": 1e-10,
    "structured_vs_dense_eigenvalues": 1e-10,
    "spectral_reconstruction": 1e-12,
    # attainability
    "attainability_closed_zero": 1e-10,
    "attainability_weight_forms_agree": 1e-12,
    "attainability_numeric_zero": 1e-6,
    "attainability_paths_agree": 1e-6,
    # finite-difference oracle vs closed forms
    "oracle_agreement_pure": 1e-5,
    "oracle_agreement_uqcm": 1e-5,
    "oracle_agreement_pqcm": 1e-5,
    "oracle_agreement_shrink": 1e-5,
    "oracle_step_robustness": 1e-6,
    "sld_residual": 1e-8,
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.max_error <= self.tolerance)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "max_error": float(self.max_error) if np.isfinite(self.max_error) else None,  # strict JSON
            "tolerance": float(self.tolerance),
        }


def check_arguments(dmax_full: int) -> None:
    """Raise ValueError for a dmax_full that run_verification cannot honour."""
    if states._check_dim(dmax_full) > DMAX_FULL_LIMIT:
        raise ValueError(f"dmax is limited to {DMAX_FULL_LIMIT}, to bound verify's run time; got {dmax_full}")


def states_and_bases(rng, dmax_full, mutate):
    errs = []
    for d in range(2, 17):
        b = states.complement_basis(PhaseVector.random(d, rng, 100))
        errs.append(np.abs(b.conj() @ b.swapaxes(-1, -2) - np.eye(d)).max())
    yield "complement_basis_orthonormality", errs

    errs = []
    for d in range(2, 17):
        p = PhaseVector.random(d, rng, 10)
        gen = states.phase_shift_unitary(p) @ states.equatorial_state(PhaseVector.zero(d))
        errs.append(np.abs(states.equatorial_state(p) - gen).max())
    yield "phase_shift_generates_state", errs

    errs = []
    for d in (2, 3, 5, 8):
        p = PhaseVector.random(d, rng)
        fd = oracle._central_differences(states.equatorial_state, p, 1e-5)
        errs.append(np.abs(states.basis_derivatives(p)[:, 0] - fd).max())
    yield "state_derivative_finite_difference", errs

    errs = []
    for d in (2, 3, 4, 6):
        p = PhaseVector.random(d, rng)
        fd = oracle._central_differences(states.complement_basis, p, 1e-5)
        errs.append(np.abs(states.basis_derivatives(p) - fd).max())
    yield "basis_derivative_finite_difference", errs

    errs = []
    fns = (states.equatorial_state, states.complement_basis, channels.ParamChannel("shrink", 0.7).density)
    for d in (2, 5, 9):
        p = PhaseVector.random(d, rng)
        q = PhaseVector(d, p.phases + 2 * np.pi)  # every phase shifted by one period
        errs += [np.abs(fn(p) - fn(q)).max() for fn in fns]
    yield "gauge_period_invariance", errs


def cloning_channels(rng, dmax_full, mutate):
    # density is the partial trace of each cloner isometry; each draw is
    # traced once and feeds both checks
    fidelity = {}
    for ch in (UQCM, PQCM):
        errs, fid = [], []
        for d in range(2, dmax_full + 1):
            eta = ch.shrinking_factor(d)
            fault = 1e-3 if mutate and ch is UQCM else 0.0  # only the scaling form must catch it
            p = PhaseVector.random(d, rng, 20)
            rho = ch.density(p)
            errs.extend(np.linalg.norm(rho - channels.shrink_output(p, eta + fault), axis=(-2, -1)))
            psi = states.equatorial_state(p)
            fids = (psi.conj()[:, None, :] @ rho @ psi[:, :, None])[:, 0, 0].real
            fid += [fids.max() - fids.min(), np.abs(fids - (eta + (1 - eta) / d)).max()]
        yield f"scaling_form_{ch.kind}", errs
        fidelity[ch.kind] = fid
    for kind, fid in fidelity.items():
        yield f"fidelity_phase_independence_{kind}", fid

    yield "eta_uqcm_large_d_limit", [abs(channels.eta_uqcm(100) - 0.5)]
    yield "eta_pqcm_large_d_limit", [abs(channels.eta_pqcm(100) - 0.5)]
    yield "eta_gap_large_d", [channels.eta_pqcm(100) - channels.eta_uqcm(100)]


def _rows(sd: qfim.SpectralDecomposition, a: int, b: int) -> qfim.SpectralDecomposition:
    return qfim.SpectralDecomposition(sd.eigenvalues[a:b], sd.eigenvectors[a:b])


def closed_vs_spectral(rng, dmax_full, mutate):
    # every point first, in the order of the checks that read them: the channel draws
    # channel-major, so that each seed keeps its draws, the term-sum draws, then the
    # phase-independence stacks, each a reference point and nine others
    cases = (UQCM, PQCM, SHRINK)
    draws = [[PhaseVector.random(d, rng) for d in range(2, 11)] for _ in cases]
    term_points = {d: PhaseVector.random(d, rng) for d in range(2, 13)}
    stacks = {d: PhaseVector.random(d, rng, 10) for d in (3, 5)}
    channel_points = dict(zip(range(2, 11), zip(*draws)))

    # one spectral_output per d of every density read there, in rows: the three channels
    # (d <= 10), the traced universal cloner's term-sum draw, and the phase-independence
    # stack (d = 3, 5); each check contracts its own rows, the bits of their own decomposition.
    # G's weight 4 l_i r_ij^2 splits as 4 l_i - 16 l_i^2 l_j/(l_i+l_j)^2: the [0, 0] entries
    # of the two term sums, the first being 4 rho_11 = 4/d
    errs = {ch.kind: [] for ch in cases}
    err_terms, err_phases = [], []
    for d, term_point in term_points.items():
        points = channel_points.get(d, ())
        n = len(points)
        rho = np.stack([ch.density(p) for ch, p in zip(cases, points)] + [UQCM.density(term_point)])
        if d in stacks:
            rho = np.concatenate((rho, UQCM.density(stacks[d])))
        sd = qfim.spectral_output(rho)
        for ch, fc in zip(cases, qfim.qfim_from_spectral(_rows(sd, 0, n))):
            errs[ch.kind].append(np.abs(fc - qfim.closed_qfim(ch, d)).max())
        first, second = (float(qfim._gram(_rows(sd, n, n + 1), w)[0, 0, 0].real) for w in TERM_WEIGHTS)
        second_closed = 2.0 * (d**3 + 7 * d**2 + 8 * d + 4) / ((d + 1) * (d + 4) * d**2)
        err_terms += [
            abs(first - 4.0 / d),
            abs(second - second_closed),
            abs((first - second) - qfim.qfim_uqcm_entries(d)[0]),
        ]
        if d in stacks:
            f = qfim.qfim_from_spectral(_rows(sd, n + 1, len(rho)))
            err_phases.append(np.abs(f[1:] - f[0]).max())
    for kind, e in errs.items():
        yield f"spectral_vs_closed_{kind}", e
    yield "uqcm_diagonal_term_sums", err_terms

    yield "telescoping_sum_identity", [
        abs(sum(1.0 / (n * (n + 1)) for n in range(1, d)) - (1.0 - 1.0 / d)) for d in range(2, 65)
    ]

    # the closed-form sweep evaluates each closed form once on a column of d
    d64 = np.arange(2, 65)
    errs = []
    for ch in CHANNELS:
        fdiag, foff = qfim.closed_entries(ch, d64)
        errs.extend(np.abs(fdiag + (d64 - 1) * foff))
    yield "diag_offdiag_relation", errs

    yield "qfim_phase_independence", err_phases


def _spectrum(d, fdiag, foff) -> tuple:
    # eigenvalues of the (d-1, d-1) matrix with diagonal fdiag and off-diagonal foff, on columns:
    # fdiag + (d-2) foff once, on the all-ones vector, and fdiag - foff d-2 times, NaN at d = 2,
    # where there is no second; unlike crb.qfim_eigenvalues, no relation between the entries is assumed
    return fdiag + (d - 2) * foff, np.where(d > 2, fdiag - foff, np.nan)


def orderings(rng, dmax_full, mutate):
    # each gap matrix has the entry differences of the two closed forms; fmin skips d = 2's NaN
    d64 = np.arange(2, 65)
    gap = _spectrum(d64, *np.subtract(qfim.qfim_pqcm_entries(d64), qfim.qfim_uqcm_entries(d64)))
    yield "pqcm_minus_uqcm_psd", -np.fmin(*gap)

    d1000 = np.arange(2, 1001)
    yield "pqcm_diagonal_dominates", qfim.qfim_uqcm_entries(d1000)[0] - qfim.qfim_pqcm_entries(d1000)[0]

    bound = channels.eta_uqcm(d64) * qfim.qfim_pure_entries(d64)[0]
    yield "information_shrinks_under_cloning", qfim.qfim_uqcm_entries(d64)[0] - bound

    for ch in (UQCM, PQCM):
        fs = qfim.qfim_shrink_entries(d64, ch.shrinking_factor(d64))
        yield f"{ch.kind}_matches_generic_shrink", np.abs(np.subtract(qfim.closed_entries(ch, d64), fs)).ravel()

    yield "qfim_monotone_in_eta", -np.diff(qfim.qfim_shrink_entries(*ETA_SWEEP)[0].reshape(3, 10)).min(axis=1)


def variance_bounds(rng, dmax_full, mutate):
    # each closed form once on the flattened (d, eta) column; the inverse's trace is 1/lam1 + (d-2)/lam2
    d32 = np.arange(2, 33)
    etas = np.array([np.full(31, 0.3), np.full(31, 0.5), channels.eta_uqcm(d32), channels.eta_pqcm(d32), np.ones(31)])
    d5, eta5 = np.repeat(d32, 5), etas.T.ravel()  # five etas per d
    lam1, lam2 = _spectrum(d5, *qfim.qfim_shrink_entries(d5, eta5))
    trace = 1.0 / lam1 + np.where(d5 > 2, (d5 - 2) / lam2, 0.0)
    yield "variance_trace_inverse", np.abs(crb.total_variance_bound(d5, eta5) - trace)

    d64 = np.arange(2, 65)
    yield "variance_pure_closed_form", np.abs(crb.total_variance_bound(d64, 1.0) - d64 * (d64 - 1) / 2.0)

    d20 = np.arange(2, 21)
    e_in, e_u, e_p = (crb.total_variance_bound(d20, e) for e in (1.0, channels.eta_uqcm(d20), channels.eta_pqcm(d20)))
    yield "variance_ordering", [*(e_in - e_p), *(e_p - e_u)]

    yield "variance_monotone_in_eta", np.diff(crb.total_variance_bound(*ETA_SWEEP).reshape(3, 10)).max(axis=1)

    # the pure input's inverse QFIM has eigenvalues d^2/4 once and d/4 d-2 times
    d16 = np.arange(2, 17)
    lam1, lam2 = _spectrum(d16, *qfim.qfim_pure_entries(d16))
    yield "pure_inverse_eigenvalues", [*np.abs(1.0 / lam1 - d16 * d16 / 4.0), *np.abs(1.0 / lam2 - d16 / 4.0)[d16 > 2]]

    # each closed form once per cloner on d = 3..32; one eigvalsh call on the (UQCM, PQCM) pair per d
    d3 = np.arange(3, 33)
    entries = np.array([qfim.closed_entries(ch, d3) for ch in (UQCM, PQCM)])  # (cloner, entry, d)
    lams = np.array([crb.qfim_eigenvalues(d3, *e) for e in entries])
    errs = []
    for d, (fdiag, foff), (lam1, lam2) in zip(d3.tolist(), entries.T, lams.T):
        structured = np.sort(np.column_stack((lam1, np.repeat(lam2[:, None], d - 2, axis=1))))
        errs.extend(np.abs(structured - np.linalg.eigvalsh(qfim._from_entries(fdiag, foff, d))).max(axis=1))
    yield "structured_vs_dense_eigenvalues", errs

    errs = []
    for d in range(2, 11):
        rho = np.stack([channels.shrink_output(PhaseVector.random(d, rng), eta) for eta in (0.5, channels.eta_uqcm(d))])
        sd = qfim.spectral_output(rho)
        v = sd.eigenvectors
        errs.append(np.abs((v * sd.eigenvalues[..., None, :]) @ v.conj().swapaxes(-1, -2) - rho).max())
    yield "spectral_reconstruction", errs


# bytes of the merged drho of one oracle solve: consecutive draw stacks solve together while
# their (k, d-1, d, d) complex drho fits, and a stack larger than this solves alone
ORACLE_SOLVE_BYTES = 1 << 20


def _oracle_pass(stacks) -> oracle.SldPass:
    """The oracle.SldPass of consecutive (channel, points, step) stacks, their rows in
    order.  Each group of stacks whose merged drho stays within ORACLE_SOLVE_BYTES takes
    one oracle.solve_pass on its concatenated stencils; groups are sized from the shapes
    before any stencil is built, and a group's stencils are freed once it is solved.
    Each stack's rows hold the bits of its own oracle.sld_pass."""
    groups, size = [], 0
    for ch, p, h in stacks:
        nbytes = len(p.phases) * (p.dim - 1) * p.dim**2 * np.dtype(complex).itemsize
        if groups and size + nbytes <= ORACLE_SOLVE_BYTES:
            groups[-1].append((ch, p, h))
            size += nbytes
        else:
            groups.append([(ch, p, h)])
            size = nbytes
    passes = [
        oracle.solve_pass(*map(np.concatenate, zip(*(oracle._stencil(ch.density, p, h) for ch, p, h in group))))
        for group in groups
    ]
    return oracle.SldPass(*(np.concatenate(x) for x in zip(*((sp.rho, sp.gram, sp.residual) for sp in passes))))


def attainability_and_oracle(rng, dmax_full, mutate):
    # every draw first, in the order of the checks that read them: the pure, uqcm and pqcm
    # 10-draw stacks per d, the shrink 5-draw stacks, then the step-robustness points
    dims = range(2, dmax_full + 1)
    draws = {d: [PhaseVector.random(d, rng, 10) for _ in range(3)] for d in dims}
    for d in dims:
        draws[d].append(PhaseVector.random(d, rng, 5))
    steps = {d: (ch, PhaseVector.random(d, rng, 1)) for ch, d in ((UQCM, 3), (PQCM, 4), (SHRINK, 5))}

    # one pass per d feeds every oracle check: its Im G against zero and the closed
    # attainability matrix, its QFIM against the closed form, and its residual against the
    # equation that defines the SLDs.  Each cloner stack's closed matrix reads the centre rho
    # of its stencil, and is compared with zero, its raw-weight form and the oracle.  A
    # step-robustness point's coarse and fine stencils join its d's pass after the draw
    # stacks, and a d above dmax_full solves only them; the residual reads the draw rows
    agreement = {ch.kind: [] for ch in CHANNELS}
    residual, err_closed, err_forms, err_num, err_agree, err_steps = [], [], [], [], [], []

    def check_at(d):  # its arrays are freed on return, before the next d's stencils are built
        stacks = [(ch, p, oracle.DEFAULT_FD_STEP) for ch, p in zip(CHANNELS, draws.get(d, ()))]
        n = len(stacks)
        if d in steps:
            ch, p = steps[d]
            stacks += [(ch, p, 1e-4), (ch, p, 5e-5)]
        sp = _oracle_pass(stacks)
        ends = np.cumsum([len(p.phases) for _, p, _ in stacks]).tolist()
        fs = np.split(sp.qfim, ends[:-1])  # each stack's QFIMs
        if d in steps:
            err_steps.append(np.abs(fs[n] - fs[n + 1]).max())
        if not n:
            return
        residual.append(sp.residual[: ends[n - 1]].max())
        for ch, f in zip(CHANNELS, fs):
            agreement[ch.kind].append(np.abs(f - qfim.closed_qfim(ch, d)).max())
        cloners = slice(ends[2])  # the pure, uqcm and pqcm rows
        sd = qfim.spectral_output(sp.rho[cloners])
        closed = crb.attainability_closed(sd)
        num = sp.attainability[cloners]
        err_closed.append(np.abs(closed).max())
        err_forms.append(np.abs(closed - qfim._gram(sd, RAW_WEIGHT).imag).max())
        err_num.append(np.abs(num).max())
        err_agree.append(np.abs(num - closed).max())

    for d in sorted({*dims, *steps}):
        check_at(d)
    yield "attainability_closed_zero", err_closed
    yield "attainability_weight_forms_agree", err_forms
    yield "attainability_numeric_zero", err_num
    yield "attainability_paths_agree", err_agree
    for ch in CHANNELS:
        yield f"oracle_agreement_{ch.kind}", agreement[ch.kind]
    yield "oracle_step_robustness", err_steps
    yield "sld_residual", residual


# in TOLERANCES order; a block takes (rng, dmax_full, mutate), yields (name, errors) for
# the checks it owns and reads nothing another sets.  Its rng is default_rng([seed, crc32
# of its name]), not of its place here, so no block's draws move when another is added
BLOCKS = (states_and_bases, cloning_channels, closed_vs_spectral, orderings, variance_bounds, attainability_and_oracle)


def run_verification(
    dmax_full: int = 8, seed: int = DEFAULT_SEED, mutate: bool = False, progress=None
) -> list[CheckResult]:
    """Run every block of BLOCKS and return one CheckResult per check.

    dmax_full (2..DMAX_FULL_LIMIT) is the largest d of the traced-cloner,
    attainability and oracle blocks.  With mutate=True a deliberate error is
    injected into the shrinking factor used by the scaling-form check, which
    must then fail; this validates that the harness can detect a wrong channel.
    Every check runs at its TOLERANCES entry and the oracle at its default
    step; progress sees each result as it is added.  A check's error is the
    largest of its errors, and 0.0 if none is positive; every block runs with
    numpy's floating-point warnings off, so a NaN or infinite error fails its
    check under any warning filter instead of raising.  A bad seed, a mutate
    that is not a bool, a progress that is neither None nor callable, or a
    dmax_full that check_arguments rejects, raises ValueError before any check.
    """
    check_arguments(dmax_full)
    states._check_count(seed, "seed")
    if not isinstance(mutate, bool):
        raise ValueError(f"mutate must be a bool, got {mutate!r}")
    if progress is not None and not callable(progress):
        raise ValueError(f"progress must be None or callable, got {progress!r}")
    results: list[CheckResult] = []
    with np.errstate(all="ignore"):  # a non-finite error is a check's result, not a warning
        for block in BLOCKS:
            rng = np.random.default_rng([seed, zlib.crc32(block.__name__.encode())])
            for name, errs in block(rng, dmax_full, mutate):
                # np.max keeps any NaN; + 0.0 makes a -0.0 maximum read 0.0
                res = CheckResult(name, float(np.max(errs, initial=0.0)) + 0.0, TOLERANCES[name])
                results.append(res)
                if progress is not None:
                    progress(res)
    return results
