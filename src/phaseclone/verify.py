"""Built-in verification suite.

Every structural property the library promises is re-checked here at runtime:
basis orthonormality, scaling-form reduction of the traced cloner isometries,
closed-form versus spectral-route agreement, ordering and positivity of the
information matrices, variance-bound identities, attainability, and the
finite-difference oracle comparisons.  Each check reports its worst observed
error against a fixed tolerance.  TOLERANCES declares every check, in run
order, with that tolerance; it is the one list of check names.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channels, crb, oracle, qfim, states
from .states import PhaseVector

DEFAULT_SEED = 12345

PURE = channels.ParamChannel("pure")
UQCM = channels.ParamChannel("uqcm")
PQCM = channels.ParamChannel("pqcm")
SHRINK = channels.ParamChannel("shrink", 0.4)
CHANNELS = (PURE, UQCM, PQCM, SHRINK)

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
            "max_error": None if np.isnan(self.max_error) else float(self.max_error),  # strict JSON
            "tolerance": float(self.tolerance),
        }


def check_arguments(dmax_full: int, fd_step: float, tolerances: dict[str, float]) -> None:
    """Raise ValueError for arguments run_verification cannot honour as given."""
    channels._check_full_unitary_dim(dmax_full)
    oracle._check_step(fd_step)
    for name, tol in tolerances.items():
        if name not in TOLERANCES:
            raise ValueError(f"no check is named {name!r}")
        if not (np.isfinite(tol) and tol >= 0):
            raise ValueError(f"the tolerance of {name} must be finite and >= 0, got {tol}")


def run_verification(
    dmax_full: int = 8,
    seed: int = DEFAULT_SEED,
    fd_step: float = oracle.DEFAULT_FD_STEP,
    mutate: bool = False,
    progress=None,
    tolerances: dict[str, float] | None = None,
) -> list[CheckResult]:
    """Run the whole suite and return one CheckResult per check.

    dmax_full caps the dimensions exercised through the traced cloner
    isometries.  With mutate=True a deliberate error is injected into the
    shrinking factor used by the scaling-form check, which must then fail;
    this validates that the harness can actually detect a wrong channel.
    tolerances maps check names to tolerances that replace the ones in
    TOLERANCES; progress sees each result with its final tolerance.
    Arguments that check_arguments rejects raise ValueError before any check.
    """
    tolerances = tolerances or {}
    check_arguments(dmax_full, fd_step, tolerances)
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []

    def add(name: str, *errs: float) -> None:
        # one scalar error per draw; the worst of them, at least 0, and NaN if
        # any is NaN (max() keeps whichever of a NaN and a number comes first)
        err = float("nan") if np.isnan(errs).any() else max(0.0, *errs)
        res = CheckResult(name, float(err), float(tolerances.get(name, TOLERANCES[name])))
        results.append(res)
        if progress is not None:
            progress(res)

    full_dims = list(range(2, dmax_full + 1))

    # --- state and basis construction ---------------------------------
    errs = []
    for d in range(2, 17):
        b = states.complement_basis(PhaseVector.random(d, rng, 100))
        errs.append(np.abs(b.conj() @ b.swapaxes(-1, -2) - np.eye(d)).max())
    add("complement_basis_orthonormality", *errs)

    errs = []
    for d in range(2, 17):
        for _ in range(10):
            p = PhaseVector.random(d, rng)
            gen = states.phase_shift_unitary(p) @ states.equatorial_state(PhaseVector.zero(d))
            errs.append(np.abs(states.equatorial_state(p) - gen).max())
    add("phase_shift_generates_state", *errs)

    errs = []
    for d in (2, 3, 5, 8):
        p = PhaseVector.random(d, rng)
        fd = oracle._central_differences(states.equatorial_state, p, 1e-5)
        errs.append(np.abs(states.basis_derivatives(p)[:, 0] - fd).max())
    add("state_derivative_finite_difference", *errs)

    errs = []
    for d in (2, 3, 4, 6):
        p = PhaseVector.random(d, rng)
        fd = oracle._central_differences(states.complement_basis, p, 1e-5)
        errs.append(np.abs(states.basis_derivatives(p) - fd).max())
    add("basis_derivative_finite_difference", *errs)

    errs = []
    for d in (2, 5, 9):
        p = PhaseVector.random(d, rng)
        for mu in range(1, d):
            shift = np.zeros(d - 1)
            shift[mu - 1] = 2 * np.pi
            q = PhaseVector(d, p.phases + shift)
            errs.append(np.abs(states.equatorial_state(p) - states.equatorial_state(q)).max())
            errs.append(np.abs(states.complement_basis(p) - states.complement_basis(q)).max())
            errs.append(np.abs(channels.shrink_output(p, 0.7) - channels.shrink_output(q, 0.7)).max())
    add("gauge_period_invariance", *errs)

    # --- cloning channels ----------------------------------------------
    # density is the partial trace of each cloner isometry; each draw is
    # traced once and feeds both checks
    fidelity = {}
    for ch in (UQCM, PQCM):
        errs, fid = [], []
        for d in full_dims:
            eta = ch.shrinking_factor(d)
            fault = 1e-3 if mutate and ch is UQCM else 0.0  # only the scaling form must catch it
            p = PhaseVector.random(d, rng, 20)
            rho = ch.density(p)
            errs.extend(map(np.linalg.norm, rho - channels.shrink_output(p, eta + fault)))
            psi = states.equatorial_state(p)
            fids = (psi.conj()[:, None, :] @ rho @ psi[:, :, None])[:, 0, 0].real
            fid += [fids.max() - fids.min(), np.abs(fids - (eta + (1 - eta) / d)).max()]
        add(f"scaling_form_{ch.kind}", *errs)
        fidelity[ch.kind] = fid
    for kind, fid in fidelity.items():
        add(f"fidelity_phase_independence_{kind}", *fid)

    add("eta_uqcm_large_d_limit", abs(channels.eta_uqcm(100) - 0.5))
    add("eta_pqcm_large_d_limit", abs(channels.eta_pqcm(100) - 0.5))
    add("eta_gap_large_d", channels.eta_pqcm(100) - channels.eta_uqcm(100))

    # --- closed forms vs the spectral route ------------------------------
    for ch in (UQCM, PQCM, SHRINK):
        errs = []
        for d in range(2, 11):
            sd = qfim.spectral_output(PhaseVector.random(d, rng), ch.shrinking_factor(d))
            errs.append(np.abs(qfim.qfim_from_spectral(sd) - qfim.closed_qfim(ch, d)).max())
        add(f"spectral_vs_closed_{ch.kind}", *errs)

    errs = []
    for d in range(2, 13):
        first, second = qfim.uqcm_diagonal_terms(PhaseVector.random(d, rng))
        second_closed = 2.0 * (d**3 + 7 * d**2 + 8 * d + 4) / ((d + 1) * (d + 4) * d**2)
        errs += [
            abs(first - 4.0 / d),
            abs(second - second_closed),
            abs((first - second) - qfim.qfim_uqcm_entries(d)[0]),
        ]
    add("uqcm_diagonal_term_sums", *errs)

    add(
        "telescoping_sum_identity",
        *(abs(sum(1.0 / (n * (n + 1)) for n in range(1, d)) - (1.0 - 1.0 / d)) for d in range(2, 65)),
    )

    errs = []
    for d in range(2, 33):
        for ch in CHANNELS:
            errs.append(max(qfim.equatorial_structure_residuals(qfim.closed_qfim(ch, d))))
    add("diag_offdiag_relation", *errs)

    errs = []
    for d in (3, 5):
        eta = channels.eta_uqcm(d)
        ref = qfim.qfim_from_spectral(qfim.spectral_output(PhaseVector.random(d, rng), eta))
        f = qfim.qfim_from_spectral(qfim.spectral_output(PhaseVector.random(d, rng, 9), eta))
        errs.append(np.abs(f - ref).max())
    add("qfim_phase_independence", *errs)

    # --- orderings and inequalities --------------------------------------
    errs = []
    for d in range(2, 65):
        gap = qfim.closed_qfim(PQCM, d) - qfim.closed_qfim(UQCM, d)
        errs.append(-np.linalg.eigvalsh(gap)[0])
    add("pqcm_minus_uqcm_psd", *errs)

    # the pure closed-form sweeps evaluate each closed form once on a column of d
    d1000 = np.arange(2, 1001)
    add("pqcm_diagonal_dominates", *(qfim.qfim_uqcm_entries(d1000)[0] - qfim.qfim_pqcm_entries(d1000)[0]))

    d64 = np.arange(2, 65)
    bound = channels.eta_uqcm(d64) * qfim.qfim_pure_entries(d64)[0]
    add("information_shrinks_under_cloning", *(qfim.qfim_uqcm_entries(d64)[0] - bound))

    for ch in (UQCM, PQCM):
        fs = qfim.qfim_shrink_entries(d64, ch.shrinking_factor(d64))
        errs = np.abs(np.subtract(qfim.closed_entries(ch, d64), fs))
        add(f"{ch.kind}_matches_generic_shrink", *errs.ravel())

    errs = []
    for d in (2, 4, 8):
        etas = np.linspace(0.1, 1.0, 10)
        errs.append(-np.diff(qfim.qfim_shrink_entries(d, etas)[0]).min())
    add("qfim_monotone_in_eta", *errs)

    # --- variance bounds --------------------------------------------------
    errs = []
    for d in range(2, 33):
        for eta in (0.3, 0.5, channels.eta_uqcm(d), channels.eta_pqcm(d), 1.0):
            f = qfim.closed_qfim(channels.ParamChannel("shrink", eta), d)
            dense = float(np.trace(np.linalg.inv(f)).real)
            errs.append(abs(crb.total_variance_bound(d, eta) - dense))
    add("variance_trace_inverse", *errs)

    add("variance_pure_closed_form", *np.abs(crb.total_variance_bound(d64, 1.0) - d64 * (d64 - 1) / 2.0))

    d20 = np.arange(2, 21)
    e_in = crb.total_variance_bound(d20, 1.0)
    e_u = crb.total_variance_bound(d20, channels.eta_uqcm(d20))
    e_p = crb.total_variance_bound(d20, channels.eta_pqcm(d20))
    add("variance_ordering", *(e_in - e_p), *(e_p - e_u))

    errs = []
    for d in (2, 4, 8):
        etas = np.linspace(0.1, 1.0, 10)
        errs.append(np.diff(crb.total_variance_bound(d, etas)).max())
    add("variance_monotone_in_eta", *errs)

    errs = []
    for d in range(2, 17):
        inv_eigs = np.sort(np.linalg.eigvalsh(np.linalg.inv(qfim.closed_qfim(PURE, d))))
        expect = np.sort(np.concatenate((np.full(d - 2, d / 4.0), [d * d / 4.0])))
        errs.append(np.abs(inv_eigs - expect).max())
    add("pure_inverse_eigenvalues", *errs)

    errs = []
    for d in range(3, 33):
        for ch in (UQCM, PQCM):
            l1, l2 = crb.qfim_eigenvalues(d, *qfim.closed_entries(ch, d))
            structured = np.sort(np.concatenate(([l1], np.full(d - 2, l2))))
            errs.append(np.abs(structured - np.linalg.eigvalsh(qfim.closed_qfim(ch, d))).max())
    add("structured_vs_dense_eigenvalues", *errs)

    errs = []
    for d in range(2, 11):
        for eta in (0.5, channels.eta_uqcm(d)):
            p = PhaseVector.random(d, rng)
            rho = qfim.reconstruct_density(qfim.spectral_output(p, eta))
            errs.append(np.abs(rho - channels.shrink_output(p, eta)).max())
    add("spectral_reconstruction", *errs)

    # --- attainability ----------------------------------------------------
    # one closed matrix per draw, against zero, its raw-weight form and the oracle
    err_closed, err_forms, err_num, err_agree = [], [], [], []
    for d in full_dims:
        for ch in (PURE, UQCM, PQCM):
            p = PhaseVector.random(d, rng, 10)
            sd = qfim.spectral_output(p, ch.shrinking_factor(d))
            a = crb.attainability_closed(sd)
            num = oracle.attainability_numeric(ch, p, fd_step)
            err_closed.append(np.abs(a).max())
            err_forms.append(np.abs(a - crb._attainability_raw_weight(sd)).max())
            err_num.append(np.abs(num).max())
            err_agree.append(np.abs(num - a).max())
    add("attainability_closed_zero", *err_closed)
    add("attainability_weight_forms_agree", *err_forms)
    add("attainability_numeric_zero", *err_num)
    add("attainability_paths_agree", *err_agree)

    # --- finite-difference oracle vs closed forms -------------------------
    for ch in CHANNELS:
        errs = []
        for d in full_dims:
            closed = qfim.closed_qfim(ch, d)
            p = PhaseVector.random(d, rng, 5)
            errs.append(np.abs(oracle.qfim_numeric(ch, p, fd_step) - closed).max())
        add(f"oracle_agreement_{ch.kind}", *errs)

    errs = []
    for ch, d in ((UQCM, 3), (PQCM, 4), (SHRINK, 5)):
        p = PhaseVector.random(d, rng)
        coarse = oracle.qfim_numeric(ch, p, 1e-4)
        fine = oracle.qfim_numeric(ch, p, 5e-5)
        errs.append(np.abs(coarse - fine).max())
    add("oracle_step_robustness", *errs)

    errs = []
    for d in full_dims:
        for ch in CHANNELS:
            p = PhaseVector.random(d, rng, 3)
            rho = ch.density(p)[:, None]
            drho = oracle._central_differences(ch.density, p, fd_step)
            sld = oracle.sld_solve(rho, drho)
            residual = drho - 0.5 * (rho @ sld + sld @ rho)
            errs.append(np.linalg.norm(residual, axis=(-2, -1)).max())
    add("sld_residual", *errs)

    return results
