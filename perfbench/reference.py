"""Independent reference checks for the CLI outputs the benchmark drives.

The closed forms below are recomputed from PAPER.md with nothing but the
standard library, so a fault in `phaseclone.qfim`, `phaseclone.crb` or the
CLI cannot hide itself here.  Each checker takes the text a command wrote
and returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math

# A 12-significant-digit CSV value differs from the exact value by at most
# half a unit in its 12th digit (5e-12 relative); the rest is float rounding
# in the two computations, which stays below 1e-12 relative for d <= 2000.
REL_TOL = 1e-11

# Check names and tolerances of `phaseclone verify` when the benchmark was
# defined.  A report must keep every name, pass it, and use a tolerance no
# larger than the one recorded here.
VERIFY_BASELINE = {
    "complement_basis_orthonormality": 1e-12,
    "phase_shift_generates_state": 1e-14,
    "state_derivative_finite_difference": 1e-08,
    "basis_derivative_finite_difference": 1e-06,
    "gauge_period_invariance": 1e-12,
    "scaling_form_uqcm": 1e-10,
    "scaling_form_pqcm": 1e-10,
    "fidelity_phase_independence_uqcm": 1e-12,
    "fidelity_phase_independence_pqcm": 1e-12,
    "eta_uqcm_large_d_limit": 0.02,
    "eta_pqcm_large_d_limit": 0.02,
    "eta_gap_large_d": 0.001,
    "spectral_vs_closed_uqcm": 1e-10,
    "spectral_vs_closed_pqcm": 1e-10,
    "spectral_vs_closed_shrink": 1e-10,
    "uqcm_diagonal_term_sums": 1e-10,
    "telescoping_sum_identity": 1e-14,
    "diag_offdiag_relation": 1e-10,
    "qfim_phase_independence": 1e-10,
    "pqcm_minus_uqcm_psd": 1e-12,
    "pqcm_diagonal_dominates": 0.0,
    "information_shrinks_under_cloning": 0.0,
    "uqcm_matches_generic_shrink": 1e-14,
    "pqcm_matches_generic_shrink": 1e-12,
    "qfim_monotone_in_eta": 0.0,
    "variance_trace_inverse": 1e-08,
    "variance_pure_closed_form": 0.0,
    "variance_ordering": 0.0,
    "variance_monotone_in_eta": 0.0,
    "pure_inverse_eigenvalues": 1e-10,
    "structured_vs_dense_eigenvalues": 1e-10,
    "spectral_reconstruction": 1e-12,
    "attainability_closed_zero": 1e-10,
    "attainability_weight_forms_agree": 1e-12,
    "attainability_numeric_zero": 1e-06,
    "attainability_paths_agree": 1e-06,
    "oracle_agreement_pure": 1e-05,
    "oracle_agreement_uqcm": 1e-05,
    "oracle_agreement_pqcm": 1e-05,
    "oracle_agreement_shrink": 1e-05,
    "oracle_step_robustness": 1e-06,
    "sld_residual": 1e-08,
}


def eta(machine: str, d: int) -> float:
    """Shrinking factor: 1 for the pure input, else the UQCM or PQCM closed form."""
    if machine == "pure":
        return 1.0
    if machine == "uqcm":
        return (d + 2) / (2.0 * (d + 1))
    if machine == "pqcm":
        return (d - 2 + math.sqrt(d * d + 4.0 * d - 4.0)) / (4.0 * (d - 1))
    raise ValueError(f"unknown machine {machine!r}")


def f_diag(d: int, e: float) -> float:
    """Diagonal QFIM entry 4(d-1)eta^2 / (d[2+(d-2)eta]) of the shrinking output."""
    return 4.0 * (d - 1) * e * e / (d * (2.0 + (d - 2) * e))


def total_variance(d: int, e: float) -> float:
    """Minimum total variance (d-1)[2+(d-2)eta] / (2 eta^2)."""
    return (d - 1) * (2.0 + (d - 2) * e) / (2.0 * e * e)


def compute_row(machine: str, d: int) -> dict:
    """Expected `compute` row; lambda1 = F_diag/(d-1) and lambda2 = F_diag d/(d-1)
    follow from F_off = -F_diag/(d-1)."""
    e = eta(machine, d)
    fd = f_diag(d, e)
    return {
        "d": d,
        "eta": e,
        "f_diag": fd,
        "f_offdiag": -fd / (d - 1),
        "lambda1": fd / (d - 1),
        "lambda2": fd * d / (d - 1) if d > 2 else math.nan,
        "total_variance_min": total_variance(d, e),
        "attainable": True,
    }


def figure_row(which: int, d: int) -> dict:
    e_u, e_p = eta("uqcm", d), eta("pqcm", d)
    if which == 1:
        f_in = f_diag(d, 1.0)
        return {"d": d, "f_in_diag": f_in, "scaled_bound": e_u * f_in, "f_out_diag": f_diag(d, e_u)}
    if which == 2:
        return {"d": d, "f_uqcm_diag": f_diag(d, e_u), "f_pqcm_diag": f_diag(d, e_p)}
    return {
        "d": d,
        "e_in": total_variance(d, 1.0),
        "e_uqcm": total_variance(d, e_u),
        "e_pqcm": total_variance(d, e_p),
    }


def _value_problem(column: str, text: str, expected) -> str | None:
    if isinstance(expected, bool):
        return None if text == ("true" if expected else "false") else f"{column}={text}, expected {expected}"
    if isinstance(expected, int):
        return None if text == str(expected) else f"{column}={text}, expected {expected}"
    try:
        got = float(text)
    except ValueError:
        return f"{column}={text!r} is not a number"
    if math.isnan(expected):
        return None if math.isnan(got) else f"{column}={text}, expected nan"
    if abs(got - expected) <= REL_TOL * abs(expected):
        return None
    return f"{column}={text}, expected {expected:.17g}"


def check_csv(text: str, expected_rows: list[dict], comments: list[str]) -> list[str]:
    """Compare CSV output with the expected rows, column by column.

    Every wrong row is reported (up to a cap), so one bad row does not hide
    the others.
    """
    lines = text.split("\n")
    if lines[-1] != "" or any(line.endswith("\r") for line in lines):
        return ["output does not end in a single LF line ending"]
    lines = lines[:-1]
    n_comments = len(comments)
    if lines[:n_comments] != comments:
        return [f"comment lines {lines[:n_comments]!r}, expected {comments!r}"]
    if len(lines) == n_comments:
        return ["no header line"]
    header = list(expected_rows[0])
    if lines[n_comments].split(",") != header:
        return [f"header {lines[n_comments]!r}, expected {','.join(header)!r}"]
    body = lines[n_comments + 1 :]
    problems = []
    if len(body) != len(expected_rows):
        problems.append(f"{len(body)} rows, expected {len(expected_rows)}")
    for line, expected in zip(body, expected_rows):
        cells = line.split(",")
        if len(cells) != len(header):
            problems.append(f"d={expected['d']}: {len(cells)} cells, expected {len(header)}")
            continue
        bad = [p for p in map(_value_problem, header, cells, expected.values()) if p]
        if bad:
            problems.append(f"d={expected['d']}: " + "; ".join(bad))
    if len(problems) > 20:
        problems = problems[:20] + [f"... {len(problems) - 20} more"]
    return problems


def check_verify_report(text: str) -> list[str]:
    """Every baseline check is present, passes, and is no looser than at baseline."""
    try:
        report = json.loads(text)
        by_name = {entry["name"]: entry for entry in report}
    except (ValueError, TypeError, KeyError) as exc:
        return [f"report is not a JSON list of named checks: {exc}"]
    problems = []
    for name, tol in VERIFY_BASELINE.items():
        entry = by_name.get(name)
        if entry is None:
            problems.append(f"{name}: missing")
        elif entry.get("pass") is not True:
            problems.append(f"{name}: did not pass")
        elif not _number_at_most(entry.get("tolerance"), tol):
            problems.append(f"{name}: tolerance {entry.get('tolerance')} looser than {tol}")
        elif not _number_at_most(entry.get("max_error"), tol):
            problems.append(f"{name}: max_error {entry.get('max_error')} above {tol}")
    return problems


def _number_at_most(value, limit: float) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and value <= limit
