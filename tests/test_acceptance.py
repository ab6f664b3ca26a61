"""Acceptance suite.

One test per criterion of the reproduction.  Apart from the qubit anchors,
each criterion names the `verify` checks that establish it; the checks run
once per session (see conftest.py) at their declared tolerances.  The figure
data orderings are checked on the CLI output in test_cli.TestFigure.
"""

import numpy as np

from phaseclone.oracle import ParamChannel, qfim_numeric
from phaseclone.qfim import closed_qfim
from phaseclone.states import PhaseVector


def test_criterion_1_uqcm_qubit_anchor():
    p = PhaseVector.random(2, np.random.default_rng(1))
    assert abs(closed_qfim(ParamChannel("uqcm"), 2)[0, 0] - 4 / 9) <= 1e-14
    assert abs(qfim_numeric(ParamChannel("uqcm"), p)[0, 0] - 4 / 9) <= 1e-5


def test_criterion_2_pqcm_qubit_anchor():
    p = PhaseVector.random(2, np.random.default_rng(2))
    assert abs(closed_qfim(ParamChannel("pqcm"), 2)[0, 0] - 0.5) <= 1e-14
    assert abs(qfim_numeric(ParamChannel("pqcm"), p)[0, 0] - 0.5) <= 1e-5


def test_criterion_3_scaling_form_fidelity(check):
    check(
        "scaling_form_uqcm", "scaling_form_pqcm",
        "fidelity_phase_independence_uqcm", "fidelity_phase_independence_pqcm",
    )


def test_criterion_4_spectral_route_equivalence(check):
    check("spectral_vs_closed_uqcm", "spectral_vs_closed_pqcm", "uqcm_diagonal_term_sums")


def test_criterion_5_matrix_ordering(check):
    check("pqcm_minus_uqcm_psd")


def test_criterion_6_variance_bounds(check):
    check("variance_pure_closed_form", "variance_trace_inverse", "variance_ordering")


def test_criterion_7_attainability(check):
    check("attainability_closed_zero", "attainability_numeric_zero")


def test_criterion_8_asymptotics_and_monotonicity(check):
    # strictly positive slopes in eta: test_qfim.TestShrinkClosed.test_monotone_in_eta
    check("eta_uqcm_large_d_limit", "eta_pqcm_large_d_limit", "eta_gap_large_d", "qfim_monotone_in_eta")


def test_criterion_9_relation_invariant(check):
    # every closed form up to d=64; spectral matrices: test_qfim.test_spectral_route_property
    check("diag_offdiag_relation")


def test_criterion_10_figure_reproduction(check):
    # figures 1, 2 and 3 plot these quantities
    check("information_shrinks_under_cloning", "pqcm_diagonal_dominates", "variance_ordering")
