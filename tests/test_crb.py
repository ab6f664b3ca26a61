from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from phaseclone.channels import ParamChannel, eta_pqcm, eta_uqcm, shrink_output
from phaseclone.crb import (
    attainability_closed,
    qfim_eigenvalues,
    total_variance_bound,
)
from phaseclone.oracle import sld_pass
from phaseclone.qfim import (
    _gram,
    closed_entries,
    closed_qfim,
    qfim_from_spectral,
    qfim_shrink_entries,
    spectral_output,
)
from phaseclone.states import PhaseVector, phase_shift_unitary
from phaseclone.verify import RAW_WEIGHT


class TestAttainability:
    def test_pure_state_vanishes(self):
        # rank-1 support: only the state itself contributes
        p = PhaseVector.random(6, np.random.default_rng(0))
        a = attainability_closed(spectral_output(shrink_output(p, 1.0)))
        assert np.abs(a).max() < 1e-12

    def test_antisymmetry(self):
        p = PhaseVector.random(5, np.random.default_rng(1))
        a = attainability_closed(spectral_output(shrink_output(p, 0.6)))
        assert np.abs(a + a.T).max() < 1e-12
        assert np.all(np.diag(a) == 0.0)

    @pytest.mark.parametrize("d,rank", [(d, rank) for d in range(2, 7) for rank in range(1, d + 1)])
    def test_matches_the_oracle_where_it_is_not_zero(self, d, rank):
        """The phase family rho(phi) = U(phi) rho_0 U(phi)^dagger of a random complex
        rho_0 of the given rank, whose Im Tr(rho L_m L_n) is not zero: the whole
        complex G of the spectral route, and its raw-weight form, against the oracle's
        finite-difference pass on the same family."""
        rng = np.random.default_rng(10 * d + rank)
        x = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
        rho0 = x @ x.conj().T / np.vdot(x, x).real
        family = SimpleNamespace(
            density=lambda p: phase_shift_unitary(p) @ rho0 @ phase_shift_unitary(p).conj().swapaxes(-1, -2)
        )
        p = PhaseVector.random(d, rng)
        g = sld_pass(family, p).gram
        if d > 2 and rank > 1:  # Im G is zero for one phase and for a pure rho_0
            assert np.abs(g.imag).max() > 1e-2
        sd = spectral_output(family.density(p))
        assert_allclose(_gram(sd), g, rtol=0, atol=1e-9)
        assert_allclose(attainability_closed(sd), g.imag, rtol=0, atol=1e-9)
        assert_allclose(_gram(sd, RAW_WEIGHT).imag, g.imag, rtol=0, atol=1e-9)
        assert_allclose(qfim_from_spectral(sd), g.real, rtol=0, atol=1e-9)


class TestStructuredEigenvalues:
    @pytest.mark.parametrize("d", [3, 5, 12])
    def test_pure_state_values(self, d):
        lam1, lam2 = qfim_eigenvalues(d, *closed_entries(ParamChannel("pure"), d))
        assert lam1 == pytest.approx(4 / d**2, abs=1e-14)
        assert lam2 == pytest.approx(4 / d, abs=1e-14)

    def test_qubit_single_eigenvalue(self):
        lam1, lam2 = qfim_eigenvalues(2, *closed_entries(ParamChannel("pure"), 2))
        assert lam1 == pytest.approx(1.0)
        assert np.isnan(lam2)

    @pytest.mark.parametrize("d", [3, 7, 20])
    def test_matches_dense_eigensolver(self, d):
        for ch in (ParamChannel("uqcm"), ParamChannel("pqcm"), ParamChannel("shrink", 0.55)):
            lam1, lam2 = qfim_eigenvalues(d, *closed_entries(ch, d))
            structured = np.sort(np.concatenate(([lam1], np.full(d - 2, lam2))))
            assert_allclose(structured, np.linalg.eigvalsh(closed_qfim(ch, d)), atol=1e-10)


class TestTotalVarianceBound:
    @pytest.mark.parametrize("d", range(2, 25))
    def test_pure_input_closed_form(self, d):
        assert total_variance_bound(d, 1.0) == d * (d - 1) / 2

    def test_qubit_uqcm_point(self):
        # 1/F with F = 4/9
        assert total_variance_bound(2, 2 / 3) == pytest.approx(9 / 4, abs=1e-14)

    def test_per_parameter_bounds_are_inverse_diagonal(self):
        # each phase's own bound is total/(d-1): the inverse QFIM has a constant diagonal
        d, eta = 6, 0.7
        total = total_variance_bound(d, eta)
        finv = np.linalg.inv(closed_qfim(ParamChannel("shrink", eta), d))
        assert_allclose(np.diag(finv).real, np.full(d - 1, total / (d - 1)))
        assert total > 0

    @pytest.mark.parametrize("d", [2, 4, 9])
    def test_monotone_decreasing_in_eta(self, d):
        grid = np.linspace(0.1, 1.0, 10)
        bounds = [total_variance_bound(d, e) for e in grid]
        assert np.all(np.diff(bounds) < 0)

    def test_machine_ordering(self):
        for d in range(2, 21):
            e_in = total_variance_bound(d, 1.0)
            e_u = total_variance_bound(d, eta_uqcm(d))
            e_p = total_variance_bound(d, eta_pqcm(d))
            assert e_in < e_p < e_u

# d reaches the largest figure-3 sweep the benchmark runs; eta draws include both cloners
@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(2, 250),
    eta=st.one_of(st.floats(1e-3, 1.0), st.sampled_from((eta_uqcm, eta_pqcm))),
)
def test_variance_closed_form_matches_dense_inverse(d, eta):
    if callable(eta):
        eta = eta(d)
    total = total_variance_bound(d, eta)
    finv = np.linalg.inv(closed_qfim(ParamChannel("shrink", eta), d))
    assert total == pytest.approx(np.trace(finv), rel=1e-8)
    relation = -2.0 * (d - 1) / (d * qfim_shrink_entries(d, eta)[1])
    assert total == pytest.approx(relation, rel=1e-10)
    assert_allclose(np.diag(finv), total / (d - 1), rtol=1e-8)
