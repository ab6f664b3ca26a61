import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from phaseclone.channels import eta_pqcm, eta_uqcm
from phaseclone.crb import (
    _attainability_raw_weight,
    attainability_closed,
    qfim_eigenvalues,
    total_variance_bound,
)
from phaseclone.qfim import (
    SpectralDecomposition,
    qfim_pqcm_closed,
    qfim_pure,
    qfim_shrink_closed,
    qfim_shrink_entries,
    qfim_uqcm_closed,
    spectral_output,
)
from phaseclone.states import PhaseVector, basis_derivatives


class TestAttainability:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_vanishes_for_equatorial_family(self, d):
        rng = np.random.default_rng(d)
        for eta in (1.0, eta_uqcm(d), eta_pqcm(d)):
            for _ in range(3):
                p = PhaseVector.random(d, rng)
                a = attainability_closed(spectral_output(p, eta), basis_derivatives(p))
                assert np.abs(a).max() < 1e-10

    def test_pure_state_vanishes(self):
        # rank-1 support: only the state itself contributes
        p = PhaseVector.random(6, np.random.default_rng(0))
        a = attainability_closed(spectral_output(p, 1.0), basis_derivatives(p))
        assert np.abs(a).max() < 1e-12

    def test_antisymmetry(self):
        p = PhaseVector.random(5, np.random.default_rng(1))
        a = attainability_closed(spectral_output(p, 0.6), basis_derivatives(p))
        assert np.abs(a + a.T).max() < 1e-12
        assert np.all(np.diag(a) == 0.0)

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_weight_forms_agree(self, d):
        # symmetrized (lam_k - lam_l) weight equals the raw 16 lam^2 lam form
        # after the antisymmetric-sum identity
        p = PhaseVector.random(d, np.random.default_rng(d))
        sd = spectral_output(p, eta_uqcm(d))
        dv = basis_derivatives(p)
        assert np.abs(attainability_closed(sd, dv) - _attainability_raw_weight(sd, dv)).max() < 1e-12

    def test_empty_support_raises(self):
        sd = SpectralDecomposition(np.zeros(3), np.eye(3, dtype=complex), 0)
        with pytest.raises(ValueError):
            attainability_closed(sd, np.zeros((2, 3, 3), dtype=complex))


class TestStructuredEigenvalues:
    @pytest.mark.parametrize("d", [3, 5, 12])
    def test_pure_state_values(self, d):
        lam1, lam2, mult2 = qfim_eigenvalues(qfim_pure(d))
        assert lam1 == pytest.approx(4 / d**2, abs=1e-14)
        assert lam2 == pytest.approx(4 / d, abs=1e-14)
        assert mult2 == d - 2

    def test_qubit_single_eigenvalue(self):
        lam1, lam2, mult2 = qfim_eigenvalues(qfim_pure(2))
        assert lam1 == pytest.approx(1.0)
        assert np.isnan(lam2)
        assert mult2 == 0

    @pytest.mark.parametrize("d", [3, 7, 20])
    def test_matches_dense_eigensolver(self, d):
        for f in (qfim_uqcm_closed(d), qfim_pqcm_closed(d), qfim_shrink_closed(d, 0.55)):
            lam1, lam2, mult2 = qfim_eigenvalues(f)
            structured = np.sort(np.concatenate(([lam1], np.full(mult2, lam2))))
            assert_allclose(structured, np.linalg.eigvalsh(f), atol=1e-10)

    def test_rejects_unstructured_matrix(self):
        f = qfim_pure(4).copy()
        f[0, 1] += 1e-3
        with pytest.raises(ValueError):
            qfim_eigenvalues(f)
        g = qfim_pure(4).copy()
        g[1, 1] += 1e-3
        with pytest.raises(ValueError):
            qfim_eigenvalues(g)


class TestTotalVarianceBound:
    @pytest.mark.parametrize("d", range(2, 65))
    def test_pure_input_closed_form(self, d):
        assert total_variance_bound(d, 1.0).total_variance_min == d * (d - 1) / 2

    def test_qubit_uqcm_point(self):
        # 1/F with F = 4/9
        assert total_variance_bound(2, 2 / 3).total_variance_min == pytest.approx(9 / 4, abs=1e-14)

    @pytest.mark.parametrize("d", [2, 5, 17, 32])
    def test_trace_inverse_agreement(self, d):
        for eta in (0.3, 0.5, eta_uqcm(d), eta_pqcm(d), 1.0):
            vb = total_variance_bound(d, eta)
            dense = np.trace(np.linalg.inv(qfim_shrink_closed(d, eta))).real
            assert abs(vb.total_variance_min - dense) < 1e-8

    def test_per_parameter_bounds_are_inverse_diagonal(self):
        d, eta = 6, 0.7
        vb = total_variance_bound(d, eta)
        finv = np.linalg.inv(qfim_shrink_closed(d, eta))
        assert_allclose(vb.per_parameter_bounds, np.diag(finv).real)
        assert np.all(vb.per_parameter_bounds > 0)

    @pytest.mark.parametrize("d", [2, 4, 9])
    def test_monotone_decreasing_in_eta(self, d):
        grid = np.linspace(0.1, 1.0, 10)
        bounds = [total_variance_bound(d, e).total_variance_min for e in grid]
        assert np.all(np.diff(bounds) < 0)

    def test_machine_ordering(self):
        for d in range(2, 21):
            e_in = total_variance_bound(d, 1.0).total_variance_min
            e_u = total_variance_bound(d, eta_uqcm(d)).total_variance_min
            e_p = total_variance_bound(d, eta_pqcm(d)).total_variance_min
            assert e_in < e_p < e_u

    def test_eta_domain(self):
        with pytest.raises(ValueError):
            total_variance_bound(3, 0.0)
        with pytest.raises(ValueError):
            total_variance_bound(3, 1.0001)


# d reaches the largest figure-3 sweep the benchmark runs; eta draws include both cloners
@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(2, 250),
    eta=st.one_of(st.floats(1e-3, 1.0), st.sampled_from((eta_uqcm, eta_pqcm))),
)
def test_variance_closed_form_matches_dense_inverse(d, eta):
    if callable(eta):
        eta = eta(d)
    vb = total_variance_bound(d, eta)
    finv = np.linalg.inv(qfim_shrink_closed(d, eta))
    assert vb.total_variance_min == pytest.approx(np.trace(finv), rel=1e-8)
    relation = -2.0 * (d - 1) / (d * qfim_shrink_entries(d, eta)[1])
    assert vb.total_variance_min == pytest.approx(relation, rel=1e-10)
    assert_allclose(vb.per_parameter_bounds, np.diag(finv), rtol=1e-8)
