import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from phaseclone.channels import ParamChannel, eta_pqcm, eta_uqcm
from phaseclone.crb import (
    _attainability_raw_weight,
    attainability_closed,
    qfim_eigenvalues,
    total_variance_bound,
)
from phaseclone.oracle import sld_solve
from phaseclone.qfim import (
    SpectralDecomposition,
    closed_entries,
    closed_qfim,
    qfim_from_spectral,
    qfim_shrink_entries,
    spectral_output,
)
from phaseclone.states import PhaseVector
from test_stacks import ROUTINES, check_stack


@pytest.mark.parametrize("d", [2, 3, 5, 9])
def test_spectral_route_maps_a_stack(d):
    for fn in (qfim_from_spectral, attainability_closed, _attainability_raw_weight):
        for eta in ("1.0", "eta_uqcm", "0.3"):
            check_stack(ROUTINES[f"{fn.__name__}(spectral_output({eta}))"], d, ks=(4,))


class TestAttainability:
    def test_pure_state_vanishes(self):
        # rank-1 support: only the state itself contributes
        p = PhaseVector.random(6, np.random.default_rng(0))
        a = attainability_closed(spectral_output(p, 1.0))
        assert np.abs(a).max() < 1e-12

    def test_antisymmetry(self):
        p = PhaseVector.random(5, np.random.default_rng(1))
        a = attainability_closed(spectral_output(p, 0.6))
        assert np.abs(a + a.T).max() < 1e-12
        assert np.all(np.diag(a) == 0.0)

    def test_empty_support_raises(self):
        sd = SpectralDecomposition(np.zeros(3), np.eye(3, dtype=complex), np.zeros((2, 3, 3), dtype=complex))
        with pytest.raises(ValueError):
            attainability_closed(sd)

    @pytest.mark.parametrize("d,rank", [(2, 2), (3, 3), (4, 2), (5, 5)])
    def test_matches_the_oracle_where_it_is_not_zero(self, d, rank):
        """rho(t) = U rho_0 U^dagger, U = exp(-i(t_1 H_1 + t_2 H_2)) with random
        non-commuting H_m: at t = 0 the eigenvector derivatives are -i H_m v_i
        exactly, and Im Tr(rho L_1 L_2) is not zero."""
        rng = np.random.default_rng(d)
        gens = rng.normal(size=(2, d, d)) + 1j * rng.normal(size=(2, d, d))
        gens = (gens + gens.conj().swapaxes(-1, -2)) / 2
        lam = np.zeros(d)
        lam[:rank] = np.sort(rng.uniform(0.1, 1.0, rank))[::-1]
        lam /= lam.sum()
        q = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
        sd = SpectralDecomposition(lam, q.T, -1j * (gens @ q).swapaxes(-1, -2))

        def rho(t):
            w, v = np.linalg.eigh(t[0] * gens[0] + t[1] * gens[1])
            u = (v * np.exp(-1j * w)) @ v.conj().T
            return u @ (q * lam) @ q.conj().T @ u.conj().T

        h = 1e-5
        drho = np.stack([(rho(h * e) - rho(-h * e)) / (2 * h) for e in np.eye(2)])
        rho0 = rho(np.zeros(2))
        slds = sld_solve(rho0, drho)
        g = np.einsum("ab,mbc,nca->mn", rho0, slds, slds)
        assert np.abs(g.imag).max() > 1e-3
        assert_allclose(attainability_closed(sd), g.imag, rtol=0, atol=1e-7)
        assert_allclose(_attainability_raw_weight(sd), g.imag, rtol=0, atol=1e-7)
        assert_allclose(qfim_from_spectral(sd), g.real, rtol=0, atol=1e-7)


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

    @pytest.mark.parametrize("d", [1, 0, 3.0])
    def test_rejects_a_bad_dimension(self, d):
        with pytest.raises(ValueError, match="dimension must be an integer"):
            qfim_eigenvalues(d, 1.0, 0.0)

    @pytest.mark.parametrize("d", [3, 7, 20])
    def test_matches_dense_eigensolver(self, d):
        for ch in (ParamChannel("uqcm"), ParamChannel("pqcm"), ParamChannel("shrink", 0.55)):
            lam1, lam2 = qfim_eigenvalues(d, *closed_entries(ch, d))
            structured = np.sort(np.concatenate(([lam1], np.full(d - 2, lam2))))
            assert_allclose(structured, np.linalg.eigvalsh(closed_qfim(ch, d)), atol=1e-10)


class TestTotalVarianceBound:
    @pytest.mark.parametrize("d", range(2, 41))
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
    total = total_variance_bound(d, eta)
    finv = np.linalg.inv(closed_qfim(ParamChannel("shrink", eta), d))
    assert total == pytest.approx(np.trace(finv), rel=1e-8)
    relation = -2.0 * (d - 1) / (d * qfim_shrink_entries(d, eta)[1])
    assert total == pytest.approx(relation, rel=1e-10)
    assert_allclose(np.diag(finv), total / (d - 1), rtol=1e-8)
