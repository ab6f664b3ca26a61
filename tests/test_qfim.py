import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from strategies import phase
from test_stacks import check_stack

from phaseclone.channels import ParamChannel, eta_pqcm, eta_uqcm
from phaseclone.qfim import (
    CLOSED_FORM_DMAX,
    SpectralDecomposition,
    _spectral_terms,
    _support_blocks,
    closed_entries,
    closed_qfim,
    qfim_from_spectral,
    qfim_pqcm_entries,
    qfim_pure_entries,
    qfim_shrink_entries,
    qfim_uqcm_entries,
    reconstruct_density,
    spectral_output,
)
from phaseclone.channels import shrink_output
from phaseclone.crb import attainability_closed, total_variance_bound
from phaseclone.states import PhaseVector, basis_derivatives, complement_basis

PURE, UQCM, PQCM = ParamChannel("pure"), ParamChannel("uqcm"), ParamChannel("pqcm")


class TestPureQfim:
    def test_qubit(self):
        assert_allclose(closed_qfim(PURE, 2), [[1.0]])

    def test_qutrit(self):
        # 4(1/3 - 1/9) = 8/9 on the diagonal, -4/9 off it
        expect = np.array([[8 / 9, -4 / 9], [-4 / 9, 8 / 9]])
        assert_allclose(closed_qfim(PURE, 3), expect, atol=1e-15)


class TestShrinkClosed:
    @pytest.mark.parametrize("d", [2, 3, 7, 20])
    def test_eta_one_is_pure(self, d):
        shrink = closed_qfim(ParamChannel("shrink", 1.0), d)
        assert_allclose(shrink, closed_qfim(PURE, d), rtol=0, atol=1e-15)

    def test_qubit_uqcm_point(self):
        assert qfim_shrink_entries(2, 2 / 3)[0] == pytest.approx(4 / 9, abs=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 9, 32])
    def test_monotone_in_eta(self, d):
        # finite differences of the diagonal entry over an eta grid
        etas = np.linspace(0.1, 1.0, 19)
        diags = np.array([qfim_shrink_entries(d, e)[0] for e in etas])
        slopes = (diags[2:] - diags[:-2]) / (etas[2:] - etas[:-2])
        assert np.all(slopes > 0)

    def test_eta_domain(self):
        with pytest.raises(ValueError):
            qfim_shrink_entries(3, 0.0)
        with pytest.raises(ValueError):
            qfim_shrink_entries(3, 1.5)
        # an eta that is not a real number is a ValueError, not a TypeError from the range test
        for call in (
            lambda: total_variance_bound(5, "0.5"),
            lambda: total_variance_bound(5, None),
            lambda: qfim_shrink_entries(3, 0.5 + 0j),
            lambda: ParamChannel("shrink", True),
        ):
            with pytest.raises(ValueError, match="real number"):
                call()
        # an integer eta is a real number
        assert qfim_shrink_entries(3, 1) == qfim_shrink_entries(3, 1.0)

    @pytest.mark.parametrize("eta", [1e-160, 1e-170, 5e-324])
    def test_underflowing_eta_rejected(self, eta):
        # |F_off(3)| = 4 eta^2/(3 (2 + eta)) is subnormal or zero
        for route in (
            lambda: qfim_shrink_entries(3, eta),
            lambda: closed_qfim(ParamChannel("shrink", eta), 3),
            lambda: total_variance_bound(3, eta),
        ):
            with pytest.raises(ValueError, match="too small"):
                route()

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            qfim_shrink_entries(CLOSED_FORM_DMAX + 1, 0.5)

    def test_closed_qfim_rejects_a_column(self):
        # the entry forms take a column of d; the (d-1, d-1) matrix takes one d
        with pytest.raises(ValueError, match="dimension must be an integer >= 2"):
            closed_qfim(UQCM, np.arange(2, 5))


class TestClonerClosedForms:
    def test_uqcm_qubit_anchor(self):
        assert abs(closed_qfim(UQCM, 2)[0, 0] - 4 / 9) <= 1e-14

    def test_uqcm_qutrit(self):
        # 2*2*25 / (4*7*9) = 100/252
        assert qfim_uqcm_entries(3)[0] == pytest.approx(100 / 252, abs=1e-15)

    def test_pqcm_qubit_anchor(self):
        assert abs(closed_qfim(PQCM, 2)[0, 0] - 0.5) <= 1e-14

    def test_pqcm_qutrit(self):
        g = np.sqrt(17.0)
        assert qfim_pqcm_entries(3)[0] == pytest.approx(2 * (9 + g) / (3 * (17 + g)), abs=1e-14)

    @pytest.mark.parametrize("d", range(2, 65))
    def test_uqcm_equals_generic_shrink(self, d):
        fu, fs = qfim_uqcm_entries(d), qfim_shrink_entries(d, eta_uqcm(d))
        assert abs(fu[0] - fs[0]) <= 1e-14
        assert abs(fu[1] - fs[1]) <= 1e-14

    @pytest.mark.parametrize("d", range(2, 65))
    def test_pqcm_equals_generic_shrink(self, d):
        fp, fs = qfim_pqcm_entries(d), qfim_shrink_entries(d, eta_pqcm(d))
        assert abs(fp[0] - fs[0]) <= 1e-12
        assert abs(fp[1] - fs[1]) <= 1e-12


class TestSpectralRoute:
    @pytest.mark.parametrize("k", [2, 4, 5])
    def test_reconstruction_of_a_stack(self, k):
        # at k = d = 4 a transposed (d, d, k) stack would broadcast into a wrong result
        check_stack(lambda p: reconstruct_density(spectral_output(p, 0.6)), 4, ks=(k,))

    @pytest.mark.parametrize("d,eta", [(2, 0.5), (4, 0.8), (7, 1.0)])
    def test_reconstruction(self, d, eta):
        p = PhaseVector.random(d, np.random.default_rng(d))
        sd = spectral_output(p, eta)
        assert np.abs(reconstruct_density(sd) - shrink_output(p, eta)).max() < 1e-12

    def test_support_rank_pure(self):
        # (1-eta)/d is exactly 0 at eta = 1: one nonzero eigenvalue
        assert np.count_nonzero(spectral_output(PhaseVector.zero(5), 1.0).eigenvalues) == 1

    def test_uqcm_qutrit_eigenvalues(self):
        sd = spectral_output(PhaseVector.zero(3), eta_uqcm(3))
        assert_allclose(sd.eigenvalues, [0.75, 0.125, 0.125], atol=1e-15)
        assert np.all(sd.eigenvalues > 0)

    def test_rank_one_reduces_to_pure(self):
        d = 6
        p = PhaseVector.random(d, np.random.default_rng(1))
        f = qfim_from_spectral(spectral_output(p, 1.0))
        assert np.abs(f - closed_qfim(PURE, d)).max() < 1e-12

    def test_empty_support_raises(self):
        sd = SpectralDecomposition(np.zeros(3), np.eye(3, dtype=complex), np.zeros((2, 3, 3), dtype=complex))
        with pytest.raises(ValueError):
            qfim_from_spectral(sd)

    @pytest.mark.parametrize("eta", [[0.2, 0.5, 0.9], [0.2, 0.5], [[0.5]]], ids=["3", "2", "1x1"])
    def test_eta_array_rejected(self, eta):
        with pytest.raises(ValueError, match="one eta"):
            spectral_output(PhaseVector.zero(3), np.array(eta))

    @pytest.mark.parametrize("d", range(2, 10))
    @pytest.mark.parametrize("eta", [1.0, 0.4], ids=["support1", "supportd"])
    @pytest.mark.parametrize("k", [None, 0, 1, 10])
    def test_support_overlaps_equal_the_contraction(self, d, eta, k):
        """The one-matmul overlaps g[..., m, i, j] = <d_m psi_i|psi_j> against an einsum."""
        sd = spectral_output(PhaseVector.random(d, np.random.default_rng(d), k), eta)
        ls, dsup, g = _support_blocks(sd)
        sup = np.flatnonzero(sd.eigenvalues > 0)
        assert sup.size == (1 if eta == 1.0 else d)
        ref = np.einsum("...mic,...jc->...mij", dsup.conj(), sd.eigenvectors[..., sup, :])
        assert g.shape == ref.shape == dsup.shape[:-1] + (sup.size,)
        assert_allclose(g, ref, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 5, 6, 8])
    def test_stack_carries_its_derivatives(self, d):
        # one complement basis serves the eigenvectors and their derivatives
        stack = PhaseVector.random(d, np.random.default_rng(70 + d), 4)
        sd = spectral_output(stack, 0.6)
        assert sd.derivatives.shape == (4, d - 1, d, d)
        assert np.array_equal(sd.eigenvectors, complement_basis(stack))
        assert np.array_equal(sd.derivatives, basis_derivatives(stack))


class TestDiagonalTermSums:
    def test_qubit_values(self):
        # 4/d = 2 and 2(8+28+16+4)/(3*6*4) = 14/9; difference is the 4/9 diagonal
        sd = spectral_output(PhaseVector.zero(2), eta_uqcm(2))
        first, second = (float(t[0, 0].real) for t in _spectral_terms(sd))
        assert first == pytest.approx(2.0, abs=1e-12)
        assert second == pytest.approx(14 / 9, abs=1e-12)
        assert first - second == pytest.approx(4 / 9, abs=1e-12)


# uniform, small, and within 1e-11 of 1, where (1-eta)/d is a tiny support eigenvalue
_eta = st.one_of(
    st.just(1.0), st.floats(1e-6, 1.0), st.floats(1e-6, 1e-3), st.floats(1.0 - 1e-11, 1.0)
)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), d=st.integers(2, 64), eta=_eta)
def test_spectral_route_property(data, d, eta):
    p = PhaseVector(d, data.draw(st.lists(phase, min_size=d - 1, max_size=d - 1)))
    sd = spectral_output(p, eta)
    f = qfim_from_spectral(sd)
    fdiag, foff = closed_entries(ParamChannel("shrink", eta), d)
    off = f[~np.eye(d - 1, dtype=bool)]
    # rounding of the O(1/d) spectral terms; the support is lam > 0, so no
    # eigenvalue is cut, however close eta is to 1
    tol = 1e-14 + 1e-13 * fdiag
    assert np.all(np.abs(np.diag(f) - fdiag) <= tol)
    assert np.all(np.abs(off - foff) <= tol)
    # F_diag = -(d-1) F_off, entry by entry
    assert np.abs(np.diag(f)[:, None] + (d - 1) * off[None, :]).max(initial=0.0) <= tol
    assert np.abs(attainability_closed(sd)).max() <= 1e-10


@pytest.mark.parametrize("int_type", [int, np.int32, np.int64])
@pytest.mark.parametrize("d", [46341, 60000, 10**6])
def test_numpy_integer_dimensions(d, int_type):
    """A numpy integer d gives the Python-int results: fixed-width products such
    as d**2 or (d+1)(d+4)d^2 would overflow inside CLOSED_FORM_DMAX."""
    n = int_type(d)
    for entries in (
        qfim_pure_entries, qfim_uqcm_entries, qfim_pqcm_entries, lambda d: qfim_shrink_entries(d, 0.3)
    ):
        fdiag, foff = entries(n)
        assert (fdiag, foff) == entries(d)
        assert fdiag > 0 > foff and fdiag == pytest.approx(-(d - 1) * foff, rel=1e-12)
    assert (eta_uqcm(n), eta_pqcm(n)) == (eta_uqcm(d), eta_pqcm(d))
    assert 0.5 < eta_uqcm(n) <= eta_pqcm(n) < 0.51  # the gap is below rounding at d = 10**6
    assert total_variance_bound(n, 0.3) == total_variance_bound(d, 0.3) > 0
