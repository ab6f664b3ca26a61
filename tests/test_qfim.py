import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from phaseclone.channels import ParamChannel, eta_pqcm, eta_uqcm
from phaseclone.qfim import (
    CLOSED_FORM_DMAX,
    SpectralDecomposition,
    closed_entries,
    closed_qfim,
    equatorial_structure_residuals,
    qfim_from_spectral,
    qfim_pqcm_entries,
    qfim_pure_entries,
    qfim_shrink_entries,
    qfim_shrink_spectral,
    qfim_uqcm_entries,
    reconstruct_density,
    spectral_output,
    uqcm_diagonal_terms,
)
from phaseclone.channels import shrink_output
from phaseclone.crb import attainability_closed, total_variance_bound
from phaseclone.states import TWO_PI, PhaseVector, basis_derivatives

PURE, UQCM, PQCM = ParamChannel("pure"), ParamChannel("uqcm"), ParamChannel("pqcm")


class TestPureQfim:
    def test_qubit(self):
        assert_allclose(closed_qfim(PURE, 2), [[1.0]])

    def test_qutrit(self):
        # 4(1/3 - 1/9) = 8/9 on the diagonal, -4/9 off it
        expect = np.array([[8 / 9, -4 / 9], [-4 / 9, 8 / 9]])
        assert_allclose(closed_qfim(PURE, 3), expect, atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 5, 12])
    def test_inverse_eigenvalues(self, d):
        # reciprocal spectrum d^2/4 (once) and d/4 (d-2 times)
        inv_eigs = np.sort(np.linalg.eigvalsh(np.linalg.inv(closed_qfim(PURE, d))))
        expect = np.sort(np.concatenate((np.full(d - 2, d / 4.0), [d * d / 4.0])))
        assert_allclose(inv_eigs, expect, atol=1e-10)


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

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            qfim_shrink_entries(CLOSED_FORM_DMAX + 1, 0.5)


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

    def test_pqcm_minus_uqcm_psd(self, check):
        check("pqcm_minus_uqcm_psd")

    def test_pqcm_diagonal_dominates(self, check):
        check("pqcm_diagonal_dominates")

    def test_cloning_shrinks_information(self, check):
        check("information_shrinks_under_cloning")


class TestStructureResiduals:
    @pytest.mark.parametrize("d", [2, 3, 8, 32])
    def test_relation_holds_for_all_families(self, d):
        for ch in (PURE, UQCM, PQCM, ParamChannel("shrink", 0.37)):
            f = closed_qfim(ch, d)
            dspread, ospread, relation = equatorial_structure_residuals(f)
            assert dspread < 1e-10
            assert ospread < 1e-10
            assert relation < 1e-10

    def test_relation_up_to_d64(self):
        # every closed form at each d, a random eta, and the spectral matrices
        rng = np.random.default_rng(9)
        for d in range(2, 65):
            family = [closed_qfim(PURE, d), closed_qfim(UQCM, d), closed_qfim(PQCM, d)]
            family.append(closed_qfim(ParamChannel("shrink", rng.uniform(0.2, 1.0)), d))
            if d <= 10:
                family.append(qfim_shrink_spectral(PhaseVector.random(d, rng), eta_uqcm(d)))
            assert max(max(equatorial_structure_residuals(f)) for f in family) < 1e-10

    def test_detects_broken_structure(self):
        f = closed_qfim(PURE, 4).copy()
        f[0, 0] += 0.1
        assert equatorial_structure_residuals(f)[0] > 0.05


class TestSpectralRoute:
    @pytest.mark.parametrize("k", [2, 4, 5])
    def test_reconstruction_of_a_stack(self, k):
        # at k = d = 4 a transposed (d, d, k) stack would broadcast into a wrong result
        stack = PhaseVector.random(4, np.random.default_rng(k), k)
        got = reconstruct_density(spectral_output(stack, 0.6))
        assert got.shape == (k, 4, 4)
        for row, phases in zip(got, stack.phases):
            assert np.array_equal(row, reconstruct_density(spectral_output(PhaseVector(4, phases), 0.6)))

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

    @pytest.mark.parametrize("d", range(2, 11))
    def test_reproduces_uqcm_closed_form(self, d):
        p = PhaseVector.random(d, np.random.default_rng(50 + d))
        f = qfim_shrink_spectral(p, eta_uqcm(d))
        assert np.abs(f - closed_qfim(UQCM, d)).max() < 1e-10

    @pytest.mark.parametrize("d", range(2, 11))
    def test_reproduces_pqcm_closed_form(self, d):
        p = PhaseVector.random(d, np.random.default_rng(60 + d))
        f = qfim_shrink_spectral(p, eta_pqcm(d))
        assert np.abs(f - closed_qfim(PQCM, d)).max() < 1e-10

    def test_rank_one_reduces_to_pure(self):
        d = 6
        p = PhaseVector.random(d, np.random.default_rng(1))
        f = qfim_shrink_spectral(p, 1.0)
        assert np.abs(f - closed_qfim(PURE, d)).max() < 1e-12

    def test_empty_support_raises(self):
        sd = SpectralDecomposition(np.zeros(3), np.eye(3, dtype=complex))
        with pytest.raises(ValueError):
            qfim_from_spectral(sd, np.zeros((2, 3, 3), dtype=complex))

    def test_phase_independence(self, check):
        check("qfim_phase_independence")


class TestDiagonalTermSums:
    def test_qubit_values(self):
        # 4/d = 2 and 2(8+28+16+4)/(3*6*4) = 14/9; difference is the 4/9 diagonal
        first, second = uqcm_diagonal_terms(2)
        assert first == pytest.approx(2.0, abs=1e-12)
        assert second == pytest.approx(14 / 9, abs=1e-12)
        assert first - second == pytest.approx(4 / 9, abs=1e-12)

    @pytest.mark.parametrize("d", range(2, 13))
    def test_closed_forms(self, d):
        p = PhaseVector.random(d, np.random.default_rng(d))
        first, second = uqcm_diagonal_terms(d, p)
        second_closed = 2 * (d**3 + 7 * d**2 + 8 * d + 4) / ((d + 1) * (d + 4) * d**2)
        assert abs(first - 4 / d) < 1e-10
        assert abs(second - second_closed) < 1e-10
        assert abs((first - second) - qfim_uqcm_entries(d)[0]) < 1e-10

    @pytest.mark.parametrize(
        "p", [PhaseVector.zero(3), PhaseVector.zero(5), PhaseVector(4, np.zeros((2, 3)))],
        ids=["d3", "d5", "stack"],
    )
    def test_rejects_a_point_of_another_dimension_or_a_stack(self, p):
        with pytest.raises(ValueError, match="dim=3|dim=5|one phase point"):
            uqcm_diagonal_terms(4, p)


_phase = st.one_of(
    st.floats(0.0, TWO_PI, exclude_max=True),
    st.floats(TWO_PI - 1e-9, TWO_PI + 1e-9),
    st.floats(-1e-9, 1e-9),
)
# uniform, small, and within 1e-11 of 1, where (1-eta)/d is a tiny support eigenvalue
_eta = st.one_of(
    st.just(1.0), st.floats(1e-6, 1.0), st.floats(1e-6, 1e-3), st.floats(1.0 - 1e-11, 1.0)
)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), d=st.integers(2, 64), eta=_eta)
def test_spectral_route_property(data, d, eta):
    p = PhaseVector(d, data.draw(st.lists(_phase, min_size=d - 1, max_size=d - 1)))
    sd, dvecs = spectral_output(p, eta), basis_derivatives(p)
    f = qfim_from_spectral(sd, dvecs)
    fdiag, foff = closed_entries(ParamChannel("shrink", eta), d)
    off = f[~np.eye(d - 1, dtype=bool)]
    # rounding of the O(1/d) spectral terms; the support is lam > 0, so no
    # eigenvalue is cut, however close eta is to 1
    tol = 1e-14 + 1e-13 * fdiag
    assert np.all(np.abs(np.diag(f) - fdiag) <= tol)
    assert np.all(np.abs(off - foff) <= tol)
    # F_diag = -(d-1) F_off, entry by entry
    assert np.abs(np.diag(f)[:, None] + (d - 1) * off[None, :]).max(initial=0.0) <= tol
    assert np.abs(attainability_closed(sd, dvecs)).max() <= 1e-10


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 64))
def test_pqcm_dominates_uqcm_property(d):
    """PQCM >= UQCM in the Loewner order: the gap matrix has no negative eigenvalue."""
    gap = closed_qfim(PQCM, d) - closed_qfim(UQCM, d)
    assert np.linalg.eigvalsh(gap)[0] >= -1e-12


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
