import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from strategies import phase

from phaseclone.channels import ParamChannel, eta_pqcm, eta_uqcm
from phaseclone.oracle import _central_differences
from phaseclone.qfim import (
    _gram,
    closed_entries,
    closed_qfim,
    qfim_from_spectral,
    qfim_pqcm_entries,
    qfim_pure_entries,
    qfim_shrink_entries,
    qfim_uqcm_entries,
    spectral_output,
)
from phaseclone.channels import shrink_output
from phaseclone.crb import attainability_closed, total_variance_bound
from phaseclone.states import PhaseVector
from phaseclone.verify import TERM_WEIGHTS

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

    def test_an_integer_eta_is_a_real_number(self):
        assert qfim_shrink_entries(3, 1) == qfim_shrink_entries(3, 1.0)


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

    # d = 2..21 is left to verify's uqcm_matches_generic_shrink and pqcm_matches_generic_shrink,
    # which assert both entries on d = 2..64 at these tolerances
    @pytest.mark.parametrize("d", range(22, 65))
    def test_uqcm_equals_generic_shrink(self, d):
        fu, fs = qfim_uqcm_entries(d), qfim_shrink_entries(d, eta_uqcm(d))
        assert abs(fu[0] - fs[0]) <= 1e-14
        assert abs(fu[1] - fs[1]) <= 1e-14

    @pytest.mark.parametrize("d", range(22, 65))
    def test_pqcm_equals_generic_shrink(self, d):
        fp, fs = qfim_pqcm_entries(d), qfim_shrink_entries(d, eta_pqcm(d))
        assert abs(fp[0] - fs[0]) <= 1e-12
        assert abs(fp[1] - fs[1]) <= 1e-12


class TestSpectralRoute:
    def test_peak_memory_is_two_contraction_tensors(self):
        # p, p * w and a conjugate copy of p are (10, 47, 48^2) complex tensors, 17 MB each;
        # conjugating p in place after p * w holds two of them, not three
        sd = spectral_output(UQCM.density(PhaseVector.random(48, np.random.default_rng(8), 10)))
        tracemalloc.start()
        try:
            qfim_from_spectral(sd)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * (10 * 47 * 48**2 * 16)

    @pytest.mark.parametrize("d,eta", [(2, 0.5), (4, 0.8), (7, 1.0)])
    def test_reconstruction(self, d, eta):
        # V diag(lam) V^dagger gives rho back, the rank-1 output (eta = 1) with its clipped eigenvalues included
        rho = shrink_output(PhaseVector.random(d, np.random.default_rng(d)), eta)
        sd = spectral_output(rho)
        v = sd.eigenvectors
        assert np.abs((v * sd.eigenvalues[None, :]) @ v.conj().T - rho).max() < 1e-12

    def test_support_rank_pure(self):
        # one eigenvalue 1; the other four are rounding, clipped at 0 from below
        lam = spectral_output(shrink_output(PhaseVector.random(5, np.random.default_rng(5)), 1.0)).eigenvalues
        assert lam.min() >= 0.0 and lam[:-1].max() < 1e-15
        assert lam[-1] == pytest.approx(1.0, abs=1e-15)

    def test_uqcm_qutrit_eigenvalues(self):
        # of the traced cloner: (1-eta)/d twice, then eta + (1-eta)/d
        sd = spectral_output(UQCM.density(PhaseVector.zero(3)))
        assert_allclose(sd.eigenvalues, [0.125, 0.125, 0.75], atol=1e-15)
        assert np.all(sd.eigenvalues > 0)

    def test_rank_one_reduces_to_pure(self):
        d = 6
        p = PhaseVector.random(d, np.random.default_rng(1))
        f = qfim_from_spectral(spectral_output(PURE.density(p)))
        assert np.abs(f - closed_qfim(PURE, d)).max() < 1e-12

    @pytest.mark.parametrize("d", range(2, 10))
    @pytest.mark.parametrize("eta", [1.0, 0.4], ids=["support1", "supportd"])
    @pytest.mark.parametrize("k", [None, 0, 1, 10])
    def test_support_overlaps_equal_the_contraction(self, d, eta, k):
        """G's one weighted matmul over the overlaps (P_m)_ij = <psi_i|m><m|psi_j>
        against an einsum of sum_ij w_ij (P_m)_ij (P_n)_ji, on a rank-1 and a
        full-rank output; w_ij = 0 where l_i + l_j is below eigh's floor d eps max(l)."""
        sd = spectral_output(shrink_output(PhaseVector.random(d, np.random.default_rng(d), k), eta))
        lam, v = sd.eigenvalues, sd.eigenvectors
        assert np.all(np.count_nonzero(lam > 1e-12, axis=-1) == (1 if eta == 1.0 else d))
        li, lj = lam[..., :, None], lam[..., None, :]
        floor = d * np.finfo(float).eps * lam.max(axis=-1)[..., None, None]
        w = 4.0 * li * ((li - lj) / np.where(li + lj > floor, li + lj, np.inf)) ** 2
        overlaps = np.einsum("...mi,...mj->...mij", v[..., 1:, :].conj(), v[..., 1:, :])
        ref = np.einsum("...ij,...mij,...nji->...mn", w, overlaps, overlaps)
        g = _gram(sd)
        assert g.shape == ref.shape == lam.shape[:-1] + (d - 1, d - 1)
        assert_allclose(g, ref, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 5, 6, 8])
    def test_stack_carries_its_derivatives(self, d):
        """The decomposition of a stack carries each point's derivatives through the
        generator identity d_m rho = i[P_m, rho]: on the rebuilt density they match
        the central differences of the traced cloner."""
        stack = PhaseVector.random(d, np.random.default_rng(70 + d), 4)
        sd = spectral_output(UQCM.density(stack))
        v = sd.eigenvectors
        rho = (v * sd.eigenvalues[..., None, :]) @ v.conj().swapaxes(-1, -2)
        proj = np.eye(d)[1:, :, None] * np.eye(d)[1:, None, :]  # P_m = |m><m|, m = 1..d-1
        generated = 1j * (proj @ rho[:, None] - rho[:, None] @ proj)
        assert np.abs(generated - _central_differences(UQCM.density, stack, 1e-5)).max() < 1e-9


class TestDiagonalTermSums:
    def test_qubit_values(self):
        # 4/d = 2 and 2(8+28+16+4)/(3*6*4) = 14/9; difference is the 4/9 diagonal
        sd = spectral_output(UQCM.density(PhaseVector.zero(2)))
        first, second = (float(_gram(sd, w)[0, 0].real) for w in TERM_WEIGHTS)
        assert first == pytest.approx(2.0, abs=1e-12)
        assert second == pytest.approx(14 / 9, abs=1e-12)
        assert first - second == pytest.approx(4 / 9, abs=1e-12)


# uniform, small, and within 1e-11 of 1, where (1-eta)/d is a tiny support eigenvalue;
# or one of the traced cloners
_channel = st.one_of(
    st.sampled_from([UQCM, PQCM]),
    st.builds(
        partial(ParamChannel, "shrink"),
        st.one_of(st.just(1.0), st.floats(1e-6, 1.0), st.floats(1e-6, 1e-3), st.floats(1.0 - 1e-11, 1.0)),
    ),
)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), d=st.integers(2, 64), ch=_channel)
def test_spectral_route_property(data, d, ch):
    p = PhaseVector(d, data.draw(st.lists(phase, min_size=d - 1, max_size=d - 1)))
    sd = spectral_output(ch.density(p))
    f = qfim_from_spectral(sd)
    fdiag, foff = closed_entries(ch, d)
    off = f[~np.eye(d - 1, dtype=bool)]
    # rounding of the O(1/d) spectral terms; no eigenvalue is cut, however close
    # eta is to 1: a rounding-sized eigenvalue carries a rounding-sized weight
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
