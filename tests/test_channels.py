import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from strategies import phase

from phaseclone import channels
from phaseclone.channels import (
    MACHINES,
    ParamChannel,
    eta_pqcm,
    eta_uqcm,
    pqcm_full_output,
    reduce_first_qudit,
    shrink_output,
    uqcm_full_output,
)
from phaseclone.states import PhaseVector, equatorial_state

# largest d at which the tests build the length-d^3 dense references
DENSE_DMAX = 32


def validate_density_matrix(rho, tol=1e-12):
    """Raise ValueError unless rho is Hermitian, unit-trace, and PSD within tol."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    herm = np.abs(rho - rho.conj().T).max()
    if herm > tol:
        raise ValueError(f"matrix is not Hermitian (deviation {herm:.3e})")
    tr = abs(np.trace(rho) - 1.0)
    if tr > tol:
        raise ValueError(f"trace deviates from 1 by {tr:.3e}")
    lam_min = np.linalg.eigvalsh(rho)[0]
    if lam_min < -tol:
        raise ValueError(f"matrix has negative eigenvalue {lam_min:.3e}")


def uqcm_full_output_loops(p):
    """Reference UQCM builder, one basis input at a time:
    |i> -> alpha |ii>|X_i> + beta sum_{j != i} (|ij> + |ji>)|X_j>."""
    d = p.dim
    a = equatorial_state(p)
    alpha = 2.0 / np.sqrt(2.0 * (d + 1))
    beta = 1.0 / np.sqrt(2.0 * (d + 1))
    out = np.zeros((d, d, d), dtype=complex)
    for i in range(d):
        out[i, i, i] += alpha * a[i]
        for j in range(d):
            if j != i:
                out[i, j, j] += beta * a[i]
                out[j, i, j] += beta * a[i]
    return out.reshape(d**3)


def pqcm_full_output_loops(p):
    """Reference PQCM builder, one basis input at a time:
    |j> -> alpha |jj>|R_j> + (beta/sqrt(2(d-1))) sum_{l != j} (|jl> + |lj>)|R_l>."""
    d = p.dim
    a = equatorial_state(p)
    gamma = np.sqrt(d * d + 4.0 * d - 4.0)
    alpha = np.sqrt(0.5 - (d - 2) / (2.0 * gamma))
    scale = np.sqrt(0.5 + (d - 2) / (2.0 * gamma)) / np.sqrt(2.0 * (d - 1))
    out = np.zeros((d, d, d), dtype=complex)
    for j in range(d):
        out[j, j, j] += alpha * a[j]
        for l in range(d):
            if l != j:
                out[j, l, l] += scale * a[j]
                out[l, j, l] += scale * a[j]
    return out.reshape(d**3)


def reduce_second_qudit(psi):
    d = round(len(psi) ** (1 / 3))
    t = psi.reshape(d, d, d)
    return np.einsum("ijk,iLk->jL", t, t.conj())


class TestShrinkingFactors:
    def test_uqcm_values(self):
        assert eta_uqcm(2) == pytest.approx(2 / 3, abs=1e-15)
        assert eta_uqcm(4) == pytest.approx(0.6, abs=1e-15)

    def test_pqcm_qubit_value(self):
        assert eta_pqcm(2) == pytest.approx(np.sqrt(2) / 2, abs=1e-15)

    def test_pqcm_exceeds_uqcm(self):
        for d in range(2, 1001):
            assert eta_pqcm(d) > eta_uqcm(d)

class TestShrinkOutput:
    def test_eta_one_is_projector(self):
        p = PhaseVector.random(4, np.random.default_rng(0))
        psi = equatorial_state(p)
        assert_allclose(shrink_output(p, 1.0), np.outer(psi, psi.conj()), atol=1e-15)

    def test_d2_two_thirds_explicit(self):
        # (2/3)|+><+| + (1/6) I = [[1/2, 1/3], [1/3, 1/2]]
        rho = shrink_output(PhaseVector.zero(2), 2 / 3)
        assert_allclose(rho, np.array([[0.5, 1 / 3], [1 / 3, 0.5]]), atol=1e-15)

    @pytest.mark.parametrize("d,eta", [(2, 2 / 3), (3, 0.4), (6, 0.9)])
    def test_eigenvalue_structure(self, d, eta):
        rho = shrink_output(PhaseVector.random(d, np.random.default_rng(d)), eta)
        validate_density_matrix(rho)
        lam = np.sort(np.linalg.eigvalsh(rho))[::-1]
        expect = np.concatenate(([eta + (1 - eta) / d], np.full(d - 1, (1 - eta) / d)))
        assert_allclose(lam, expect, atol=1e-12)

class TestFullCloners:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_output_norms(self, d):
        rng = np.random.default_rng(d)
        p = PhaseVector.random(d, rng)
        assert abs(np.linalg.norm(uqcm_full_output(p)) - 1.0) < 1e-12
        assert abs(np.linalg.norm(pqcm_full_output(p)) - 1.0) < 1e-12

    @pytest.mark.parametrize("d", range(2, 9))
    def test_uqcm_scaling_form(self, d):
        rng = np.random.default_rng(10 + d)
        for _ in range(5):
            p = PhaseVector.random(d, rng)
            red = reduce_first_qudit(uqcm_full_output(p))
            assert np.linalg.norm(red - shrink_output(p, eta_uqcm(d))) < 1e-10

    @pytest.mark.parametrize("d", range(2, 9))
    def test_pqcm_scaling_form(self, d):
        rng = np.random.default_rng(20 + d)
        for _ in range(5):
            p = PhaseVector.random(d, rng)
            red = reduce_first_qudit(pqcm_full_output(p))
            assert np.linalg.norm(red - shrink_output(p, eta_pqcm(d))) < 1e-10

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_clone_symmetry(self, d):
        p = PhaseVector.random(d, np.random.default_rng(d))
        for full in (uqcm_full_output, pqcm_full_output):
            psi = full(p)
            assert np.abs(reduce_first_qudit(psi) - reduce_second_qudit(psi)).max() < 1e-12

    def test_pqcm_coefficients(self):
        # the isometry is normalised: diag^2 + 2(d-1) off^2 = 1
        for d in range(2, 129):
            diag, off = channels._isometry_amplitudes("pqcm", d)
            assert abs(diag * diag + 2 * (d - 1) * off * off - 1.0) < 1e-14
        diag, off = channels._isometry_amplitudes("pqcm", 2)
        assert diag == pytest.approx(1 / np.sqrt(2), abs=1e-15)
        assert off == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("kind", ["uqcm", "pqcm"])
@pytest.mark.parametrize("d", [33, 48, 64])
def test_cloner_density_has_no_dimension_cap(kind, d):
    """The Kraus-form trace holds only (d, d) arrays, so it takes d above DENSE_DMAX."""
    ch = ParamChannel(kind)
    p = PhaseVector.random(d, np.random.default_rng(d), 3)
    assert_allclose(ch.density(p), shrink_output(p, ch.shrinking_factor(d)), rtol=0, atol=1e-12)


class TestBuildersMatchLoops:
    """The index-array builders against the one-input-at-a-time loops, bit for bit."""

    @pytest.mark.parametrize("d", range(2, DENSE_DMAX + 1))
    def test_every_dimension(self, d):
        p = PhaseVector.random(d, np.random.default_rng(100 + d))
        assert np.array_equal(uqcm_full_output(p), uqcm_full_output_loops(p))
        assert np.array_equal(pqcm_full_output(p), pqcm_full_output_loops(p))

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.integers(2, 12))
    def test_any_phases(self, data, d):
        phases = data.draw(
            st.lists(st.floats(-20.0, 20.0, allow_nan=False), min_size=d - 1, max_size=d - 1)
        )
        p = PhaseVector(d, np.array(phases))
        assert np.array_equal(uqcm_full_output(p), uqcm_full_output_loops(p))
        assert np.array_equal(pqcm_full_output(p), pqcm_full_output_loops(p))


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    d=st.integers(2, 8),
    k=st.integers(1, 4),
    kind=st.sampled_from(["pure", "uqcm", "pqcm", "shrink"]),
)
def test_every_density_is_a_state(data, d, k, kind):
    """Every ParamChannel output is Hermitian, unit-trace and PSD, whatever the phases."""
    eta = data.draw(st.floats(0.0, 1.0, exclude_min=True)) if kind == "shrink" else None
    rows = data.draw(st.lists(st.lists(phase, min_size=d - 1, max_size=d - 1), min_size=k, max_size=k))
    rho = ParamChannel(kind, eta).density(PhaseVector(d, rows))
    assert rho.shape == (k, d, d)
    for r in rho:
        validate_density_matrix(r)


class TestDensitySlices:
    """ParamChannel.density traces a cloner stack in Kraus form: the dense trace's
    values, with no tripartite state and peak memory flat in the stack size."""

    @pytest.mark.parametrize("kind", ["uqcm", "pqcm"])
    @pytest.mark.parametrize("d", range(2, DENSE_DMAX + 1))
    def test_stack_matches_the_dense_trace(self, kind, d):
        stack = PhaseVector.random(d, np.random.default_rng(d), 3)
        full = getattr(channels, f"{kind}_full_output")
        got = ParamChannel(kind).density(stack)
        assert_allclose(got, reduce_first_qudit(full(stack)), rtol=0, atol=1e-15)
        for row, phases in zip(got, stack.phases):
            assert np.array_equal(row, ParamChannel(kind).density(PhaseVector(d, phases)))

    @pytest.mark.parametrize("kind", ["uqcm", "pqcm"])
    def test_one_point_builds_no_tripartite_state(self, kind):
        d = DENSE_DMAX
        p = PhaseVector.random(d, np.random.default_rng(5))
        tracemalloc.start()
        try:
            ParamChannel(kind).density(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one length-d^3 complex vector
        assert peak < 16 * d**3

    def test_peak_memory_is_flat_in_the_stack_size(self):
        # the whole (1000, 512) tripartite stack alone would take 8 MB
        stack = PhaseVector.random(8, np.random.default_rng(4), 1000)
        tracemalloc.start()
        try:
            out = ParamChannel("uqcm").density(stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output, plus a few (k, d) temporaries; no second (k, d, d) copy
        assert peak <= out.nbytes + 4 * 2**14 * 16


class TestReduceFirstQudit:
    def test_basis_product_state(self):
        psi = np.zeros(8, dtype=complex)
        psi[0] = 1.0  # |0>|0>|0> at d=2
        assert_allclose(reduce_first_qudit(psi), np.diag([1.0, 0.0]))

    def test_maximally_entangled_pair(self):
        # (|00> + |11>)/sqrt(2) on the first two slots, ancilla |0>
        t = np.zeros((2, 2, 2), dtype=complex)
        t[0, 0, 0] = t[1, 1, 0] = 1 / np.sqrt(2)
        assert_allclose(reduce_first_qudit(t.reshape(8)), np.eye(2) / 2)

    def test_random_states_trace_one(self):
        rng = np.random.default_rng(3)
        for d in (2, 3, 4):
            psi = rng.normal(size=d**3) + 1j * rng.normal(size=d**3)
            psi /= np.linalg.norm(psi)
            rho = reduce_first_qudit(psi)
            validate_density_matrix(rho)

class TestCloningModel:
    """The machine model shared by the CLI, verify and the oracle (ParamChannel)."""

    def test_shrinking_factor_dispatch(self):
        assert ParamChannel("pure").shrinking_factor(3) == 1.0
        assert ParamChannel("uqcm").shrinking_factor(3) == eta_uqcm(3)
        assert ParamChannel("pqcm").shrinking_factor(3) == eta_pqcm(3)
        assert ParamChannel("shrink", 0.5).shrinking_factor(3) == 0.5

    @pytest.mark.parametrize("kind", MACHINES)
    @pytest.mark.parametrize("d", [1, 0, 2.0, "x"])
    def test_shrinking_factor_rejects_a_bad_dimension(self, kind, d):
        with pytest.raises(ValueError, match="dimension must be an integer >= 2"):
            ParamChannel(kind, 0.4 if kind == "shrink" else None).shrinking_factor(d)

class TestValidateDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            validate_density_matrix(np.array([[0.5, 0.1], [0.3, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            validate_density_matrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative"):
            validate_density_matrix(np.diag([1.5, -0.5]))
