import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from strategies import phase

from phaseclone.oracle import _central_differences
from phaseclone.states import (
    TWO_PI,
    PhaseVector,
    basis_derivatives,
    complement_basis,
    equatorial_state,
    phase_shift_unitary,
)


class TestPhaseVector:
    def test_wraps_into_canonical_interval(self):
        p = PhaseVector(3, [7.0, -1.0])
        assert np.all(p.phases >= 0.0)
        assert np.all(p.phases < 2 * np.pi)
        assert_allclose(p.phases, [7.0 - 2 * np.pi, 2 * np.pi - 1.0], atol=1e-15)

    def test_full_phases_prepends_zero(self):
        p = PhaseVector(4, [0.1, 0.2, 0.3])
        assert_allclose(p.full_phases, [0.0, 0.1, 0.2, 0.3])

    def test_stack_wraps_each_row_as_one_point(self):
        rows = np.random.default_rng(2).uniform(-20.0, 20.0, size=(6, 4))
        rows[0] = [-1e-17, TWO_PI, 7.0, -1.0]  # tiny negative, exact period
        stack = PhaseVector(5, rows)
        assert stack.phases.shape == (6, 4)
        for row, stored in zip(rows, stack.phases):
            assert np.array_equal(stored, PhaseVector(5, row).phases)
        assert np.array_equal(stack.full_phases[:, 1:], stack.phases)
        assert not stack.full_phases[:, 0].any()

    def test_random_stack_is_the_stream_of_single_draws(self):
        rng = np.random.default_rng(15)
        singles = [PhaseVector.random(5, rng).phases for _ in range(6)]
        stack = PhaseVector.random(5, np.random.default_rng(15), 6)
        assert stack.phases.shape == (6, 4)
        assert np.array_equal(stack.phases, np.stack(singles))


class TestEquatorialState:
    def test_reference_state_d2(self):
        assert_allclose(equatorial_state(PhaseVector.zero(2)), np.full(2, 1 / np.sqrt(2)))

    def test_d3_quarter_and_half_turn(self):
        # amplitudes e^{i pi/2} = i and e^{i pi} = -1, each scaled by 1/sqrt(3)
        psi = equatorial_state(PhaseVector(3, [np.pi / 2, np.pi]))
        assert_allclose(psi, np.array([1.0, 1.0j, -1.0]) / np.sqrt(3), atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 7, 16])
    def test_unit_norm(self, d):
        rng = np.random.default_rng(d)
        for _ in range(10):
            psi = equatorial_state(PhaseVector.random(d, rng))
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


class TestPhaseShiftUnitary:
    def test_identity_at_zero(self):
        assert_allclose(phase_shift_unitary(PhaseVector.zero(4)), np.eye(4))

    def test_d2_half_turn(self):
        assert_allclose(phase_shift_unitary(PhaseVector(2, [np.pi])), np.diag([1.0, -1.0]), atol=1e-15)

    @pytest.mark.parametrize("d", [2, 5, 11])
    def test_unitarity(self, d):
        u = phase_shift_unitary(PhaseVector.random(d, np.random.default_rng(d)))
        assert np.linalg.norm(u.conj().T @ u - np.eye(d)) < 1e-12


class TestStateDerivative:
    """Row [mu-1, 0] of basis_derivatives is the derivative of the state."""

    def test_d2_reference(self):
        assert_allclose(
            basis_derivatives(PhaseVector.zero(2))[0, 0],
            np.array([0.0, 1j / np.sqrt(2)]),
        )

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_derivative_overlaps(self, d):
        # <d_m psi|d_n psi> = delta_mn/d and <d_m psi|psi><psi|d_n psi> = 1/d^2
        p = PhaseVector.random(d, np.random.default_rng(d))
        psi, dpsi = equatorial_state(p), basis_derivatives(p)[:, 0]
        for mu in range(1, d):
            for nu in range(1, d):
                dm, dn = dpsi[mu - 1], dpsi[nu - 1]
                assert abs(np.vdot(dm, dn) - (mu == nu) / d) < 1e-14
                theta = np.vdot(dm, psi) * np.vdot(psi, dn)
                assert abs(theta - 1.0 / d**2) < 1e-14

    @pytest.mark.parametrize("d", [2, 4, 9])
    def test_matches_finite_difference(self, d):
        p = PhaseVector.random(d, np.random.default_rng(33 + d))
        fd = _central_differences(equatorial_state, p, 1e-5)
        for mu in range(1, d):
            assert np.abs(basis_derivatives(p)[mu - 1, 0] - fd[mu - 1]).max() < 1e-8


class TestComplementBasis:
    def test_d2_reference_vector(self):
        # single Gram-Schmidt vector at n=1 with prefactor sqrt(2*1/2) = 1
        b = complement_basis(PhaseVector.zero(2))
        assert_allclose(b[1], np.array([-1.0, 1.0]) / np.sqrt(2))

    @pytest.mark.parametrize("d", [2, 5, 9])
    def test_rows_orthogonal_to_state(self, d):
        p = PhaseVector.random(d, np.random.default_rng(d))
        psi = equatorial_state(p)
        b = complement_basis(p)
        for n in range(1, d):
            assert abs(np.vdot(psi, b[n])) < 1e-12

    def test_calls_share_no_state(self):
        p = PhaseVector.random(4, np.random.default_rng(42))
        first = complement_basis(p)
        expect = first.copy()
        first[:] = 0.0
        assert np.array_equal(complement_basis(p), expect)

    def test_chi_inner_product_rule(self):
        # <chi_m|chi_n> = exp(i(phi_m - phi_n))/2 for m != n
        d = 6
        p = PhaseVector.random(d, np.random.default_rng(41))
        full = p.full_phases
        for m in range(1, d):
            for n in range(1, d):
                got = np.vdot(_chi_vector(p, m), _chi_vector(p, n))
                want = 1.0 if m == n else np.exp(1j * (full[m] - full[n])) / 2
                assert abs(got - want) < 1e-14


def _chi_vector(p, n):
    """Raw complement vector chi_n = (1/sqrt(2)) * (-e^{-i phi_n} |0> + |n>).

    Each chi_n is orthogonal to equatorial_state(p), and
    <chi_m|chi_n> = e^{i(phi_m - phi_n)}/2 for m != n.  The paper's
    Gram-Schmidt construction starts from these.
    """
    chi = np.zeros(p.dim, dtype=complex)
    chi[0] = -np.exp(-1j * p.full_phases[n]) / np.sqrt(2.0)
    chi[n] = 1.0 / np.sqrt(2.0)
    return chi


def gram_schmidt_rows(p):
    """The paper's Gram-Schmidt construction, row by row from the chi vectors:
    sqrt(2n/(n+1)) * (chi_n - (1/n) sum_{j<n} e^{i(phi_j-phi_n)} chi_j)."""
    full = p.full_phases
    chis = [None] + [_chi_vector(p, n) for n in range(1, p.dim)]
    rows = [equatorial_state(p)]
    for n in range(1, p.dim):
        v = chis[n].copy()
        for j in range(1, n):
            v -= np.exp(1j * (full[j] - full[n])) / n * chis[j]
        rows.append(np.sqrt(2.0 * n / (n + 1.0)) * v)
    return np.array(rows)


@pytest.mark.parametrize("d", [2, 3, 5, 16, 32, 64])
def test_complement_basis_matches_gram_schmidt(d):
    rng = np.random.default_rng(500 + d)
    for p in [PhaseVector.zero(d)] + [PhaseVector.random(d, rng) for _ in range(3)]:
        assert np.abs(complement_basis(p) - gram_schmidt_rows(p)).max() < 1e-13


@settings(max_examples=25, deadline=None)
@given(data=st.data(), d=st.integers(2, 64))
def test_basis_derivatives_property(data, d):
    p = PhaseVector(d, data.draw(st.lists(phase, min_size=d - 1, max_size=d - 1)))
    stack = basis_derivatives(p)
    fd = _central_differences(complement_basis, p, 1e-5)
    for mu in range(1, d):
        assert np.abs(stack[mu - 1] - fd[mu - 1]).max() < 1e-6


class TestBasisDerivative:
    @pytest.mark.parametrize("d", [3, 5, 8])
    def test_first_parameter_norms(self, d):
        # <d_1 psi_n|d_1 psi_n> = 1/(n(n+1)) for n >= 1
        p = PhaseVector.random(d, np.random.default_rng(d))
        for n in range(1, d):
            dv = basis_derivatives(p)[0, n]
            assert abs(np.vdot(dv, dv).real - 1.0 / (n * (n + 1))) < 1e-13

    def test_stacked_layout(self):
        p = PhaseVector.random(4, np.random.default_rng(9))
        stack = basis_derivatives(p)
        assert stack.shape == (3, 4, 4)
        # [mu-1, n] = i (P_mu - delta_{mu n}) |psi_n>, here mu = n = 2 and mu = 1, n = 2
        psi2 = complement_basis(p)[2]
        assert_allclose(stack[1, 2], 1j * (np.eye(4)[2] - 1.0) * psi2)
        assert_allclose(stack[0, 2], 1j * np.eye(4)[1] * psi2)


@pytest.mark.parametrize("d", [2, 5, 9])
def test_gauge_period_invariance(d):
    rng = np.random.default_rng(d)
    p = PhaseVector.random(d, rng)
    for mu in range(1, d):
        shift = np.zeros(d - 1)
        shift[mu - 1] = 2 * np.pi
        q = PhaseVector(d, p.phases + shift)
        assert np.abs(equatorial_state(p) - equatorial_state(q)).max() < 1e-12
        assert np.abs(complement_basis(p) - complement_basis(q)).max() < 1e-12
        assert np.abs(phase_shift_unitary(p) - phase_shift_unitary(q)).max() < 1e-12
