import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import phaseclone.oracle as oracle_module
from phaseclone.channels import eta_pqcm, eta_uqcm
from phaseclone.crb import attainability_closed
from phaseclone.oracle import (
    ParamChannel,
    _central_differences,
    attainability_numeric,
    qfim_numeric,
    rho_derivative,
    sld_solve,
)
from phaseclone.qfim import closed_qfim, spectral_output
from phaseclone.states import (
    TWO_PI,
    PhaseVector,
    basis_derivatives,
    complement_basis,
    equatorial_state,
)


KINDS = ("pure", "uqcm", "pqcm", "shrink")


def channel(kind):
    return ParamChannel(kind, 0.4 if kind == "shrink" else None)


def counting_density(monkeypatch):
    """Record the phase shape of every ParamChannel.density call."""
    calls = []
    density = ParamChannel.density

    def counting(self, p):
        calls.append(p.phases.shape)
        return density(self, p)

    monkeypatch.setattr(ParamChannel, "density", counting)
    return calls


class _ConstantChannel:
    """Phase-independent family, for derivative sanity checks."""

    def __init__(self, d):
        self.rho = np.eye(d) / d

    def density(self, p):
        return np.broadcast_to(self.rho, p.phases.shape[:-1] + self.rho.shape)


class _OffSupportChannel:
    """rho = |0><0| at phases (0.5, 1.0); d_rho/d phi_1 couples |0> and |1>,
    d_rho/d phi_2 = diag(0, 1, -1) lies entirely off the support."""

    def density(self, p):
        x, y = p.phases[..., 0] - 0.5, p.phases[..., 1] - 1.0
        rho = np.zeros(p.phases.shape[:-1] + (3, 3), dtype=complex)
        rho[..., 0, 0] = 1.0
        rho[..., 1, 1], rho[..., 2, 2] = y, -y
        rho[..., 0, 1] = rho[..., 1, 0] = x
        return rho


def central_difference_reference(fn, p, mu, h):
    """One central difference per call, two single-point evaluations of fn:
    the reference that the stacked oracle must reproduce bit for bit."""
    shift = np.zeros(p.dim - 1)
    shift[mu - 1] = h
    plus = fn(PhaseVector(p.dim, p.phases + shift))
    minus = fn(PhaseVector(p.dim, p.phases - shift))
    return (plus - minus) / (2.0 * h)


class TestCentralDifferences:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_matches_per_parameter_reference(self, d):
        rng = np.random.default_rng(60 + d)
        fns = [equatorial_state, complement_basis] + [channel(kind).density for kind in KINDS]
        for p in (PhaseVector.random(d, rng), PhaseVector(d, np.full(d - 1, 1e-6))):
            for fn in fns:
                for h in (1e-5, 3e-4):
                    got = _central_differences(fn, p, h)
                    assert got.shape[0] == d - 1
                    for mu in range(1, d):
                        assert np.array_equal(got[mu - 1], central_difference_reference(fn, p, mu, h))

    @pytest.mark.parametrize("fn", [qfim_numeric, attainability_numeric])
    def test_two_density_calls_per_phase_point(self, fn, monkeypatch):
        # the base point, then every shifted point of it as one stack
        calls = counting_density(monkeypatch)
        rng = np.random.default_rng(13)
        for kind in ("pure", "uqcm", "pqcm"):
            fn(ParamChannel(kind), PhaseVector.random(5, rng))
        assert calls == [(4,), (8, 4)] * 3


class TestRhoDerivative:
    @pytest.mark.parametrize("kind", KINDS)
    def test_equals_its_row_of_the_central_differences(self, kind):
        rng = np.random.default_rng(21)
        for d in (2, 3, 6):
            p = PhaseVector.random(d, rng)
            full = _central_differences(channel(kind).density, p, 1e-5)
            for mu in range(1, d):
                assert np.array_equal(rho_derivative(channel(kind), p, mu), full[mu - 1])

    def test_builds_only_its_own_pair(self, monkeypatch):
        calls = counting_density(monkeypatch)
        rho_derivative(ParamChannel("uqcm"), PhaseVector.random(6, np.random.default_rng(22)), 3)
        assert calls == [(2, 5)]

    def test_constant_channel_gives_zero(self):
        p = PhaseVector.random(3, np.random.default_rng(0))
        d_rho = rho_derivative(_ConstantChannel(3), p, 1)
        assert np.abs(d_rho).max() == 0.0

    def test_matches_analytic_pure_derivative(self):
        p = PhaseVector.random(2, np.random.default_rng(1))
        psi = equatorial_state(p)
        dpsi = basis_derivatives(p)[0, 0]
        expect = np.outer(dpsi, psi.conj()) + np.outer(psi, dpsi.conj())
        got = rho_derivative(ParamChannel("pure"), p, 1)
        assert np.abs(got - expect).max() < 1e-9

    @pytest.mark.parametrize("kind", ["pure", "uqcm", "pqcm"])
    def test_hermitian_and_traceless(self, kind):
        p = PhaseVector.random(4, np.random.default_rng(2))
        for mu in range(1, 4):
            d_rho = rho_derivative(ParamChannel(kind), p, mu)
            assert np.abs(d_rho - d_rho.conj().T).max() < 1e-10
            assert abs(np.trace(d_rho)) < 1e-10

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            rho_derivative(ParamChannel("pure"), PhaseVector.zero(2), 1, h=0.0)

    @pytest.mark.parametrize("h", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_step(self, h):
        with pytest.raises(ValueError, match="step"):
            rho_derivative(ParamChannel("pure"), PhaseVector.zero(3), 1, h=h)

    @pytest.mark.parametrize("h", [1e-320, np.float64(5e-324)])
    def test_rejects_a_step_whose_reciprocal_overflows(self, h):
        # 1/(2h) is inf; the check itself must raise no numpy overflow warning
        with pytest.raises(ValueError, match="too small"):
            rho_derivative(ParamChannel("pure"), PhaseVector.zero(3), 1, h=h)

    @pytest.mark.parametrize("mu", [0, -1, 4, 1.5])
    def test_rejects_parameter_index_outside_range(self, mu):
        # mu = 0 would otherwise shift phi_{d-1}; mu = d would hit a bare numpy IndexError
        p = PhaseVector.random(4, np.random.default_rng(9))
        with pytest.raises(IndexError, match=r"parameter index must be in 1\.\.d-1"):
            rho_derivative(ParamChannel("uqcm"), p, mu)


class TestSldSolve:
    def test_pure_state_doubles_the_derivative(self):
        p = PhaseVector.random(3, np.random.default_rng(3))
        rho = ParamChannel("pure").density(p)
        psi = equatorial_state(p)
        dpsi = basis_derivatives(p)[1, 0]
        d_rho = np.outer(dpsi, psi.conj()) + np.outer(psi, dpsi.conj())
        assert np.abs(sld_solve(rho, d_rho) - 2 * d_rho).max() < 1e-10

    def test_zero_derivative_gives_zero(self):
        rho = np.eye(4) / 4
        assert np.abs(sld_solve(rho, np.zeros((4, 4)))).max() == 0.0

    def test_residual_on_random_consistent_pairs(self):
        # build d_rho = (rho A + A rho)/2 for Hermitian A, so A solves exactly
        rng = np.random.default_rng(4)
        for d in (2, 4, 6):
            lam = rng.uniform(0.1, 1.0, d)
            lam /= lam.sum()
            q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
            rho = (q * lam) @ q.conj().T
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            a = a + a.conj().T
            d_rho = 0.5 * (rho @ a + a @ rho)
            sld = sld_solve(rho, d_rho)
            assert np.linalg.norm(d_rho - 0.5 * (rho @ sld + sld @ rho)) < 1e-8

    def test_stack_matches_each_slice(self):
        rng = np.random.default_rng(12)
        for kind, d in (("uqcm", 5), ("pqcm", 8), ("shrink", 4)):
            ch = ParamChannel(kind, 0.4) if kind == "shrink" else ParamChannel(kind)
            p = PhaseVector.random(d, rng)
            rho = ch.density(p)
            stack = np.stack([rho_derivative(ch, p, mu) for mu in range(1, d)])
            got = sld_solve(rho, stack)
            assert got.shape == stack.shape
            for mu in range(d - 1):
                assert np.abs(got[mu] - sld_solve(rho, stack[mu])).max() <= 1e-15

    def test_stack_raises_for_one_off_support_slice(self):
        rho = np.diag([1.0, 0.0, 0.0]).astype(complex)
        on = np.zeros((3, 3), dtype=complex)
        on[0, 1] = on[1, 0] = 1.0
        off = np.diag([0.0, 1.0, -1.0]).astype(complex)
        assert np.abs(sld_solve(rho, np.stack([on, on]))).max() > 0
        with pytest.raises(ValueError, match="support"):
            sld_solve(rho, np.stack([on, off]))

    def test_inconsistent_input_raises(self):
        rho = np.diag([1.0, 0.0, 0.0]).astype(complex)
        d_rho = np.diag([0.0, 1.0, -1.0]).astype(complex)  # lives entirely off support
        with pytest.raises(ValueError):
            sld_solve(rho, d_rho)


class TestStacks:
    """A (k, d-1) stack of phase points gives the per-point results bit for bit."""

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_qfim_and_attainability_numeric(self, d):
        stack = PhaseVector.random(d, np.random.default_rng(80 + d), 3)
        for kind in KINDS:
            for fn in (qfim_numeric, attainability_numeric):
                got = fn(channel(kind), stack)
                assert got.shape == (3, d - 1, d - 1)
                for row, phases in zip(got, stack.phases):
                    assert np.array_equal(row, fn(channel(kind), PhaseVector(d, phases)))

    @pytest.mark.parametrize("d", [2, 4, 7])
    def test_central_differences(self, d):
        stack = PhaseVector.random(d, np.random.default_rng(90 + d), 4)
        for fn in [equatorial_state, complement_basis] + [channel(k).density for k in KINDS]:
            got = _central_differences(fn, stack, 1e-5)
            assert got.shape[:2] == (4, d - 1)
            for row, phases in zip(got, stack.phases):
                assert np.array_equal(row, _central_differences(fn, PhaseVector(d, phases), 1e-5))

    @pytest.mark.parametrize("kind", KINDS)
    def test_sld_solve_with_a_stacked_rho(self, kind):
        stack = PhaseVector.random(5, np.random.default_rng(24), 3)
        rho = channel(kind).density(stack)
        drho = _central_differences(channel(kind).density, stack, 1e-5)
        got = sld_solve(rho[:, None], drho)
        assert got.shape == drho.shape
        for row, r, dr in zip(got, rho, drho):
            assert np.array_equal(row, sld_solve(r, dr))


_phase = st.one_of(
    st.floats(0.0, TWO_PI, exclude_max=True),
    st.floats(TWO_PI - 1e-9, TWO_PI + 1e-9),
    st.floats(-1e-9, 1e-9),
)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), d=st.integers(2, 6), k=st.integers(1, 4), kind=st.sampled_from(KINDS))
def test_stacked_oracle_property(data, d, k, kind):
    rows = data.draw(st.lists(st.lists(_phase, min_size=d - 1, max_size=d - 1), min_size=k, max_size=k))
    stack = PhaseVector(d, rows)
    for fn in (qfim_numeric, attainability_numeric):
        got = fn(channel(kind), stack)
        for row, phases in zip(got, rows):
            assert np.array_equal(row, fn(channel(kind), PhaseVector(d, phases)))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), d=st.integers(2, 8), k=st.integers(1, 4), kind=st.sampled_from(KINDS))
def test_oracle_matches_closed_forms_property(data, d, k, kind):
    """Every point of a stack gives the closed-form QFIM, entrywise to 1e-8 F_diag;
    shrink eta is log-uniform in [1e-3, 1]."""
    eta = 10.0 ** data.draw(st.floats(-3.0, 0.0)) if kind == "shrink" else None
    rows = data.draw(st.lists(st.lists(_phase, min_size=d - 1, max_size=d - 1), min_size=k, max_size=k))
    ch = ParamChannel(kind, eta)
    closed = closed_qfim(ch, d)
    assert np.abs(qfim_numeric(ch, PhaseVector(d, rows)) - closed).max() <= 1e-8 * closed[0, 0]


class TestQfimNumeric:
    def test_uqcm_qubit_anchor(self):
        p = PhaseVector.random(2, np.random.default_rng(5))
        f = qfim_numeric(ParamChannel("uqcm"), p)
        assert abs(f[0, 0] - 4 / 9) < 1e-6

    def test_pqcm_qubit_anchor(self):
        p = PhaseVector.random(2, np.random.default_rng(6))
        f = qfim_numeric(ParamChannel("pqcm"), p)
        assert abs(f[0, 0] - 0.5) < 1e-6

    def test_pure_channel_d5(self):
        p = PhaseVector.random(5, np.random.default_rng(7))
        f = qfim_numeric(ParamChannel("pure"), p)
        assert np.abs(f - closed_qfim(ParamChannel("pure"), 5)).max() < 1e-6

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_agreement_with_closed_forms(self, d):
        rng = np.random.default_rng(30 + d)
        for kind, eta in (("pure", None), ("uqcm", None), ("pqcm", None), ("shrink", 0.4)):
            ch = ParamChannel(kind, eta)
            p = PhaseVector.random(d, rng)
            assert np.abs(qfim_numeric(ch, p) - closed_qfim(ch, d)).max() < 1e-5

    def test_symmetric_output(self):
        p = PhaseVector.random(4, np.random.default_rng(8))
        f = qfim_numeric(ParamChannel("uqcm"), p)
        assert np.array_equal(f, f.T)


@pytest.mark.parametrize("fn", [qfim_numeric, attainability_numeric])
def test_off_support_derivative_raises(fn):
    p = PhaseVector(3, np.array([0.5, 1.0]))
    with pytest.raises(ValueError, match="support"):
        fn(_OffSupportChannel(), p)


class TestAttainabilityNumeric:
    @pytest.mark.parametrize("kind", ["pure", "uqcm", "pqcm"])
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_vanishes(self, kind, d):
        p = PhaseVector.random(d, np.random.default_rng(d))
        assert np.abs(attainability_numeric(ParamChannel(kind), p)).max() < 1e-6

    def test_antisymmetry(self):
        p = PhaseVector.random(4, np.random.default_rng(10))
        a = attainability_numeric(ParamChannel("pqcm"), p)
        assert np.abs(a + a.T).max() < 1e-10

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_agrees_with_closed_route(self, d):
        rng = np.random.default_rng(40 + d)
        for kind, eta in (("pure", 1.0), ("uqcm", eta_uqcm(d)), ("pqcm", eta_pqcm(d))):
            p = PhaseVector.random(d, rng)
            num = attainability_numeric(ParamChannel(kind), p)
            closed = attainability_closed(spectral_output(p, eta))
            assert np.abs(num - closed).max() < 1e-6


class TestParamChannel:
    def test_density_matches_scaling_form(self):
        from phaseclone.channels import shrink_output

        p = PhaseVector.random(3, np.random.default_rng(11))
        assert_allclose(ParamChannel("shrink", 0.7).density(p), shrink_output(p, 0.7))

    def test_validation(self):
        with pytest.raises(ValueError):
            ParamChannel("nope")
        with pytest.raises(ValueError):
            ParamChannel("shrink")
        with pytest.raises(ValueError):
            ParamChannel("shrink", 1.3)
        with pytest.raises(ValueError):
            ParamChannel("uqcm", 0.5)

    def test_cloners_never_use_the_scaling_form(self, monkeypatch):
        import phaseclone.channels as channels

        def scaling_form(*args, **kwargs):
            raise AssertionError("the oracle route reached the scaling form or a shrinking factor")

        for name in ("shrink_output", "eta_uqcm", "eta_pqcm"):
            monkeypatch.setattr(channels, name, scaling_form)
        p = PhaseVector.random(3, np.random.default_rng(5))
        for ch in (ParamChannel("uqcm"), ParamChannel("pqcm")):
            assert np.trace(ch.density(p)).real == pytest.approx(1.0, abs=1e-12)
            assert np.abs(qfim_numeric(ch, p) - closed_qfim(ch, 3)).max() < 1e-5


def test_oracle_imports_no_fast_path():
    """The oracle checks qfim, crb and the states generator helpers, so from
    the package it takes ParamChannel and PhaseVector only."""
    tree = ast.parse(Path(oracle_module.__file__).read_text())
    package_imports = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("phaseclone")):
            module = (node.module or "").rsplit(".", 1)[-1]
            package_imports |= {(module, a.name) for a in node.names}
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("phaseclone") for a in node.names)
    assert package_imports == {("channels", "ParamChannel"), ("states", "PhaseVector")}
