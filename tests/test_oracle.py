import ast
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from strategies import phase
from test_stacks import check_stack

import phaseclone
import phaseclone.oracle as oracle_module
from phaseclone.oracle import (
    ParamChannel,
    _central_differences,
    attainability_numeric,
    qfim_numeric,
    rho_derivative,
    sld_pass,
    sld_solve,
)
from phaseclone.qfim import closed_qfim
from phaseclone.states import (
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

    @pytest.mark.parametrize("fn", [qfim_numeric, attainability_numeric, sld_pass])
    def test_one_density_call_per_phase_point(self, fn, monkeypatch):
        # the base point and every shifted point of it as one stack
        calls = counting_density(monkeypatch)
        rng = np.random.default_rng(13)
        for kind in ("pure", "uqcm", "pqcm"):
            fn(ParamChannel(kind), PhaseVector.random(5, rng))
        fn(ParamChannel("uqcm"), PhaseVector.random(5, rng, 3))
        assert calls == [(9, 4)] * 3 + [(27, 4)]


class TestRhoDerivative:
    @pytest.mark.parametrize("kind", KINDS)
    def test_equals_its_row_of_the_central_differences(self, kind):
        rng = np.random.default_rng(21)
        for d in (2, 3, 6):
            p = PhaseVector.random(d, rng)
            full = _central_differences(channel(kind).density, p, 1e-5)
            for mu in range(1, d):
                assert np.array_equal(rho_derivative(channel(kind), p, mu), full[mu - 1])

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
        with pytest.raises(ValueError, match="step must be a finite positive real number"):
            rho_derivative(ParamChannel("pure"), PhaseVector.zero(2), 1, h=0.0)

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

class TestStacks:
    """A (k, d-1) stack of phase points gives the per-point results bit for bit."""

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_qfim_and_attainability_numeric(self, d):
        for kind in KINDS:
            for fn in (qfim_numeric, attainability_numeric):
                check_stack(partial(fn, channel(kind)), d, ks=(3,))

    @pytest.mark.parametrize("kind", KINDS)
    def test_empty_stack_gives_empty_matrices(self, kind):
        for fn in (qfim_numeric, attainability_numeric):
            check_stack(partial(fn, channel(kind)), 3, ks=())

    @pytest.mark.parametrize("d", [2, 4, 7])
    def test_central_differences(self, d):
        for fn in [equatorial_state, complement_basis] + [channel(k).density for k in KINDS]:
            check_stack(partial(_central_differences, fn, h=1e-5), d, ks=(4,))


def two_call_gram(ch, p, h):
    """G = Tr(rho L_m L_n) with rho and the shifted points from two density calls:
    the reference that the one-call pass must reproduce bit for bit."""
    rho = ch.density(p)[..., None, :, :]
    slds = sld_solve(rho, _central_differences(ch.density, p, h))
    flat = slds.shape[:-2] + (slds.shape[-2] * slds.shape[-1],)
    return (rho @ slds).reshape(flat) @ slds.swapaxes(-1, -2).reshape(flat).swapaxes(-1, -2)


class TestSldPass:
    """One pass builds rho, its differences, their SLDs and G = Tr(rho L_m L_n)."""

    @pytest.mark.parametrize("d", [2, 5, 8])
    @pytest.mark.parametrize("k", [None, 1, 4])
    def test_fields_equal_their_definitions(self, d, k):
        rng = np.random.default_rng(100 + d)
        for kind in KINDS:
            ch = channel(kind)
            p = PhaseVector.random(d, rng, k)
            for h in (1e-5, 3e-4):
                sp = sld_pass(ch, p, h)
                rho = ch.density(p)
                drho = _central_differences(ch.density, p, h)
                assert np.array_equal(sp.rho, rho)
                assert np.array_equal(sp.drho, drho)
                assert np.array_equal(sp.slds, sld_solve(rho[..., None, :, :], drho))
                g = two_call_gram(ch, p, h)
                assert np.array_equal(sp.gram, g)
                assert np.array_equal(qfim_numeric(ch, p, h), 0.5 * (g + g.swapaxes(-1, -2)).real)
                assert np.array_equal(attainability_numeric(ch, p, h), g.imag)

    def test_rho_owns_its_memory(self):
        # a view of the stacked density would keep every shifted point alive
        sp = sld_pass(ParamChannel("pqcm"), PhaseVector.random(6, np.random.default_rng(14), 3))
        assert sp.rho.flags.owndata and sp.rho.shape == (3, 6, 6)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError, match="step must be a finite positive real number"):
            sld_pass(ParamChannel("pure"), PhaseVector.zero(3), 0.0)

@settings(max_examples=40, deadline=None)
@given(data=st.data(), d=st.integers(2, 8), k=st.integers(1, 4), kind=st.sampled_from(KINDS))
def test_oracle_matches_closed_forms_property(data, d, k, kind):
    """Every point of a stack gives the closed-form QFIM, entrywise to 1e-8 F_diag;
    shrink eta is log-uniform in [1e-3, 1]."""
    eta = 10.0 ** data.draw(st.floats(-3.0, 0.0)) if kind == "shrink" else None
    rows = data.draw(st.lists(st.lists(phase, min_size=d - 1, max_size=d - 1), min_size=k, max_size=k))
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

    @pytest.mark.parametrize("kind", ["uqcm", "pqcm"])
    def test_cloners_above_d32(self, kind):
        ch = ParamChannel(kind)
        p = PhaseVector.random(48, np.random.default_rng(48))
        assert np.abs(qfim_numeric(ch, p) - closed_qfim(ch, 48)).max() < 1e-5

    def test_symmetric_output(self):
        p = PhaseVector.random(4, np.random.default_rng(8))
        f = qfim_numeric(ParamChannel("uqcm"), p)
        assert np.array_equal(f, f.T)


class TestAttainabilityNumeric:
    def test_antisymmetry(self):
        p = PhaseVector.random(4, np.random.default_rng(10))
        a = attainability_numeric(ParamChannel("pqcm"), p)
        assert np.abs(a + a.T).max() < 1e-10


class TestParamChannel:
    def test_density_matches_scaling_form(self):
        from phaseclone.channels import shrink_output

        p = PhaseVector.random(3, np.random.default_rng(11))
        assert_allclose(ParamChannel("shrink", 0.7).density(p), shrink_output(p, 0.7))

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


# the dense d^3 references and their module; the tests and the benchmark tracer use them
DENSE_REFERENCES = {
    "uqcm_full_output": "channels",
    "pqcm_full_output": "channels",
    "reduce_first_qudit": "channels",
    "_tripartite": "channels",
    "rho_derivative": "oracle",
}


def test_no_program_path_reaches_the_dense_references():
    """No module but its own names a dense reference, by name, attribute,
    import or string, and the package does not export one."""
    for path in Path(oracle_module.__file__).parent.glob("*.py"):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
        for name, home in DENSE_REFERENCES.items():
            assert path.stem == home or name not in names, f"{path.name} references {name}"
    assert not set(DENSE_REFERENCES) & set(phaseclone.__all__)
