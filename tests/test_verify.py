"""Every check of the built-in suite, run by name at its declared tolerance."""

import ast
import dataclasses
import importlib.util
import json
import zlib
from pathlib import Path

import numpy as np
import pytest

from phaseclone import channels, crb, oracle, qfim, verify
from phaseclone.cli import main
from phaseclone.states import PhaseVector
from phaseclone.verify import DEFAULT_SEED, TOLERANCES, run_verification


def test_report_lists_every_declared_check_in_order(verify_results):
    assert [r.name for r in verify_results] == list(TOLERANCES)


@pytest.mark.parametrize("name", TOLERANCES)
def test_check_passes(check, name):
    check(name)


def test_blocks_draw_from_streams_of_their_own(monkeypatch, verify_results):
    """Leaving any one block out moves no other check's error by a bit, and a block
    called alone on default_rng([seed, crc32 of its name]) gives its suite values."""
    suite = {r.name: r.max_error for r in verify_results}
    blocks = verify.BLOCKS
    for left_out in blocks:
        monkeypatch.setattr(verify, "BLOCKS", tuple(b for b in blocks if b is not left_out))
        rest = run_verification(dmax_full=8)
        assert 0 < len(rest) < len(suite)
        for r in rest:
            assert np.array_equal(r.max_error, suite[r.name], equal_nan=True), (left_out.__name__, r.name)
    rng = np.random.default_rng([DEFAULT_SEED, zlib.crc32(b"attainability_and_oracle")])
    alone = {name: max(0.0, *errs) for name, errs in verify.attainability_and_oracle(rng, 8, False)}
    assert len(alone) == 10
    assert alone == {name: suite[name] for name in alone}


def test_undeclared_check_is_an_error(monkeypatch):
    monkeypatch.delitem(TOLERANCES, "complement_basis_orthonormality")
    with pytest.raises(KeyError, match="complement_basis_orthonormality"):
        run_verification(dmax_full=2)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"dmax_full": 1},
        {"dmax_full": 33},
        {"dmax_full": 8.5},
        {"seed": True},
    ],
    ids=["dmax1", "dmax33", "dmax-float", "seed-bool"],
)
def test_bad_arguments_rejected_before_any_check(kwargs):
    seen = []
    with pytest.raises(ValueError):
        run_verification(progress=seen.append, **kwargs)
    assert seen == []


SOLVE_PASS = oracle.solve_pass


def filled_solve(value, fields=("rho", "drho", "slds", "gram")):
    """oracle.solve_pass with the named fields of its pass set to value."""
    def solve(rho, drho):
        sp = SOLVE_PASS(rho, drho)
        return dataclasses.replace(sp, **{field: np.full_like(getattr(sp, field), value) for field in fields})

    return solve


def test_nan_error_fails_its_check(monkeypatch):
    """A check whose error is NaN fails; max() would have kept the 0.0 it starts from."""
    monkeypatch.setattr(oracle, "solve_pass", filled_solve(np.nan))
    by_name = {r.name: r for r in run_verification(dmax_full=2)}
    for kind in ("pure", "uqcm", "pqcm", "shrink"):
        assert np.isnan(by_name[f"oracle_agreement_{kind}"].max_error)
        assert not by_name[f"oracle_agreement_{kind}"].passed


@pytest.mark.parametrize(
    "value, fields",
    [
        pytest.param(np.nan, ("rho", "drho", "slds", "gram"), id="nan"),
        # the step-robustness difference of two infinite QFIMs is inf - inf, a NaN without a warning
        pytest.param(np.inf, ("gram",), id="inf"),
    ],
)
def test_nan_error_is_null_in_the_json_report(monkeypatch, capsys, value, fields):
    """The report stays strict JSON, with null for a NaN or an infinite error; the
    progress line on stderr still says nan or inf.  The suite's warnings-as-errors
    filter leaves the exit code at 3."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    monkeypatch.setattr(oracle, "solve_pass", filled_solve(value, fields))
    assert main(["verify", "--dmax", "2"]) == 3
    out, err = capsys.readouterr()
    by_name = {e["name"]: e for e in json.loads(out, parse_constant=reject)}
    for kind in ("pure", "uqcm", "pqcm", "shrink"):
        assert by_name[f"oracle_agreement_{kind}"]["max_error"] is None
        assert by_name[f"oracle_agreement_{kind}"]["pass"] is False
        assert f"[FAIL] oracle_agreement_{kind}: max_error={value} " in err
    assert by_name["oracle_step_robustness"] == {
        "name": "oracle_step_robustness", "pass": False, "max_error": None, "tolerance": 1e-6,
    }


@pytest.mark.parametrize(
    "errs, worst",
    [([2.0, np.nan], np.nan), ([np.nan, 2.0], np.nan), ([-1.0, -0.0, -2.0], 0.0)],
    ids=["nan-after-larger", "nan-before-larger", "non-positive"],
)
def test_check_error_is_its_worst(monkeypatch, errs, worst):
    """A check's error is NaN if any of its errors is, wherever the NaN stands, and
    +0.0 when none is positive, as the report prints it."""
    monkeypatch.setattr(verify, "BLOCKS", (lambda rng, dmax_full, mutate: iter([("sld_residual", errs)]),))
    [res] = run_verification(dmax_full=2)
    assert np.array_equal(res.max_error, worst, equal_nan=True)
    assert np.copysign(1.0, res.max_error) == 1.0


def test_one_oracle_solve_per_d(monkeypatch):
    """At each d the stencils of the four draw stacks (pure, uqcm and pqcm on 10
    draws, shrink on 5) take one solve, which every oracle check reads; each
    step-robustness point's coarse and fine stencils take one more."""
    seen = []
    stencil, solve = oracle._stencil, oracle.solve_pass

    def counting_stencil(fn, p, h):
        if isinstance(getattr(fn, "__self__", None), channels.ParamChannel):  # not the basis checks' functions
            seen.append((fn.__self__.kind, p.dim, len(p.phases), h))
        return stencil(fn, p, h)

    def counting_solve(rho, drho):
        seen.append(("solve", len(rho)))
        return solve(rho, drho)

    monkeypatch.setattr(oracle, "_stencil", counting_stencil)
    monkeypatch.setattr(oracle, "solve_pass", counting_solve)
    assert all(r.passed for r in run_verification(dmax_full=4))
    step = oracle.DEFAULT_FD_STEP
    expected = []
    for d in (2, 3, 4):
        expected += [(ch, d, 10, step) for ch in ("pure", "uqcm", "pqcm")] + [("shrink", d, 5, step), ("solve", 35)]
    for ch, d in (("uqcm", 3), ("pqcm", 4), ("shrink", 5)):
        expected += [(ch, d, 1, 1e-4), (ch, d, 1, 5e-5), ("solve", 2)]
    assert seen == expected


def bits(x) -> tuple:
    return x.shape, x.dtype, x.tobytes()


# (channel, draws, step) stacks of the oracle block: its four draw stacks at a d, and a
# step-robustness point at both steps
GROUP_CASES = {
    **{f"d{d}": (d, [(ch, k, oracle.DEFAULT_FD_STEP) for ch, k in zip(verify.CHANNELS, (10, 10, 10, 5))])
       for d in (*range(2, 9), 16)},
    **{f"{ch.kind}-steps": (d, [(ch, 1, 1e-4), (ch, 1, 5e-5)])
       for ch, d in ((verify.UQCM, 3), (verify.PQCM, 4), (verify.SHRINK, 5))},
}


@pytest.mark.parametrize("case", GROUP_CASES)
def test_grouped_solve_gives_each_stack_its_own_pass(monkeypatch, case):
    """Stacks whose merged drho fits ORACLE_SOLVE_BYTES solve together: the four draw
    stacks at d <= 12, and at d = 16 pure alone, uqcm alone, then pqcm with shrink.  Each
    stack's rho, drho, SLDs and G equal its own sld_pass bit for bit."""
    d, cases = GROUP_CASES[case]
    rng = np.random.default_rng(d)
    stacks = [(ch, PhaseVector.random(d, rng, k), h) for ch, k, h in cases]
    merged = []
    monkeypatch.setattr(oracle, "solve_pass", lambda rho, drho: merged.append(drho) or SOLVE_PASS(rho, drho))
    passes = [part for parts in verify._grouped_solves(stacks, lambda sp, parts: parts) for part in parts]
    if d == 16:
        assert [len(drho) for drho in merged] == [10, 10, 15]
    else:
        assert [len(drho) for drho in merged] == [sum(k for _, k, _ in cases)]
    assert all(drho.nbytes <= verify.ORACLE_SOLVE_BYTES for drho in merged)
    assert len(passes) == len(stacks)
    for (ch, p, h), got in zip(stacks, passes):
        want = oracle.sld_pass(ch, p, h)
        for field in ("rho", "drho", "slds", "gram"):
            assert bits(getattr(got, field)) == bits(getattr(want, field)), (ch.kind, field)


def test_spectral_checks_read_the_traced_cloner(monkeypatch):
    """The spectral route decomposes each channel's density, for the cloners the
    traced isometry: off-diagonal entries of the UQCM density off by a factor
    1 + 1e-6 at d <= 10 fail the closed-form comparison, with no scaling form
    between the two."""
    density = channels.ParamChannel.density

    def faulty(self, p):
        rho = density(self, p)
        if self.kind != "uqcm" or p.dim > 10:
            return rho
        return np.where(np.eye(p.dim, dtype=bool), rho, rho * (1 + 1e-6))

    monkeypatch.setattr(channels.ParamChannel, "density", faulty)
    assert [r.name for r in run_verification(dmax_full=2) if not r.passed] == [
        "scaling_form_uqcm",
        "fidelity_phase_independence_uqcm",
        "spectral_vs_closed_uqcm",
        "uqcm_diagonal_term_sums",
    ]


def _variance_off_at_one_point(fn):
    # the last d of the check, and an eta inside its column
    return lambda d, eta: fn(d, eta) * np.where((np.asarray(d) == 32) & (np.asarray(eta) == 0.5), 1 + 1e-6, 1.0)


def _lam2_off_at_d20(fn):
    def broken(d, fdiag, foff):
        lam1, lam2 = fn(d, fdiag, foff)
        return lam1, lam2 * np.where(np.asarray(d) == 20, 1 + 1e-6, 1.0)

    return broken


def _pqcm_below_uqcm_at_d40(fn):
    def broken(d):
        scale = np.where(np.asarray(d) == 40, 1 - 1e-3, 1.0)
        return tuple(x * scale for x in fn(d))

    return broken


def _pure_off_diagonal_at_d9(fn):
    def broken(d):
        fdiag, foff = fn(d)
        return fdiag, foff * np.where(np.asarray(d) == 9, 1 + 1e-9, 1.0)

    return broken


@pytest.mark.parametrize(
    "module, name, fault, check",
    [
        (crb, "total_variance_bound", _variance_off_at_one_point, "variance_trace_inverse"),
        (crb, "qfim_eigenvalues", _lam2_off_at_d20, "structured_vs_dense_eigenvalues"),
        (qfim, "qfim_pqcm_entries", _pqcm_below_uqcm_at_d40, "pqcm_minus_uqcm_psd"),
        (qfim, "qfim_pure_entries", _pure_off_diagonal_at_d9, "pure_inverse_eigenvalues"),
    ],
    ids=["variance", "eigenvalues", "gap", "pure-inverse"],
)
def test_stacked_check_keeps_every_point(monkeypatch, module, name, fault, check):
    """A check that stacks its (d, eta, channel) cases still fails when its subject
    is wrong at one of them."""
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    assert check in [r.name for r in run_verification(dmax_full=2) if not r.passed]


def test_report_passes_the_benchmark_check(capsys):
    """perfbench/reference.py judges the benchmark's verify output; a change that
    drops, renames or loosens a check fails here before the benchmark runs."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    assert main(["verify", "--dmax", "8", "--seed", "12345"]) == 0
    assert reference.check_verify_report(capsys.readouterr().out) == []


@pytest.mark.parametrize(
    "fault, failing",
    [
        (lambda l: l * (1 + 1e-6), ["sld_residual"]),
        (lambda l: l * (1 + 1e-4), [f"oracle_agreement_{kind}" for kind in ("pure", "uqcm", "pqcm", "shrink")]
         + ["sld_residual"]),
        (lambda l: l + 1e-6j * np.eye(l.shape[-1]), ["sld_residual"]),
    ],
    ids=["1e-6", "1e-4", "anti-hermitian-1e-6j"],
)
def test_shared_pass_still_guards_the_solver(monkeypatch, fault, failing):
    """A solver off by a factor 1 + 1e-6 fails the SLD residual, and the closed-form
    agreement too at 1 + 1e-4 (G moves by 2e-4 F, and F <= 1).  An anti-Hermitian
    part i eps I leaves L rho + (L rho)^dagger as it was, but not L rho + rho L:
    the residual meets both sides."""
    solve = oracle.sld_solve
    monkeypatch.setattr(oracle, "sld_solve", lambda rho, drho: fault(solve(rho, drho)))
    assert [r.name for r in run_verification(dmax_full=4) if not r.passed] == failing


def test_spectral_route_runs_once_per_stack(monkeypatch):
    """Each spectral check decomposes all of its draws at one d as one stack: 9 d
    of closed_vs_spectral, 11 term-sum draws, 2 phase-independence stacks, 7 d of
    the attainability block and 9 d of spectral_reconstruction."""
    calls = []
    spectral_output = qfim.spectral_output
    monkeypatch.setattr(qfim, "spectral_output", lambda rho: calls.append(rho.shape) or spectral_output(rho))
    assert all(r.passed for r in run_verification(dmax_full=8))
    assert len(calls) == 38


def test_broken_off_diagonal_entry_is_caught(monkeypatch):
    """A UQCM off-diagonal entry off by a factor 1 + 1e-6 breaks F_diag = -(d-1) F_off;
    the checks that set the entry beside the spectral route, the generic shrink
    form and a dense eigensolver fail with it, and no other check does."""
    entries = qfim.qfim_uqcm_entries

    def broken(d):
        fdiag, foff = entries(d)
        return fdiag, foff * (1 + 1e-6)

    monkeypatch.setattr(qfim, "qfim_uqcm_entries", broken)
    assert [r.name for r in run_verification(dmax_full=2) if not r.passed] == [
        "spectral_vs_closed_uqcm",
        "diag_offdiag_relation",
        "uqcm_matches_generic_shrink",
        "structured_vs_dense_eigenvalues",
    ]


def test_no_unit_test_repeats_a_check():
    """A test that takes the `check` fixture only repeats a check that
    test_check_passes already asserts; test_acceptance maps the paper's
    criteria to checks and is the one other place that may take it."""
    takers = []
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        if path.name in ("test_acceptance.py", "test_verify.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test"):
                if "check" in [a.arg for a in node.args.args + node.args.kwonlyargs]:
                    takers.append(f"{path.name}::{node.name}")
    assert takers == []
