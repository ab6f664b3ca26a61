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


def test_report_passes_the_benchmark_check(capsys):
    """perfbench/reference.py judges the benchmark's verify output; a change that
    drops, renames or loosens a check fails here before the benchmark runs."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    assert main(["verify", "--dmax", "8", "--seed", "12345"]) == 0
    assert reference.check_verify_report(capsys.readouterr().out) == []


def scaled(factor, where=None, output=None):
    """The fault that multiplies a routine's result, or entry `output` of its tuple, by
    factor; with where, only where where(*args) holds, the arguments read as arrays."""
    def fault(fn):
        def broken(*args):
            out = fn(*args)
            scale = factor if where is None else np.where(where(*map(np.asarray, args)), factor, 1.0)
            if isinstance(out, tuple):
                return tuple(x * scale if output in (None, i) else x for i, x in enumerate(out))
            return out * scale

        return broken

    return fault


def anti_hermitian(solve):  # each SLD plus 1e-6j I
    return lambda rho, drho: (slds := solve(rho, drho)) + 1e-6j * np.eye(slds.shape[-1])


def uqcm_off_diagonal(density):  # the UQCM density's off-diagonal entries times 1 + 1e-6, at d <= 10
    def broken(self, p):
        rho = density(self, p)
        if self.kind != "uqcm" or p.dim > 10:
            return rho
        return np.where(np.eye(p.dim, dtype=bool), rho, rho * (1 + 1e-6))

    return broken


ORACLE_AGREEMENT = [f"oracle_agreement_{ch.kind}" for ch in verify.CHANNELS]

# fault id -> (owner, attribute, fault of the original, dmax_full, failing checks in report order).
# Each row pins the whole list: a check that stops catching its fault, or starts to, fails the row.
FAULTS = {
    "sld_solve-1e-6": (oracle, "sld_solve", scaled(1 + 1e-6), 4, ["sld_residual"]),
    # G moves by 2e-4 F, and F <= 1, so the closed-form agreement fails too
    "sld_solve-1e-4": (oracle, "sld_solve", scaled(1 + 1e-4), 4, [*ORACLE_AGREEMENT, "sld_residual"]),
    # i eps I leaves L rho + (L rho)^dagger as it was, but not L rho + rho L: the residual meets both sides
    "sld_solve-anti-hermitian": (oracle, "sld_solve", anti_hermitian, 4, ["sld_residual"]),
    # the spectral route decomposes the traced isometry, with no scaling form between the two
    "uqcm-density-off-diagonal": (channels.ParamChannel, "density", uqcm_off_diagonal, 2, [
        "scaling_form_uqcm", "fidelity_phase_independence_uqcm", "spectral_vs_closed_uqcm", "uqcm_diagonal_term_sums"]),
    # F_diag = -(d-1) F_off breaks, beside the spectral route, the generic shrink form and a dense eigensolver
    "uqcm-foff": (qfim, "qfim_uqcm_entries", scaled(1 + 1e-6, output=1), 2, [
        "spectral_vs_closed_uqcm", "diag_offdiag_relation", "uqcm_matches_generic_shrink",
        "structured_vs_dense_eigenvalues"]),
    # a check that stacks its (d, eta) cases still fails when its subject is wrong at one of them
    "variance-at-32-0.5": (crb, "total_variance_bound", scaled(1 + 1e-6, lambda d, eta: (d == 32) & (eta == 0.5)), 2,
                           ["variance_trace_inverse"]),
    "lam2-at-d20": (crb, "qfim_eigenvalues", scaled(1 + 1e-6, lambda d, *_: d == 20, output=1), 2,
                    ["structured_vs_dense_eigenvalues"]),
    "pqcm-below-uqcm-at-d40": (qfim, "qfim_pqcm_entries", scaled(1 - 1e-3, lambda d: d == 40), 2,
                               ["pqcm_minus_uqcm_psd", "pqcm_diagonal_dominates", "pqcm_matches_generic_shrink"]),
    "pure-foff-at-d9": (qfim, "qfim_pure_entries", scaled(1 + 1e-9, lambda d: d == 9, output=1), 2,
                        ["diag_offdiag_relation", "pure_inverse_eigenvalues"]),
    # each closed form, each eta form, the traced cloner and the variance bound, off by 1 + 1e-10
    "qfim_uqcm_entries-1e-10": (qfim, "qfim_uqcm_entries", scaled(1 + 1e-10), 2, ["uqcm_matches_generic_shrink"]),
    "qfim_pqcm_entries-1e-10": (qfim, "qfim_pqcm_entries", scaled(1 + 1e-10), 2, ["pqcm_matches_generic_shrink"]),
    "qfim_shrink_entries-1e-10": (qfim, "qfim_shrink_entries", scaled(1 + 1e-10), 2, [
        "uqcm_matches_generic_shrink", "pqcm_matches_generic_shrink", "variance_trace_inverse"]),
    "qfim_pure_entries-1e-10": (qfim, "qfim_pure_entries", scaled(1 + 1e-10), 2, ["pure_inverse_eigenvalues"]),
    "_first_clone-1e-10": (channels, "_first_clone", scaled(1 + 1e-10), 2, [
        "fidelity_phase_independence_uqcm", "fidelity_phase_independence_pqcm", "uqcm_diagonal_term_sums"]),
    "eta_uqcm-1e-10": (channels, "eta_uqcm", scaled(1 + 1e-10), 2,
                       ["fidelity_phase_independence_uqcm", "uqcm_matches_generic_shrink"]),
    "eta_pqcm-1e-10": (channels, "eta_pqcm", scaled(1 + 1e-10), 2,
                       ["fidelity_phase_independence_pqcm", "pqcm_matches_generic_shrink"]),
    "total_variance_bound-1e-10": (crb, "total_variance_bound", scaled(1 + 1e-10), 2,
                                   ["variance_trace_inverse", "variance_pure_closed_form"]),
}


@pytest.mark.parametrize("fault_id", FAULTS)
def test_fault_fails_exactly_its_checks(monkeypatch, fault_id):
    owner, name, fault, dmax_full, failing = FAULTS[fault_id]
    monkeypatch.setattr(owner, name, fault(getattr(owner, name)))
    assert [r.name for r in run_verification(dmax_full=dmax_full) if not r.passed] == failing


def test_spectral_route_runs_once_per_stack(monkeypatch):
    """Each spectral check decomposes all of its draws at one d as one stack: 9 d
    of closed_vs_spectral, 11 term-sum draws, 2 phase-independence stacks, 7 d of
    the attainability block and 9 d of spectral_reconstruction."""
    calls = []
    spectral_output = qfim.spectral_output
    monkeypatch.setattr(qfim, "spectral_output", lambda rho: calls.append(rho.shape) or spectral_output(rho))
    assert all(r.passed for r in run_verification(dmax_full=8))
    assert len(calls) == 38


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
