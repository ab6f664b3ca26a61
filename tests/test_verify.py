"""Every check of the built-in suite, run by name at its declared tolerance."""

import ast
import importlib.util
import json
import zlib
from pathlib import Path

import numpy as np
import pytest

from phaseclone import channels, crb, oracle, qfim, verify
from phaseclone.cli import main
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


SLD_PASS = oracle.sld_pass


def nan_pass(ch, p, h=oracle.DEFAULT_FD_STEP):
    sp = SLD_PASS(ch, p, h)
    return oracle.SldPass(*(np.full_like(x, np.nan) for x in (sp.rho, sp.drho, sp.slds, sp.gram)))


def test_nan_error_fails_its_check(monkeypatch):
    """A check whose error is NaN fails; max() would have kept the 0.0 it starts from."""
    monkeypatch.setattr(oracle, "sld_pass", nan_pass)
    by_name = {r.name: r for r in run_verification(dmax_full=2)}
    for kind in ("pure", "uqcm", "pqcm", "shrink"):
        assert np.isnan(by_name[f"oracle_agreement_{kind}"].max_error)
        assert not by_name[f"oracle_agreement_{kind}"].passed


def test_nan_error_is_null_in_the_json_report(monkeypatch, capsys):
    """The report stays strict JSON; the progress line on stderr still says nan."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    monkeypatch.setattr(oracle, "sld_pass", nan_pass)
    assert main(["verify", "--dmax", "2"]) == 3
    out, err = capsys.readouterr()
    by_name = {e["name"]: e for e in json.loads(out, parse_constant=reject)}
    for kind in ("pure", "uqcm", "pqcm", "shrink"):
        assert by_name[f"oracle_agreement_{kind}"]["max_error"] is None
        assert by_name[f"oracle_agreement_{kind}"]["pass"] is False
        assert f"[FAIL] oracle_agreement_{kind}: max_error=nan " in err


def test_one_oracle_pass_per_draw_stack(monkeypatch):
    """Every (d, channel) draw stack gets one pass, which all oracle checks read;
    the six step-robustness evaluations come on top."""
    seen = []

    def counting(ch, p, h=oracle.DEFAULT_FD_STEP):
        seen.append((ch.kind, p.dim, len(p.phases), h))
        return SLD_PASS(ch, p, h)

    monkeypatch.setattr(oracle, "sld_pass", counting)
    assert all(r.passed for r in run_verification(dmax_full=4))
    step = oracle.DEFAULT_FD_STEP
    shared = [(ch, d, 10, step) for d in (2, 3, 4) for ch in ("pure", "uqcm", "pqcm")]
    shared += [("shrink", d, 5, step) for d in (2, 3, 4)]
    robustness = [(ch, d, d - 1, h) for ch, d in (("uqcm", 3), ("pqcm", 4), ("shrink", 5)) for h in (1e-4, 5e-5)]
    assert seen == shared + robustness


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


@pytest.mark.parametrize(
    "module, name, fault, check",
    [
        (crb, "total_variance_bound", _variance_off_at_one_point, "variance_trace_inverse"),
        (crb, "qfim_eigenvalues", _lam2_off_at_d20, "structured_vs_dense_eigenvalues"),
        (qfim, "qfim_pqcm_entries", _pqcm_below_uqcm_at_d40, "pqcm_minus_uqcm_psd"),
    ],
    ids=["variance", "eigenvalues", "gap"],
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
    "scale, failing",
    [
        (1e-6, ["sld_residual"]),
        (1e-4, [f"oracle_agreement_{kind}" for kind in ("pure", "uqcm", "pqcm", "shrink")] + ["sld_residual"]),
    ],
    ids=["1e-6", "1e-4"],
)
def test_shared_pass_still_guards_the_solver(monkeypatch, scale, failing):
    """A solver off by a factor 1 + scale fails the SLD residual at 1e-6, and
    the closed-form agreement too at 1e-4 (G moves by 2 scale F, and F <= 1)."""
    solve = oracle.sld_solve
    monkeypatch.setattr(oracle, "sld_solve", lambda rho, drho: solve(rho, drho) * (1 + scale))
    assert [r.name for r in run_verification(dmax_full=4) if not r.passed] == failing


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
