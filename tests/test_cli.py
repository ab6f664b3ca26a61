import hashlib
import json

import numpy as np
import pytest

import phaseclone
from phaseclone import crb, qfim, states
from phaseclone.channels import ParamChannel
from phaseclone.cli import main
from phaseclone.oracle import DEFAULT_FD_STEP
from phaseclone.verify import DEFAULT_SEED


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


class TestCompute:
    def test_uqcm_qubit_row(self, capsys):
        code, out, _ = run(capsys, "compute", "--machine", "uqcm", "--dmin", "2", "--dmax", "2")
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert float(row["f_diag"]) == pytest.approx(4 / 9, abs=1e-12)
        assert row["attainable"] == "true"

    def test_pure_d4_total_variance(self, capsys):
        code, out, _ = run(capsys, "compute", "--machine", "pure", "--dmin", "4", "--dmax", "4")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][6]) == 6.0

    @pytest.mark.parametrize(
        "machine,eta", [("pure", None), ("uqcm", None), ("pqcm", None), ("shrink", 0.4)]
    )
    def test_eigenvalue_columns_match_dense_eigensolver(self, capsys, machine, eta):
        eta_args = [] if eta is None else ["--eta", str(eta)]
        argv = ["--machine", machine, *eta_args, "--dmin", "2", "--dmax", "32"]
        code, out, _ = run(capsys, "compute", *argv)
        assert code == 0
        header, rows = parse_csv(out)
        assert len(rows) == 31
        for row in rows:
            d = int(row[0])
            dense = np.linalg.eigvalsh(qfim.closed_qfim(ParamChannel(machine, eta), d))
            lam1, lam2 = (float(row[header.index(c)]) for c in ("lambda1", "lambda2"))
            # lambda1 is the smaller, simple eigenvalue; 12 printed digits
            assert lam1 == pytest.approx(dense[0], rel=1e-11)
            if d == 2:
                assert np.isnan(lam2)
            else:
                assert np.allclose(dense[1:], lam2, rtol=1e-11, atol=0)

    def test_shrink_requires_eta(self, capsys):
        code, _, err = run(capsys, "compute", "--machine", "shrink", "--dmin", "2", "--dmax", "4")
        assert code == 2
        assert "eta" in err

    def test_eta_rejected_for_other_machines(self, capsys):
        code, _, _ = run(capsys, "compute", "--machine", "pure", "--eta", "0.5")
        assert code == 2

    def test_invalid_dimension_range(self, capsys):
        code, _, _ = run(capsys, "compute", "--machine", "uqcm", "--dmin", "5", "--dmax", "3")
        assert code == 2

    def test_machine_required(self, capsys):
        code, _, err = run(capsys, "compute")
        assert code == 2
        assert "machine" in err

    def test_byte_identical_for_fixed_seed(self, tmp_path, capsys):
        args = ["compute", "--machine", "pqcm", "--dmax", "8", "--seed", "777"]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()
        assert b"# seed=777" in f1.read_bytes()
        assert f1.read_bytes().count(b"\r") == 0

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--machine", "shrink", "--eta", "0.5",
            "--dmin", "3", "--dmax", "3", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        row = payload["rows"][0]
        assert row["d"] == 3
        assert row["eta"] == 0.5
        assert row["attainable"] is True
        assert row["f_diag"] == pytest.approx(4 * 2 * 0.25 / (3 * 2.5))

    def test_json_is_strict_at_d2(self, capsys):
        # no second eigenvalue exists at d=2; JSON must stay parseable
        code, out, _ = run(
            capsys, "compute", "--machine", "pure",
            "--dmin", "2", "--dmax", "2", "--format", "json",
        )
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["lambda2"] is None

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_phases_is_no_option(self, capsys, tmp_path, source):
        # no number depends on the phases, so compute takes none
        argv = ["compute", "--machine", "uqcm"]
        if source == "flag":
            argv += ["--phases", "0.1"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("phases = 0.1\n")
            argv += ["--config", str(cfg)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "phases" in err

    @pytest.mark.parametrize("eta", ["1e-200", "1e-170", "5e-324"])
    def test_underflowing_eta_rejected(self, capsys, eta):
        code, _, err = run(capsys, "compute", "--machine", "shrink", "--eta", eta)
        assert code == 2
        assert "too small" in err

    def test_smallest_accepted_eta(self, capsys):
        # the boundary is |F_off(d=8)| = 4 eta^2/(8 (2 + 6 eta)) at the smallest
        # normal float, i.e. eta ~ sqrt(4 tiny) for eta << 1
        edge = float(np.sqrt(4.0 * np.finfo(float).tiny))
        argv = ["compute", "--machine", "shrink", "--dmax", "8", "--eta"]
        code, _, _ = run(capsys, *argv, repr(edge * (1 - 1e-9)))
        assert code == 2
        code, out, _ = run(capsys, *argv, repr(edge * (1 + 1e-9)))
        assert code == 0
        header, rows = parse_csv(out)
        assert len(rows) == 7
        assert all(np.isfinite(float(v)) for row in rows for v in row[1:7] if v != "nan")
        assert all(row[header.index("attainable")] == "true" for row in rows)

    def test_flag_never_builds_the_spectral_tensor(self, monkeypatch, capsys):
        def forbidden(*args, **kwargs):
            raise AssertionError("compute reached the spectral route")

        # every name the package holds these functions by, not just their home module
        for fn in (states.basis_derivatives, qfim.spectral_output, crb.attainability_closed):
            for module in (phaseclone, states, qfim, crb):
                for key, val in list(vars(module).items()):
                    if val is fn:
                        monkeypatch.setattr(module, key, forbidden)
        code, out, err = run(capsys, "compute", "--machine", "uqcm", "--dmax", "64")
        assert code == 0, err
        header, rows = parse_csv(out)
        assert rows and all(row[header.index("attainable")] == "true" for row in rows)

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("machine = shrink\neta = 0.4\ndmin = 2\ndmax = 2\n")
        code, out, _ = run(capsys, "compute", "--config", str(cfg))
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][1]) == 0.4
        # the flag wins over the file value
        code, out, _ = run(capsys, "compute", "--config", str(cfg), "--eta", "0.9")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][1]) == 0.9

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "compute", "--machine", "pure", "--config", "/no/such/file.cfg")
        assert code == 2
        assert "cannot read config file" in err

    def test_undecodable_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_bytes(b"\xff\xfe\x00machine = pure\n")
        code, _, err = run(capsys, "compute", "--config", str(cfg))
        assert code == 2
        assert "cannot read config file" in err

    def test_unknown_machine_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("machine = bogus\n")
        code, out, _ = run(capsys, "compute", "--config", str(cfg))
        assert code == 2
        assert out == ""


class TestFigure:
    def test_fig1_inequality_rows(self, capsys):
        code, out, _ = run(capsys, "figure", "1", "--dmax", "20")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["d", "f_in_diag", "scaled_bound", "f_out_diag"]
        for row in rows:
            _, f_in, bound, f_out = map(float, row)
            assert f_out <= bound <= f_in

    def test_fig2_ordering_and_shrinking_gap(self, capsys):
        code, out, _ = run(capsys, "figure", "2", "--dmax", "20")
        assert code == 0
        _, rows = parse_csv(out)
        gaps = {}
        for row in rows:
            d, fu, fp = int(row[0]), float(row[1]), float(row[2])
            assert fp >= fu
            gaps[d] = fp - fu
        for d in range(10, 20):
            assert gaps[d + 1] < gaps[d]

    def test_fig2_qubit_values(self, capsys):
        code, out, _ = run(capsys, "figure", "2", "--dmax", "3")
        _, rows = parse_csv(out)
        assert float(rows[0][1]) == pytest.approx(4 / 9, abs=1e-12)
        assert float(rows[0][2]) == pytest.approx(0.5, abs=1e-12)

    def test_fig3_orderings(self, capsys):
        code, out, _ = run(capsys, "figure", "3", "--dmax", "20")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["d", "e_in", "e_uqcm", "e_pqcm"]
        for row in rows:
            _, e_in, e_u, e_p = map(float, row)
            assert e_u > e_p > e_in

    def test_fig_columns_reduce_to_pure_at_eta_one(self, capsys):
        # cross-file consistency: the eta=1 columns equal the pure sweep values
        _, fig1, _ = run(capsys, "figure", "1", "--dmax", "6")
        _, fig3, _ = run(capsys, "figure", "3", "--dmax", "6")
        _, pure, _ = run(capsys, "compute", "--machine", "pure", "--dmin", "2", "--dmax", "6")
        _, fig1_rows = parse_csv(fig1)
        _, fig3_rows = parse_csv(fig3)
        _, pure_rows = parse_csv(pure)
        for r1, r3, rp in zip(fig1_rows, fig3_rows, pure_rows):
            assert float(r1[1]) == float(rp[2])  # pure diagonal entry
            assert float(r3[1]) == float(rp[6])  # pure total variance

    def test_small_dmax_rejected(self, capsys):
        code, _, _ = run(capsys, "figure", "2", "--dmax", "2")
        assert code == 2

    def test_dmax_cap(self, capsys):
        code, out, err = run(capsys, "figure", "1", "--dmax", "2000000")
        assert code == 2
        assert out == ""
        assert "must not exceed" in err

    def test_invalid_selector_rejected(self, capsys):
        assert main(["figure", "4"]) == 2

    def test_unwritable_path(self, capsys):
        code, _, err = run(capsys, "figure", "2", "--out", "/nonexistent-dir/fig.csv")
        assert code == 1


class TestVerify:
    def test_default_subset_passes(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code, _, err = run(capsys, "verify", "--dmax", "3", "--out", str(report_path))
        assert code == 0
        report = json.loads(report_path.read_text())
        assert all(set(item) == {"name", "pass", "max_error", "tolerance"} for item in report)
        assert all(item["pass"] for item in report)
        names = {item["name"] for item in report}
        assert "uqcm_diagonal_term_sums" in names
        assert "scaling_form_uqcm" in names

    def test_mutation_mode_fails_scaling_check(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "verify", "--dmax", "3", "--mutate", "--out", str(report_path))
        assert code == 3
        report = json.loads(report_path.read_text())
        failed = [item["name"] for item in report if not item["pass"]]
        assert failed == ["scaling_form_uqcm"]

    def test_tolerance_override_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "verify.cfg"
        cfg.write_text("tol_scaling_form_uqcm = 1.0\n")
        code, _, _ = run(capsys, "verify", "--dmax", "3", "--mutate", "--config", str(cfg))
        assert code == 0  # loosened tolerance masks the injected fault

    def test_progress_report_and_summary_agree(self, tmp_path, capsys):
        cfg = tmp_path / "verify.cfg"
        cfg.write_text("tol_scaling_form_uqcm = 1.0\n")
        report_path = tmp_path / "report.json"
        code, _, err = run(
            capsys, "verify", "--dmax", "3", "--mutate", "--config", str(cfg),
            "--out", str(report_path),
        )
        report = json.loads(report_path.read_text())
        expected = [
            f"[{'pass' if e['pass'] else 'FAIL'}] {e['name']}: "
            f"max_error={e['max_error']:.3e} tolerance={e['tolerance']:.1e}"
            for e in report
        ]
        n_pass = sum(e["pass"] for e in report)
        assert err.splitlines() == expected + [f"{n_pass}/{len(report)} checks passed"]
        assert code == (0 if n_pass == len(report) else 3)
        assert [e["tolerance"] for e in report if e["name"] == "scaling_form_uqcm"] == [1.0]

    @pytest.mark.parametrize(
        "args", [("--dmax", "33"), ("--fd-step", "nan"), ("--fd-step", "inf"), ("--fd-step", "1e-320")]
    )
    def test_bad_input_rejected_before_any_check(self, capsys, args):
        code, out, err = run(capsys, "verify", *args)
        assert code == 2
        assert out == ""
        assert err.startswith("usage error:") and "[pass]" not in err

    @pytest.mark.parametrize(
        "line", ["tol_sld_residual = abc", "tol_sld_residual = nan", "tol_no_such_check = 1e-3"]
    )
    def test_bad_tolerance_override_is_usage_error(self, tmp_path, capsys, line):
        cfg = tmp_path / "verify.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run(capsys, "verify", "--dmax", "2", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "usage error" in err
        assert "[pass]" not in err and "[FAIL]" not in err


@pytest.mark.parametrize(
    "argv,text",
    [(("compute",), "machine = pure\ndmaxx = 3\n"), (("figure", "2"), "tol_sld_residual = 1\n")],
    ids=["compute-dmaxx", "figure-tol"],
)
def test_unknown_config_key_is_usage_error(tmp_path, capsys, argv, text):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(text)
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "name no option" in err


@pytest.mark.parametrize("argv", [("compute", "--machine", "pure", "--dmax", "3"), ("verify", "--dmax", "2")])
@pytest.mark.parametrize("from_file", [False, True])
def test_negative_seed_is_usage_error(tmp_path, capsys, argv, from_file):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed = -1\n")
    code, out, err = run(capsys, *argv, *(("--config", str(cfg)) if from_file else ("--seed", "-1")))
    assert code == 2
    assert out == ""
    assert "--seed must be a non-negative integer" in err


def test_version_flag(capsys):
    assert main(["--version"]) == 0


@pytest.mark.parametrize(
    "argv,text,option",
    [
        (("compute", "--machine", "uqcm"), "dmax = abc\n", "--dmax"),
        (("compute",), "machine = shrink\neta = x\n", "--eta"),
        (("figure", "2"), "dmax = 1e3\n", "--dmax"),
        (("verify",), "fd-step = small\n", "--fd-step"),
    ],
    ids=["compute-dmax", "compute-eta", "figure-dmax", "verify-fd-step"],
)
def test_config_value_of_wrong_type_is_usage_error(tmp_path, capsys, argv, text, option):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert option in err


@pytest.mark.parametrize(
    "argv,text",
    [
        (("compute", "--machine", "uqcm"), "dmin = 3\ndmax = 4\nseed = 9\nformat = json\n"),
        (("figure", "2"), "dmax = 3\n"),
    ],
    ids=["compute", "figure"],
)
def test_config_values_do_not_outlive_their_call(tmp_path, capsys, argv, text):
    """main runs many commands in one process; a file's values are defaults of
    that call only, so the next plain call gets the declared defaults back."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    before = run(capsys, *argv)
    configured = run(capsys, *argv, "--config", str(cfg))
    assert configured[0] == 0 and configured[1] != before[1]
    after = run(capsys, *argv)
    assert after == before
    header, rows = parse_csv(after[1])
    assert [row[0] for row in rows] == [str(d) for d in range(2, 21)]


def test_verify_defaults_after_a_config_call(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("dmax = 2\nseed = 3\nfd_step = 1e-4\n")
    calls = []
    monkeypatch.setattr("phaseclone.cli.run_verification", lambda **kw: calls.append(kw) or [])
    assert main(["verify", "--config", str(cfg)]) == 0
    assert main(["verify"]) == 0
    assert [(c["dmax_full"], c["seed"], c["fd_step"]) for c in calls] == [
        (2, 3, 1e-4),
        (8, DEFAULT_SEED, DEFAULT_FD_STEP),
    ]


# SHA-256 of shipped outputs; closed-form IEEE arithmetic, so they do not depend on BLAS
SHIPPED_DIGESTS = [
    ("compute-pure", "compute --machine pure --dmax 64",
     "a0dd3d71342f499b9c01b4aa80b7a10f6e528a0aa973ddd82920f94d0c85359d"),
    ("compute-uqcm", "compute --machine uqcm --dmax 64",
     "dd0467b419fee9e3745798ad843479e7db862bdc770ca5ebbf57c15a5ddbd72d"),
    ("compute-pqcm", "compute --machine pqcm --dmax 64",
     "da25339fd8cadf0b62d0d11203ea67ee03a25e26bfa5e433f901926feeeaad09"),
    ("compute-shrink-json", "compute --machine shrink --eta 0.4 --dmax 64 --format json",
     "8fefd00da713af420cfcd101d77a30300590c239c3b756c4173953bcf20cf189"),
    ("figure-1", "figure 1 --dmax 64", "27cdaf8369e0355956647100fa694d32a91a1132ee010636a5913b6767c9722b"),
    ("figure-2", "figure 2 --dmax 64", "374bf40025895d4b06959ac6325786a10ef1671889b58bc17f8d75d18ec7785a"),
    ("figure-3", "figure 3 --dmax 64", "712e75f9dd1a470565a734b6e67cf2db5be8a6a201096568716056afe7bbe05d"),
]


@pytest.mark.parametrize(
    "argv, digest", [pytest.param(argv, digest, id=name) for name, argv, digest in SHIPPED_DIGESTS]
)
def test_shipped_output_bytes(capsys, argv, digest):
    code, out, err = run(capsys, *argv.split())
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest
