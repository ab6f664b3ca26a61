import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import phaseclone
from phaseclone import cli, crb, qfim, states
from phaseclone.channels import ParamChannel
from phaseclone.cli import main
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


def parse_error(command, message):
    """argparse's stderr for a bad command line: the subcommand's usage, then its error line."""
    return f"{cli.build_parser().commands[command].format_usage()}phaseclone {command}: error: {message}\n"


def flag_error(argv):
    """argparse's stderr for a bad command line, in this Python's wording (that of a choices error varies)."""
    with contextlib.redirect_stderr(io.StringIO()) as err, pytest.raises(SystemExit):
        cli.build_parser().parse_args(argv.split())
    return err.getvalue()


# (id, argv, config text or bytes or None, exit code, stdout, stderr): main on the argv, plus --config
# <file> holding any config (<config> in stderr), returns the code and writes exactly this stdout and stderr.
CASES = [
    ("compute-shrink-without-eta", "compute --machine shrink --dmin 2 --dmax 4", None, 2, "",
     "usage error: machine=shrink: shrink channel requires eta\n"),
    ("compute-eta-for-pure", "compute --machine pure --eta 0.5", None, 2, "",
     "usage error: machine=pure: eta is not a parameter of the 'pure' channel\n"),
    ("compute-dmin-above-dmax", "compute --machine uqcm --dmin 5 --dmax 3", None, 2, "",
     "usage error: --dmin/--dmax must satisfy 2 <= dmin <= dmax\n"),
    ("compute-without-machine", "compute", None, 2, "",
     "usage error: --machine is required (pure, uqcm, pqcm, or shrink)\n"),
    ("compute-uqcm-qubit-row", "compute --machine uqcm --dmin 2 --dmax 2", None, 0,
     f"# seed={DEFAULT_SEED}\nd,eta,f_diag,f_offdiag,lambda1,lambda2,total_variance_min,attainable\n"
     "2,0.666666666667,0.444444444444,-0.444444444444,0.444444444444,nan,2.25,true\n", ""),
    ("compute-pure-d4", "compute --machine pure --dmin 4 --dmax 4", None, 0,
     f"# seed={DEFAULT_SEED}\nd,eta,f_diag,f_offdiag,lambda1,lambda2,total_variance_min,attainable\n"
     "4,1,0.75,-0.25,0.25,1,6,true\n", ""),
    ("compute-json-shrink", "compute --machine shrink --eta 0.5 --dmin 3 --dmax 3 --format json", None, 0,
     json.dumps({"seed": DEFAULT_SEED, "rows": [{"d": 3, "eta": 0.5, "f_diag": 0.26666666666666666,
     "f_offdiag": -0.13333333333333333, "lambda1": 0.13333333333333333, "lambda2": 0.4, "total_variance_min": 10.0,
     "attainable": True}]}, indent=2) + "\n", ""),
    ("compute-negative-seed", "compute --machine pure --dmax 3 --seed -1", None, 2, "",
     "usage error: --seed must be a non-negative integer\n"),
    ("compute-negative-seed-key", "compute --machine pure --dmax 3", "seed = -1\n", 2, "",
     "usage error: --seed must be a non-negative integer\n"),
    # a config value is checked as its flag is
    ("compute-dmax-key-not-int", "compute --machine uqcm", "dmax = abc\n", 2, "",
     parse_error("compute", "argument --dmax: invalid int value: 'abc'")),
    ("compute-eta-key-not-float", "compute", "machine = shrink\neta = x\n", 2, "",
     parse_error("compute", "argument --eta: invalid float value: 'x'")),
    ("compute-unknown-machine-key", "compute", "machine = bogus\n", 2, "", flag_error("compute --machine bogus")),
    # no second eigenvalue exists at d=2: null keeps the JSON strict
    ("compute-json-d2", "compute --machine pure --dmin 2 --dmax 2 --format json", None, 0, json.dumps({
        "seed": DEFAULT_SEED, "rows": [{"d": 2, "eta": 1.0, "f_diag": 1.0, "f_offdiag": -1.0, "lambda1": 1.0,
        "lambda2": None, "total_variance_min": 1.0, "attainable": True}]}, indent=2) + "\n", ""),
    ("compute-phases-flag", "compute --machine uqcm --phases 0.1", None, 2, "",  # no number depends on them
     parse_error("compute", "unrecognized arguments: --phases 0.1")),
    ("compute-phases-key", "compute --machine uqcm", "phases = 0.1\n", 2, "",
     "usage error: config keys name no option of compute: phases\n"),
    *[(f"compute-eta-{eta}", f"compute --machine shrink --eta {eta}", None, 2, "",
       f"usage error: eta={eta} is too small: the QFIM entries underflow at d=20\n")
      for eta in ("1e-200", "1e-170", "5e-324")],
    ("compute-missing-config", "compute --machine pure --config /no/such.cfg", None, 2, "",
     "usage error: cannot read config file /no/such.cfg: [Errno 2] No such file or directory: '/no/such.cfg'\n"),
    ("compute-undecodable-config", "compute", b"\xff\xfe\x00machine = pure\n", 2, "",
     "usage error: cannot read config file <config>: 'utf-8' codec can't decode byte 0xff in position 0: "
     "invalid start byte\n"),
    ("compute-unknown-key", "compute", "machine = pure\ndmaxx = 3\n", 2, "",
     "usage error: config keys name no option of compute: dmaxx\n"),
    ("compute-bogus", "compute --bogus", None, 2, "", parse_error("compute", "unrecognized arguments: --bogus")),
    ("compute-unwritable-out", "compute --machine uqcm --dmax 4 --out /nonexistent-dir/out.csv", None, 1, "",
     "error: [Errno 2] No such file or directory: '/nonexistent-dir/out.csv'\n"),
    ("figure-2-qubit-values", "figure 2 --dmax 3", None, 0,
     "d,f_uqcm_diag,f_pqcm_diag\n2,0.444444444444,0.5\n3,0.396825396825,0.414178541679\n", ""),
    ("figure-dmax-2", "figure 2 --dmax 2", None, 2, "", "usage error: --dmax must be at least 3 for figure data\n"),
    ("figure-dmax-cap", "figure 1 --dmax 2000000", None, 2, "", "usage error: --dmax must not exceed 1000000\n"),
    ("figure-4", "figure 4", None, 2, "",
     parse_error("figure", "argument which: invalid choice: 4 (choose from 1, 2, 3)")),
    ("figure-unwritable-out", "figure 2 --out /nonexistent-dir/fig.csv", None, 1, "",
     "error: [Errno 2] No such file or directory: '/nonexistent-dir/fig.csv'\n"),
    ("figure-tol-key", "figure 2", "tol_sld_residual = 1\n", 2, "",
     "usage error: config keys name no option of figure: tol_sld_residual\n"),
    ("figure-dmax-key-not-int", "figure 2", "dmax = 1e3\n", 2, "",
     parse_error("figure", "argument --dmax: invalid int value: '1e3'")),
    ("verify-dmax-33", "verify --dmax 33", None, 2, "",
     "usage error: dmax is limited to 32, to bound verify's run time; got 33\n"),
    ("verify-negative-seed", "verify --dmax 2 --seed -1", None, 2, "",
     "usage error: --seed must be a non-negative integer\n"),
    ("verify-negative-seed-key", "verify --dmax 2", "seed = -1\n", 2, "",
     "usage error: --seed must be a non-negative integer\n"),
    ("verify-dmax-key-not-int", "verify", "dmax = 2.5\n", 2, "",
     parse_error("verify", "argument --dmax: invalid int value: '2.5'")),
    # the oracle step is fixed: every tolerance is calibrated at oracle.DEFAULT_FD_STEP
    ("verify-fd-step-flag", "verify --fd-step 1e-4", None, 2, "",
     parse_error("verify", "unrecognized arguments: --fd-step 1e-4")),
    ("verify-fd-step-key", "verify", "fd_step = 1e-4\n", 2, "",
     "usage error: config keys name no option of verify: fd_step\n"),
    # a loosened tolerance would report the self-test fault as a pass
    ("verify-tol-key", "verify --mutate", "tol_scaling_form_uqcm = 1.0\n", 2, "",
     "usage error: config keys name no option of verify: tol_scaling_form_uqcm\n"),
    ("version", "--version", None, 0, f"phaseclone {phaseclone.__version__}\n", ""),
]


@pytest.mark.parametrize("argv, config, code, stdout, stderr", [pytest.param(*c[1:], id=c[0]) for c in CASES])
def test_cli_case(tmp_path, capsys, argv, config, code, stdout, stderr):
    argv, cfg = argv.split(), tmp_path / "run.cfg"
    if config is not None:
        cfg.write_bytes(config if isinstance(config, bytes) else config.encode())
        argv += ["--config", str(cfg)]
    assert run(capsys, *argv) == (code, stdout, stderr.replace("<config>", str(cfg)))


@pytest.mark.parametrize("argv", ["compute --machine pqcm --format json", "compute --machine uqcm", "figure 1"])
def test_unwritable_out_fails_before_any_row_is_formatted(tmp_path, capsys, monkeypatch, argv):
    # at d = 10^6 the rows take seconds to format, so the path is checked first
    monkeypatch.setattr(cli, "_rows", lambda columns: pytest.fail("a row was formatted"))
    out = tmp_path / "missing" / "f.csv"
    expected = f"error: [Errno 2] No such file or directory: '{out}'\n"
    assert run(capsys, *argv.split(), "--out", str(out)) == (1, "", expected)


class TestCompute:
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

    @pytest.mark.parametrize("machine", ["pure", "uqcm", "pqcm", "shrink"])
    def test_lambda1_cell_is_minus_f_offdiag(self, capsys, machine):
        # exact under F_diag = -(d-1) F_off; the sum F_diag + (d-2) F_off
        # cancels and printed 2.0000019999e-12 for 2.00000200001e-12 (uqcm, d = 999999)
        eta_args = ["--eta", "0.4"] if machine == "shrink" else []
        for dmin, dmax in ((2, 64), (10**4, 10**4), (999999, 10**6)):
            argv = ["--machine", machine, *eta_args, "--dmin", str(dmin), "--dmax", str(dmax)]
            code, out, err = run(capsys, "compute", *argv)
            assert code == 0, err
            header, rows = parse_csv(out)
            assert len(rows) == dmax - dmin + 1
            for row in rows:
                assert "-" + row[header.index("lambda1")] == row[header.index("f_offdiag")]

    def test_byte_identical_for_fixed_seed(self, tmp_path, capsys):
        args = ["compute", "--machine", "pqcm", "--dmax", "8", "--seed", "777"]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()
        assert b"# seed=777" in f1.read_bytes()
        assert f1.read_bytes().count(b"\r") == 0

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

    def test_format_from_config_checked_before_any_closed_form(self, tmp_path, capsys, monkeypatch):
        # a file's format is a --format flag, so argparse checks its choices
        cfg = tmp_path / "fmt.cfg"
        cfg.write_text("format = xml\n")
        monkeypatch.setattr(cli, "closed_entries", lambda *a: pytest.fail("closed form computed"))
        argv = ("compute", "--machine", "uqcm", "--dmax", "1000000")
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err == run(capsys, *argv, "--format", "xml")[2]

    def test_config_file_is_read_as_utf8_in_any_locale(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("# shrinking factor \u03b7\nmachine = pure\ndmax = 3\n", encoding="utf-8")
        src = os.path.dirname(os.path.dirname(phaseclone.__file__))
        env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0", "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "phaseclone.cli", "compute", "--config", str(cfg)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert [row[0] for row in parse_csv(proc.stdout)[1]] == ["2", "3"]


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

    def test_progress_report_and_summary_agree(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code, _, err = run(capsys, "verify", "--dmax", "3", "--mutate", "--out", str(report_path))
        assert code == 3
        report = json.loads(report_path.read_text())
        expected = [
            f"[{'pass' if e['pass'] else 'FAIL'}] {e['name']}: "
            f"max_error={e['max_error']:.3e} tolerance={e['tolerance']:.1e}"
            for e in report
        ]
        n_pass = sum(e["pass"] for e in report)
        assert err.splitlines() == expected + [f"{n_pass}/{len(report)} checks passed"]

    def test_failed_run_keeps_the_previous_report(self, tmp_path, capsys, monkeypatch):
        report_path = tmp_path / "report.json"
        report_path.write_text("old")

        def fail(**kw):
            raise RuntimeError("numerical failure")

        monkeypatch.setattr(cli, "run_verification", fail)
        code, out, err = run(capsys, "verify", "--dmax", "2", "--out", str(report_path))
        assert code == 1
        assert err == "error: numerical failure\n"
        assert report_path.read_text() == "old"

    @pytest.mark.parametrize("target", ["missing-dir/report.json", "."])
    def test_unwritable_out_fails_before_any_check(self, tmp_path, capsys, target):
        code, out, err = run(capsys, "verify", "--dmax", "2", "--out", str(tmp_path / target))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "[pass]" not in err and "[FAIL]" not in err


@pytest.mark.parametrize(
    "argv,text",
    [
        (("compute", "--machine", "uqcm"), "dmin = 3\ndmax = 4\nseed = 9\nformat = json\n"),
        (("figure", "2"), "dmax = 3\n"),
    ],
    ids=["compute", "figure"],
)
def test_config_values_do_not_outlive_their_call(tmp_path, capsys, argv, text):
    """main runs many commands in one process; a file's values are flags of
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
    cfg.write_text("dmax = 2\nseed = 3\n")
    calls = []
    monkeypatch.setattr("phaseclone.cli.run_verification", lambda **kw: calls.append(kw) or [])
    assert main(["verify", "--config", str(cfg)]) == 0
    assert main(["verify"]) == 0
    assert [(c["dmax_full"], c["seed"]) for c in calls] == [(2, 3), (8, DEFAULT_SEED)]


def test_plain_calls_build_the_parser_once(tmp_path, capsys, monkeypatch):
    """main builds its parser on the first call of a process; later calls,
    --config calls among them, only read it."""
    monkeypatch.setattr(cli, "run_verification", lambda **kw: [])
    build, builds = cli.build_parser, []
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._shared_parser.cache_clear()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dmax = 3\n")
    argvs = (["compute", "--machine", "uqcm"], ["figure", "1"], ["verify"], ["compute", "--dmin", "1"])
    assert [main(argv) for argv in argvs] == [0, 0, 0, 2]
    assert [main([*argv, "--config", str(cfg)]) for argv in argvs] == [0, 0, 0, 2]
    assert len(builds) == 1


def test_config_call_leaves_the_shared_parser_alone(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dmax = 3\nseed = 9\n")
    monkeypatch.setattr(cli, "run_verification", lambda **kw: [])
    shared = cli._shared_parser()
    assert main(["compute", "--machine", "uqcm", "--config", str(cfg)]) == 0
    assert main(["verify", "--config", str(cfg)]) == 0
    assert cli._shared_parser() is shared
    assert shared.parse_args(["compute"]).dmax == 20
    assert shared.parse_args(["verify"]).seed == DEFAULT_SEED


def test_threads_share_the_parser_safely(tmp_path):
    """Plain and --config calls from several threads each write their own output."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dmax = 3\n")
    argvs = [["compute", "--machine", "uqcm"], ["compute", "--machine", "uqcm", "--config", str(cfg)]]
    expected = []
    for k, argv in enumerate(argvs):
        assert main([*argv, "--out", str(tmp_path / f"ref{k}.csv")]) == 0
        expected.append((tmp_path / f"ref{k}.csv").read_text())
    assert expected[0] != expected[1]

    def work(t):
        for i in range(20):
            out = tmp_path / f"t{t}-{i}.csv"
            assert main([*argvs[(t + i) % 2], "--out", str(out)]) == 0
            assert out.read_text() == expected[(t + i) % 2]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            for future in [pool.submit(work, t) for t in range(4)]:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)


def test_command_argv_never_reaches_the_top_level_parser(capsys, monkeypatch):
    """A command line is parsed once, by its subcommand's parser alone."""
    monkeypatch.setattr(cli, "run_verification", lambda **kw: [])
    shared, calls = cli._shared_parser(), []
    parse = shared.parse_known_args
    monkeypatch.setattr(shared, "parse_known_args", lambda *a, **kw: calls.append(a) or parse(*a, **kw))
    argvs = (["compute", "--machine", "uqcm"], ["figure", "1"], ["verify", "--dmax", "2"])
    assert [main(argv) for argv in argvs] == [0, 0, 0]
    assert calls == []
    assert main(["--version"]) == 0 and len(calls) == 1  # the counter does see top-level parses


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    # the installed console script calls main() with no arguments
    argv = ["compute", "--machine", "pure", "--dmax", "3"]
    monkeypatch.setattr(sys, "argv", ["phaseclone", *argv])
    assert main() == 0
    assert capsys.readouterr().out == run(capsys, *argv)[1]


USAGE = "usage: phaseclone [-h] [--version] {compute,figure,verify} ...\n"


@pytest.mark.parametrize(
    "argv,code,head",
    [
        (["--help"], 0, USAGE),
        (["--version"], 0, f"phaseclone {phaseclone.__version__}\n"),
        ([], 2, USAGE),
        (["bogus"], 2, USAGE),
    ],
    ids=["help", "version", "empty", "unknown-command"],
)
def test_top_level_parser_answers_argv_without_a_command(capsys, argv, code, head):
    """Help, version, a missing or an unknown command: the top-level parser's own exit and text."""
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    expected = (exc.value.code, *capsys.readouterr())
    assert expected[0] == code and (expected[1] + expected[2]).startswith(head)
    assert run(capsys, *argv) == expected


# SHA-256 of shipped outputs; closed-form IEEE arithmetic, so they do not depend on BLAS
SHIPPED_DIGESTS = [
    ("compute-pure", "compute --machine pure --dmax 64",
     "a0dd3d71342f499b9c01b4aa80b7a10f6e528a0aa973ddd82920f94d0c85359d"),
    ("compute-uqcm", "compute --machine uqcm --dmax 64",
     "dd0467b419fee9e3745798ad843479e7db862bdc770ca5ebbf57c15a5ddbd72d"),
    ("compute-pqcm", "compute --machine pqcm --dmax 64",
     "da25339fd8cadf0b62d0d11203ea67ee03a25e26bfa5e433f901926feeeaad09"),
    ("compute-shrink-json", "compute --machine shrink --eta 0.4 --dmax 64 --format json",
     "92389884935299e62061969a7b9507af6e46bef0844c011b4088cc94c792f117"),
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
