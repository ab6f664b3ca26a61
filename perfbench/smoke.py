"""Smoke run of the benchmark harness itself, at d <= 8.

    python3 perfbench/smoke.py

Runs the `smoke` workload untraced and traced through the same worker the
benchmark uses, checks that every output passed and every layer recorded
spans, then feeds deliberately corrupted outputs to the reference checks and
confirms each corruption is caught.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import reference
import run
from tracer import LAYER_METRICS, Tracer
from workloads import WORKLOADS

SEED = 7
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"[{'ok' if ok else 'FAIL'}] {what}")
    if not ok:
        failures.append(what)


def cli_output(cli, argv: list[str]) -> str:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    expect(rc == 0, f"{' '.join(argv)} exits 0")
    return out.getvalue()


def check_harness() -> None:
    plain = run.run_workload("smoke", SEED, 0.1, trace=False)["result"]
    expect(plain["correct"] and plain["attempted"] == len(WORKLOADS["smoke"](SEED)), "untraced smoke pass is correct")
    expect(set(plain["metrics"]) == {"setup_s", "run_s", "peak_rss_mb", "success_rate"}, "end-to-end metric names")
    expect(all(m["value"] > 0 for m in plain["metrics"].values()), "end-to-end metrics are positive")

    traced = run.run_workload("smoke", SEED, 0.1, trace=True)
    metrics = traced["result"]["metrics"]
    expect(traced["result"]["correct"], "traced smoke pass is correct")
    expect([name for name, _, _ in LAYER_METRICS] == list(metrics), "every per-layer metric is reported")
    for name, metric in metrics.items():
        if name.endswith(".calls"):
            expect(metric["value"] > 0, f"{name} recorded spans")
    expect(metrics["verify.checks"]["value"] == len(reference.VERIFY_BASELINE), "verify report has every check")
    expect(not traced["untraced_functions"], "every traced function was found")


def check_tracer(cli, states) -> None:
    original = states.basis_derivatives
    tracer = Tracer()
    tracer.install()
    try:
        expect(cli.basis_derivatives is not original, "tracer rebinds the name the CLI looks up")
        cli_output(cli, ["compute", "--machine", "uqcm", "--dmin", "2", "--dmax", "4"])
    finally:
        tracer.uninstall()
    expect(cli.basis_derivatives is original and states.basis_derivatives is original, "uninstall restores")
    totals = tracer.layer_totals()
    expect(totals.get("cli.compute.calls") == 1, "one cli.compute span")
    expect(totals.get("states.basis_derivatives.calls") == 3, "three basis_derivatives spans (d = 2..4)")
    root = [i for i, rec in enumerate(tracer.spans) if rec[3] == -1]
    expect(len(root) == 1 and tracer.spans[root[0]][0] == "cli.compute", "cli.compute is the only root span")
    child_sum = sum(rec[2] - rec[1] for rec in tracer.spans if rec[3] == root[0])
    span = tracer.spans[root[0]]
    expect(abs(totals["cli.compute.self_s"] - (span[2] - span[1] - child_sum)) < 1e-12, "self time excludes children")


def check_reference_catches(cli) -> None:
    seed_line = [f"# seed={SEED}"]
    rows = [reference.compute_row("uqcm", d) for d in range(2, 9)]
    text = cli_output(cli, ["compute", "--machine", "uqcm", "--dmin", "2", "--dmax", "8", "--seed", str(SEED)])
    expect(reference.check_csv(text, rows, seed_line) == [], "true compute output passes")

    lines = text.split("\n")
    cells = lines[4].split(",")  # d = 4
    for column, value in (("f_diag", f"{float(cells[2]) * (1 + 1e-9):.12g}"), ("attainable", "false")):
        bad = list(cells)
        bad[list(rows[0]).index(column)] = value
        corrupted = "\n".join(lines[:4] + [",".join(bad)] + lines[5:])
        problems = reference.check_csv(corrupted, rows, seed_line)
        expect(len(problems) == 1 and problems[0].startswith("d=4") and column in problems[0], f"wrong {column} caught")
    dropped = "\n".join(lines[:4] + lines[5:])
    expect(reference.check_csv(dropped, rows, seed_line) != [], "missing row caught")
    expect(reference.check_csv(text, rows, ["# seed=0"]) != [], "wrong seed line caught")

    fig = cli_output(cli, ["figure", "3", "--dmax", "8"])
    expect(reference.check_csv(fig, [reference.figure_row(3, d) for d in range(2, 9)], []) == [], "figure 3 passes")
    expect(reference.check_csv(fig, [reference.figure_row(2, d) for d in range(2, 9)], []) != [], "wrong figure caught")

    report = json.loads(cli_output(cli, ["verify", "--dmax", "3", "--seed", str(SEED)]))
    expect(reference.check_verify_report(json.dumps(report)) == [], "true verify report passes")
    loose = [dict(e, tolerance=e["tolerance"] * 10 + 1e-3) if e["name"] == "sld_residual" else e for e in report]
    expect(reference.check_verify_report(json.dumps(loose)) != [], "loosened tolerance caught")
    expect(reference.check_verify_report(json.dumps(report[1:])) != [], "dropped check caught")
    failed = [dict(e, **{"pass": False}) if i == 0 else e for i, e in enumerate(report)]
    expect(reference.check_verify_report(json.dumps(failed)) != [], "failed check caught")


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    import phaseclone.cli as cli
    import phaseclone.states as states

    check_harness()
    check_tracer(cli, states)
    check_reference_catches(cli)
    print(f"smoke: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
