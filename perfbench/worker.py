"""One benchmark worker: imports phaseclone fresh and runs a workload's passes.

Run by run.py as `python3 perfbench/worker.py '<json spec>'` with
PYTHONPATH pointing at the checkout's `src/`.  The spec names the checkout
root, workload, seed, measuring budget in seconds, whether to trace, and
where to write spans.  Commands are driven in-process through
`phaseclone.cli.main(argv)` with stdout and stderr captured; each output is
checked after its pass, outside the timed region.  The last stdout line is a
JSON object with every pass's timings and check results.
"""

from __future__ import annotations

import io
import json
import os
import resource
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _verify_counts(text: str) -> tuple[int, int]:
    try:
        report = json.loads(text)
        return len(report), sum(1 for entry in report if entry.get("pass") is not True)
    except (ValueError, TypeError, AttributeError):
        return 0, 0


def run_pass(cli, commands, tracer=None) -> dict:
    """Run every command once, back to back; check outputs after the clock stops."""
    first_span = len(tracer.spans) if tracer else 0
    results = []
    if tracer:
        tracer.install()
    try:
        cpu0, t0 = _cpu_s(), perf_counter()
        for cmd in commands:
            out, err = io.StringIO(), io.StringIO()
            if tracer:
                tracer.request += 1
            c0 = perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    rc = cli.main(list(cmd.argv))
            except Exception as exc:  # noqa: BLE001 - a crash is a failed command
                rc, err = None, io.StringIO(f"{type(exc).__name__}: {exc}")
            results.append((cmd, rc, perf_counter() - c0, out.getvalue(), err.getvalue()))
        wall, cpu = perf_counter() - t0, _cpu_s() - cpu0
    finally:
        if tracer:
            tracer.uninstall()

    record = {"traced": tracer is not None, "wall_s": wall, "cpu_s": cpu, "commands": []}
    for cmd, rc, seconds, out, err in results:
        if rc != 0:
            problems = [f"exit code {rc}: {err.strip()[-300:]}"]
        else:
            try:
                problems = cmd.check(out)
            except Exception as exc:  # noqa: BLE001 - output the checker cannot parse is wrong output
                problems = [f"output could not be checked: {type(exc).__name__}: {exc}"]
        record["commands"].append({"argv": cmd.argv, "exit": rc, "wall_s": seconds, "problems": problems})
    if tracer:
        layers = tracer.layer_totals(first_span)
        verify_out = [out for cmd, _, _, out, _ in results if cmd.argv[0] == "verify"]
        counts = [_verify_counts(text) for text in verify_out]
        layers["verify.checks"] = sum(c[0] for c in counts)
        layers["verify.checks_failed"] = sum(c[1] for c in counts)
        record["layers"] = layers
    return record


def environment(np) -> dict:
    return {
        "python": sys.version,
        "numpy": np.__version__,
        "blas_config": np.show_config(mode="dicts"),
        "cpu_count": os.cpu_count(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main(spec: dict) -> dict:
    root = Path(spec["root"])
    t0 = perf_counter()
    import phaseclone
    import phaseclone.cli as cli

    import_s = perf_counter() - t0
    src = (root / "src").resolve()
    if src not in Path(phaseclone.__file__).resolve().parents:
        raise RuntimeError(f"phaseclone was imported from {phaseclone.__file__}, not from {src}")

    import numpy as np
    from calib import kernel_s
    from tracer import Tracer, span_cost_s
    from workloads import WORKLOADS

    commands = WORKLOADS[spec["workload"]](spec["seed"])
    tracer = Tracer() if spec["trace"] else None
    budget = float(spec["seconds"])

    passes, rounds = [], []
    start = perf_counter()
    kernel = kernel_s()
    while True:
        r0 = perf_counter()
        kinds = [None, tracer] if tracer else [None]
        if len(rounds) % 2:  # alternate which pass goes first, so first-pass warm-up and drift cancel
            kinds.reverse()
        for kind in kinds:
            record = run_pass(cli, commands, kind)
            # the reference kernel on both sides of the pass gauges the host's speed during it
            after = kernel_s()
            record["kernel_s"] = (kernel + after) / 2
            kernel = after
            passes.append(record)
        rounds.append(perf_counter() - r0)
        # start another round only if it should end within the budget
        if perf_counter() - start + statistics.median(rounds) > budget:
            break

    if tracer:
        with open(spec["spans_path"], "w") as fh:
            fh.write(json.dumps(["name", "start_s", "end_s", "parent", "request", "bytes_out"]) + "\n")
            for rec in tracer.spans:
                fh.write(json.dumps([rec[0], rec[1] - start, rec[2] - start, *rec[3:]]) + "\n")
    return {
        "import_s": import_s,
        "environment": environment(np),
        "passes": passes,
        "untraced_functions": tracer.missing if tracer else [],
        "span_cost_s": span_cost_s() if tracer else None,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
