"""phaseclone benchmark: drives the CLI in-process and checks every output.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dense-sweep --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

One run times `setup_s` (median over fresh interpreters importing phaseclone
and phaseclone.cli, half before and half after the worker) and starts one
worker process that imports the package and runs the workload's commands back to back in passes for about
`--seconds` seconds (a pass is never started unless it should end within the
budget; there is always at least one).  Every output is checked against
perfbench/reference.py.  The last stdout line is the JSON result:

  --trace 0: end-to-end metrics setup_s, run_s, peak_rss_mb, success_rate
  --trace 1: per-layer metrics from alternating untraced and traced passes

`setup_s` and `run_s` are calibrated: each import and each pass is timed
next to the fixed reference kernel of perfbench/calib.py and rescaled to
the host speed at which that kernel takes `calib.REFERENCE_S`, so that other
tenants slowing a shared host do not read as the program slowing.  The times
as measured are printed beside them and kept in the result file.

A result file with an environment header goes to perfbench/out/, and a
traced run also writes its spans there.  The benchmark never changes BLAS
thread settings.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calib import REFERENCE_S
from tracer import LAYER_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MAIN_WORKLOADS = ("dense-sweep", "closed-large-d", "verify-oracle")

# fresh interpreters timed for setup_s, after one untimed warm-up import
SETUP_SAMPLES = 8
IMPORT_SNIPPET = (
    "from time import perf_counter; t = perf_counter(); "
    "import phaseclone, phaseclone.cli; t = perf_counter() - t; "
    f"import sys; sys.path.insert(0, {str(HERE)!r}); import calib; print(t, calib.kernel_s())"
)

# every run ends well inside the 180 s a run may take
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _last_line(label: str, argv: list[str], deadline: float) -> str:
    """Run a Python subprocess in the checkout and return its last stdout line."""
    timeout = deadline - perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{label} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{label} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def time_imports(count: int, deadline: float) -> list[list[float]]:
    """[import time, reference kernel time right after it] for `count` fresh interpreters."""
    argv = [sys.executable, "-c", IMPORT_SNIPPET]
    return [[float(x) for x in _last_line("import of phaseclone", argv, deadline).split()] for _ in range(count)]


def calibrated(pairs) -> list[float]:
    """Each (measured, kernel) time rescaled to the host speed at which the kernel takes REFERENCE_S."""
    return [measured * REFERENCE_S / kernel for measured, kernel in pairs]


def git_commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def src_line_count() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def tail_percentile(samples: list[float]) -> dict | None:
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in (99, 95, 90, 75, 50):
        beyond = int(n * (100 - p) / 100)
        if beyond >= 10:
            return {"percentile": p, "value": ordered[n - beyond - 1], "samples_beyond": beyond}
    return None


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = perf_counter() + RUN_TIMEOUT_S
    time_imports(1, deadline)  # may compile bytecode, which users pay once
    setup = time_imports(SETUP_SAMPLES // 2, deadline)
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    spec = {
        "root": str(ROOT), "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "spans_path": str(OUT / f"{stem}-spans.jsonl") if trace else None,
    }
    worker_argv = [sys.executable, str(HERE / "worker.py"), json.dumps(spec)]
    worker = json.loads(_last_line("worker", worker_argv, deadline))
    # the rest of the samples after the passes, so drift in machine load during a run is averaged
    setup += time_imports(SETUP_SAMPLES - len(setup), deadline)

    passes = worker["passes"]
    commands = [c for p in passes for c in p["commands"]]
    failures = [c for c in commands if c["problems"]]
    plain = [p for p in passes if not p["traced"]]
    walls = [p["wall_s"] for p in plain]
    runs = calibrated((p["wall_s"], p["kernel_s"]) for p in plain)
    setups = calibrated(setup)
    if trace:
        traced = [p for p in passes if p["traced"]]
        layers = {name: statistics.median(p["layers"].get(name, 0) for p in traced) for name, _, _ in LAYER_METRICS}
        layers["process.cpu_s"] = statistics.median(p["cpu_s"] for p in plain)
        layers["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - statistics.median(walls)
        spans = statistics.median(sum(v for k, v in p["layers"].items() if k.endswith(".calls")) for p in traced)
        layers["trace.estimated_overhead_s"] = spans * worker["span_cost_s"]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": statistics.median(runs), "unit": "s"},
            "peak_rss_mb": {"value": worker["peak_rss_kib"] / 1024.0, "unit": "MiB"},
            "success_rate": {"value": 1.0 - len(failures) / len(commands), "unit": "ratio"},
        }

    result = {
        "correct": not failures,
        "attempted": len(commands),
        "failed": len(failures),
        "metrics": metrics,
    }
    header = dict(worker["environment"], git_commit=git_commit(), seed=seed, src_lines=src_line_count())
    detail = {
        "environment": header,
        "workload": workload,
        "seconds": seconds,
        "trace": trace,
        "reference_kernel_s": REFERENCE_S,
        "setup_s_samples": setups,
        "setup_s_raw": setup,
        "worker_import_s": worker["import_s"],
        "run_s_samples": runs,
        "run_s_tail": tail_percentile(runs),
        "run_s_raw": walls,
        "untraced_functions": worker["untraced_functions"],
        "failures": failures,
        "passes": passes,
        "result": result,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    return detail


def report(detail: dict) -> None:
    result = detail["result"]
    walls = detail["run_s_samples"]
    print(f"== {detail['workload']}  seed={detail['environment']['seed']}  trace={int(detail['trace'])}  "
          f"{len(walls)} untraced pass(es), {result['attempted']} commands, {result['failed']} failed")
    if detail["trace"]:
        for name, metric in result["metrics"].items():
            print(f"  {name:40s} {metric['value']:>14.6g} {metric['unit']}")
        if detail["untraced_functions"]:
            print(f"  not found, so not traced: {', '.join(detail['untraced_functions'])}")
    else:
        m = result["metrics"]
        tail = detail["run_s_tail"]
        tail_text = (
            f"p{tail['percentile']} {tail['value']:.4f} s ({tail['samples_beyond']} samples beyond)"
            if tail else "no percentile above the median has ten samples beyond it"
        )
        raw_setup = statistics.median(s for s, _ in detail["setup_s_raw"])
        print(f"  setup_s      {m['setup_s']['value']:.4f} s   (median of {len(detail['setup_s_samples'])} fresh imports, "
              f"calibrated; {raw_setup:.4f} s as timed)")
        print(f"  run_s        {m['run_s']['value']:.4f} s   (median of {len(walls)} passes, calibrated; {tail_text}; "
              f"{statistics.median(detail['run_s_raw']):.4f} s as timed)")
        print(f"  peak_rss_mb  {m['peak_rss_mb']['value']:.2f} MiB")
        print(f"  error_rate   {result['failed'] / result['attempted']:.4f} ratio "
              f"(success_rate {m['success_rate']['value']:.4f})")
    for failure in detail["failures"][:5]:
        print(f"  FAILED {' '.join(failure['argv'])}: {'; '.join(failure['problems'][:3])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "phaseclone" / "__init__.py").is_file():
        print(f"error: no phaseclone sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = MAIN_WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        details = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for detail in details:
        report(detail)
    results = [d["result"] for d in details]
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{d['workload']}.{k}": v for d in details for k, v in d["result"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
