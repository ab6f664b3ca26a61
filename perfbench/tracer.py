"""Span tracer that wraps phaseclone's public functions from outside.

`Tracer.install` rebinds each traced function under every name a phaseclone
module holds it by (for example both `phaseclone.states.basis_derivatives`
and `phaseclone.cli.basis_derivatives`), so callers reach the wrapper
wherever they look the name up.  `uninstall` puts the originals back.
Each call records a span `[name, start, end, parent, request, bytes_out]`
in memory, where `parent` indexes the enclosing span (-1 for none) and
`request` numbers the CLI command the span belongs to; the caller writes the
spans out when the run ends.

Inner helpers called tens of thousands of times (`basis_derivative`,
`_chi_vector`) are not wrapped.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# (module, attribute, layer metric the span counts toward)
TARGETS = [
    ("phaseclone.cli", "cmd_compute", "cli.compute"),
    ("phaseclone.cli", "cmd_figure", "cli.figure"),
    ("phaseclone.cli", "cmd_verify", "cli.verify"),
    ("phaseclone.verify", "run_verification", "verify.run_verification"),
    ("phaseclone.states", "complement_basis", "states.complement_basis"),
    ("phaseclone.states", "basis_derivatives", "states.basis_derivatives"),
    ("phaseclone.qfim", "spectral_output", "qfim.spectral_output"),
    ("phaseclone.qfim", "qfim_from_spectral", "qfim.qfim_from_spectral"),
    ("phaseclone.qfim", "qfim_pure_entries", "qfim.closed_entries"),
    ("phaseclone.qfim", "qfim_shrink_entries", "qfim.closed_entries"),
    ("phaseclone.qfim", "qfim_uqcm_entries", "qfim.closed_entries"),
    ("phaseclone.qfim", "qfim_pqcm_entries", "qfim.closed_entries"),
    ("phaseclone.crb", "attainability_closed", "crb.attainability_closed"),
    ("phaseclone.crb", "total_variance_bound", "crb.total_variance_bound"),
    ("phaseclone.channels", "uqcm_full_output", "channels.full_output"),
    ("phaseclone.channels", "pqcm_full_output", "channels.full_output"),
    ("phaseclone.channels", "reduce_first_qudit", "channels.reduce_first_qudit"),
    ("phaseclone.channels", "shrink_output", "channels.shrink_output"),
    ("phaseclone.oracle", "qfim_numeric", "oracle.qfim_numeric"),
    ("phaseclone.oracle", "attainability_numeric", "oracle.attainability_numeric"),
    ("phaseclone.oracle", "rho_derivative", "oracle.rho_derivative"),
    ("phaseclone.oracle", "sld_solve", "oracle.sld_solve"),
    ("phaseclone.oracle", "ParamChannel.density", "oracle.density"),
]

# spans whose result size is recorded
BYTES_OUT = {"states.basis_derivatives"}

# (metric, unit, better) reported by a traced run, in BENCHMARK.json order
LAYER_METRICS = (
    [("states.basis_derivatives.calls", "count", "lower"),
     ("states.basis_derivatives.self_s", "s", "lower"),
     ("states.basis_derivatives.bytes_out", "bytes", "lower")]
    + [
        (f"{layer}.{kind}", unit, better)
        for layer in (
            "states.complement_basis", "qfim.spectral_output", "crb.attainability_closed",
            "qfim.qfim_from_spectral", "crb.total_variance_bound", "qfim.closed_entries",
            "channels.full_output", "channels.reduce_first_qudit", "channels.shrink_output",
            "oracle.qfim_numeric", "oracle.attainability_numeric", "oracle.rho_derivative",
            "oracle.sld_solve",
        )
        for kind, unit, better in (
            ("calls", "count", "higher" if layer == "crb.attainability_closed" else "lower"),
            ("self_s", "s", "lower"),
        )
    ]
    + [("oracle.density.calls", "count", "lower")]
    + [(f"cli.{cmd}.self_s", "s", "lower") for cmd in ("compute", "figure", "verify")]
    + [("verify.run_verification.self_s", "s", "lower"),
       ("verify.checks", "count", "higher"),
       ("verify.checks_failed", "count", "lower"),
       ("process.cpu_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower"),
       ("trace.estimated_overhead_s", "s", "lower")]
)


def _resolve(module_name: str, attr: str):
    """Return (owner, name, function) for a dotted attribute, or None if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, name, None)
    return None if fn is None else (owner, name, fn)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, record_bytes = self.spans, self._stack, name in BYTES_OUT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.request, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if record_bytes:
                rec[5] = int(getattr(out, "nbytes", 0))
            return out

        return wrapper

    def install(self) -> None:
        """Rebind every target under each name phaseclone's modules hold it by."""
        modules = [m for n, m in list(sys.modules.items()) if n == "phaseclone" or n.startswith("phaseclone.")]
        self.missing = []
        for module_name, attr, layer in TARGETS:
            found = _resolve(module_name, attr)
            if found is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            owner, name, fn = found
            wrapper = self._wrap(layer, fn)
            holders = [(owner, name)] + [
                (m, key) for m in modules if m is not owner for key, val in list(vars(m).items()) if val is fn
            ]
            for holder, key in holders:
                self._restore.append((holder, key, fn))
                setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, fn in reversed(self._restore):
            setattr(holder, key, fn)
        self._restore.clear()

    def layer_totals(self, first_span: int = 0) -> dict[str, float]:
        """calls, self_s and bytes_out per layer over spans[first_span:]."""
        spans = self.spans[first_span:]
        child = [0.0] * len(spans)
        for rec in spans:
            parent = rec[3] - first_span
            if parent >= 0:
                child[parent] += rec[2] - rec[1]
        totals: dict[str, float] = {}
        for rec, covered in zip(spans, child):
            name = rec[0]
            totals[f"{name}.calls"] = totals.get(f"{name}.calls", 0) + 1
            totals[f"{name}.self_s"] = totals.get(f"{name}.self_s", 0.0) + (rec[2] - rec[1] - covered)
            if name in BYTES_OUT:
                totals[f"{name}.bytes_out"] = totals.get(f"{name}.bytes_out", 0) + rec[5]
        return totals


def span_cost_s(calls: int = 20000) -> float:
    """Wall time one wrapper adds to a call, measured on a function that does nothing.

    Multiplied by a pass's span count, this estimates the tracing overhead
    without the run-to-run noise of comparing two passes.
    """
    def noop():
        return None

    wrapped = Tracer()._wrap("noop", noop)
    t0 = perf_counter()
    for _ in range(calls):
        noop()
    t1 = perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)
