"""The benchmark tracer wraps phaseclone functions by name, so a renamed or
deleted function would leave its per-layer metrics silently at zero."""

import importlib.util
from pathlib import Path


def test_every_tracer_target_resolves():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    try:
        t.install()
        assert t.missing == []
    finally:
        t.uninstall()
