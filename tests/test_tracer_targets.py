"""Every layer function that perfbench's tracer wraps by name exists."""

import importlib
import importlib.util
from pathlib import Path


def test_tracer_targets_resolve_in_shortmean():
    # the tracer is read, not edited: a deleted or renamed layer function
    # would otherwise fail only a traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for mod, fname, _ in tracer.TARGETS:
        module = importlib.import_module(f"shortmean.{mod}")
        assert callable(getattr(module, fname, None)), (mod, fname)
