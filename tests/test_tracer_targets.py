"""Every layer function that perfbench's tracer wraps by name exists, and
a traced run of the zeta commands gives every layer metric."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
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


_TRACED_RUN = """
import json, math, os, sys
sys.path.insert(0, sys.argv[1])
import shortmean.cli as cli
import tracer
tracer.install()
for argv in (["perron", "--fn", "f3", "--x", "1000.5", "--T", "100,316,1000"],
             ["zeta-moment", "--T", "20,50"]):
    assert cli.run(argv + ["--out", os.devnull]) == 0, argv
spans = tracer.SPANS
metrics = tracer.layer_metrics(spans, 1.0, 1.0)
print(json.dumps({
    "open": sum(span is None for span in spans),
    "missing": sorted(set(tracer.LAYER_METRICS) - set(metrics)),
    "infinite": sorted(k for k, v in metrics.items() if not math.isfinite(v)),
    "em_points": metrics["zeta.zeta_em.points"],
    "many_points": sum(attrs["points"] for name, *_, attrs in spans
                       if name == "zeta.zeta_many"),
}))
"""


def test_traced_commands_close_every_span_and_count_zeta_points():
    # the tracer reads zeta_em's block and N from its call's arguments; a
    # traced perron and second-moment run must close every span, give a
    # finite value for every layer metric, and count in zeta_em spans the
    # points that the zeta_many spans passed in
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, str(root / "perfbench")],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout.splitlines()[-1])
    assert got["open"] == 0
    assert got["missing"] == [] and got["infinite"] == []
    assert got["em_points"] == got["many_points"] > 0
