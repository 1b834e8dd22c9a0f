"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py -q

Takes about a minute and a half: it runs every workload at its tiny size
once untraced and twice traced.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracer
import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=run.ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def _final(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def untraced():
    return _final(_bench("--workload", "all", "--tiny", "--seconds", "0", "--trace", "0"))


@pytest.fixture(scope="module")
def traced_twice():
    return [_final(_bench("--workload", "all", "--tiny", "--seconds", "0", "--trace", "1"))
            for _ in range(2)]


def _by_workload(final):
    out = {}
    for key, m in final["metrics"].items():
        name, metric = key.split("/", 1)
        out.setdefault(name, {})[metric] = m
    return out


def test_declared_metrics_match_the_harness():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracer.LAYER_METRICS
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == workloads.WHY
    assert list(workloads.WHY) == list(workloads.NAMES)


def test_every_end_to_end_metric_emitted_with_unit(untraced):
    assert untraced["correct"] and untraced["failed"] == 0
    per = _by_workload(untraced)
    assert set(per) == set(workloads.NAMES)
    for name, metrics in per.items():
        assert {k: m["unit"] for k, m in metrics.items()} == run.END_TO_END, name
        assert all(m["value"] > 0 for m in metrics.values()), name


def test_every_layer_metric_emitted_with_unit(traced_twice):
    for final in traced_twice:
        assert final["correct"]
        for name, metrics in _by_workload(final).items():
            assert {k: m["unit"] for k, m in metrics.items()} == tracer.LAYER_METRICS, name


def test_count_metrics_repeat_exactly(traced_twice):
    first, second = (_by_workload(f) for f in traced_twice)
    for name in workloads.NAMES:
        for key in tracer.COUNT_METRICS:
            assert first[name][key]["value"] == second[name][key]["value"], (name, key)
    # each workload drives its own layers
    sieve, analytic = first["sieve"], first["analytic"]
    assert sieve["sieve.segments"]["value"] > 2
    assert sieve["asymptotics.predict.calls"]["value"] > 0
    assert sieve["zeta.zeta_em.points"]["value"] == 0
    assert analytic["constants.pi_function.calls"]["value"] > 0
    assert analytic["perron.F_eval.points"]["value"] > 0
    assert analytic["zetachecks.zeta_points"]["value"] > 0
    assert analytic["sieve.segments"]["value"] < sieve["sieve.segments"]["value"]


def test_corrupted_output_counts_in_error_rate(monkeypatch):
    real_group = run.run_group

    def corrupting_group(commands, trace, env):
        doc = real_group(commands, trace, env)
        if commands[0][0] == "sum":
            cmd = doc["commands"][0]
            cmd["out"] = cmd["out"].replace('"float": ', '"float": 1', 1)
        return doc

    monkeypatch.setattr(run, "run_group", corrupting_group)
    result, lines = run.run_workload("sieve", 0, 0, False, run.child_env(), tiny=True)
    assert result["attempted"] == 5 and result["failed"] == 1
    assert not result["correct"]
    assert lines[0].startswith("error_rate 0.2 ")


def test_reference_outputs_are_enforced():
    refs = checks.load_references()
    argv = workloads.constants(workloads.DEFAULT_SEED)[0]
    good = {"argv": argv, "rc": 0, "out": refs[" ".join(argv)]}
    assert checks.check("constants", [good], refs) == [""]
    doc = json.loads(good["out"])
    pi0 = doc["results"][0]["Pi"][0]
    doc["results"][0]["Pi"][0] = pi0[:12] + ("1" if pi0[12] != "1" else "2") + pi0[13:]
    bad = dict(good, out=json.dumps(doc))
    assert checks.check("constants", [bad], refs)[0].startswith("constants:")
    assert checks.check("constants", [dict(good, rc=2)], refs)[0].endswith("exit code 2")


def test_invariants_reject_without_a_reference():
    argv = workloads.full_range(3, tiny=True)
    outs = [
        {"argv": a, "rc": 0, "out": json.dumps({"results": [{
            "exact": {"num": "3", "den": "1", "float": 3.0},
            "prediction": 3.0 + rel * 3.0, "rel_err": rel}]})}
        for a, rel in zip(argv, (1e-3, 2e-3, 1e-4))
    ]
    assert checks.check("full_range", outs, {}) == [
        "", "compare: relative error did not decrease as X grew", ""]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "sieve", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")


def test_seed_keeps_the_work_constant():
    for seed in range(0, 200, 7):
        x = int(workloads.short_interval(seed)[0][4])
        assert (x - 10**10) % workloads.SEGMENT == 0
        for X, base in zip(workloads.full_range_limits(seed), (10**5, 10**6, 10**7)):
            assert 0 <= X - base <= 15 * base // 1000
        assert 992.5 <= workloads.contour_x(seed) <= 1001.5
    assert workloads.contour_x(workloads.DEFAULT_SEED) == 1000.5
