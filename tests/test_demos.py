"""The demos run end to end as scripts (smoke tests)."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        env=env, capture_output=True, text=True, timeout=300)


def test_constants_walkthrough_runs():
    # it calls pi_taylor and pi_function directly, and asserts that the
    # two Gamma routes to K_n agree
    done = run_demo("constants_pipeline_walkthrough.py")
    assert done.returncode == 0, done.stderr


def test_full_range_check_runs():
    # it sums f1 over n <= 1e8 by the walk, which takes no threads (the
    # demo asks for four), and n <= 1e5 with the segment sieve
    done = run_demo("full_range_mean_value_check.py")
    assert done.returncode == 0, done.stderr
    assert "100000000" in done.stdout


def test_perron_scan_runs():
    done = run_demo("perron_truncation_scan.py")
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("fitted log-log slope") == 2
