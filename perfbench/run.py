"""shortmean benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload sieve --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all              # every workload, one report

Run from the repository root.  A workload is a sequence of command groups
(perfbench/workloads.py).  Each run of a group is a fresh interpreter
(perfbench/worker.py) that imports `shortmean.cli` and calls
`shortmean.cli.run(argv)` on the group's commands in order, as a CLI
user would, so the import, the prime tables and the expansions are paid
on every run of the group.

--trace 0 measures the end-to-end metrics. The groups run in turn until
--seconds is used up (each at least once), with three set-up timings
(fresh `import shortmean.cli` processes) before each round. setup_s is
the median of the set-up timings. cpu_s, the CPU time of one pass, is
the sum over the groups of each group's median CPU time. peak_rss_mb is
the largest of the groups' median peak RSS. Times are CPU seconds (user +
system, all threads): on a VM shared with other tenants, wall time
also carries the time the hypervisor gives to them, which varied a
2-vCPU Xeon VM's wall time by up to 40 % for the same CPU time. Wall
times and per-group figures are printed too, above the result line.
--trace 1 runs pairs of one untraced and one traced pass (every group
once) and reports the per-layer metrics of perfbench/tracer.py (medians
over the traced passes).

Every command's output is checked (perfbench/checks.py).  The last line
of stdout is one JSON object with the keys correct, attempted, failed
and metrics; the lines before it are the run's provenance and every
metric by name with its unit.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from statistics import median

import checks
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUPS = 3           # fresh-import timings before each round of groups
GROUP_TIMEOUT = 150  # seconds; a command group that takes longer fails the run

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}


class BenchError(Exception):
    """A command group did not finish or did not produce its report."""


def child_env():
    env = dict(os.environ)
    env.pop("MVF_CACHE_DIR", None)  # no pass may reuse another's prime files
    env.update(PINNED_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def provenance(env):
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "mpmath": metadata.version("mpmath"),
        "git_sha": _git_sha(),
        "env": {k: env.get(k) for k in (*PINNED_ENV, "MVF_CACHE_DIR")},
    }


def _children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(env):
    """(CPU, wall) seconds of a fresh interpreter that imports shortmean.cli."""
    cpu, start = _children_cpu(), time.perf_counter()
    subprocess.run([sys.executable, "-c", "import shortmean.cli"], env=env,
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return _children_cpu() - cpu, time.perf_counter() - start


def run_group(commands, trace, env):
    """One group of commands in a fresh interpreter; the worker's JSON document."""
    spec = json.dumps({"commands": commands, "trace": trace})
    try:
        proc = subprocess.run([sys.executable, str(WORKER), spec], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, timeout=GROUP_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a command group exceeded {GROUP_TIMEOUT} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.decode().splitlines()[-1])


def run_pass(groups, trace, env):
    """One pass: {group: worker document}, the groups run in order."""
    return {group: run_group(commands, trace, env) for group, commands in groups}


def _pass_cpu(p):
    return sum(doc["cpu_s"] for doc in p.values())


def _joined_spans(p):
    """The spans of all groups of a traced pass, parents re-indexed."""
    spans = []
    for doc in p.values():
        base = len(spans)
        spans += [(n, a, b, parent + base if parent >= 0 else -1, t, attrs)
                  for n, a, b, parent, t, attrs in doc["spans"]]
    return spans


def untraced_runs(groups, seconds, env):
    """Set-up timings and {group: worker documents} until --seconds is used up.

    The groups run in turn, with SETUPS set-up timings before each round,
    so that the medians span the host's drift over the whole run.  The run
    stops at the first group whose last run would no longer fit, so every
    group runs at least once and no time is left idle for a whole pass.
    """
    start = time.perf_counter()
    setups, samples, took = [], {group: [] for group, _ in groups}, {}
    for i in itertools.count():
        group, commands = groups[i % len(groups)]
        if group in took and time.perf_counter() - start + took[group] > seconds:
            return setups, samples
        t0 = time.perf_counter()
        if i % len(groups) == 0:
            setups += [measure_setup(env) for _ in range(SETUPS)]
        samples[group].append(run_group(commands, False, env))
        took[group] = time.perf_counter() - t0


def traced_runs(groups, seconds, env):
    """Pairs of one untraced and one traced pass until --seconds is used up."""
    start = time.perf_counter()
    untraced, traced = [], []
    while True:
        t0 = time.perf_counter()
        untraced.append(run_pass(groups, False, env))
        traced.append(run_pass(groups, True, env))
        if time.perf_counter() - start + (time.perf_counter() - t0) > seconds:
            return untraced, traced


def _med(docs, key):
    return median([doc[key] for doc in docs])


def _pass_cpu_s(samples):
    """CPU seconds of one pass: the sum of the groups' median CPU times."""
    return sum(_med(group_docs, "cpu_s") for group_docs in samples.values())


def run_workload(name, seed, seconds, trace, env, tiny=False):
    """Measure one workload; returns (result dict, extra report lines)."""
    groups = workloads.groups(name, seed, tiny)
    refs = checks.load_references()
    if trace:
        untraced, traced = traced_runs(groups, seconds, env)
        docs = [(group, doc) for p in untraced + traced for group, doc in p.items()]
    else:
        setups, samples = untraced_runs(groups, seconds, env)
        docs = [(group, doc) for group, group_docs in samples.items() for doc in group_docs]

    errors = [checks.check(group, doc["commands"], refs) for group, doc in docs]
    attempted = sum(len(e) for e in errors)
    failed = sum(1 for e in errors for msg in e if msg)
    lines = [f"error_rate {failed / attempted:.6g} ratio "
             f"({failed} of {attempted} commands failed)"]
    lines += sorted({msg for e in errors for msg in e if msg})

    if trace:
        per_pass = [
            tracer.layer_metrics(_joined_spans(t), _pass_cpu(u), _pass_cpu(t))
            for u, t in zip(untraced, traced)
        ]
        units = tracer.LAYER_METRICS
        values = {k: median([m[k] for m in per_pass]) for k in units}
        lines.append("zeta.zeta_em.terms is computed as points x _em_N(max|Im s|)")
        lines.append(f"passes {len(untraced)} + {len(traced)} traced")
    else:
        units = END_TO_END
        values = {
            "setup_s": median([cpu for cpu, _ in setups]),
            "cpu_s": _pass_cpu_s(samples),
            "peak_rss_mb": max(_med(group_docs, "peak_rss_mb")
                               for group_docs in samples.values()),
        }
        lines += _other_figures(groups, setups, samples)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    return result, lines


def _other_figures(groups, setups, samples):
    """Undeclared figures (medians over a group's runs), printed above the result."""
    lines = [
        f"setup_wall_s {median([wall for _, wall in setups]):.6g} s",
        f"wall_s {sum(_med(group_docs, 'wall_s') for group_docs in samples.values()):.6g} s",
    ]
    for group, commands in groups:
        group_docs = samples[group]
        lines += [
            f"{group}.runs {len(group_docs)} (cpu_s "
            + " ".join(f"{doc['cpu_s']:.4g}" for doc in group_docs) + ")",
            f"{group}.cpu_s {_med(group_docs, 'cpu_s'):.6g} s",
            f"{group}.wall_s {_med(group_docs, 'wall_s'):.6g} s",
        ]
        cmd_wall = [median([doc["commands"][i]["s"] for doc in group_docs])
                    for i in range(len(commands))]
        if group == "short_interval":
            h = int(commands[0][commands[0].index("--h") + 1])
            lines += [f"sieve_rate_t{i + 1} {h / 1e6 / cmd_wall[i]:.6g} M_int/s"
                      for i in range(2)]
        if group == "contour":
            lines += [f"perron_scan_s {cmd_wall[0]:.6g} s",
                      f"moment_scan_s {cmd_wall[1]:.6g} s"]
    return lines


def _print_result(name, result, lines):
    for line in lines:
        print(f"[{name}] {line}")
    for key, m in result["metrics"].items():
        print(f"[{name}] {key} {m['value']:.6g} {m['unit']}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=60)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small inputs, for the benchmark's own tests")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "shortmean" / "cli.py").is_file():
        print(f"error: no shortmean sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # end on SIGTERM through SystemExit, so that subprocess.run kills and
    # waits for the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = child_env()
    # byte-compile once so that no timed import pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    print("provenance " + json.dumps(
        {**provenance(env), "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "tiny": args.tiny}))
    results = {}
    try:
        for name in names:
            print(f"[{name}] why: {workloads.WHY[name]}")
            for group, commands in workloads.groups(name, args.seed, args.tiny):
                print(f"[{name}] {group}: " + json.dumps(commands))
            result, lines = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), env, args.tiny)
            _print_result(name, result, lines)
            results[name] = result
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
