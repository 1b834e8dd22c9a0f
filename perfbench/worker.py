"""One run of a command group, in a fresh interpreter.

    python3 perfbench/worker.py '{"commands": [[...], ...], "trace": false}'

Imports `shortmean.cli`, optionally installs the tracer, then calls
`shortmean.cli.run(argv)` for each command in order with stdout captured.
Prints one JSON object on stdout: per-command exit code, wall time, CPU
time and output text; the group's wall and CPU time (start of the first
command to end of the last); the peak RSS and, when traced, the spans.
CPU time is `time.process_time()`: user + system time of every thread.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
import traceback


def main(spec):
    import shortmean.cli as cli

    if spec["trace"]:
        import tracer

        tracer.install()
    real_stdout = sys.stdout
    results = []
    first = last = cpu_first = cpu_last = None
    for argv in spec["commands"]:
        sys.stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            rc = cli.run(argv)
        except Exception:  # a crash is a failed command, not a failed pass
            traceback.print_exc()
            rc = -1
        end, cpu_end = time.perf_counter(), time.process_time()
        sys.stdout.flush()
        out = sys.stdout.buffer.getvalue()
        sys.stdout = real_stdout
        if first is None:
            first, cpu_first = start, cpu_start
        last, cpu_last = end, cpu_end
        results.append({"argv": argv, "rc": rc, "s": end - start,
                        "cpu_s": cpu_end - cpu_start,
                        "out": out.decode("utf-8", "replace")})
    doc = {
        "commands": results,
        "wall_s": last - first,
        "cpu_s": cpu_last - cpu_first,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if spec["trace"]:
        doc["spans"] = tracer.SPANS
    json.dump(doc, real_stdout)
    real_stdout.write("\n")


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
