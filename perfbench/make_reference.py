"""Write the reference outputs that checks.py compares against.

    python3 perfbench/make_reference.py [group ...]

Runs each named command group (default: all, see workloads.GROUPS) once
at the default seed and stores every command's argv and output text in
perfbench/reference/<group>.json.  Only rerun it when a change is
meant to alter the CLI output, and say so in the change.
"""

from __future__ import annotations

import json
import sys

import checks
import run
import workloads


def main(names):
    env = run.child_env()
    for name in names or workloads.GROUPS:
        commands = workloads.commands(name, workloads.DEFAULT_SEED)
        doc = run.run_group(commands, False, env)
        failed = [c["argv"] for c in doc["commands"] if c["rc"] != 0]
        if failed:
            raise SystemExit(f"{name}: commands failed: {failed}")
        path = checks.REFERENCE_DIR / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({
            "seed": workloads.DEFAULT_SEED,
            "provenance": run.provenance(env),
            "commands": [{"argv": c["argv"], "out": c["out"]} for c in doc["commands"]],
        }, indent=1) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
