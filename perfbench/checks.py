"""Output checks for each command group's commands.

`check(group, commands)` takes one run of a group's command results (argv and
output text, as the worker reports them) and returns one error string
per command, "" when the command passed.  A command fails when it exited
non-zero, when its output breaks an invariant that holds for every seed,
or when a stored reference output exists for the same argv and the
output differs from it by more than the command's tolerance:

  sum          bytes identical to the reference
  compare      exact num/den identical; prediction within 1e-12 relative
  constants    every Pi_n and K_n within 1e-18 relative; A0 within 1e-12
  perron       every row within 1e-9 relative; slope within 1e-9
  zeta-moment  every row within 1e-9 relative

The references in perfbench/reference/ were written by make_reference.py
from the seed commit's code at the default seed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

from mpmath import mp, mpf

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def load_references():
    """argv (as a space-joined string) -> reference output text."""
    refs = {}
    for path in sorted(REFERENCE_DIR.glob("*.json")):
        for entry in json.loads(path.read_text())["commands"]:
            refs[" ".join(entry["argv"])] = entry["out"]
    return refs


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _within_ulp(approx, exact):
    """The compensated float is within 1 ulp of the exact sum.

    It is not always the correctly rounded value: f1 summed over
    n <= 101100 gives 7649.434672718103 where float(exact) is ...104.
    """
    return abs(approx - float(exact)) <= math.ulp(float(exact))


def _check_sum(doc, argv, ref_text, text):
    opts = dict(zip(argv[1::2], argv[2::2]))
    if doc["report"] != "sum" or doc["x"] != int(opts["--x"]) or doc["h"] != int(opts["--h"]):
        return "sum: wrong report header"
    if [r["fid"] for r in doc["results"]] != ["f1", "f2", "f3", "f4"]:
        return "sum: wrong function list"
    for r in doc["results"]:
        if not _within_ulp(r["float"], Fraction(r["exact"])):
            return f"sum: {r['fid']} float more than 1 ulp from exact"
    if ref_text is not None and text != ref_text:
        return "sum: bytes differ from the reference"
    return ""


def _check_compare(doc, argv, ref_text, text):
    r = doc["results"][0]
    exact = Fraction(int(r["exact"]["num"]), int(r["exact"]["den"]))
    if not _within_ulp(r["exact"]["float"], exact):
        return "compare: float more than 1 ulp from exact"
    approx = r["exact"]["float"]
    if not math.isclose(r["rel_err"], abs(r["prediction"] - approx) / approx, rel_tol=1e-12):
        return "compare: rel_err inconsistent with prediction"
    if ref_text is not None:
        ref = json.loads(ref_text)["results"][0]
        if r["exact"] != ref["exact"]:
            return "compare: exact num/den differ from the reference"
        if _rel(r["prediction"], ref["prediction"]) > 1e-12:
            return "compare: prediction differs from the reference"
    return ""


def _check_constants(doc, argv, ref_text, text):
    for r in doc["results"]:
        if not r["Pi"] or float(r["Pi"][0]) <= 0 or not r["errorBudget"] < 1e-15:
            return f"constants: {r['fid']} Pi_0 <= 0 or budget too large"
    if ref_text is None:
        return ""
    ref = json.loads(ref_text)
    if [r["fid"] for r in doc["results"]] != [r["fid"] for r in ref["results"]]:
        return "constants: function list differs from the reference"
    with mp.workdps(40):
        for got, want in zip(doc["results"], ref["results"]):
            for key in ("Pi", "K"):
                if len(got[key]) != len(want[key]):
                    return f"constants: {got['fid']} {key} length differs"
                for g, w in zip(got[key], want[key]):
                    if abs(mpf(g) - mpf(w)) > mpf("1e-18") * max(1, abs(mpf(w))):
                        return f"constants: {got['fid']} {key} differs from the reference"
    if _rel(doc["ramanujanA0"]["value"], ref["ramanujanA0"]["value"]) > 1e-12:
        return "constants: A0 differs from the reference"
    return ""


def _rows_close(rows, ref_rows):
    if len(rows) != len(ref_rows):
        return False
    return all(_rel(float(v), float(ref[k])) <= 1e-9
               for row, ref in zip(rows, ref_rows) for k, v in row.items())


def _check_perron(doc, argv, ref_text, text):
    if not -1.4 <= doc["slope"] <= -0.6:
        return f"perron: slope {doc['slope']:.3f} outside [-1.4, -0.6]"
    if max(r["ratio"] for r in doc["rows"]) > 1:
        return "perron: error above the x ln x / T bound"
    if ref_text is not None:
        ref = json.loads(ref_text)
        if abs(doc["slope"] - ref["slope"]) > 1e-9 or not _rows_close(doc["rows"], ref["rows"]):
            return "perron: rows differ from the reference"
    return ""


def _check_moment(doc, argv, ref_text, text):
    if not all(0 < r["ratioToTlnT"] <= 1.5 for r in doc["rows"]):
        return "zeta-moment: ratio outside (0, 1.5]"
    if ref_text is not None and not _rows_close(doc["rows"], json.loads(ref_text)["rows"]):
        return "zeta-moment: rows differ from the reference"
    return ""


_CHECKS = {
    "sum": _check_sum,
    "compare": _check_compare,
    "constants": _check_constants,
    "perron": _check_perron,
    "zeta-moment": _check_moment,
}


def _check_one(cmd, refs):
    if cmd["rc"] != 0:
        return f"{cmd['argv'][0]}: exit code {cmd['rc']}"
    try:
        doc = json.loads(cmd["out"])
        return _CHECKS[cmd["argv"][0]](
            doc, cmd["argv"], refs.get(" ".join(cmd["argv"])), cmd["out"])
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"{cmd['argv'][0]}: unreadable output ({exc!r})"


def check(group, commands, refs):
    """One error string per command ("" = passed)."""
    errors = [_check_one(c, refs) for c in commands]
    if group == "short_interval" and not any(errors) and commands[0]["out"] != commands[1]["out"]:
        errors[1] = "sum: 2-thread bytes differ from 1-thread bytes"
    if group == "full_range":
        # The signed error crosses zero, so |error| at one X can dip far
        # below its trend (6e-7 at X = 10^6 + 8000 against 7e-6 at the
        # next X); the check is that each X beats the worst smaller X.
        seen = []
        for i, c in enumerate(commands):
            if errors[i]:
                continue
            rel = json.loads(c["out"])["results"][0]["rel_err"]
            if seen and rel >= max(seen):
                errors[i] = "compare: relative error did not decrease as X grew"
            seen.append(rel)
    return errors
