"""Spans around shortmean's layer functions, recorded from outside.

`install()` replaces every module-level binding of each timed function
with one recording wrapper.  `from .x import f` copies the name, so the
wrapper is placed wherever a `shortmean` module holds the original object
(for example `constants.zeta_hp` as well as `zeta.zeta_hp`); functions
looked up through module globals at call time, such as
`sieve._segment_stats`, are covered the same way.

A span is (name, start, end, parent, thread, attrs).  `parent` is the
index of the enclosing span on the same thread, or -1.  Spans stay in
memory until the traced pass ends.  `layer_metrics` turns them into the
per-layer metrics; self time is a span's duration minus that of its
direct children, and children always share their parent's thread.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

import numpy as np

SPANS = []
_LOCAL = threading.local()
_RESERVE = threading.Lock()


def _zeta_em_attrs(args, kwargs, result):
    from shortmean.zeta import _em_N

    s = np.atleast_1d(np.asarray(args[0], dtype=complex))
    N = args[1] if len(args) > 1 else kwargs.get("N")
    if N is None:
        N = _em_N(float(np.max(np.abs(s.imag))))
    return {"points": s.size, "terms": s.size * int(N)}


def _segment_attrs(args, kwargs, result):
    lo, hi = args[0], args[1]
    return {"ints": int(hi - lo + 1)}


def _interval_counts_attrs(args, kwargs, result):
    return {"threads": int(kwargs.get("threads", args[2] if len(args) > 2 else 1))}


def _pi_taylor_attrs(args, kwargs, result):
    return {"nodes": int(result.nodes), "error_budget": float(result.error_budget)}


def _fid_attrs(args, kwargs, result):
    return {"fid": str(args[0])}


def _s_points(index):
    def attrs(args, kwargs, result):
        return {"points": int(np.size(args[index]))}
    return attrs


# (module, function, attrs computed after the call, or None)
TARGETS = (
    ("sieve", "primes_up_to", None),
    ("sieve", "_segment_stats", _segment_attrs),
    ("sieve", "_denominator_counts", None),
    ("sieve", "interval_counts", _interval_counts_attrs),
    ("sieve", "_counts_to_sums", None),
    ("zeta", "zeta_em", _zeta_em_attrs),
    ("zeta", "zeta_many", _s_points(0)),
    ("zeta", "zeta_hp", None),
    ("zeta", "prime_zeta_hp", None),
    ("constants", "pi_taylor", _pi_taylor_attrs),
    ("constants", "pi_function", None),
    ("constants", "ln_G_hp", None),
    ("constants", "ramanujan_A0", None),
    ("asymptotics", "compare", None),
    ("asymptotics", "predict", None),
    ("asymptotics", "_pi_expansion", _fid_attrs),
    ("perron", "F_eval", _s_points(1)),
    ("perron", "ln_G_line", _s_points(1)),
    ("zetachecks", "second_moment", None),
    ("eulerform", "euler_form", None),
    ("cli", "run", None),
    ("reports", "json_report", None),
)


def _wrap(name, fn, post, before=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = getattr(_LOCAL, "stack", None)
        if stack is None:
            stack = _LOCAL.stack = []
        attrs = before(args, kwargs) if before else {}
        with _RESERVE:  # reserve the slot so children can point at it
            index = len(SPANS)
            SPANS.append(None)
        stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            parent = stack[-1] if stack else -1
            SPANS[index] = (name, start, end, parent, threading.get_ident(), attrs)
        if post:
            attrs.update(post(args, kwargs, result))
        return result

    return wrapper


def install():
    """Wrap every binding of every target in the loaded shortmean modules."""
    import importlib

    from shortmean import sieve

    def built(args, kwargs):
        limit = args[0] if args else kwargs["limit"]
        return {"built": limit >= 2 and limit not in sieve._prime_cache}

    mods = {m: importlib.import_module(f"shortmean.{m}")
            for m in {t[0] for t in TARGETS}}
    for mod, fname, post in TARGETS:
        original = getattr(mods[mod], fname)
        before = built if fname == "primes_up_to" else None
        wrapper = _wrap(f"{mod}.{fname}", original, post, before)
        for modname, module in list(sys.modules.items()):
            if modname != "shortmean" and not modname.startswith("shortmean."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


# ---------------------------------------------------------------------------
# spans -> per-layer metrics

# name -> unit, in the order they are reported
LAYER_METRICS = {
    "sieve.segments": "count",
    "sieve.integers": "count",
    "sieve.segment_stats.busy_s": "s",
    "sieve.segment_stats.ns_per_int": "ns",
    "sieve.denominator_counts.busy_s": "s",
    "sieve.interval_counts.s": "s",
    "sieve.counts_to_sums.s": "s",
    "sieve.t2_parallel_eff": "ratio",
    "sieve.prime_table.builds": "count",
    "sieve.prime_table.s": "s",
    "zeta.zeta_em.points": "count",
    "zeta.zeta_em.terms": "count",
    "zeta.zeta_em.busy_s": "s",
    "zeta.zeta_em.ns_per_term": "ns",
    "zeta.zeta_hp.calls": "count",
    "zeta.zeta_hp.self_s": "s",
    "zeta.prime_zeta_hp.calls": "count",
    "zeta.prime_zeta_hp.self_s": "s",
    "constants.pi_taylor.calls": "count",
    "constants.pi_taylor.s": "s",
    "constants.pi_function.calls": "count",
    "constants.pi_function.self_s": "s",
    "constants.ln_G_hp.calls": "count",
    "constants.ln_G_hp.self_s": "s",
    "constants.nodes": "count",
    "constants.error_budget_max": "abs",
    "constants.ramanujan_A0.s": "s",
    "asymptotics.compare.s": "s",
    "asymptotics.predict.calls": "count",
    "asymptotics.expansions_per_fid": "ratio",
    "perron.F_eval.points": "count",
    "perron.F_eval.self_s": "s",
    "perron.ln_G_line.s": "s",
    "perron.ln_G_line.ns_per_point": "ns",
    "zetachecks.second_moment.s": "s",
    "zetachecks.zeta_points": "count",
    "eulerform.euler_form.calls": "count",
    "eulerform.euler_form.s": "s",
    "cli.command.self_s": "s",
    "reports.json_report.s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}

# metrics that count work; they must repeat exactly from run to run
COUNT_METRICS = tuple(k for k, u in LAYER_METRICS.items() if u == "count")


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(spans, untraced_cpu, traced_cpu):
    """Per-layer metrics of one traced pass (every name in LAYER_METRICS).

    `traced_cpu` is the CPU seconds of the traced pass and `untraced_cpu`
    those of the untraced pass run just before it.
    """
    by_name = {}
    child_time = [0.0] * len(spans)
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        by_name.setdefault(name, []).append(i)
        if parent >= 0:
            child_time[parent] += end - start

    def idx(name):
        return by_name.get(name, [])

    def calls(name):
        return len(idx(name))

    def total(name):
        return sum(spans[i][2] - spans[i][1] for i in idx(name))

    def self_time(name):
        return sum(spans[i][2] - spans[i][1] - child_time[i] for i in idx(name))

    def attr_sum(name, key):
        return sum(spans[i][5][key] for i in idx(name))

    def inside(i, ancestor):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == ancestor:
                return True
            p = spans[p][3]
        return False

    # share of the 2-thread sieve wall that per-segment work kept busy
    seg_work = idx("sieve._segment_stats") + idx("sieve._denominator_counts")
    busy = wall = 0.0
    for i in idx("sieve.interval_counts"):
        _, start, end, _, _, attrs = spans[i]
        if attrs["threads"] != 2:
            continue
        wall += end - start
        busy += sum(spans[j][2] - spans[j][1] for j in seg_work
                    if start <= spans[j][1] <= end)

    expansions = [i for i in idx("constants.pi_taylor")
                  if spans[i][3] >= 0 and spans[spans[i][3]][0] == "asymptotics._pi_expansion"]
    fids = {spans[i][5]["fid"] for i in idx("asymptotics._pi_expansion")}

    seg_busy = total("sieve._segment_stats")
    ints = attr_sum("sieve._segment_stats", "ints")
    em_busy = total("zeta.zeta_em")
    em_terms = attr_sum("zeta.zeta_em", "terms")
    lng_s = total("perron.ln_G_line")
    cmd_total = total("cli.run")
    cmd_self = self_time("cli.run")

    return {
        "sieve.segments": calls("sieve._segment_stats"),
        "sieve.integers": ints,
        "sieve.segment_stats.busy_s": seg_busy,
        "sieve.segment_stats.ns_per_int": _ratio(seg_busy, ints, 1e9),
        "sieve.denominator_counts.busy_s": total("sieve._denominator_counts"),
        "sieve.interval_counts.s": total("sieve.interval_counts"),
        "sieve.counts_to_sums.s": total("sieve._counts_to_sums"),
        "sieve.t2_parallel_eff": _ratio(busy, 2 * wall),
        "sieve.prime_table.builds": sum(
            1 for i in idx("sieve.primes_up_to") if spans[i][5]["built"]),
        "sieve.prime_table.s": total("sieve.primes_up_to"),
        "zeta.zeta_em.points": attr_sum("zeta.zeta_em", "points"),
        "zeta.zeta_em.terms": em_terms,
        "zeta.zeta_em.busy_s": em_busy,
        "zeta.zeta_em.ns_per_term": _ratio(em_busy, em_terms, 1e9),
        "zeta.zeta_hp.calls": calls("zeta.zeta_hp"),
        "zeta.zeta_hp.self_s": self_time("zeta.zeta_hp"),
        "zeta.prime_zeta_hp.calls": calls("zeta.prime_zeta_hp"),
        "zeta.prime_zeta_hp.self_s": self_time("zeta.prime_zeta_hp"),
        "constants.pi_taylor.calls": calls("constants.pi_taylor"),
        "constants.pi_taylor.s": total("constants.pi_taylor"),
        "constants.pi_function.calls": calls("constants.pi_function"),
        "constants.pi_function.self_s": self_time("constants.pi_function"),
        "constants.ln_G_hp.calls": calls("constants.ln_G_hp"),
        "constants.ln_G_hp.self_s": self_time("constants.ln_G_hp"),
        "constants.nodes": attr_sum("constants.pi_taylor", "nodes"),
        "constants.error_budget_max": max(
            (spans[i][5]["error_budget"] for i in idx("constants.pi_taylor")),
            default=0.0),
        "constants.ramanujan_A0.s": total("constants.ramanujan_A0"),
        "asymptotics.compare.s": total("asymptotics.compare"),
        "asymptotics.predict.calls": calls("asymptotics.predict"),
        "asymptotics.expansions_per_fid": _ratio(len(expansions), len(fids)),
        "perron.F_eval.points": attr_sum("perron.F_eval", "points"),
        "perron.F_eval.self_s": self_time("perron.F_eval"),
        "perron.ln_G_line.s": lng_s,
        "perron.ln_G_line.ns_per_point": _ratio(
            lng_s, attr_sum("perron.ln_G_line", "points"), 1e9),
        "zetachecks.second_moment.s": total("zetachecks.second_moment"),
        "zetachecks.zeta_points": sum(
            spans[i][5]["points"] for i in idx("zeta.zeta_many")
            if inside(i, "zetachecks.second_moment")),
        "eulerform.euler_form.calls": calls("eulerform.euler_form"),
        "eulerform.euler_form.s": total("eulerform.euler_form"),
        "cli.command.self_s": cmd_self,
        "reports.json_report.s": total("reports.json_report"),
        "trace.overhead_frac": _ratio(traced_cpu, untraced_cpu) - 1.0,
        "trace.unattributed_frac": _ratio(cmd_self, cmd_total),
    }
