"""Command-line interface.

Subcommands: sum, constants, predict, compare, perron, zeta-moment,
series, sweep.  Output is JSON (stdout, or --out PATH); the perron scan,
zeta-moment and sweep can also emit CSV or SVG with --format.  Exit
codes: 0 success, 1 usage error, 2 capacity or I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import __version__
from .asymptotics import EXPONENTS, compare, h_threshold, predict
from .constants import constants_report, ramanujan_A0
from .eulerform import euler_form
from .functions import ALL_FNS, MultFnId
from .perron import fit_loglog_slope, perron_error_scan, perron_truncated
from .reports import csv_report, json_report, svg_plot
from .sieve import CapacityError, interval_sums_all
from .zetachecks import second_moment


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _fids(name):
    if name == "all":
        return list(ALL_FNS)
    try:
        return [MultFnId(name)]
    except ValueError:
        raise ValueError(f"unknown function selector {name!r}") from None


def _floats(text, what):
    """Non-empty comma list of finite floats; empty entries are skipped."""
    try:
        vals = [float(v) for v in text.split(",") if v]
    except ValueError:
        raise ValueError(f"bad {what} list {text!r}") from None
    if not all(map(math.isfinite, vals)):
        raise ValueError(f"non-finite value in {what} list {text!r}")
    if not vals:
        raise ValueError(f"empty {what} list")
    return vals


def _emit(args, payload_bytes):
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(payload_bytes)
    else:
        sys.stdout.buffer.write(payload_bytes)
    return 0


def _build_parser():
    p = _Parser(prog="shortmean", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, fn=True, plot=False):
        if fn:
            sp.add_argument("--fn", default="all",
                            help="f1|f2|f3|f4|all")
        sp.add_argument("--out", default=None, help="output path (stdout if absent)")
        if plot:
            sp.add_argument("--format", default="json",
                            choices=["json", "csv", "svg"])

    sp = sub.add_parser("sum", help="exact short-interval sums from the sieve")
    common(sp)
    sp.add_argument("--threads", type=int, default=1)
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--h", type=int, required=True)

    sp = sub.add_parser("constants", help="Pi/K expansion constants per function")
    common(sp)
    sp.add_argument("--N", type=int, default=4)

    sp = sub.add_parser("predict", help="N-term main-term prediction")
    common(sp)
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--h", type=int, required=True)
    sp.add_argument("--N", type=int, default=2)

    sp = sub.add_parser("compare", help="sieve truth vs prediction")
    common(sp)
    sp.add_argument("--threads", type=int, default=1)
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--h", type=int, required=True)
    sp.add_argument("--N", type=int, default=2)
    sp.add_argument("--tolerance", type=float, default=0.05)

    sp = sub.add_parser("perron", help="truncated Perron error scan")
    common(sp, plot=True)
    sp.add_argument("--x", type=float, default=1000.5)
    sp.add_argument("--T", default=None,
                    help="single T, or comma list for a scan")

    sp = sub.add_parser("zeta-moment", help="critical-line second moment scan")
    common(sp, fn=False, plot=True)
    sp.add_argument("--T", default="100,1000,3000")

    sp = sub.add_parser("series", help="Euler-form exponents and g-coefficients")
    common(sp)
    sp.add_argument("--order", type=int, default=12)

    sp = sub.add_parser("sweep", help="prediction error across an x grid")
    common(sp, plot=True)
    sp.add_argument("--threads", type=int, default=1)
    sp.add_argument("--xs", required=True, help="comma list, e.g. 1e6,1e7,1e8")
    sp.add_argument("--h-rule", dest="h_rule", default="x^0.7",
                    help="h as a power of x, e.g. x^0.7")
    sp.add_argument("--N", type=int, default=2)
    return p


def _cmd_sum(args):
    fids = _fids(args.fn)
    if args.h < 1:
        raise ValueError("need h >= 1")
    sums = interval_sums_all(args.x, args.h, threads=args.threads, fids=fids)
    payload = {
        "report": "sum",
        "x": args.x,
        "h": args.h,
        "results": [
            {"fid": str(fid), "exact": sums[fid], "float": float(sums[fid])}
            for fid in fids
        ],
    }
    return json_report(payload)


def _cmd_constants(args):
    fids = _fids(args.fn)
    results = [constants_report(fid, N=args.N) for fid in fids]
    a0, a0_bound, a0_cross = ramanujan_A0()
    payload = {
        "report": "constants",
        "N": args.N,
        "results": results,
        "ramanujanA0": {
            "value": a0,
            "tailBound": a0_bound,
            "crossRouteDelta": a0_cross,
        },
    }
    return json_report(payload)


def _cmd_predict(args):
    fids = _fids(args.fn)
    results = []
    for fid in fids:
        value, budget, lagrange = predict(fid, args.x, args.h, args.N)
        entry = {
            "fid": str(fid),
            "prediction": value,
            "budget": budget,
            "lagrange": lagrange,
        }
        if args.x >= 10:
            entry["thresholds"] = h_threshold(fid, float(args.x))
        results.append(entry)
    payload = {
        "report": "predict",
        "x": args.x,
        "h": args.h,
        "N": args.N,
        "exponents": EXPONENTS,
        "results": results,
    }
    return json_report(payload)


def _cmd_compare(args):
    fids = _fids(args.fn)
    payload = {
        "report": "compare",
        "results": [
            compare(fid, args.x, args.h, args.N,
                    tolerance=args.tolerance, threads=args.threads)
            for fid in fids
        ],
    }
    return json_report(payload)


def _cmd_perron(args):
    fids = _fids(args.fn if args.fn != "all" else "f3")
    fid = fids[0]
    if args.T and "," in args.T:
        Ts = _floats(args.T, "T")
        rows = perron_error_scan(fid, args.x, Ts)
        slope = fit_loglog_slope(rows)
        if args.format == "csv":
            return csv_report(
                ("fid", "x", "T", "abs_err", "bound", "ratio"),
                [(str(fid), args.x, T, err, bound, ratio)
                 for T, err, bound, ratio in rows],
            )
        if args.format == "svg":
            return svg_plot(
                [
                    ("abs_err", [(T, max(err, 1e-12)) for T, err, _, _ in rows]),
                    ("bound", [(T, b) for T, _, b, _ in rows]),
                ],
                title=f"truncated-Perron remainder, {fid}, x={args.x}",
                xlabel="T", ylabel="absolute error",
            )
        payload = {
            "report": "perron-scan",
            "fid": str(fid),
            "x": args.x,
            "slope": slope,
            "rows": [
                {"T": T, "abs_err": err, "bound": bound, "ratio": ratio}
                for T, err, bound, ratio in rows
            ],
        }
        return json_report(payload)
    if args.format != "json":
        raise ValueError(f"--format {args.format} needs a comma list of T")
    T = _floats(args.T, "T")[0] if args.T else 1000.0
    run = perron_truncated(fid, args.x, T)
    return json_report({"report": "perron", "run": run})


def _cmd_zeta_moment(args):
    Ts = _floats(args.T, "T")
    rows = [(T, m, m / (T * math.log(T)))
            for T, m in zip(Ts, second_moment(Ts))]
    if args.format == "csv":
        return csv_report(("T", "moment", "ratio_to_TlnT"), rows)
    if args.format == "svg":
        return svg_plot(
            [("moment", [(T, m) for T, m, _ in rows])],
            title="critical-line second moment",
            xlabel="T", ylabel="integral",
        )
    payload = {
        "report": "zeta-moment",
        "rows": [
            {"T": T, "moment": m, "ratioToTlnT": r} for T, m, r in rows
        ],
    }
    return json_report(payload)


def _cmd_series(args):
    fids = _fids(args.fn)
    payload = {
        "report": "series",
        "order": args.order,
        "results": [euler_form(fid, args.order) for fid in fids],
    }
    return json_report(payload)


def _parse_h_rule(text):
    if not text.startswith("x^"):
        raise ValueError(f"bad h rule {text!r}; expected like x^0.7")
    try:
        expo = float(text[2:])
    except ValueError:
        raise ValueError(f"bad h rule {text!r}") from None
    if not math.isfinite(expo):
        raise ValueError(f"non-finite exponent in h rule {text!r}")
    return expo


def _cmd_sweep(args):
    fids = _fids(args.fn)
    expo = _parse_h_rule(args.h_rule)
    xs = [int(v) for v in _floats(args.xs, "x")]
    try:  # every h before anything is sieved
        hs = [int(x**expo) for x in xs]
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"h rule {args.h_rule!r} gives no finite h") from None
    rows = []
    for fid in fids:
        for x, h in zip(xs, hs):
            rep = compare(fid, x, h, args.N, threads=args.threads)
            rows.append(
                (str(fid), x, h, float(rep.exact), rep.prediction, rep.rel_err)
            )
    if args.format == "csv":
        return csv_report(
            ("fid", "x", "h", "exact", "prediction", "rel_err"), rows
        )
    if args.format == "svg":
        series = []
        for fid in fids:
            pts = [(x, max(r, 1e-12)) for f, x, _, _, _, r in rows
                   if f == str(fid)]
            series.append((str(fid), pts))
        return svg_plot(series, title=f"prediction error, N={args.N}",
                        xlabel="x", ylabel="relative error")
    payload = {
        "report": "sweep",
        "N": args.N,
        "hRule": args.h_rule,
        "rows": [
            {"fid": f, "x": x, "h": h, "exact": e, "prediction": p,
             "rel_err": r}
            for f, x, h, e, p, r in rows
        ],
    }
    return json_report(payload)


_HANDLERS = {
    "sum": _cmd_sum,
    "constants": _cmd_constants,
    "predict": _cmd_predict,
    "compare": _cmd_compare,
    "perron": _cmd_perron,
    "zeta-moment": _cmd_zeta_moment,
    "series": _cmd_series,
    "sweep": _cmd_sweep,
}

def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        payload = _HANDLERS[args.cmd](args)
        return _emit(args, payload)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def main():
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
