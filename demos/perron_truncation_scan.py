#!/usr/bin/env python3
"""How fast does the truncated Perron integral converge?

Evaluates (1/pi) Re int_0^T F(b+it) x^{b+it}/(b+it) dt for the Dirichlet
series of 2^{-omega(n)} and 2^{-Omega(n)} at x = 1000.5, sweeping T over
two decades, and fits the log-log slope of the truncation error.  Theory
says the error is O(x ln x / T); the fitted slope should sit near -1 and
every measured error should fall below that bound.

Runs in about a second per function on 2 vCPUs.
"""

import time

from shortmean.functions import MultFnId
from shortmean.perron import fit_loglog_slope, perron_error_scan


def main():
    x = 1000.5
    Ts = [100 * 10 ** (k / 4) for k in range(9)]  # 100 .. 10000
    for fid in (MultFnId.INV_TWO_OMEGA, MultFnId.INV_TWO_BIG_OMEGA):
        t0 = time.perf_counter()
        rows = perron_error_scan(fid, x, Ts)
        dt = time.perf_counter() - t0
        print(f"{fid} at x = {x}  [{dt:.0f}s]")
        print(f"{'T':>10} {'abs err':>12} {'x ln x / T':>12} {'ratio':>8}")
        for T, err, bound, ratio in rows:
            print(f"{T:>10.1f} {err:>12.4e} {bound:>12.4e} {ratio:>8.4f}")
        slope = fit_loglog_slope(rows)
        print(f"  fitted log-log slope: {slope:.3f}  (theory: -1)")
        print()


if __name__ == "__main__":
    main()
