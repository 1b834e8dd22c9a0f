#!/usr/bin/env python3
"""Full-range mean values vs the asymptotic prediction.

Sums f(n) for n <= X exactly (the segmented sieve at X = 1e5, the
prime-counting walk from X = 250 000 on) and compares against the
N-term asymptotic X * (ln X)^{a-1} * sum K~_n (ln X)^{-n} (the
classical Ramanujan-style shape for 1/tau).  The relative error
should shrink roughly like 1/ln X as X grows, and adding terms should
help at fixed X.

Runs in about 0.5 s after start-up on 2 vCPUs, most of it the
predictions' constants; the walk sums n <= 1e8 in about 0.04 s.
"""

import time

from shortmean.asymptotics import compare
from shortmean.functions import ALL_FNS, MultFnId


def main():
    fid = MultFnId.INV_TAU_SQ
    print(f"function {fid}: sum over n <= X vs 4-term asymptotic")
    print(f"{'X':>12} {'exact':>16} {'prediction':>16} {'rel err':>10} {'time':>7}")
    for X in (10**5, 10**6, 10**7, 10**8):
        t0 = time.perf_counter()
        rep = compare(fid, 0, X, N=4, threads=4)
        dt = time.perf_counter() - t0
        print(f"{X:>12} {float(rep.exact):>16.6f} {rep.prediction:>16.6f} "
              f"{rep.rel_err:>10.2e} {dt:>6.1f}s")

    print()
    print("all four functions at X = 1e7, truncation order N = 0 vs 2:")
    for fid in ALL_FNS:
        r0 = compare(fid, 0, 10**7, N=0, threads=4)
        r2 = compare(fid, 0, 10**7, N=2, threads=4)
        print(f"  {fid}: rel err {r0.rel_err:.2e} (N=0) -> "
              f"{r2.rel_err:.2e} (N=2)")


if __name__ == "__main__":
    main()
