#!/usr/bin/env python3
"""From prime-power values to asymptotic constants, end to end.

Walks the whole constants pipeline for the four target functions:

  1. exact rational Euler-form exponents (a, b) and correction
     coefficients g_n, derived from first principles;
  2. Taylor coefficients Pi_0..Pi_4 of the analytic factor by power
     series in u, with Pi_0 checked against Pi evaluated at u = 0;
  3. the main-term coefficients K_n by two independent Gamma routes;
  4. Ramanujan's leading constant A0 for 1/tau two independent ways.

Runs in a few seconds.  No arguments.
"""

import time

from mpmath import mp

from shortmean.constants import (
    CONSTANTS_DPS,
    pi_function,
    pi_taylor,
    ramanujan_A0_eulerform,
    ramanujan_A0_product,
    reflection_K,
)
from shortmean.eulerform import euler_form
from shortmean.functions import ALL_FNS


def main():
    print("=" * 72)
    print("Euler-form exponents (exact rationals)")
    print("=" * 72)
    forms = {}
    for fid in ALL_FNS:
        ef = euler_form(fid, order=24)
        forms[fid] = ef
        gs = ", ".join(f"g{n}={ef.g_at(n)}" for n in range(3, 6))
        print(f"  {fid}: a={ef.a}  b={ef.b}  {gs}")
        for flag in ef.flags:
            print(f"      note: {flag}")

    print()
    print("=" * 72)
    print("Pi_n by power series in u (Pi at u = 0 is the check)")
    print("=" * 72)
    for fid in ALL_FNS:
        t0 = time.perf_counter()
        pe_a = pi_taylor(forms[fid], N=4)
        with mp.workdps(CONSTANTS_DPS):
            delta = abs(pe_a.Pi[0] - pi_function(forms[fid], 0))
        print(f"  {fid}: Pi_0={mp.nstr(pe_a.Pi[0], 12)}  "
              f"Pi_1={mp.nstr(pe_a.Pi[1], 12)}  "
              f"|Pi_0 - Pi(0)| {mp.nstr(delta, 3)}  "
              f"budget {pe_a.error_budget:.1e}  "
              f"[{time.perf_counter() - t0:.1f}s]")

        # K_n: the reflection route must match the direct Gamma route
        for n in range(5):
            k_refl = reflection_K(forms[fid].a, n, pe_a.Pi[n])
            assert abs(k_refl - pe_a.K[n]) < 1e-13 * (1 + abs(k_refl))
        print(f"        K_0={mp.nstr(pe_a.K[0], 12)}  "
              f"K_1={mp.nstr(pe_a.K[1], 12)} (both Gamma routes agree)")

    print()
    print("=" * 72)
    print("Ramanujan's A0 for 1/tau, two independent ways")
    print("=" * 72)
    a0_prod, bound = ramanujan_A0_product(limit=10**6)
    a0_form = ramanujan_A0_eulerform(order=24)
    print(f"  log-domain prime product : {a0_prod!r}  (tail bound {bound:.1e})")
    print(f"  Euler-form zeta route    : {float(a0_form)!r}")
    print(f"  |difference|             : {abs(a0_prod - float(a0_form)):.2e}")


if __name__ == "__main__":
    main()
