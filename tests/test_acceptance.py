"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single
``ACCEPTANCE n PASS/FAIL`` line (run with ``pytest -s`` to see them live;
they also appear in captured output on failure).  Durations are printed
for information only — this host throttles unpredictably, so no test
asserts on wall-clock time.
"""

import math
import time
from fractions import Fraction

import pytest
from mpmath import mp

from oracles import G_product_direct, pi_taylor_quadrature
from shortmean.asymptotics import admissible_alpha, compare, predict
from shortmean.cli import run as cli_run
from shortmean.constants import (
    ln_G_hp,
    pi_taylor,
    ramanujan_A0_eulerform,
    ramanujan_A0_product,
)
from shortmean.eulerform import (
    euler_form,
    reconstruct_local_series,
    local_series,
)
from shortmean.functions import ALL_FNS, MultFnId, spec
from shortmean.perron import fit_loglog_slope, perron_error_scan
from shortmean.sieve import interval_sums_all
from shortmean.zeta import prime_zeta_hp, zeta_hp
from shortmean.zetachecks import (
    arc_bounds_check,
    gamma_tail_check,
    second_moment,
)

import io
import sys


def _verdict(num, label, ok):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'} — {label}")
    assert ok, f"acceptance criterion {num} ({label}) failed"


def _capture(argv):
    buf = io.BytesIO()

    class _Out:
        buffer = buf

        @staticmethod
        def write(text):
            buf.write(text.encode())

    old = sys.stdout
    sys.stdout = _Out
    try:
        rc = cli_run(argv)
    finally:
        sys.stdout = old
    return rc, buf.getvalue()


EXPECTED_AB = {
    MultFnId.INV_TAU_SQ: (Fraction(1, 3), Fraction(-1, 45)),
    MultFnId.INV_TAU_SQUARED: (Fraction(1, 4), Fraction(-13, 288)),
    MultFnId.INV_TWO_OMEGA: (Fraction(1, 2), Fraction(1, 8)),
    MultFnId.INV_TWO_BIG_OMEGA: (Fraction(1, 2), Fraction(-1, 8)),
}


def test_criterion_1_exact_euler_series():
    ok = True
    for fid in ALL_FNS:
        ef = euler_form(fid, order=12)
        a, b = EXPECTED_AB[fid]
        ok &= ef.a == a and ef.b == b
        ok &= ef.g_at(1) == 0 and ef.g_at(2) == 0
        # round trip: exp of the logarithmic form reproduces f(p^k) exactly
        rebuilt = reconstruct_local_series(ef)
        ok &= rebuilt == local_series(fid, 12)
    ok &= euler_form(MultFnId.INV_TAU_SQ).g_at(3) == Fraction(-64, 2835)
    # both places where the derivation disagrees with the printed display
    # are flagged, with the derived value stated in the flag text
    f2_flag = spec(MultFnId.INV_TAU_SQUARED).flag or ""
    f3_flag = spec(MultFnId.INV_TWO_OMEGA).flag or ""
    ok &= "19/244" in f2_flag and "-13/288" in f2_flag
    ok &= "sign" in f3_flag and "1/8" in f3_flag
    _verdict(1, "exact Euler-form series and discrepancy flags", ok)


def test_criterion_2_admissible_exponents():
    ok = (
        admissible_alpha(3) == Fraction(185, 308)
        and admissible_alpha(4) == Fraction(303, 508)
        and admissible_alpha(2) == Fraction(319, 524)
    )
    # the closed form they must satisfy: alpha = 1 - 1/(12/5 + (64/205)/k)
    for k in (2, 3, 4):
        lhs = admissible_alpha(k)
        rhs = 1 - 1 / (Fraction(12, 5) + Fraction(64, 205) / k)
        ok &= lhs == rhs
    _verdict(2, "admissible exponents 185/308, 303/508, 319/524", ok)


def test_criterion_3_constants_three_ways():
    t0 = time.perf_counter()
    ok = True
    for fid in ALL_FNS:
        ef = euler_form(fid, order=24)
        # analytic log-route vs direct product over p <= 1e7
        ln_val, ln_tail = ln_G_hp(ef, 1)
        analytic = complex(mp.e ** ln_val)
        product, tail = G_product_direct(ef, 1, limit=10**7)
        ok &= abs(analytic - product) <= 1e-6 + tail + ln_tail
        # circle quadrature at two radii must agree far below target, and
        # the series engine must match it within the quadrature's budget
        pe8 = pi_taylor_quadrature(ef, 4, radius=0.125)
        pe16 = pi_taylor_quadrature(ef, 4, radius=0.0625)
        engine = pi_taylor(ef, 4)
        for n in range(5):
            ok &= abs(pe8.Pi[n] - pe16.Pi[n]) <= 1e-18
            ok &= abs(engine.Pi[n] - pe8.Pi[n]) <= pe8.error_budget + engine.error_budget
    a0_prod, a0_err = ramanujan_A0_product(limit=10**6)
    a0_ef = ramanujan_A0_eulerform(order=24)
    ok &= abs(a0_prod - a0_ef) <= 1e-8
    print(f"[criterion 3 took {time.perf_counter() - t0:.1f}s]")
    _verdict(3, "constants: product vs log-route vs two radii, A0 two ways", ok)


def test_criterion_4_full_range_f1_converges():
    t0 = time.perf_counter()
    rels = []
    for X in (10**5, 10**6, 10**7, 10**8):
        rep = compare(MultFnId.INV_TAU_SQ, 0, X, N=4, threads=4)
        rels.append(rep.rel_err)
    ok = all(b < a for a, b in zip(rels, rels[1:])) and rels[-1] <= 5e-2
    print(f"[criterion 4 rel errs {rels}, {time.perf_counter() - t0:.1f}s]")
    _verdict(4, "full-range f1 error decreases with X, final <= 5e-2", ok)


def test_criterion_5_short_interval_all_fns():
    t0 = time.perf_counter()
    x, h = 10**10, 10**7
    sums = interval_sums_all(x, h, threads=4)
    ok = True
    for fid in ALL_FNS:
        exact = float(sums[fid])
        rel = {}
        for N in (0, 2):
            pred, _, _ = predict(fid, x, h, N)
            rel[N] = abs(pred - exact) / exact
        ok &= rel[2] <= 5e-2 and rel[2] <= rel[0]
    print(f"[criterion 5 took {time.perf_counter() - t0:.1f}s]")
    _verdict(5, "short interval x=1e10 h=1e7: N=2 within 5% and beats N=0", ok)


def test_criterion_6_perron_error_rate():
    t0 = time.perf_counter()
    Ts = [100 * 10 ** (k / 6) for k in range(13)]
    ok = True
    for fid in (MultFnId.INV_TWO_OMEGA, MultFnId.INV_TWO_BIG_OMEGA):
        rows = perron_error_scan(fid, 1000.5, Ts)
        slope = fit_loglog_slope(rows)
        max_ratio = max(r[3] for r in rows)
        ok &= -1.4 <= slope <= -0.6
        ok &= max_ratio <= 1.0
        print(f"[criterion 6 {fid}: slope {slope:.3f}, "
              f"max err/bound {max_ratio:.3f}]")
    print(f"[criterion 6 took {time.perf_counter() - t0:.1f}s]")
    _verdict(6, "Perron truncation error ~ 1/T and below x ln x / T", ok)


def test_criterion_7_zeta_infrastructure():
    ok = abs(zeta_hp(2) - mp.pi**2 / 6) <= 1e-12
    ok &= abs(prime_zeta_hp(2) - mp.primezeta(2)) <= 1e-8
    Ts = (100.0, 1000.0, 3000.0)
    for T, m in zip(Ts, second_moment(Ts)):
        ratio = m / (T * math.log(T))
        ok &= 0 < ratio <= 1.5
    for lam in (2.0, 5.0, 10.0):
        for k in (1, 2, 3):
            for g in (Fraction(1, 3), Fraction(1, 2)):
                _, _, holds = gamma_tail_check(lam, k, g)
                ok &= holds
    max_zeta, lower = arc_bounds_check(0.02)
    ok &= max_zeta <= 3.2 and lower >= 0.4
    _verdict(7, "zeta values, second moment, gamma tails, arc bounds", ok)


def test_criterion_8_cli_determinism():
    argv = ["sum", "--fn", "all", "--x", str(10**6), "--h", str(2 * 10**4)]
    rc1, out1 = _capture(argv + ["--threads", "1"])
    rc2, out2 = _capture(argv + ["--threads", "1"])
    rc4, out4 = _capture(argv + ["--threads", "4"])
    ok = rc1 == rc2 == rc4 == 0 and out1 == out2 == out4 and len(out1) > 0
    _verdict(8, "CLI output byte-identical across runs and thread counts", ok)
