"""Exponent arithmetic, contour heights, prediction models, comparisons."""

import json
import math
from fractions import Fraction

import pytest
from mpmath import mp

from oracles import choose_T
from shortmean import asymptotics
from shortmean.asymptotics import (
    EXPONENTS,
    admissible_alpha,
    compare,
    h_threshold,
    model,
    predict,
)
from shortmean.constants import CONSTANTS_DPS, ln_G_hp
from shortmean.eulerform import euler_form
from shortmean.functions import ALL_FNS, ZETA_POWER_DENOM, MultFnId
from shortmean.reports import json_report
from shortmean.sieve import interval_sum


def test_admissible_alpha_exact_values():
    assert admissible_alpha(3) == Fraction(185, 308)
    assert admissible_alpha(4) == Fraction(303, 508)
    assert admissible_alpha(2) == Fraction(319, 524)


def test_admissible_alpha_rejects_other_k():
    with pytest.raises(ValueError):
        admissible_alpha(5)


def test_exponent_table_consistency():
    assert EXPONENTS["c"] == Fraction(64, 205)
    assert EXPONENTS["densityExponent"] == Fraction(12, 5)
    for fid in ALL_FNS:
        assert EXPONENTS["alpha"][fid] == admissible_alpha(EXPONENTS["k"][fid])


def test_choose_T_algebraic_inverse():
    for x in (1e6, 1e10):
        for k in (2, 3, 4):
            ch = choose_T(x, k, C1=1.0)
            expo = 12 / 5 + (64 / 205) / k
            D = math.exp(math.log(x) ** 0.8)
            assert ch.T**expo * D == pytest.approx(x, rel=1e-12)
            assert ch.h_min == pytest.approx(
                x / ch.T * math.log(x) ** 2, rel=1e-12
            )


def test_choose_T_monotone_in_x():
    prev = 0.0
    for x in (1e6, 1e8, 1e10, 1e12):
        T = choose_T(x, 2, C1=1.0).T
        assert T > prev
        prev = T


def test_h_threshold_dual_values():
    for fid in ALL_FNS:
        th = h_threshold(fid, 1e10)
        assert th.alpha == admissible_alpha(ZETA_POWER_DENOM[fid])
        assert th.proof > th.theorem  # (ln x)^0.8 beats (ln x)^0.1 here
        assert th.theorem < 1e10
        assert "mismatch" in th.to_json_dict()["flags"][0]


def test_h_threshold_theorem_variant_below_x_on_grid():
    # only the theorem variant sits below x at desk scales; the proof
    # variant e^{C2 (ln x)^{0.8}} needs ln x beyond c^5 to drop under x
    for x in (1e6, 1e8, 1e10):
        for fid in ALL_FNS:
            th = h_threshold(fid, x)
            assert th.theorem <= x
            assert th.proof == pytest.approx(
                x ** float(th.alpha) * math.exp(math.log(x) ** 0.8), rel=1e-10
            )


def test_h7_inside_theorem_range_at_1e10():
    # the short-interval acceptance point: h = 1e7 > x^alpha * e^{(ln x)^0.1}
    for fid in ALL_FNS:
        assert h_threshold(fid, 1e10).theorem < 1e7


def test_predict_linear_in_h():
    for fid in ALL_FNS:
        v1, _, _ = predict(fid, 10**8, 10**5, 2)
        v2, _, _ = predict(fid, 10**8, 2 * 10**5, 2)
        assert v2 == pytest.approx(2 * v1, rel=1e-15)


def test_predict_per_unit_independent_of_h():
    fid = MultFnId.INV_TAU_SQ
    base = predict(fid, 10**9, 10**4, 3)[0] / 10**4
    for h in (10**5, 10**6, 7 * 10**6):
        assert predict(fid, 10**9, h, 3)[0] / h == pytest.approx(
            base, rel=1e-15
        )


def test_predict_N0_shape():
    fid = MultFnId.INV_TAU_SQ  # a = 1/3: leading shape h K0 / (ln x)^{2/3}
    m = model(fid, 0)
    x, h = 10**8, 10**6
    v, _, _ = predict(fid, x, h, 0)
    assert v == pytest.approx(h * m.K[0] / math.log(x) ** (2 / 3), rel=1e-14)


def test_model_cumulative_coefficients_are_prefix_sums():
    fid = MultFnId.INV_TWO_OMEGA
    short = model(fid, 3, cumulative=False)
    full = model(fid, 3, cumulative=True)
    assert short.a == full.a
    # K_n relates to Pi_n by a fixed Gamma factor, so prefix summing shows
    # up as: full_K_n * Gamma-cancel == sum of short Pi terms; check via
    # the defining recurrence K_n(short) = K_n(full) - (a-n) K_{n-1}(full)
    a = float(full.a)
    for n in range(1, 4):
        assert short.K[n] == pytest.approx(
            full.K[n] + (a - n) * full.K[n - 1], rel=1e-12
        )


def test_f3_f4_K0_ratio_matches_euler_factors():
    k3 = model(MultFnId.INV_TWO_OMEGA, 0).K[0]
    k4 = model(MultFnId.INV_TWO_BIG_OMEGA, 0).K[0]
    old = mp.dps
    mp.dps = CONSTANTS_DPS
    try:
        g3, _ = ln_G_hp(euler_form(MultFnId.INV_TWO_OMEGA), mp.mpf(1))
        g4, _ = ln_G_hp(euler_form(MultFnId.INV_TWO_BIG_OMEGA), mp.mpf(1))
        expected = float((mp.zeta(2) ** mp.mpf(0.25) * mp.exp(g3 - g4)).real)
    finally:
        mp.dps = old
    assert k3 / k4 == pytest.approx(expected, rel=1e-12)


def test_compare_small_full_range():
    rep = compare(MultFnId.INV_TAU_SQ, 0, 5, 0)
    assert rep.exact == Fraction(11, 5)
    assert float(rep.exact) == pytest.approx(2.2)


def test_compare_report_fields():
    rep = compare(MultFnId.INV_TWO_BIG_OMEGA, 10**8, 10**6, 2)
    assert rep.rel_err < 0.05 and rep.passed
    d = json.loads(json_report(rep))
    assert d["exact"]["num"].isdigit() and d["exact"]["den"].isdigit()
    assert d["thresholds"]["alpha"] == "319/524"
    assert "runtime_ms" not in d  # no wall clock in the serialization


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1.0])
def test_compare_refuses_a_bad_tolerance_before_sieving(tolerance, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sieved")

    monkeypatch.setattr(asymptotics, "interval_sum", refuse)
    with pytest.raises(ValueError, match=repr(tolerance)):
        compare(MultFnId.INV_TAU_SQ, 10**6, 10**4, 2, tolerance=tolerance)


def test_trend_toward_K0():
    # |S * (ln x)^{1-a} / h - K0| follows the model's own 1/ln x tail along
    # x = 1e6, 1e7, 1e8 (h = x^0.7).  Strict monotone decrease is *not*
    # asserted: at desk scale the interval fluctuation (about 1e-3 here)
    # is comparable to the decade-to-decade drop of |K1|/ln x, so the
    # measured deviation may wobble; it must stay within the model tail
    # plus a fluctuation allowance, and the tail itself shrinks.
    for fid in ALL_FNS:
        m4 = model(fid, 4)
        a = float(m4.a)
        for x in (10**6, 10**7, 10**8):
            h = int(x**0.7)
            L = math.log(x)
            s = float(interval_sum(fid, x, h))
            dev = abs(s * L ** (1 - a) / h - m4.K[0])
            tail = abs(sum(m4.K[n] / L**n for n in range(1, 5)))
            fluct = 30.0 / math.sqrt(h)
            assert dev <= tail + fluct, (fid, x, dev, tail)
            assert dev + fluct >= tail / 3, (fid, x, dev, tail)


def test_predict_argument_guards():
    with pytest.raises(ValueError):
        predict(MultFnId.INV_TAU_SQ, 10**6, 10**3, 9)
    with pytest.raises(ValueError):
        predict(MultFnId.INV_TAU_SQ, 2, 10, 1)
    with pytest.raises(ValueError):
        predict(MultFnId.INV_TAU_SQ, 0, 2, 1)
