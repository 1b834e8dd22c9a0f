"""Euler-product constants: ln G dual routes, Pi(u) expansion, the
reflection identity, and the Ramanujan-style leading constant."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from oracles import (
    G_product_direct,
    pi_taylor_quadrature,
    small_primes_termwise,
    termwise_series,
)
from shortmean import constants, zeta
from shortmean.constants import (
    CONSTANTS_DPS,
    DEFAULT_P0,
    _LogSum,
    _add_small_primes,
    _fixed_columns,
    _g_bound,
    _horner_fixed,
    _large_prime_coeffs,
    _large_prime_cut,
    _ln_G_order,
    _ln_G_p_hp,
    _ln_G_tail_bound,
    _local_cut,
    _local_log,
    _q,
    _series_log,
    _small_prime_log_coeffs,
    gamma_route_K,
    ln_G_hp,
    pi_function,
    pi_taylor,
    ramanujan_A0,
    ramanujan_A0_eulerform,
    ramanujan_A0_product,
    reflection_K,
)
from shortmean.eulerform import euler_form, local_series
from shortmean.functions import ALL_FNS, MultFnId, local_value
from shortmean.powerseries import exp_linear_coeffs, log_coeffs
from shortmean.sieve import primes_up_to
from shortmean.zeta import prime_zeta_hp


@pytest.fixture(autouse=True)
def _constants_precision():
    old = mp.dps
    mp.dps = CONSTANTS_DPS
    yield
    mp.dps = old


def test_ln_G_matches_direct_product_at_three_points():
    for fid in ALL_FNS:
        ef = euler_form(fid)
        for s in (1.0, 1.25, 2.0):
            lng, tail = ln_G_hp(ef, mp.mpf(s))
            prod, prod_tail = G_product_direct(ef, s, limit=10**6)
            assert abs(complex(mp.exp(lng)) - prod) <= tail + prod_tail + 1e-11


def test_shared_n_series_matches_per_n_prime_zeta():
    # ln_G_hp shares log zeta(m s) across n; the n-series it adds must equal
    # sum_n g_n * (prime_zeta_hp(n s) - sum_{p <= P0} p^{-n s}), one P per n
    primes = [int(p) for p in primes_up_to(DEFAULT_P0)]
    with mp.workdps(40):
        for fid in ALL_FNS:
            ef = euler_form(fid)
            for q in (0, 5, 24):
                s = 1 - mp.mpf(1) / 8 * mp.expjpi(mp.mpf(q) / 24)
                lng, _ = ln_G_hp(ef, s)
                local = _ln_G_p_hp(ef, [mp.power(p, -s) for p in primes])
                per_n = mp.fsum(
                    _q(ef.g_at(n))
                    * (prime_zeta_hp(n * s) - mp.fsum(mp.power(p, -n * s) for p in primes))
                    for n in range(3, _ln_G_order(ef, float(s.real)) + 1)
                    if ef.g_at(n) != 0
                )
                assert abs((lng - local) - per_n) <= 1e-32, (fid, q)


def test_pi_taylor_call_counts(monkeypatch):
    # the Taylor series come from real-argument data only: no point
    # evaluation of Pi, ln G or the Euler-Maclaurin zeta, and neither
    # mpmath's zeta derivatives nor its Stieltjes constants (quadratures);
    # the direct sums are integer dot products and the Bernoulli numbers
    # exact fractions, so no mp.fdot and no mp.bernoulli either
    calls = {"pi_function": 0, "zeta_hp": 0, "ln_G_hp": 0,
             "mp.zeta": 0, "mp.stieltjes": 0, "mp.fdot": 0, "mp.bernoulli": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    zeta_hp = counted("zeta_hp", zeta.zeta_hp)
    monkeypatch.setattr(zeta, "zeta_hp", zeta_hp)
    monkeypatch.setattr(constants, "zeta_hp", zeta_hp)
    monkeypatch.setattr(constants, "ln_G_hp", counted("ln_G_hp", constants.ln_G_hp))
    monkeypatch.setattr(
        constants, "pi_function", counted("pi_function", constants.pi_function))
    monkeypatch.setattr(mp, "zeta", counted("mp.zeta", mp.zeta))
    monkeypatch.setattr(mp, "stieltjes", counted("mp.stieltjes", mp.stieltjes))
    monkeypatch.setattr(mp, "fdot", counted("mp.fdot", mp.fdot))
    monkeypatch.setattr(mp, "bernoulli", counted("mp.bernoulli", mp.bernoulli))
    pi_taylor(euler_form(MultFnId.INV_TAU_SQ), 4)
    assert calls == {"pi_function": 0, "zeta_hp": 0, "ln_G_hp": 0,
                     "mp.zeta": 0, "mp.stieltjes": 0, "mp.fdot": 0,
                     "mp.bernoulli": 0}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(-10, 10, max_denominator=10**6), min_size=1, max_size=40),
       st.sampled_from(primes_up_to(100).tolist()),
       st.integers(0, 200))
def test_horner_fixed_is_within_four_units(a, p, P):
    # each moment sum_k a_k k^j p^{-k} falls short of the exact one by
    # under 2 p / (p - 1) <= 4 units of 2^-P
    for j, col in enumerate(_fixed_columns(a, 3, P)):
        exact = sum(x * k**j / Fraction(p) ** k for k, x in enumerate(a)) * 2**P
        assert 0 <= exact - _horner_fixed(col, p) < 4, j


@pytest.mark.parametrize("N", [0, 4, 8])
def test_small_primes_match_the_termwise_pass(N, monkeypatch):
    # the integer moments against the mpf term-by-term pass, with the same
    # cuts: within the returned bound and the rounding of both, at the
    # default P and at P = 64 bits, where the truncations outweigh the cuts
    with mp.workdps(CONSTANTS_DPS + zeta.GUARD_DPS):
        log_tol = -mp.dps * math.log(10)
        guards = (constants.FIXED_GUARD_BITS, 64 - mp.prec)
        for fid in (*ALL_FNS, "inv_tau"):
            ef = euler_form(fid)
            c = _large_prime_coeffs(ef, _large_prime_cut(ef, N, log_tol)[0])
            want = _LogSum(N)
            small_primes_termwise(want, ef, c, N, log_tol)
            for guard in guards:
                monkeypatch.setattr(constants, "FIXED_GUARD_BITS", guard)
                got = _LogSum(N)
                eps = _add_small_primes(got, ef, c, N, log_tol)
                for j in range(N + 1):
                    rounding = zeta.ROUNDING_ULPS * mp.eps * (got.size[j] + want.size[j])
                    assert abs(got.value[j] - want.value[j]) <= eps[j] + rounding, (
                        fid, guard, j)
                    assert got.size[j] >= want.size[j] - rounding, (fid, guard, j)


def test_local_log_bound_covers_a_coarse_fixed_point():
    # at P = 40 bits the truncation of F_p's moments, not its cut, is what
    # the bound on ln F_p must cover
    N, P = 4, 40
    with mp.workdps(CONSTANTS_DPS + zeta.GUARD_DPS):
        for fid in (*ALL_FNS, "inv_tau"):
            for p in (2, 3, 97):
                K, tail = _local_cut(p, N, -mp.dps * math.log(10))
                a = [local_value(fid, k) for k in range(K + 1)]
                scale = exp_linear_coeffs(mp.ldexp(1, -P), mp.log(p), N)
                lnF, bound = _local_log(_fixed_columns(a, N, P), p, K, tail, scale)
                want = _series_log(termwise_series([[_q(x) for x in a]], p, K, N)[0])
                for j in range(N + 1):
                    rounding = zeta.ROUNDING_ULPS * mp.eps
                    assert abs(lnF[j] - want[j]) <= bound[j] + rounding, (fid, p, j)
                    assert bound[j] <= 1e-8, (fid, p, j)


def test_pi_taylor_budget_bounds_a_more_precise_run():
    for fid in ALL_FNS:
        ef = euler_form(fid)
        pe = pi_taylor(ef, 4)
        with mp.workdps(CONSTANTS_DPS + 20):
            finer = pi_taylor(ef, 4)
        assert pe.error_budget <= 1e-27, fid
        for n in range(5):
            assert abs(pe.Pi[n] - finer.Pi[n]) <= pe.error_budget, (fid, n)


def test_small_prime_log_coeffs_cancel_ln_F_through_M():
    # ln F_p + a ln(1-X) + b ln(1-X^2) = sum_n g_n X^n, and the Mobius
    # inversion sum_{m | k} m c_m / k = g_k holds once every divisor of k
    # is at most M, so ln F_p + sum_k e_k X^k starts at X^{M+1}
    log_tol = -(CONSTANTS_DPS + zeta.GUARD_DPS) * math.log(10)
    for fid in (*ALL_FNS, "inv_tau"):
        ef = euler_form(fid)
        M, _ = _large_prime_cut(ef, 4, log_tol)
        e = _small_prime_log_coeffs(ef, _large_prime_coeffs(ef, M), M + 1)
        lnF = log_coeffs(local_series(fid, M + 1))
        assert all(lnF[k] + e[k] == 0 for k in range(1, M + 1)), (fid, M)
        assert lnF[M + 1] + e[M + 1] != 0, (fid, M)


def test_g_bound_holds_to_order_150():
    # _large_prime_cut (|c_m| <= g (1 + ln m)) and the direct product's
    # tail take g = _g_bound of the default form as a bound on every |g_n|
    for fid in (*ALL_FNS, "inv_tau"):
        bound = _g_bound(euler_form(fid))
        assert all(abs(g) <= bound for g in euler_form(fid, 150).g), fid


def test_pi_taylor_constant_term_matches_pi_function():
    for fid in (*ALL_FNS, "inv_tau"):
        ef = euler_form(fid)
        assert abs(pi_taylor(ef, 0).Pi[0] - pi_function(ef, 0)) <= 1e-25, fid


def test_pi_taylor_order_eight_f1():
    ef = euler_form(MultFnId.INV_TAU_SQ)
    pe = pi_taylor(ef, 8)
    assert pe.error_budget <= 1e-27
    low = pi_taylor(ef, 4)
    for n in range(5):
        assert abs(pe.Pi[n] - low.Pi[n]) <= pe.error_budget + low.error_budget, n
    oracle = pi_taylor_quadrature(ef, 8)
    for n in range(9):
        assert abs(pe.Pi[n] - oracle.Pi[n]) <= pe.error_budget + oracle.error_budget, n


def test_tail_bound_matches_ln_G_hp():
    for fid in ALL_FNS:
        ef = euler_form(fid)
        for sigma in (0.875, 1.0, 1.25):
            _, tail = ln_G_hp(ef, mp.mpf(sigma))
            assert _ln_G_tail_bound(ef, sigma) == tail, (fid, sigma)


def test_ln_G_vanishes_at_large_s():
    ef = euler_form(MultFnId.INV_TWO_BIG_OMEGA)
    lng, _ = ln_G_hp(ef, mp.mpf(40))
    assert abs(lng) < 1e-11


def test_ln_G_domain_guard():
    ef = euler_form(MultFnId.INV_TAU_SQ)
    with pytest.raises(ValueError):
        ln_G_hp(ef, mp.mpf(0.3))


def test_ln_G_bounded_on_real_segment():
    # |ln G| admits a modest uniform constant on [0.55, 1]
    for fid in ALL_FNS:
        ef = euler_form(fid)
        C = max(
            abs(ln_G_hp(ef, mp.mpf(s))[0])
            for s in (0.55, 0.6, 0.7, 0.85, 1.0)
        )
        assert C < 1.0, (fid, float(C))


def test_pi_function_domain_guard():
    ef = euler_form(MultFnId.INV_TAU_SQ)
    with pytest.raises(ValueError):
        pi_function(ef, 0.3)


def test_pi_real_positive_on_real_segment():
    for fid in ALL_FNS:
        ef = euler_form(fid)
        for u in (-0.2, 0.0, 0.1, 0.25):
            val = pi_function(ef, mp.mpf(u))
            assert val.real > 0
            assert abs(val.imag) < mp.mpf(10) ** (-25)


def test_pi0_closed_combination():
    # Pi(0) = G(1) * zeta(2)^b since w(1) = 1
    for fid in (MultFnId.INV_TWO_OMEGA, MultFnId.INV_TAU_SQ):
        ef = euler_form(fid)
        lng, _ = ln_G_hp(ef, mp.mpf(1))
        expected = mp.exp(lng) * mp.zeta(2) ** (
            mp.mpf(ef.b.numerator) / ef.b.denominator
        )
        assert abs(pi_function(ef, 0) - expected) < 1e-25


def test_reflection_identity_exact_gamma_form():
    # (-1)^n / Gamma(a-n) = sin(pi a) Gamma(n+1-a) / pi
    for a in (Fraction(1, 3), Fraction(1, 4), Fraction(1, 2)):
        af = mp.mpf(a.numerator) / a.denominator
        for n in range(9):
            lhs = (-1) ** n / mp.gamma(af - n)
            rhs = mp.sinpi(af) * mp.gamma(n + 1 - af) / mp.pi
            assert abs(lhs - rhs) < mp.mpf(10) ** (-25), (a, n)


def test_K_two_routes_agree():
    for fid in ALL_FNS:
        pe = pi_taylor(euler_form(fid), 4)
        for n in range(5):
            k1 = gamma_route_K(pe.a, n, pe.Pi[n])
            k2 = reflection_K(pe.a, n, pe.Pi[n])
            assert abs(k1 - k2) < mp.mpf(10) ** (-20)
            assert abs(k1 - pe.K[n]) == 0


def test_leading_constants_positive():
    for fid in ALL_FNS:
        pe = pi_taylor(euler_form(fid), 0)
        assert pe.Pi[0] > 0
        assert pe.K[0] > 0


def test_two_radii_agree():
    ef = euler_form(MultFnId.INV_TAU_SQUARED)
    pe8 = pi_taylor_quadrature(ef, 4, radius=0.125)
    pe16 = pi_taylor_quadrature(ef, 4, radius=0.0625)
    for n in range(5):
        assert abs(pe8.Pi[n] - pe16.Pi[n]) < 1e-18


def test_f3_f4_share_shape_constant_structure():
    pe3 = pi_taylor(euler_form(MultFnId.INV_TWO_OMEGA), 0)
    pe4 = pi_taylor(euler_form(MultFnId.INV_TWO_BIG_OMEGA), 0)
    assert pe3.a == pe4.a == Fraction(1, 2)
    # K0 = Pi0 / sqrt(pi) for a = 1/2
    assert abs(pe3.K[0] - pe3.Pi[0] / mp.sqrt(mp.pi)) < 1e-25
    assert abs(pe4.K[0] - pe4.Pi[0] / mp.sqrt(mp.pi)) < 1e-25


def test_ramanujan_A0_routes_agree():
    value, bound, cross = ramanujan_A0()
    assert bound <= 1e-10
    assert cross <= 1e-8
    assert 0.5 < value < 0.6


def test_ramanujan_A0_truncation_consistency():
    v_small, b_small = ramanujan_A0_product(limit=10**3)
    v_big, b_big = ramanujan_A0_product(limit=10**6)
    assert abs(v_small - v_big) <= b_small + b_big


def test_ramanujan_A0_product_ignores_ambient_precision():
    # the tail's prime zeta values are computed at CONSTANTS_DPS digits
    values = []
    for dps in (15, 50):
        with mp.workdps(dps):
            values.append(ramanujan_A0_product())
    assert values[0] == values[1]


def test_ramanujan_A0_tail_bound_is_rigorous_and_tight():
    # the omitted order-9 term is d_9 * sum_{p > limit} p^{-9}; the bound
    # replaces that prime sum by limit^{-8}/8, on top of a fixed 1e-12
    limit = 10**3
    _, bound = ramanujan_A0_product(limit=limit)
    m = constants._A0_TAIL_ORDER + 1
    d = 2 * abs(float(constants._eq1_tail_coeffs(m)[m]))
    with mp.workdps(40):
        head = mp.fsum(mp.mpf(int(p)) ** -m for p in primes_up_to(limit))
        lower = d * float(mp.primezeta(m) - head)
    upper = d * float(limit) ** (1 - m) / (m - 1)
    assert lower < bound - 1e-12 <= upper + math.ulp(1e-12)


def test_ramanujan_local_factors_below_one():
    import numpy as np

    p = primes_up_to(10**4).astype(float)
    f = np.sqrt(p * (p - 1)) * np.log(p / (p - 1))
    assert np.all(f < 1)
    assert f[-1] > 0.999999  # tends to 1


def test_eulerform_route_value():
    v = ramanujan_A0_eulerform()
    assert v == pytest.approx(0.5468559552804745, abs=1e-12)
