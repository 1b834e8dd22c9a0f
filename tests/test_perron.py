"""Truncated Perron formula: F(s) evaluation and remainder decay."""

import math

import numpy as np
import pytest
from mpmath import mp

from oracles import segment_stats_loop, zeta_terms
from shortmean import zeta
from shortmean.constants import ln_G_hp
from shortmean.functions import ALL_FNS, MultFnId
from shortmean.perron import (
    _LNG_CUTOFF,
    _LNG_ORDER,
    _LNG_P0,
    _REFINE_BELOW,
    LNG_BUDGET,
    F_eval,
    fit_loglog_slope,
    ln_G_line,
    perron_error_scan,
    perron_truncated,
)
from shortmean.eulerform import euler_form
from shortmean.sieve import interval_sum, primes_up_to


def dirichlet_sum(s, dens):
    """sum f(n) n^{-s} over n = 1..N, given dens[n-1] = 1/f(n)."""
    coef = 1.0 / dens
    n = np.arange(1, len(coef) + 1, dtype=float)
    return complex(np.sum(coef * np.exp(-s * np.log(n))))


def test_F_eval_matches_dirichlet_sum_at_two():
    limit = 200000
    fids = (MultFnId.INV_TWO_OMEGA, MultFnId.INV_TWO_BIG_OMEGA)
    dens = segment_stats_loop(1, limit, primes_up_to(math.isqrt(limit)), fids).dens
    for fid in fids:
        direct = dirichlet_sum(2.0 + 0j, dens[fid])
        val = complex(F_eval(fid, np.array([2.0 + 0j]))[0])
        # Dirichlet tail at sigma=2 is below sum_{n>limit} n^{-2} ~ 1/limit
        assert abs(val - direct) < 2.0 / limit


def test_F_eval_f4_product_form():
    # f4 has the clean Euler product prod_p (1 - p^{-s}/2)^{-1}
    p = primes_up_to(10**6).astype(float)
    direct = float(np.exp(-np.sum(np.log1p(-0.5 * p**-2.0))))
    val = complex(F_eval(MultFnId.INV_TWO_BIG_OMEGA, np.array([2.0 + 0j]))[0])
    # the truncated product itself misses sum_{p>1e6} p^{-2}/2 ~ 4e-8
    assert val.real == pytest.approx(direct, abs=1e-7)
    assert abs(val.imag) < 1e-12


def test_F_eval_positive_on_real_axis():
    b = 1 + 1 / math.log(1000.5)
    val = complex(F_eval(MultFnId.INV_TAU_SQ, np.array([complex(b)]))[0])
    assert val.real > 1.0
    assert abs(val.imag) < 1e-12


def test_F_eval_conjugate_symmetry():
    s = np.array([1.2 + 7.5j])
    for fid in (MultFnId.INV_TAU_SQ, MultFnId.INV_TWO_OMEGA):
        up = complex(F_eval(fid, s)[0])
        dn = complex(F_eval(fid, s.conjugate())[0])
        assert dn == pytest.approx(up.conjugate(), rel=1e-12)


def test_ln_G_line_domain_guard():
    ef = euler_form(MultFnId.INV_TAU_SQ)
    with pytest.raises(ValueError):
        ln_G_line(ef, np.array([1.0 + 3j]))
    # g_n up to n = 56 (from p = 2) are needed; the default order is 24
    with pytest.raises(IndexError):
        ln_G_line(ef, np.array([2.0 + 0j]))


def test_ln_G_line_truncation_budget():
    # the dropped prime tail is largest at t = 0 (7.7e-10 for f3 and f4)
    s = np.array([1.05 + 0j, 1.05 + 7.3j])
    for fid in ALL_FNS:
        ef = euler_form(fid, _LNG_ORDER)
        line = ln_G_line(ef, s)
        with mp.workdps(30):
            for si, got in zip(s, line):
                ref, _ = ln_G_hp(ef, mp.mpc(si))
                assert abs(got - complex(ref)) <= LNG_BUDGET, (fid, si)


def ln_G_powers():
    """(n, p) for the prime powers p^n whose g_n p^{-ns} `ln_G_line` sums:
    p <= _LNG_CUTOFF[n] for n = 3, 4, else p <= _LNG_P0, while
    p^{-1.05 n} >= 1e-18."""
    return [(n, int(p)) for n in range(3, _LNG_ORDER + 1)
            for p in primes_up_to(_LNG_CUTOFF.get(n, _LNG_P0))
            if float(p) ** (-1.05 * n) >= 1e-18]


def ln_G_terms(ef, s):
    """ln G as `ln_G_line` forms it, summed term by term."""
    n, p = np.array(ln_G_powers()).T
    g = np.array([float(ef.g_at(k)) for k in n])
    return np.exp(-np.multiply.outer(s, n * np.log(p))) @ g


def test_ln_G_line_matches_mpmath_sum():
    # the same truncated sum at 30 digits, 12 heights in each of three bands
    # up to the top of the Perron contour
    b = 1 + 1 / math.log(1000.5)
    rng = np.random.default_rng(12)
    t = np.concatenate([lo + np.sort(rng.uniform(0, 100, 12)) for lo in (0, 3000, 9900)])
    s = b + 1j * t
    efs = [euler_form(fid, _LNG_ORDER) for fid in ALL_FNS]
    lines = [ln_G_line(ef, s) for ef in efs]
    powers = ln_G_powers()
    assert len(powers) == 570 and max(n for n, _ in powers) == _LNG_ORDER == 56
    with mp.workdps(30):
        lam = [n * mp.log(p) for n, p in powers]
        gs = [[mp.mpf(ef.g_at(n).numerator) / ef.g_at(n).denominator
               for n, _ in powers] for ef in efs]
        for j, sj in enumerate(s):
            terms = [mp.exp(-mp.mpc(sj) * lm) for lm in lam]
            for ef, g, line in zip(efs, gs, lines):
                ref = complex(mp.fdot(g, terms))
                assert abs(line[j] - ref) <= 5e-14, (ef.fid, t[j])


def _unit_panels(lo, count):
    """GL16 nodes of `count` unit panels from height lo, a grid of shifts."""
    x, _ = np.polynomial.legendre.leggauss(16)
    return (lo + np.arange(count) + 0.5)[:, None] + 0.5 * x[None, :]


def test_kernel_reuse_across_F_eval_sums():
    # F_eval's order on one grid: zeta(s), zeta(2s), then ln G with other
    # frequencies, then zeta(s) again; each matches its term-by-term sum
    s = 1 + 1 / math.log(1000.5) + 1j * _unit_panels(3090.0, 72)
    ef = euler_form(MultFnId.INV_TWO_OMEGA, _LNG_ORDER)
    z1, z2, lng, again = (zeta.zeta_many(s), zeta.zeta_many(2 * s),
                          ln_G_line(ef, s), zeta.zeta_many(s))
    for got, pts in ((z1, s), (z2, 2 * s), (again, s)):
        ref = np.array([zeta_terms(row) for row in pts])
        assert np.all(np.abs(got - ref) <= 1e-11 * np.maximum(1.0, np.abs(ref)))
    rows = np.array([ln_G_terms(ef, row) for row in s])
    assert np.max(np.abs(lng - rows)) <= 1e-12


def test_F_eval_builds_each_shift_table_once(monkeypatch):
    # 50 blocks of unit panels, as on the Perron contour above
    # _REFINE_BELOW: zeta(s), zeta(2s) and ln G each build one column
    # table, then one table of row-shift exponentials, both as wide as the
    # sum of their top block, and every block takes a slice of each
    builds, build = [], zeta._shift_table

    def counting(d, lam):
        builds.append((len(d), len(lam)))
        return build(d, lam)

    monkeypatch.setattr(zeta, "_shift_table", counting)
    s = 1 + 1 / math.log(1000.5) + 1j * _unit_panels(_REFINE_BELOW, 50 * 64)
    values = F_eval(MultFnId.INV_TWO_OMEGA, s)
    assert np.all(np.isfinite(values))
    top = float(np.max(s.imag))
    widths = [zeta._em_N(top), zeta._em_N(2 * top), len(ln_G_powers())]
    assert builds[0::2] == [(16, w) for w in widths]
    assert builds[1::2] == [(zeta._GRID_ROWS, w) for w in widths]


def test_ln_G_line_grid_matches_rows():
    # on a panel grid ln G goes through the shifted-row kernel; the
    # reference sums its terms one by one, row by row
    b = 1 + 1 / math.log(1000.5)
    for lo in (0.0, 3090.0):
        s = b + 1j * _unit_panels(lo, 72)
        for fid in ALL_FNS:
            ef = euler_form(fid, _LNG_ORDER)
            grid = ln_G_line(ef, s)
            rows = np.array([ln_G_terms(ef, row) for row in s])
            assert np.max(np.abs(grid - rows)) <= 1e-12, (fid, lo)


def test_ln_G_line_column_table_at_the_largest_frequencies():
    # unit panels at t ~ 3090 over three blocks, the last partial, with
    # columns that also step in real part: the column table's phases and
    # moduli e^{-c_j lam} reach lam = 56 ln 2 ~ 39
    b = 1 + 1 / math.log(1000.5)
    s = b + 0.02 * np.arange(16) + 1j * _unit_panels(3090.0, 150)
    assert max(n * math.log(p) for n, p in ln_G_powers()) > 38
    for fid in ALL_FNS:
        ef = euler_form(fid, _LNG_ORDER)
        rows = np.array([ln_G_terms(ef, row) for row in s])
        assert np.max(np.abs(ln_G_line(ef, s) - rows)) <= 1e-12, fid


def test_perron_truncated_basics():
    run = perron_truncated(MultFnId.INV_TWO_BIG_OMEGA, 100.5, 400.0)
    assert run.b == pytest.approx(1 + 1 / math.log(100.5))
    assert run.exact == pytest.approx(
        float(interval_sum(MultFnId.INV_TWO_BIG_OMEGA, 0, 100))
    )
    assert run.abs_err < 0.5
    assert run.abs_err / run.bound < 0.1


def test_perron_requires_half_integer_x():
    with pytest.raises(ValueError):
        perron_truncated(MultFnId.INV_TWO_OMEGA, 100.0, 400.0)
    with pytest.raises(ValueError):
        perron_truncated(MultFnId.INV_TWO_OMEGA, 100.25, 400.0)


def test_error_scan_decay_small_case():
    # the spec's small worked case: x = 100.5 with T doubling
    Ts = [100.0 * 2**k for k in range(5)]
    rows = perron_error_scan(MultFnId.INV_TWO_OMEGA, 100.5, Ts)
    assert [r[0] for r in rows] == Ts
    # errors do not grow (within a 2x noise band) while T grows 16x
    assert rows[-1][1] < 2.0 * rows[0][1]
    # one bounding constant across the scan
    assert max(r[3] for r in rows) < 1.0
    slope = fit_loglog_slope(rows)
    assert -2.0 < slope < -0.3


def test_scan_prefix_matches_direct_truncation():
    fid = MultFnId.INV_TWO_BIG_OMEGA
    rows = perron_error_scan(fid, 100.5, [100.0, 200.0])
    direct = perron_truncated(fid, 100.5, 200.0)
    assert rows[1][1] == pytest.approx(direct.abs_err, abs=5e-4)


def test_scan_rows_at_off_grid_T_match_direct_truncation():
    # 55.1 is off the quarter-height grid below 64 and 150.5 off the unit
    # grid above it; the scan ends at 200, so neither is its last panel
    fid = MultFnId.INV_TWO_BIG_OMEGA
    rows = perron_error_scan(fid, 100.5, [55.1, 150.5, 200.0])
    for T, err, _, _ in rows[:2]:
        direct = perron_truncated(fid, 100.5, T)
        assert err == pytest.approx(direct.abs_err, abs=1e-9)


def test_bound_column_arithmetic():
    rows = perron_error_scan(MultFnId.INV_TWO_OMEGA, 100.5, [128.0, 512.0])
    for T, err, bound, ratio in rows:
        assert bound == pytest.approx(100.5 * math.log(100.5) / T, rel=1e-12)
        assert ratio == pytest.approx(err / bound, rel=1e-12)
