"""Zeta evaluators: double-precision Euler-Maclaurin grids, mpmath
points, real series in u and prime zeta, checked against the sawtooth
integral representation and the first critical-line zero (oracles)."""

import math
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from mpmath import mp

from oracles import (
    first_zero,
    hardy_z,
    on_fresh_thread,
    prime_zeta_direct,
    unfactored_block_sum,
    zeta,
    zeta_integral_rep,
    zeta_taylor_mpmath,
    zeta_terms,
)
from shortmean import zeta as zeta_mod
from shortmean.zeta import (
    prime_zeta_hp,
    w_hp,
    zeta_hp,
    zeta_many,
    zeta_series_hp,
)


def test_zeta_two_is_pi_squared_over_six():
    assert abs(zeta(2.0 + 0j) - math.pi**2 / 6) < 1e-12


def test_zeta_matches_mpmath_on_strip_samples():
    rng = random.Random(7)
    for _ in range(25):
        s = complex(rng.uniform(0.5, 3.0), rng.uniform(-500, 500))
        ref = complex(mp.zeta(mp.mpc(s)))
        assert abs(zeta(s) - ref) <= 1e-10 * max(1.0, abs(ref)), s


def test_zeta_many_matches_scalar():
    pts = np.array([0.5 + 14j, 2.0 + 0j, 0.75 + 999.5j, 1.5 - 30j])
    vec = zeta_many(pts)
    for i, s in enumerate(pts):
        assert abs(vec[i] - zeta(complex(s))) < 1e-12
    assert zeta_many(np.array([])).shape == (0,)


def _panel_grid(lo, count, width, nodes):
    """GL nodes of `count` panels of `width` from `lo`: rows are shifts."""
    x, _ = np.polynomial.legendre.leggauss(nodes)
    lows = lo + width * np.arange(count)
    return lows[:, None] + (x[None, :] + 1.0) * (width / 2.0)


def _grids():
    """(s, label) for the Perron and second-moment panel grids, in windows
    of 100 panels (one full and one partial block of rows)."""
    b = 1 + 1 / math.log(1000.5)
    for lo in (0.0, 3062.0, 9900.0):  # unit GL16 panels up to t = 10^4
        t = _panel_grid(lo, 100, 1.0, 16)
        yield b + 1j * t, f"sigma={b:.3f} t>={lo}"
        yield 2 * b + 2j * t, f"2sigma 2t>={2 * lo}"
    width = 2000 / math.ceil(4 * 2000)
    for nodes in (8, 16):  # second-moment panels up to t = 2000
        for k in (0, 4000, 7900):
            t = _panel_grid(k * width, 100, width, nodes)
            yield 0.5 + 1j * t, f"GL{nodes} k={k}"


def test_zeta_grid_matches_pointwise_path():
    for s, label in _grids():
        grid = zeta_many(s)
        assert grid.shape == s.shape
        flat = np.array([zeta_terms(row) for row in s])
        tol = 1e-11 * np.maximum(1.0, np.abs(flat))
        assert np.all(np.abs(grid - flat) <= tol), label


def test_zeta_grid_matches_mpmath():
    rng = random.Random(3)
    grids = list(_grids())
    for s, label in rng.sample(grids, 12):
        k, j = rng.randrange(s.shape[0]), rng.randrange(s.shape[1])
        got = zeta_many(s)[k, j]
        with mp.workdps(25):
            ref = complex(mp.zeta(mp.mpc(s[k, j].real, s[k, j].imag)))
        assert abs(got - ref) <= 1e-11 * abs(ref), (label, k, j)


def test_zeta_grid_rejects_rows_that_are_not_shifts():
    t = _panel_grid(10.0, 4, 1.0, 16)
    t[2] = _panel_grid(12.0, 1, 0.5, 16)[0]  # a half-width panel
    with pytest.raises(ValueError):
        zeta_many(0.5 + 1j * t)


def test_zeta_grid_rows_may_shift_in_real_part():
    # rows sigma + i t of a sigma x t mesh are shifts of one another
    s = np.add.outer([0.5, 0.75, 1.0], 1j * np.geomspace(10.0, 1e3, 16))
    got = zeta_many(s)
    with mp.workdps(25):
        ref = np.array(
            [[complex(mp.zeta(mp.mpc(z.real, z.imag))) for z in row] for row in s]
        )
    assert np.all(np.abs(got - ref) <= 1e-11 * np.abs(ref))


def _assert_pointwise(s, got, label):
    flat = np.array([zeta_terms(row) for row in s])
    tol = 1e-11 * np.maximum(1.0, np.abs(flat))
    assert np.all(np.abs(got - flat) <= tol), label


def test_zeta_grid_columns_may_shift_in_real_part():
    # columns sigma_j + i t_k, and columns sigma_j + i (t_k + u_j): the
    # column offsets c_j have a real part, alone or with a height, so the
    # column table scales each column's terms by n^{-Re c_j}; equal and
    # uneven row heights, each over two blocks
    sigma = 0.5 + 0.1 * np.arange(16)
    u = _panel_grid(0.0, 1, 1.0, 16)[0]
    for t in (10.0 + 7.5 * np.arange(100), np.geomspace(10.0, 2e3, 100)):
        for c in (sigma, sigma + 1j * u):
            s = np.add.outer(1j * t, c)
            _assert_pointwise(s, zeta_many(s), (t[0], t[1], c[1]))


def test_one_column_block_sum_gives_the_unfactored_bits():
    # a 1-D s is one column: its column table is ones, so each block gives
    # exactly the bits of its first row exponentiated afresh
    lam = np.log(np.arange(1, zeta_mod._em_N(1e4) + 1.0))
    coef = np.random.default_rng(4).uniform(-1.0, 1.0, len(lam))
    for s in (0.5 + 1j * np.geomspace(10.0, 1e4, 200),
              1.2 + 1j * (3062.0 + 0.25 * np.arange(200))):
        for a, rows, shift, cols in zeta_mod._blocks(zeta_mod._as_grid(s), lam):
            assert cols.shape == (1, len(lam)) and np.all(cols == 1.0)
            for c in (1.0, coef):
                got = zeta_mod._block_sum(c, lam, rows, shift, cols)
                want = unfactored_block_sum(c, lam, rows, shift)
                assert np.array_equal(got, want), a


def _reuse_sequence():
    """(s, label) for grids whose blocks share the call's one table of
    row-shift exponentials, and for one whose blocks each build their own;
    every block of each shares the call's one column table."""
    b = 1 + 1 / math.log(1000.5)
    for lo in (0.0, 3062.0, 9900.0):
        yield b + 1j * _panel_grid(lo, 100, 1.0, 16), f"unit t>={lo}"
    yield b + 1j * _panel_grid(3062.0, 100, 0.5, 16), "width 0.5 after 1"
    # as after a second-moment halving round: half panels at uneven lows
    rng = np.random.default_rng(5)
    lows = np.repeat(0.25 * np.sort(rng.choice(8000, 80, replace=False)), 2)
    lows[1::2] += 0.125
    x, _ = np.polynomial.legendre.leggauss(8)
    yield 0.5 + 1j * (lows[:, None] + (x[None, :] + 1.0) * 0.0625), "uneven"


def _count_builds(monkeypatch):
    """A list of the (rows, columns) of every exponential table built: per
    call, its column table first, then its row-shift tables."""
    builds, build = [], zeta_mod._shift_table

    def counting(d, lam):
        builds.append((len(d), len(lam)))
        return build(d, lam)

    monkeypatch.setattr(zeta_mod, "_shift_table", counting)
    return builds


def test_zeta_grid_reuse_matches_fresh_exponentials(monkeypatch):
    builds, counts = _count_builds(monkeypatch), []
    for s, label in _reuse_sequence():
        before = len(builds)
        _assert_pointwise(s, zeta_many(s), label)
        cols, *rows = builds[before:]
        assert cols == (s.shape[1], zeta_mod._em_N(float(np.max(s.imag)))), label
        counts.append(len(rows))
    # a grid of equal panels builds one row-shift table per call, however
    # many blocks it has; every block of the uneven grid builds its own
    assert counts == [1, 1, 1, 1, math.ceil(160 / 64)]


def test_shift_table_is_no_wider_than_the_top_block(monkeypatch):
    # two blocks of unit panels climbing to T_MAX: each call builds one
    # column table and one row-shift table, as wide as the N of its top
    # block
    builds = _count_builds(monkeypatch)
    b = 1 + 1 / math.log(1000.5)
    for lo in [0.0] + [zeta_mod.T_MAX * 2.0**-k - 100 for k in range(8, -1, -1)]:
        s = b + 1j * _panel_grid(lo, 100, 1.0, 16)
        before = len(builds)
        _assert_pointwise(s, zeta_many(s), lo)
        top = zeta_mod._em_N(float(np.max(s.imag)))
        cols, *rows = builds[before:]
        assert cols == (16, top), lo
        assert rows == [(zeta_mod._GRID_ROWS, top)], lo
    # a 1-D input rising through many heights: one column (a table of
    # ones) as wide as the top block's N; no block's shifts match the first
    # block's, so each builds a row-shift table at its own N, and the call
    # gives the bits of its blocks evaluated one call each
    s = 0.5 + 1j * np.geomspace(10.0, 1e4, 200)
    blocks = [s[a : a + zeta_mod._GRID_ROWS]
              for a in range(0, len(s), zeta_mod._GRID_ROWS)]
    before = len(builds)
    got = zeta_many(s)
    cols, *rows = builds[before:]
    assert cols == (1, zeta_mod._em_N(float(np.max(s.imag))))
    assert rows == [
        (len(blk), zeta_mod._em_N(float(np.max(blk.imag)))) for blk in blocks]
    assert np.array_equal(got, np.concatenate([zeta_many(blk) for blk in blocks]))


def test_zeta_many_does_not_depend_on_earlier_calls():
    # the same grid gives the same bits whether or not another grid was
    # evaluated first on the same thread
    b = 1 + 1 / math.log(1000.5)
    first = b + 1j * _panel_grid(0.0, 100, 1.0, 16)
    s = b + 1j * _panel_grid(3062.0, 100, 1.0, 16)
    alone = on_fresh_thread(zeta_many, s)
    after = on_fresh_thread(lambda: (zeta_many(first), zeta_many(s))[1])
    assert np.array_equal(alone, after)


def test_concurrent_sweeps_equal_serial_ones():
    # grids of different widths swept on concurrent threads (more threads
    # than cores, switching often) give the serial result bit for bit
    b = 1 + 1 / math.log(1000.5)
    grids = {w: [b + 1j * _panel_grid(lo, 100, w, 16)
                 for lo in (0.0, 1000.0, 3062.0, 9900.0)]
             for w in (1.0, 0.5, 0.25)}
    start = threading.Barrier(len(grids), timeout=60)

    def sweep(w, wait=False):
        if wait:
            start.wait()
        return [zeta_many(s) for s in grids[w]]

    serial = {w: sweep(w) for w in grids}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(grids)) as pool:
            futures = {w: pool.submit(sweep, w, True) for w in grids}
            together = {w: f.result(timeout=120) for w, f in futures.items()}
    finally:
        sys.setswitchinterval(interval)
    for w, sweeps in grids.items():
        for s, one, two in zip(sweeps, serial[w], together[w]):
            assert np.array_equal(one, two), w
            _assert_pointwise(s, two, w)


def test_conjugate_symmetry():
    rng = random.Random(11)
    for _ in range(10):
        s = complex(rng.uniform(0.5, 2.5), rng.uniform(1, 300))
        assert zeta(s.conjugate()) == pytest.approx(
            zeta(s).conjugate(), rel=1e-12
        )


def test_zeta_hp_matches_mpmath():
    # zeta_hp (mp.zeta) against two independent routes: at real integers,
    # coefficient 0 of the series Euler-Maclaurin; at complex points, the
    # sawtooth integral representation within its tail bound
    with mp.workdps(40):
        for m in (2, 3, 7):
            (coeffs, _), = zeta_series_hp([m], 0).values()
            assert abs(zeta_hp(m) - coeffs[0]) < mp.mpf(10) ** (-35), m
        for s in (complex(0.75, 10), complex(3.3, -2.5)):
            want, tail = zeta_integral_rep(s, nodes=16)
            assert abs(complex(zeta_hp(s)) - want) <= tail + 1e-12, s
        assert w_hp(mp.mpc(1)) == 1


@pytest.mark.parametrize("dps", [40, 60])
def test_zeta_series_within_its_bound(dps):
    # every coefficient of zeta(m - m u), m = 2..30, and of w(1 - u) at
    # m = 1 is within its returned bound of mpmath's derivatives and
    # Stieltjes constants (taken 20 digits finer) at each order N = 0..8,
    # and the bound is below 10^-dps
    ms = range(1, 31)
    with mp.workdps(dps + 20):
        want = {m: zeta_taylor_mpmath(m, 8) for m in ms}
    with mp.workdps(dps):
        for N in range(9):
            got = zeta_series_hp(ms, N)
            for m in ms:
                coeffs, bound = got[m]
                assert len(coeffs) == len(bound) == N + 1, (m, N)
                for j in range(N + 1):
                    assert abs(coeffs[j] - want[m][j]) <= bound[j], (m, N, j)
                    assert bound[j] <= 10.0**-dps, (m, N, j)


def test_zeta_series_bound_covers_a_coarse_fixed_point(monkeypatch):
    # at P = mp.prec - 100, about 70 bits, the integer direct sum and
    # Bernoulli terms, not Backlund's remainder, set the bound; it must
    # still cover each coefficient's error
    ms = (1, 2, 3, 7, 30)
    with mp.workdps(60):
        want = {m: zeta_taylor_mpmath(m, 4) for m in ms}
    monkeypatch.setattr(zeta_mod, "FIXED_GUARD_BITS", -100)
    with mp.workdps(40):
        got = zeta_series_hp(ms, 4)
    for m in ms:
        coeffs, bound = got[m]
        for j in range(5):
            assert abs(coeffs[j] - want[m][j]) <= bound[j], (m, j)
        assert 1e-30 < max(bound) <= 1e-12, m


def test_zeta_series_domain():
    with pytest.raises(ValueError):
        zeta_series_hp([0], 4)
    with pytest.raises(ValueError):
        zeta_series_hp([2], -1)


def test_prime_zeta_against_direct_oracle():
    for s in (2.0, 3.0, 4.0, 6.0):
        direct, tail = prime_zeta_direct(s, 10**7)
        assert abs(float(prime_zeta_hp(s).real) - direct) <= tail + 1e-8


def test_prime_zeta_known_values():
    for s, ref in ((2.0, 0.4522474200410654), (4.0, 0.0769931397643609)):
        assert float(prime_zeta_hp(s).real) == pytest.approx(ref, abs=1e-12)


def test_prime_zeta_hp_matches_mpmath():
    old = mp.dps
    mp.dps = 30
    try:
        for s in (mp.mpc(2), mp.mpc(3.5, 1.0)):
            assert abs(prime_zeta_hp(s) - mp.primezeta(s)) < mp.mpf(10) ** (-25)
    finally:
        mp.dps = old


def test_prime_zeta_domain_error():
    with pytest.raises(ValueError):
        prime_zeta_hp(0.9)


def test_prime_zeta_dropping_two_shrinks_modulus():
    for s in (1.5, 2.0, 4.0):
        full = float(prime_zeta_hp(s).real)
        assert abs(full - 2.0**-s) < abs(full)


def test_integral_representation_cross_check():
    # sawtooth representation vs Euler-Maclaurin at seeded random points
    rng = random.Random(20240826)
    for _ in range(10):
        s = complex(rng.uniform(0.6, 2.5), rng.uniform(-20, 20))
        if abs(s - 1) < 0.1:
            continue
        val, bound = zeta_integral_rep(s, nodes=16)
        assert abs(val - zeta(s)) <= bound + 1e-12


def test_first_zero_location():
    t0 = first_zero()
    assert t0 == pytest.approx(14.134725141734693, abs=1e-6)
    assert abs(zeta(complex(0.5, t0))) < 1e-5


def test_hardy_function_is_real_signed():
    assert hardy_z(14.0) * hardy_z(14.2) < 0
