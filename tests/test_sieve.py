"""Segmented sieve: exact interval sums, thread invariance, caching."""

import json
import tracemalloc
from fractions import Fraction
from math import isqrt, log2

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import f_value, factorize, segment_stats_loop, signature_code
from shortmean import sieve
from shortmean.cli import run
from shortmean.functions import ALL_FNS, MultFnId
from shortmean.sieve import (
    CODE_UNIT,
    CapacityError,
    LOG_SCALE,
    OMEGA_UNIT,
    PRESIEVE_PRIMES,
    SCATTER_MIN_PRIME,
    SEGMENT_WIDTH,
    SIEVE_MAX_POINT,
    WALK_MIN_POINT,
    _denominator_counts,
    _mobius_upto,
    _segment_stats,
    interval_counts,
    interval_sum,
    interval_sums_all,
    primes_up_to,
)


def brute_sum(fid, x, h):
    return sum(f_value(fid, factorize(n)) for n in range(x + 1, x + h + 1))


def test_primes_up_to_small():
    assert list(primes_up_to(30)) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_primes_up_to_matches_factorize_and_is_cached():
    first = primes_up_to(10**4)
    want = [n for n in range(2, 10**4 + 1)
            if factorize(n).factors == ((n, 1),)]
    assert first.tolist() == want
    assert primes_up_to(10**4) is first


def eratosthenes(limit):
    is_prime = [False, False] + [True] * (limit - 1)
    for p in range(2, isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = [False] * len(is_prime[p * p :: p])
    return [n for n in range(limit + 1) if is_prime[n]]


def test_primes_up_to_keeps_one_table(monkeypatch):
    monkeypatch.setattr(sieve, "_prime_cache", {})
    # a rebuild, two slices, then a rebuild that must re-view the slices
    limits = [2**16, 2**16 - 1, 1000, 2**17]
    for limit in limits:
        assert primes_up_to(limit).tolist() == eratosthenes(limit), limit
    cache = sieve._prime_cache
    assert sorted(cache) == sorted(limits)
    table = cache[2**17]
    for limit, primes in cache.items():
        assert np.shares_memory(primes, table), limit
        assert primes.tolist() == eratosthenes(limit), limit


def test_mobius_matches_trial_division():
    n = 2000
    mu = _mobius_upto(n)
    for k in range(1, n + 1):
        fac = factorize(k)
        squarefree = all(r == 1 for _, r in fac.factors)
        assert mu[k] == ((-1) ** fac.omega if squarefree else 0), k


def test_sum_first_five_inv_tau_sq():
    s = interval_sum(MultFnId.INV_TAU_SQ, 0, 5)
    assert s == Fraction(11, 5)
    assert float(s) == pytest.approx(2.2, rel=1e-15)


def test_exact_sums_match_brute_force_small():
    for fid in ALL_FNS:
        assert interval_sum(fid, 0, 300) == brute_sum(fid, 0, 300)


def test_exact_sums_match_brute_force_offset():
    x, h = 99991, 173
    for fid in ALL_FNS:
        assert interval_sum(fid, x, h) == brute_sum(fid, x, h)


def test_interval_sums_all_consistent_with_single():
    x, h = 10**6, 2000
    sums = interval_sums_all(x, h)
    for fid in ALL_FNS:
        assert sums[fid] == interval_sum(fid, x, h)


def test_thread_count_does_not_change_results():
    x, h = 10**7, 3 * 10**5
    a = interval_sums_all(x, h, threads=1)
    b = interval_sums_all(x, h, threads=4)
    for fid in ALL_FNS:
        assert a[fid] == b[fid]
        assert float(a[fid]) == float(b[fid])  # bytes, not just close


def test_large_offset_sample():
    # frozen oracle: trial division at 1e10 over a short window
    x, h = 10**10, 60
    sums = interval_sums_all(x, h)
    for fid in ALL_FNS:
        assert sums[fid] == brute_sum(fid, x, h)


def reported_sum(fid, x, h, tmp_path):
    """(exact, float) of `fid` as the `sum` command reports them."""
    out = tmp_path / "sum.json"
    assert run(["sum", "--fn", str(fid), "--x", str(x), "--h", str(h),
                "--out", str(out)]) == 0
    row = json.loads(out.read_text())["results"][0]
    return Fraction(row["exact"]), row["float"]


def test_approx_is_correctly_rounded(tmp_path):
    # a compensated float sum is 1 ulp off here
    exact, approx = reported_sum(MultFnId.INV_TAU_SQ, 0, 101100, tmp_path)
    assert exact == interval_sum(MultFnId.INV_TAU_SQ, 0, 101100)
    assert approx == float(exact)


def test_approx_tracks_exact(tmp_path):
    exact, approx = reported_sum(MultFnId.INV_TWO_OMEGA, 10**6, 10**4, tmp_path)
    assert approx == pytest.approx(float(exact), rel=1e-12)


def test_capacity_guard():
    # the interval ends one past the cap; no prime table may be built
    before = dict(sieve._prime_cache)
    with pytest.raises(CapacityError):
        interval_sum(MultFnId.INV_TAU_SQ, SIEVE_MAX_POINT - 9, 10)
    assert list(sieve._prime_cache) == list(before)
    assert all(sieve._prime_cache[k] is v for k, v in before.items())


def test_counts_sum_to_interval_length():
    counts = interval_counts(5000, 777)
    for fid in ALL_FNS:
        assert sum(counts[fid].values()) == 777


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**5), st.integers(1, 400))
def test_random_windows_match_brute_force(x, h):
    fid = MultFnId.INV_TWO_BIG_OMEGA
    assert interval_sum(fid, x, h) == brute_sum(fid, x, h)


@pytest.mark.parametrize("lo, hi", [
    (1, 1),              # n = 1
    (1, 3000),
    (281, 290),          # 286 = 2*11*13: two primes >= the width
    (4910, 4917),        # 4913 = 17^3
    (10195, 10210),      # 10201 = 101^2, 101 >= the width
    (20445, 20454),      # 20449 = 11^2 * 13^2
    (999_999_937, 1_000_000_000),
])
def test_segment_stats_match_factorize(lo, hi):
    # windows from (281, 290) on are narrower than their largest base
    # prime, which then has at most one multiple in the window
    key = _segment_stats(lo, hi, primes_up_to(isqrt(hi)))
    assert key.dtype == np.intp
    for i, n in enumerate(range(lo, hi + 1)):
        fac = factorize(n)
        squares = sorted(r for _, r in fac.factors if r >= 2)
        assert (key[i] >> 4, key[i] & 15) == (signature_code(squares), fac.omega), n
        w, exps = sieve._signature(int(key[i]))
        assert (w, list(exps)) == (fac.omega, squares), n


def exponent_multisets(limit):
    """Each multiset of exponents e >= 2 of some n <= limit, as a tuple.

    Its least n puts the largest exponent on 2, the next on 3, and so on.
    """
    primes = primes_up_to(100).tolist()
    out = []

    def extend(exps, n):
        out.append(tuple(exps))
        p = primes[len(exps)]
        for e in range(2, exps[-1] + 1 if exps else 53):
            if n * p**e > limit:
                break
            extend(exps + [e], n * p**e)

    extend([], 1)
    return out


def test_signature_codes_are_distinct_and_decode():
    sigs = exponent_multisets(SIEVE_MAX_POINT)
    assert len(sigs) == 5057
    codes = {signature_code(sig): sig for sig in sigs}
    assert len(codes) == len(sigs)  # no two multisets share a code
    top = max(codes)
    assert (top, codes[top]) == (51_206, (25, 17))
    for code, sig in codes.items():
        omega = len(sig) + 3  # three more primes that divide n once
        assert sieve._signature(code << 4 | omega) == (omega, tuple(sorted(sig))), sig


def test_exponent_code_fits_the_word():
    # the word is [code: 16 | omega: 4 | complemented log: 12]
    codes = [signature_code(sig) for sig in exponent_multisets(SIEVE_MAX_POINT)]
    assert max(codes) < 2**32 // CODE_UNIT
    assert max(codes) << 4 | 13 < 2**20  # bincount's bins fit a segment
    # each level adds code, and no base prime p <= 2^26 takes more log
    # than its level's code step gives
    d = (0,) + sieve._EXPONENT_CODE
    assert all(b > a for a, b in zip(d, d[1:]))
    assert min(sieve._LEVEL_STEPS[2:]) + OMEGA_UNIT > LOG_SCALE * 26
    # the gap at n0, LOG_SCALE, is above 2 delta <= Omega <= 52 (that the
    # log never borrows from omega is test_low_field_cannot_carry_into_omega)
    assert LOG_SCALE > SIEVE_MAX_POINT.bit_length() - 1
    # _signature's primes outlast every exponent multiset below the cap
    assert np.prod(np.array(sieve._SIGNATURE_PRIMES, dtype=float)) ** 2 > SIEVE_MAX_POINT


def test_largest_signature_code_in_a_narrow_window():
    n = 2**25 * 3**17
    assert n < SIEVE_MAX_POINT
    lo = n - 20
    assert_equal_to_loop(lo, lo + 40)
    key = _segment_stats(lo, lo + 40, primes_up_to(isqrt(lo + 40)))
    assert (key[20] >> 4, key[20] & 15) == (51_206, 2)


_NEAR_SEGMENT = st.builds(
    lambda k, d: k * SEGMENT_WIDTH + d, st.integers(1, 2), st.integers(-2, 2))


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**9),
       st.one_of(_NEAR_SEGMENT, st.integers(1, 5000)),
       st.integers(1, 5000))
@example(SIEVE_MAX_POINT - 3001, 1000, 2000)  # one prime table, 2^26 - 1
def test_interval_sums_are_additive(x, h1, h2):
    whole = interval_sums_all(x, h1 + h2)
    left = interval_sums_all(x, h1)
    right = interval_sums_all(x + h1, h2)
    for fid in ALL_FNS:
        assert whole[fid] == left[fid] + right[fid]


def assert_equal_to_loop(lo, hi):
    base = primes_up_to(isqrt(hi))
    key, want = _segment_stats(lo, hi, base), segment_stats_loop(lo, hi, base)
    assert key.dtype == want.key.dtype == np.intp
    assert np.array_equal(key, want.key)


@pytest.mark.parametrize("x", [
    0, 2**21, 10**7, 10**10, 10**15, SIEVE_MAX_POINT - 8 * SEGMENT_WIDTH,
    SIEVE_MAX_POINT - SEGMENT_WIDTH])
def test_segment_stats_equal_the_loop_on_full_segments(x):
    assert_equal_to_loop(x + 1, x + SEGMENT_WIDTH)


@pytest.mark.parametrize("hi", [5000, 10**6, SEGMENT_WIDTH])
@pytest.mark.parametrize("d", [-300, -1, 0, 1])
def test_segment_stats_equal_the_loop_around_the_shared_threshold(hi, d):
    # from n0 = 2 isqrt(hi) + 2 on, one threshold serves every n; each n
    # below n0 gets its own
    assert_equal_to_loop(max(1, 2 * isqrt(hi) + 2 + d), hi)


def test_segment_stats_equal_the_loop_below_169():
    # 11 (below 121) and 13 come from the pre-sieve although they are
    # above sqrt(hi), so they are not base primes
    for hi in range(1, 169):
        assert_equal_to_loop(1, hi)
        assert_equal_to_loop(hi, hi)


def test_low_field_cannot_carry_into_omega():
    # the log taken from the low field is at most LOG_SCALE log2 n plus 1/2
    # per prime factor counted with multiplicity, and n <= 2^52 has at most
    # 52 of them, so the field never borrows from omega
    big_omega = SIEVE_MAX_POINT.bit_length() - 1
    assert LOG_SCALE * log2(SIEVE_MAX_POINT) + big_omega / 2 < OMEGA_UNIT
    # 2^52 itself reaches that largest log: one prime, exponent 52
    key = _segment_stats(SIEVE_MAX_POINT - 99, SIEVE_MAX_POINT,
                         primes_up_to(isqrt(SIEVE_MAX_POINT)))
    assert sieve._signature(int(key[-1])) == (1, (52,))


def test_presieve_pattern_is_the_hits_of_its_primes():
    pattern = sieve._presieve_pattern()
    assert pattern.size == 30030 and pattern.dtype == np.uint32
    assert PRESIEVE_PRIMES == tuple(primes_up_to(13).tolist())
    for n in [0, 1, 143, 30029, 2 * 3 * 5 * 7 * 11, 17 * 13]:
        ps = [p for p in PRESIEVE_PRIMES if n % p == 0]
        want = OMEGA_UNIT - 1 + sum(OMEGA_UNIT - round(LOG_SCALE * log2(p))
                                    for p in ps)
        assert pattern[n] == want, n


@pytest.mark.parametrize("lo, width", [
    (1, 1),
    (521**2 - 99, 100),  # ends at the square of the least scattered prime
    (521**3, 50),        # starts at its cube
    (10**10 + 1, SCATTER_MIN_PRIME - 1),
    (10**10 + 7, 40),
    (SIEVE_MAX_POINT - 299, 300),
])
def test_segment_stats_equal_the_loop_on_narrow_windows(lo, width):
    # narrower than the split: most scattered primes have no multiple here
    assert width < SCATTER_MIN_PRIME
    assert_equal_to_loop(lo, lo + width - 1)


@settings(max_examples=15, deadline=None)
@given(st.one_of(st.integers(1, 10**12), st.integers(10**11, 10**12)),
       st.integers(1, 20000))
@example(10**12, 20000)  # four chunks; 69 690 of 78 401 scattered primes miss
def test_segment_stats_equal_the_loop_anywhere(lo, width):
    assert_equal_to_loop(lo, lo + width - 1)


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_narrow_window_takes_no_full_presieve_copy():
    # perron's exact sum over n <= 1000: a window inside one period is a
    # slice of the 117 KiB pattern, where a rolled copy peaked at 236 KiB
    sieve._presieve_pattern()
    assert traced_peak(_segment_stats, 1, 1000, primes_up_to(31)) < 32 * 1024


@pytest.mark.parametrize("lo, width", [
    (30030 - 5, 10),             # crosses one period boundary
    (7, 3 * 30030 + 11),         # whole periods, then a part
    (10**10 + 1, 2 * 30030),     # two periods from a residue, exactly
])
def test_segment_stats_equal_the_loop_across_presieve_periods(lo, width):
    assert_equal_to_loop(lo, lo + width - 1)


def test_scatter_keeps_the_segment_peak_memory():
    x = 10**10
    lo, hi = x + 1, x + SEGMENT_WIDTH
    base = primes_up_to(isqrt(hi))
    segment = traced_peak(_segment_stats, lo, hi, base)
    assert segment <= 1.25 * traced_peak(segment_stats_loop, lo, hi, base)
    # the chunk bound: a run's temporaries stay below 8 bytes an integer,
    # where one run of all 9 495 scattered primes (62 % of the width in
    # hits) took 1.8 times that
    assert traced_scatter_peak(lo, base) < 8 * SEGMENT_WIDTH


def test_segment_peak_memory_per_integer():
    # the uint32 word and the intp key it becomes: 12 bytes an integer,
    # where the int16 omega, int32 code and intp key took 14.07
    x = 10**10
    lo, hi = x + 1, x + SEGMENT_WIDTH
    base = primes_up_to(isqrt(hi))
    _denominator_counts(_segment_stats(lo, hi, base), ALL_FNS)  # warm the memos
    peak = traced_peak(lambda: _denominator_counts(_segment_stats(lo, hi, base),
                                                   ALL_FNS))
    assert peak < 12.5 * SEGMENT_WIDTH


def traced_scatter_peak(lo, base):
    split = np.searchsorted(base, SCATTER_MIN_PRIME)
    large, packed = base[split:], sieve._packed_hits(base)[split:]
    acc = np.zeros(SEGMENT_WIDTH, dtype=np.uint32)
    return traced_peak(sieve._scatter_primes, lo, large, packed, acc)


def test_scatter_peak_memory_is_bounded_by_the_width():
    # at the sieve's cap the 3 957 712 scattered base primes go in blocks:
    # in one block their per-prime arrays peaked at 152 MiB
    lo = SIEVE_MAX_POINT - SEGMENT_WIDTH + 1
    base = primes_up_to(isqrt(lo + SEGMENT_WIDTH - 1))
    assert (base >= SCATTER_MIN_PRIME).sum() > 3_900_000
    assert traced_scatter_peak(lo, base) < 8 * SEGMENT_WIDTH


@pytest.mark.parametrize("lo, hi", [
    (1, SEGMENT_WIDTH),
    (10**10 + 1, 10**10 + SEGMENT_WIDTH),
    (10**10 + 1, 10**10 + 300),  # keys beyond the width: the sort path
])
def test_denominator_counts_equal_a_sort_of_each_denominator(lo, hi):
    base = primes_up_to(isqrt(hi))
    fids = ALL_FNS + ("inv_tau",)
    counts = _denominator_counts(_segment_stats(lo, hi, base), fids)
    assert list(counts) == list(fids)
    want = segment_stats_loop(lo, hi, base, fids).dens
    for fid in fids:
        uniq, n = np.unique(want[fid], return_counts=True)
        assert counts[fid] == dict(zip(uniq.tolist(), n.tolist())), fid
        assert all(type(d) is int for d in counts[fid]), fid


def test_narrow_windows_count_keys_by_sort(monkeypatch):
    # a 300-wide window's largest key is above 300, so bincount would
    # allocate more bins than the window has integers
    lo, hi = 10**10 + 1, 10**10 + 300
    key = _segment_stats(lo, hi, primes_up_to(isqrt(hi)))
    assert key.max() > hi - lo + 1
    calls = []
    monkeypatch.setattr(sieve.np, "bincount", lambda *a: calls.append(a))
    sieve._value_counts(key)
    assert calls == []


# what each denominator was computed from before the signature code
STATISTIC_ROUTE = {
    MultFnId.INV_TAU_SQ: lambda st: st.tau_n2,
    MultFnId.INV_TAU_SQUARED: lambda st: st.tau**2,
    MultFnId.INV_TWO_OMEGA: lambda st: 2 ** st.omega.astype(np.int64),
    MultFnId.INV_TWO_BIG_OMEGA: lambda st: 2 ** st.big_omega.astype(np.int64),
    "inv_tau": lambda st: st.tau,
}


@pytest.mark.parametrize("x", [
    0, 10**10, 10**15 + 12345, SIEVE_MAX_POINT - 4 * SEGMENT_WIDTH - 1])
def test_denominator_counts_equal_the_statistic_route(x):
    lo, hi = x + 1, x + SEGMENT_WIDTH
    base = primes_up_to(isqrt(hi))
    counts = _denominator_counts(_segment_stats(lo, hi, base), list(STATISTIC_ROUTE))
    want = segment_stats_loop(lo, hi, base, list(STATISTIC_ROUTE))
    for fid, route in STATISTIC_ROUTE.items():
        assert np.array_equal(route(want), want.dens[fid]), fid
        uniq, n = np.unique(route(want), return_counts=True)
        assert counts[fid] == dict(zip(uniq.tolist(), n.tolist())), fid


@pytest.mark.parametrize("threads", [1, 2])
def test_interval_counts_memory_stays_flat_in_the_segment_count(threads,
                                                                monkeypatch):
    # each segment is folded in as it finishes, and at most `threads` are
    # in the pool: ten times the segments may not double the peak
    width = 16
    monkeypatch.setattr(sieve, "SEGMENT_WIDTH", width)
    monkeypatch.setattr(sieve, "_segment_stats", lambda a, b, base: b - a + 1)
    monkeypatch.setattr(sieve, "_denominator_counts",
                        lambda n, fids: {fid: {1: n} for fid in fids})
    # x > 0, so the intervals are sieved, not walked
    peaks = []
    for segments in (2000, 20000):
        interval_counts(1, segments * width, threads, ALL_FNS)  # warm caches
        peaks.append(traced_peak(interval_counts, 1, segments * width,
                                 threads, ALL_FNS))
        assert interval_counts(1, segments * width, threads, ALL_FNS) == {
            fid: {1: segments * width} for fid in ALL_FNS}
    assert peaks[1] < 2 * peaks[0], peaks


def test_interval_sum_counts_its_own_function_only(monkeypatch):
    asked = []
    real = sieve._denominator_counts

    def recording(stats, fids):
        asked.append(tuple(fids))
        return real(stats, fids)

    monkeypatch.setattr(sieve, "_denominator_counts", recording)
    x, h = 10**6, SEGMENT_WIDTH + 500  # two segments
    one = interval_sum(MultFnId.INV_TAU_SQ, x, h)
    assert asked == [(MultFnId.INV_TAU_SQ,)] * 2
    assert one == interval_sums_all(x, h)[MultFnId.INV_TAU_SQ]
    assert asked[2:] == [ALL_FNS] * 2


# -- the full range n <= X by the walk -------------------------------------

def test_prime_counts_equal_the_prime_table():
    for X in (1, 2, 3, 4, 8, 9, 10, 99, 100, 121, 10**4 + 7, 10**6, 3 * 10**6 + 1):
        small, large = sieve._prime_counts(X)
        primes, r = primes_up_to(X), isqrt(X)
        assert small.tolist() == np.searchsorted(
            primes, np.arange(r + 1), side="right").tolist(), X
        assert large[1:].tolist() == np.searchsorted(
            primes, X // np.arange(1, r + 1), side="right").tolist(), X


def strict(counts):
    """The counts as plain dicts, where a zero count is not a missing one."""
    return {fid: dict(c) for fid, c in counts.items()}


@pytest.mark.parametrize("X", [
    1, 2, 3, 4, 8, 9, 25, 300,
    503**2 - 1, 503**2, 503**2 + 1,  # the first prime square above the crossover
    61**3,                           # the last prime cube below it
    101_500, 1_015_000, 10_150_000,  # the benchmark's 10^j + 15 * 10^(j-3)
    10**8,
])
def test_walk_counts_equal_the_sieve(X):
    want = sieve._sieve_counts(1, X, 1, ALL_FNS)
    assert strict(sieve._walk_counts(X, ALL_FNS)) == strict(want)


def test_prime_powers_of_the_cross_route_test_straddle_the_crossover():
    # 499, 503 and 61, 67 are consecutive primes
    assert 499**2 < WALK_MIN_POINT < 503**2 and 61**3 < WALK_MIN_POINT < 67**3


def test_walk_chunks_may_split_a_node(monkeypatch):
    # 7 children at a time: most chunks end inside a node's run of primes
    X = 10**5 + 3
    want = sieve._walk_counts(X, ALL_FNS)
    monkeypatch.setattr(sieve, "_WALK_CHUNK", 7)
    assert strict(sieve._walk_counts(X, ALL_FNS)) == strict(want)
    assert strict(want) == strict(sieve._sieve_counts(1, X, 1, ALL_FNS))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 2000))
@example(1024)  # 2^10: the deepest exponent below 2000
def test_walk_sums_match_brute_force(X):
    counts = sieve._walk_counts(X, ALL_FNS)
    for fid in ALL_FNS:
        assert sieve._counts_to_sums(counts[fid]) == brute_sum(fid, 0, X), fid


@pytest.mark.parametrize("X", [10**8, 10**9])
def test_walk_peak_memory_stays_below_two_segments(X):
    # chunks of children, and only the next level's nodes kept: with all
    # of a level's children at once the peak at 10^9 was 33 MiB
    base = primes_up_to(isqrt(X))

    def segment():
        _denominator_counts(_segment_stats(1, SEGMENT_WIDTH, base), ALL_FNS)

    segment()  # warm the memos, and the prime table for the walk
    sieve._walk_counts(X, ALL_FNS)
    assert traced_peak(sieve._walk_counts, X, ALL_FNS) <= 2 * traced_peak(segment)


def test_interval_counts_walks_only_a_full_range_from_the_crossover(monkeypatch):
    routes = []
    monkeypatch.setattr(sieve, "_walk_counts",
                        lambda X, fids: routes.append(("walk", X)))
    monkeypatch.setattr(sieve, "_sieve_counts",
                        lambda lo, hi, threads, fids: routes.append(("sieve", lo, hi)))
    interval_counts(0, WALK_MIN_POINT - 1)
    interval_counts(0, WALK_MIN_POINT, threads=2)
    interval_counts(1, WALK_MIN_POINT)
    with pytest.raises(CapacityError):
        interval_counts(0, SIEVE_MAX_POINT + 1)
    assert routes == [("sieve", 1, WALK_MIN_POINT - 1), ("walk", WALK_MIN_POINT),
                      ("sieve", 2, WALK_MIN_POINT + 1)]
