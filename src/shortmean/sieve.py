"""Prime table, segmented factorization sieve and exact interval sums.

The only module that sieves: `primes_up_to` keeps one table of primes, and
the Mobius values are built from its slices.

Ground truth for every asymptotic claim: S_j(x;h) = sum_{x < n <= x+h} f_j(n)
computed exactly.  The fast path never materializes factorizations:
every f(n) here depends only on omega(n) and n's exponents e >= 2, so a
segment keeps omega(n) and a signature code, the product of r(e) = the
(e-1)-th prime over the primes with p^2 | n (see _segment_stats).  omega
comes from a logarithmic sieve, as in the quadratic sieve: one uint32
per n counts its base primes p <= sqrt(hi) in the high 16 bits and sums
their fixed-point logs in the low 16, and a sum well short of log2 n
marks one more prime factor, above sqrt(hi).  The hits of 2, 3, 5, 7, 11
and 13 come from one pattern of period 30030 (a pre-sieve).  The other
base primes below SCATTER_MIN_PRIME make one strided update each.  The
larger ones have few multiples in a segment, so they are taken in blocks
and their hits scattered in batches of at most about an eighth of the
segment's width, which keeps a block's and a batch's arrays smaller than
the segment's own.  Each level p^e, e >= 2, makes two strided updates
(the log and the code).  The key code << 4 | omega is below 2^20 for
n <= 2^52 (omega <= 13, code <= 38 599) and fits int32.  It is counted
once per segment, by bincount when its largest value is below the
window's width and by a sort otherwise (a narrow window would not pay
for 618 k bins), and each distinct key is decoded once into the
denominators of the requested functions only.  The exact rational sum is
a short sum of count/value terms, cheap even over 10^8 integers;
`interval_sum` and `interval_sums_all` return it as a Fraction.
"""

from __future__ import annotations

from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import cache
from math import isqrt, log2, prod

import numpy as np

from .functions import ALL_FNS, MultFnId, spec

SEGMENT_WIDTH = 1 << 20
SCATTER_MIN_PRIME = 512              # base primes from here on are scattered
BASE_PRIME_BUDGET = 1 << 26          # largest base-prime table we will build
SIEVE_MAX_POINT = BASE_PRIME_BUDGET**2  # so endpoints stay within 2^52


class CapacityError(Exception):
    """Requested interval exceeds the configured sieve budget."""


# ---------------------------------------------------------------------------
# prime table

_prime_cache = {}  # limit -> the primes <= limit, each a view of one table


def primes_up_to(limit: int) -> np.ndarray:
    """All primes <= limit, int64: a slice (view) of the one cached table.

    The table is sieved again only for a limit above every earlier one;
    each cached limit then becomes a view of the new table.
    """
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    if limit not in _prime_cache:
        top = max(_prime_cache, default=1)
        if limit > top:
            mask = np.ones(limit + 1, dtype=bool)
            mask[:2] = False
            for p in range(2, isqrt(limit) + 1):
                if mask[p]:
                    mask[p * p :: p] = False
            table = np.nonzero(mask)[0].astype(np.int64, copy=False)
            for k in _prime_cache:
                _prime_cache[k] = table[: np.searchsorted(table, k, side="right")]
        else:
            table = _prime_cache[top]
        _prime_cache[limit] = table[: np.searchsorted(table, limit, side="right")]
    return _prime_cache[limit]


def _mobius_upto(kmax):
    """int64 mu with mu[k] = the Mobius function of k, 1 <= k <= kmax."""
    mu = np.ones(kmax + 1, dtype=np.int64)
    for p in primes_up_to(kmax).tolist():
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    return mu


# ---------------------------------------------------------------------------
# per-segment statistics

# r(e) = the (e-1)-th prime, for every exponent 2 <= e <= 52 of n <= 2^52
_LEVEL_PRIMES = [r for r in range(2, 240) if all(r % d for d in range(2, isqrt(r) + 1))]
# primes in a block, and hits in a run, of _scatter_primes: an eighth of
# the width, but not so few that narrow windows take many Python steps
_SCATTER_MIN_RUN = 1 << 13

# a segment's uint32 accumulator: omega(n) in the high 16 bits, a log in the low
LOG_SCALE = 1024  # fixed-point units of log2
OMEGA_UNIT = 1 << 16
PRESIEVE_PRIMES = (2, 3, 5, 7, 11, 13)  # their hits repeat with period 30030
_packed = np.empty(0, dtype=np.uint32)  # _packed_hits of the longest table asked


def _packed_hits(primes):
    """OMEGA_UNIT + round(LOG_SCALE * log2 p) for each of `primes`, as uint32.

    `primes` is a prime table, 2, 3, 5, ... in order, like every
    `primes_up_to` slice.  So the values of the longest table asked for
    serve every shorter one as a slice, and are built once per table.
    """
    global _packed
    packed = _packed
    if packed.size < primes.size:
        packed = np.rint(LOG_SCALE * np.log2(primes)).astype(np.uint32) + OMEGA_UNIT
        packed.flags.writeable = False  # shared by every later segment
        _packed = packed
    return packed[: primes.size]


@cache
def _presieve_pattern():
    """Accumulator values of n = 0..30029 from the hits of PRESIEVE_PRIMES.

    Every n with the same residue mod 30030 gets the same hits.  Built on
    first use, not at import.
    """
    pattern = np.zeros(prod(PRESIEVE_PRIMES), dtype=np.uint32)
    for p, v in zip(PRESIEVE_PRIMES, _packed_hits(np.array(PRESIEVE_PRIMES)).tolist()):
        pattern[::p] += v
    pattern.flags.writeable = False
    return pattern


def _segment_stats(lo, hi, base_primes):
    """Arrays (omega, code) for n = lo..hi inclusive.

    int16 omega(n), and the int32 signature code(n) = prod r(e_p) over
    the primes p with p^2 | n, where e_p is the exponent of p in n and
    r(e) the (e-1)-th prime (r(2) = 2, r(3) = 3, r(4) = 5, ...).  By
    unique factorization the code gives back the multiset of exponents
    e >= 2, and with omega(n) it fixes f(n) for every function here.
    For n <= 2^52, omega <= 13 and code <= 38 599 (for 2^11 3^6 5^6 7^6),
    so `_denominator_counts`'s key code << 4 | omega is below 2^20 and
    fits int32; `_value_counts` takes bincount for it only when its
    largest value is below the width.  Only the base primes
    p <= sqrt(hi) are used (`base_primes` is a prime table from 2).

    One uint32 accumulator per n takes OMEGA_UNIT + L(p) at each hit of
    a base prime p and L(p) = round(LOG_SCALE * log2 p) more at each
    level p^e, e >= 2, that divides n.  Its high field is then omega
    over the base primes, and its low field is LOG_SCALE * log2 m, where
    m is the part of n that they make up, to within delta <= Omega(n)/2
    <= 26 units.  n has one more prime factor, above sqrt(hi), exactly
    when m < n, and then m < n / sqrt(hi).  So the low field is at least
    LOG_SCALE * log2 n - delta when m = n and below LOG_SCALE * (log2 n -
    log2(hi) / 2) + delta otherwise; the test is against the midpoint,
    which for every n >= n0 = 2 isqrt(hi) + 2 >= 2 sqrt(hi) may be taken
    at n0 (the gap there is at least LOG_SCALE, against 2 delta).  The
    n below n0 each get their own midpoint; a window of at most
    SEGMENT_WIDTH integers has them only if it starts below about 2.1 k.

    The hits of 2, 3, 5, 7, 11 and 13 come from `_presieve_pattern`,
    sliced from lo mod 30030 period by period, with no rolled copy: it
    is the accumulator's first value.  One of
    them above sqrt(hi) (hi < 169) is no base prime, but it divides each
    n <= hi at most once, so it counts in omega and m as n's one prime
    factor above sqrt(hi) should, and the test finds m = n.  Each other
    base prime below SCATTER_MIN_PRIME makes one strided update.  A
    larger prime has at most width/SCATTER_MIN_PRIME + 1 multiples here,
    so one Python step per prime would cost more than its few hits:
    `_scatter_primes` applies the hits of all of them at once.  The
    levels p^e, e >= 2, of every prime whose square has a multiple here
    touch only the multiples of p^e, with two strided updates each:
    acc += L(p), and code *= 2 at level 2 or code //= r(e-1) then *=
    r(e) above it.
    """
    width = hi - lo + 1
    top = np.searchsorted(base_primes, isqrt(hi), side="right")
    packed = _packed_hits(base_primes[:top])
    split = np.searchsorted(base_primes[:top], SCATTER_MIN_PRIME)
    small, values = base_primes[:split].tolist(), packed[:split].tolist()
    pattern = _presieve_pattern()
    acc = np.empty(width, dtype=np.uint32)
    r = lo % pattern.size
    head = min(pattern.size - r, width)
    acc[:head] = pattern[r : r + head]
    # the rest starts at n = 0 mod 30030: whole periods, then a part
    for start in range(head, width, pattern.size):
        acc[start : start + pattern.size] = pattern[: width - start]

    for p, v in zip(small[len(PRESIEVE_PRIMES) :], values[len(PRESIEVE_PRIMES) :]):
        start = (-lo) % p
        if start < width:  # only a prime above the width can miss
            acc[start::p] += v
    squared = _scatter_primes(lo, base_primes[split:top], packed[split:top], acc)

    code = np.ones(width, dtype=np.int32)
    for p, v in list(zip(small, values)) + squared:
        q, e = p * p, 2
        while q <= hi:
            start = (-lo) % q
            if start >= width:
                break
            acc[start::q] += v - OMEGA_UNIT
            level = code[start::q]  # a view: the updates land in code
            if e > 2:
                level //= _LEVEL_PRIMES[e - 3]
            level *= _LEVEL_PRIMES[e - 2]
            q *= p
            e += 1

    # in place: temporaries as large as acc raise the sieve's peak memory
    omega = np.right_shift(acc, 16, out=np.empty(width, dtype=np.int16),
                           casting="unsafe")
    acc &= OMEGA_UNIT - 1
    n0 = max(lo, 2 * isqrt(hi) + 2)
    head = min(n0 - lo, width)
    omega[head:] += acc[head:] < round(LOG_SCALE * (log2(n0) + log2(hi) / 2) / 2)
    if head:
        n = np.arange(lo, lo + head, dtype=np.float64)
        omega[:head] += acc[:head] < LOG_SCALE * (np.log2(n) - log2(hi) / 4)
    return omega, code


def _scatter_primes(lo, primes, packed, acc):
    """acc += packed[i] at each multiple of each p = primes[i].

    acc covers n = lo, lo+1, ...; `primes` is int64 and `packed` their
    uint32 `_packed_hits`.  The primes go in blocks of `run` = width/8
    (at least _SCATTER_MIN_RUN).  A block keeps only its primes with a
    multiple here: above the width most have none (91 % of the 3.96 M
    scattered primes at x = 2^52 - 2^23), and each later per-prime step
    costs about as much as finding that.  The hits of a run of consecutive
    primes of a block go into one flat index array, at which one
    `np.add.at` adds the packed values repeated per hit.  A run holds at
    most about `run` hits.  So a block's per-prime arrays and a run's
    temporaries (8 bytes a prime or a hit, a few of each) stay below 8
    bytes an integer of the segment, however many base primes there are:
    at x = 2^52 - 2^20 the scatter's peak is 6.5 MiB, where all primes
    in one block took 152 MiB.  The values come in acc's own dtype:
    otherwise `np.add.at` casts element by element, and with 2^18
    indices took about 25 times as long.  Returns, as a list of
    (p, packed value) pairs, the primes whose square has a multiple here.
    """
    width = acc.size
    run = max(width // 8, _SCATTER_MIN_RUN)
    squared = []
    for a in range(0, primes.size, run):
        block = primes[a : a + run]
        start = (-lo) % block
        hit = start < width  # above the width, most primes have no multiple here
        block, start, values = block[hit], start[hit], packed[a : a + run][hit]
        hits = (width - 1 - start) // block + 1
        first = np.cumsum(hits) - hits  # index of each prime's first hit
        cuts = np.searchsorted(first, np.arange(0, hits.sum(), run)).tolist()
        for b, c in zip(cuts, cuts[1:] + [block.size]):
            # hit j of the run, made by p, is at start_p + (j - first_p) * p
            step = np.repeat(block[b:c], hits[b:c])
            idx = np.arange(step.size, dtype=np.int64)
            idx *= step
            del step  # each del here lowers the peak by one hit array
            idx += np.repeat(start[b:c] - (first[b:c] - first[b]) * block[b:c],
                             hits[b:c])
            np.add.at(acc, idx, np.repeat(values[b:c], hits[b:c]))
            del idx
        del start, hits, first, hit
        sq = (-lo) % (block * block) < width
        squared += zip(block[sq].tolist(), values[sq].tolist())
    return squared


def _value_counts(vals):
    """(value, count) pairs of the distinct values of a non-negative int array."""
    if vals.max() < vals.size:  # so bincount's array is no longer than vals
        counts = np.bincount(vals)
        uniq = np.flatnonzero(counts)
        counts = counts[uniq]
    else:
        uniq, counts = np.unique(vals, return_counts=True)
    return list(zip(uniq.tolist(), counts.tolist()))


_DENOMINATORS = {}  # fid -> {key: 1/f(n)}, filled as keys appear


@cache
def _signature(key):
    """(omega, ascending exponents e >= 2) of each n with key code << 4 | omega."""
    code, exps = key >> 4, []
    for e, r in enumerate(_LEVEL_PRIMES, 2):
        while code % r == 0:
            code //= r
            exps.append(e)
    return key & 15, tuple(exps)


@cache
def _reciprocals(fid):
    """The ints 1/f(p^e) for e = 0..52, from `spec(fid).local`."""
    local = spec(fid).local
    return (1,) + tuple(int(1 / local(e)) for e in range(1, 53))


def _denominator_counts(stats, fids):
    """{fid: Counter mapping each denominator d of f(n) = 1/d to its count}.

    `stats` is `_segment_stats`'s (omega, code).  The key code << 4 | omega
    is counted once for all of `fids` (as intp, which bincount takes
    without a copy).  Each distinct key is decoded once per process by
    `_signature`, and its denominator (1/f(p))^(omega - |sig|) times
    prod 1/f(p^e) over the exponents e of sig, an int product from
    `_reciprocals`, is memoized per function.
    """
    omega, code = stats
    key = np.left_shift(code, 4, dtype=np.intp)
    key |= omega
    keys = _value_counts(key)
    # free the key before the process-wide memos below grow: a dict table
    # resized while the key is live can be placed above it on the heap,
    # and malloc returns only the top of the heap, so the key's memory
    # would stay resident for the rest of the process
    del key
    out = {}
    for fid in fids:
        memo, recip = _DENOMINATORS.setdefault(fid, {}), _reciprocals(fid)
        counts = out[fid] = Counter()
        for k, c in keys:
            d = memo.get(k)
            if d is None:
                w, exps = _signature(k)
                d = memo[k] = recip[1] ** (w - len(exps)) * prod(recip[e] for e in exps)
            counts[d] += c
    return out


# ---------------------------------------------------------------------------
# public operations

def _counts_to_sums(counts):
    return sum((Fraction(c, d) for d, c in sorted(counts.items())), Fraction(0))


def interval_counts(x: int, h: int, threads: int = 1, fids=ALL_FNS):
    """Denominator counts of the functions `fids` over x < n <= x+h.

    Each finished segment is folded into the totals at once, and at most
    `threads` segments are in the pool at a time, so memory does not grow
    with the number of segments.  One thread sieves on the calling thread.
    """
    if x < 0 or h < 1:
        raise ValueError("need x >= 0 and h >= 1")
    lo, hi = x + 1, x + h
    if hi > SIEVE_MAX_POINT:
        raise CapacityError(
            "interval endpoint beyond the sieve budget "
            f"(needs base primes above {BASE_PRIME_BUDGET})"
        )
    base = primes_up_to(isqrt(hi))
    totals = {fid: Counter() for fid in fids}

    def work(a):
        b = min(a + SEGMENT_WIDTH - 1, hi)
        return _denominator_counts(_segment_stats(a, b, base), fids)

    def fold(res):
        for fid in fids:
            totals[fid].update(res[fid])

    starts = range(lo, hi + 1, SEGMENT_WIDTH)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            running = deque()
            for a in starts:
                if len(running) == threads:
                    fold(running.popleft().result())
                running.append(pool.submit(work, a))
            for future in running:
                fold(future.result())
    else:
        for a in starts:
            fold(work(a))
    return totals


def interval_sums_all(x: int, h: int, threads: int = 1, fids=ALL_FNS):
    """{fid: the exact sum over x < n <= x+h, a Fraction}, in one sieve pass."""
    totals = interval_counts(x, h, threads=threads, fids=fids)
    return {fid: _counts_to_sums(totals[fid]) for fid in fids}


def interval_sum(fid: MultFnId, x: int, h: int, threads: int = 1) -> Fraction:
    """Exact S_j(x;h) = sum over x < n <= x+h of f_j(n), counting f_j only."""
    return interval_sums_all(x, h, threads=threads, fids=(fid,))[fid]
