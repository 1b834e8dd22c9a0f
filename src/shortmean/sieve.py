"""Prime table, segmented factorization sieve and exact interval sums.

The only module that sieves: `primes_up_to` keeps one table of primes, and
the Mobius values are built from its slices.

Ground truth for every asymptotic claim: S_j(x;h) = sum_{x < n <= x+h} f_j(n)
computed exactly.  The fast path never materializes factorizations:
every f(n) here depends only on omega(n) and n's exponents e >= 2, so a
segment keeps omega(n) and a signature code, the product of r(e) = the
(e-1)-th prime over the primes with p^2 | n (see _segment_stats).  Base
primes below SCATTER_MIN_PRIME make two strided updates each.  The
larger ones have few multiples in a segment, so they are taken in
blocks and their hits scattered in batches of at most about an eighth
of the segment's width, which keeps a block's and a batch's arrays
smaller than one of the segment's own.  Each level p^e, e >= 2, makes
two strided updates (found and code).  The key code << 4 | omega is
below 2^20 for n <= 2^52 (omega <= 13, code <= 38 599) and fits int32.
It is counted once per segment, by bincount when its largest value is
below the window's width and by a sort otherwise (a narrow window would
not pay for 618 k bins), and each distinct key is decoded once into the
denominators of the requested functions only.  The exact rational sum
is a short sum of count/value terms, cheap even over 10^8 integers.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import isqrt, prod

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
_ONE16 = np.int16(1)  # omega's dtype, for np.add.at's fast path
# primes in a block, and hits in a run, of _scatter_primes: an eighth of
# the width, but not so few that narrow windows take many Python steps
_SCATTER_MIN_RUN = 1 << 13


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
    p <= sqrt(hi) are used.  ``found`` collects the part of n made of
    them, so n has one more prime factor, above sqrt(hi), exactly when
    found != n.

    Each base prime below SCATTER_MIN_PRIME makes two strided updates,
    omega[s::p] += 1 and found[s::p] *= p.  A larger prime has at most
    width/SCATTER_MIN_PRIME + 1 multiples here, so one Python step per
    prime would cost more than its few hits: `_scatter_primes` applies
    the hits of all of them at once.  The levels p^e, e >= 2, of every
    prime whose square has a multiple here touch only the multiples of
    p^e, with two strided updates each: found *= p, and code *= 2 at
    level 2 or code //= r(e-1) then *= r(e) above it.
    """
    width = hi - lo + 1
    top = np.searchsorted(base_primes, isqrt(hi), side="right")
    split = np.searchsorted(base_primes[:top], SCATTER_MIN_PRIME)
    small = base_primes[:split].tolist()
    found = np.ones(width, dtype=np.int64)
    omega = np.zeros(width, dtype=np.int16)
    code = np.ones(width, dtype=np.int32)

    for p in small:
        start = (-lo) % p
        if start < width:  # only a prime above the width can miss
            omega[start::p] += 1
            found[start::p] *= p
    squared = _scatter_primes(lo, base_primes[split:top], omega, found)

    for p in small + squared:
        q, e = p * p, 2
        while q <= hi:
            start = (-lo) % q
            if start >= width:
                break
            found[start::q] *= p
            level = code[start::q]  # a view: the updates land in code
            if e > 2:
                level //= _LEVEL_PRIMES[e - 3]
            level *= _LEVEL_PRIMES[e - 2]
            q *= p
            e += 1

    omega += found != np.arange(lo, hi + 1, dtype=np.int64)
    return omega, code


def _scatter_primes(lo, primes, omega, found):
    """omega += 1 and found *= p at each multiple of each p in `primes`.

    omega and found cover n = lo, lo+1, ...; `primes` is int64.  The
    primes go in blocks of `run` = width/8 (at least _SCATTER_MIN_RUN),
    and the hits of a run of consecutive primes of a block into one flat
    index array, which `np.add.at` adds to omega and `np.multiply.at`
    multiplies into found.  A run holds at most about `run` hits.  So a
    block's per-prime arrays and a run's temporaries (8 bytes a prime or
    a hit, a few of each) stay below found's 8 bytes an integer, however
    many base primes there are: at x = 2^52 - 2^20, with 3.96 M of them,
    the scatter's peak fell from 152 MiB, with all primes in one block,
    to 6.3 MiB.  Each ufunc.at gets values of its array's own dtype, the
    primes as int64 and 1 as int16: otherwise it casts element by
    element, and with 2^18 indices took about 25 times as long (int32
    primes into found, or a Python 1 into omega).  Returns, as a list,
    the primes whose square has a multiple here.
    """
    width = omega.size
    run = max(width // 8, _SCATTER_MIN_RUN)
    squared = []
    for a in range(0, primes.size, run):
        block = primes[a : a + run]
        start = (-lo) % block
        hits = (width - 1 - start) // block + 1  # 0 for a prime with no multiple
        first = np.cumsum(hits) - hits  # index of each prime's first hit
        cuts = np.searchsorted(first, np.arange(0, hits.sum(), run)).tolist()
        for b, c in zip(cuts, cuts[1:] + [block.size]):
            # hit j of the run, made by p, is at start_p + (j - first_p) * p
            step = np.repeat(block[b:c], hits[b:c])
            idx = np.arange(step.size, dtype=np.int64)
            idx *= step
            idx += np.repeat(start[b:c] - (first[b:c] - first[b]) * block[b:c],
                             hits[b:c])
            np.add.at(omega, idx, _ONE16)
            np.multiply.at(found, idx, step)
        del start, hits, first
        squared += block[(-lo) % (block * block) < width].tolist()
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


def _denominator_counts(stats, fids):
    """{fid: Counter mapping each denominator d of f(n) = 1/d to its count}.

    `stats` is `_segment_stats`'s (omega, code).  The key code << 4 | omega
    is counted once for all of `fids` (as intp, which bincount takes
    without a copy).  Each distinct key is decoded once per process by
    `_signature`, and its denominator (1/f(p))^(omega - |sig|) times
    prod 1/f(p^e) over the exponents e of sig is memoized per function.
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
        memo, local = _DENOMINATORS.setdefault(fid, {}), spec(fid).local
        counts = out[fid] = Counter()
        for k, c in keys:
            d = memo.get(k)
            if d is None:
                w, exps = _signature(k)
                f = local(1) ** (w - len(exps)) * prod(map(local, exps))
                d = memo[k] = int(1 / f)
            counts[d] += c
    return out


# ---------------------------------------------------------------------------
# public operations

@dataclass(frozen=True)
class IntervalSum:
    fid: MultFnId
    x: int
    h: int
    exact: Fraction
    approx: float


def _counts_to_sums(counts):
    exact = sum(
        (Fraction(c, d) for d, c in sorted(counts.items())), Fraction(0)
    )
    return exact, float(exact)  # float(Fraction) rounds correctly


def interval_counts(x: int, h: int, threads: int = 1, fids=ALL_FNS):
    """Denominator counts of the functions `fids` over x < n <= x+h."""
    if x < 0 or h < 1:
        raise ValueError("need x >= 0 and h >= 1")
    lo, hi = x + 1, x + h
    if hi > SIEVE_MAX_POINT:
        raise CapacityError(
            "interval endpoint beyond the sieve budget "
            f"(needs base primes above {BASE_PRIME_BUDGET})"
        )
    base = primes_up_to(isqrt(hi))
    seg_bounds = [
        (a, min(a + SEGMENT_WIDTH - 1, hi)) for a in range(lo, hi + 1, SEGMENT_WIDTH)
    ]

    def work(bounds):
        a, b = bounds
        return _denominator_counts(_segment_stats(a, b, base), fids)

    totals = {fid: Counter() for fid in fids}
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, seg_bounds))
    else:
        results = [work(b) for b in seg_bounds]
    for res in results:  # ascending-segment order; merge is commutative anyway
        for fid in fids:
            totals[fid].update(res[fid])
    return totals


def interval_sums_all(x: int, h: int, threads: int = 1, fids=ALL_FNS):
    """IntervalSum for each of `fids` over the same interval (one sieve pass)."""
    totals = interval_counts(x, h, threads=threads, fids=fids)
    out = {}
    for fid in fids:
        exact, approx = _counts_to_sums(totals[fid])
        out[fid] = IntervalSum(fid=fid, x=x, h=h, exact=exact, approx=approx)
    return out


def interval_sum(fid: MultFnId, x: int, h: int, threads: int = 1) -> IntervalSum:
    """Exact S_j(x;h) = sum over x < n <= x+h of f_j(n), counting f_j only."""
    return interval_sums_all(x, h, threads=threads, fids=(fid,))[fid]
