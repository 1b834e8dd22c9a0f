"""Prime table, segmented factorization sieve and exact interval sums.

The only module that sieves: `primes_up_to` keeps one table of primes, and
the Mobius values are built from its slices.

Ground truth for every asymptotic claim: S_j(x;h) = sum_{x < n <= x+h} f_j(n)
computed exactly.  The fast path never materializes factorizations:
every f(n) here depends only on omega(n) and n's exponents e >= 2, so a
segment keeps one uint32 word per n, [code: 16 | omega: 4 |
complemented log: 12] (see _segment_stats).  The code is a sum of D(e)
over the primes with p^2 | n, from a table that keeps every exponent
multiset of n <= 2^52 apart.  omega comes from a logarithmic sieve, as
in the quadratic sieve: each hit of a base prime p <= sqrt(hi) adds one
to omega and takes its fixed-point log from the low field, and a log
well short of log2 n marks one more prime factor, above sqrt(hi); one
add of a threshold carries that factor into omega.  The hits of 2, 3,
5, 7, 11 and 13 come from one pattern of period 30030 (a pre-sieve).
The other base primes below SCATTER_MIN_PRIME make one strided add
each.  The larger ones have few multiples in a segment, so they are
taken in blocks and their hits scattered in batches of at most about
an eighth of the segment's width, which keeps a block's and a batch's
arrays smaller than the segment's own.  Each level p^e, e >= 2, makes
one strided add (its code step and log).  The word shifted right by 12
is the key code << 4 | omega, below 2^20 for n <= 2^52 (omega <= 13,
code <= 51 206).  It is counted once per segment, by bincount when its
largest value is below the window's width and by a sort otherwise (a
narrow window would not pay for 819 k bins), and each distinct key is
decoded once into the denominators of the requested functions only.
The exact rational sum is a short sum of count/value terms, cheap even
over 10^8 integers; `interval_sum` and `interval_sums_all` return it as
a Fraction.

A full range n <= X (x = 0) from X = WALK_MIN_POINT on is not sieved:
`_walk_counts` takes the same keys from a table of pi(X // k)
(Lucy_Hedgehog's recursion) and a walk over the n whose largest prime
has room for another, level by level, in O(X^(3/4)) work.  At 10^7 it
took about 0.01 s where the sieve took 0.12 s (one 2-vCPU host).  The
walk runs on one thread; `threads` applies to the sieve only.
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
WALK_MIN_POINT = 250_000  # n <= X from here on: the walk beats the sieve


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

# D(e) for e = 2..52, every exponent e >= 2 of an n <= 2^52: the sums of
# D(e) over the exponent multisets of such n are distinct, and at most
# 51 206 (for 2^25 3^17).  A greedy table, so a literal: computing it
# takes far longer than an import may.
_EXPONENT_CODE = (
    1, 9, 55, 196, 519, 1330, 2430, 4195, 5753, 8731, 11760, 13235, 15212,
    18065, 20074, 21668, 22845, 24873, 25332, 25550, 27855, 28127, 28846,
    29538, 29856, 30687, 30809, 30962, 31411, 31446, 31563, 31657, 31683,
    31732, 31848, 31896, 31917, 31982, 31986, 32001, 32012, 32031, 32034,
    32054, 32061, 32064, 32074, 32076, 32077, 32078, 32079)
# primes in a block, and hits in a run, of _scatter_primes: an eighth of
# the width, but not so few that narrow windows take many Python steps
_SCATTER_MIN_RUN = 1 << 13

# a segment's uint32 accumulator: [code: 16 | omega: 4 | complemented log: 12]
LOG_SCALE = 64  # fixed-point units of log2
OMEGA_UNIT = 1 << 12
CODE_UNIT = 1 << 16
# what level e adds on top of a hit's packed value: D(e) - D(e-1) more
# code and one OMEGA_UNIT less, for e = 0..52 (levels start at e = 2)
_LEVEL_STEPS = (0, 0) + tuple(
    (d - prev) * CODE_UNIT - OMEGA_UNIT
    for prev, d in zip((0,) + _EXPONENT_CODE, _EXPONENT_CODE))
PRESIEVE_PRIMES = (2, 3, 5, 7, 11, 13)  # their hits repeat with period 30030
_packed = np.empty(0, dtype=np.uint32)  # _packed_hits of the longest table asked


def _packed_hits(primes):
    """OMEGA_UNIT - round(LOG_SCALE * log2 p) for each of `primes`, as uint32.

    `primes` is a prime table, 2, 3, 5, ... in order, like every
    `primes_up_to` slice.  So the values of the longest table asked for
    serve every shorter one as a slice, and are built once per table.
    """
    global _packed
    packed = _packed
    if packed.size < primes.size:
        packed = OMEGA_UNIT - np.rint(LOG_SCALE * np.log2(primes)).astype(np.uint32)
        packed.flags.writeable = False  # shared by every later segment
        _packed = packed
    return packed[: primes.size]


@cache
def _presieve_pattern():
    """Accumulator values of n = 0..30029 from the hits of PRESIEVE_PRIMES.

    Each starts at OMEGA_UNIT - 1, the empty complemented log.  Every n
    with the same residue mod 30030 gets the same hits.  Built on first
    use, not at import.
    """
    pattern = np.full(prod(PRESIEVE_PRIMES), OMEGA_UNIT - 1, dtype=np.uint32)
    for p, v in zip(PRESIEVE_PRIMES, _packed_hits(np.array(PRESIEVE_PRIMES)).tolist()):
        pattern[::p] += v
    pattern.flags.writeable = False
    return pattern


def _segment_stats(lo, hi, base_primes):
    """The intp key code(n) << 4 | omega(n) of each n = lo..hi inclusive.

    code(n) is the sum of D(e_p) (`_EXPONENT_CODE`) over the primes p
    with p^2 | n, where e_p is the exponent of p in n.  D keeps apart the
    5057 multisets of exponents e >= 2 of the n <= 2^52, so the code
    gives back that multiset (`_signature`), and with omega(n) it fixes
    f(n) for every function here.  For n <= 2^52, omega <= 13 and code
    <= 51 206, so the key is below 2^20 and `_value_counts` takes
    bincount for it on a full segment.  Only the base primes
    p <= sqrt(hi) are used (`base_primes` is a prime table from 2).

    One uint32 word per n holds [code: 16 | omega: 4 | complemented log:
    12], and every update is one add.  The word starts at OMEGA_UNIT - 1.
    Each hit of a base prime p adds OMEGA_UNIT - L(p), with L(p) =
    round(LOG_SCALE * log2 p), and each level p^e, e >= 2, that divides
    n adds (D(e) - D(e-1)) << 16 - L(p).  So the high field ends at
    code(n), the middle one at omega over the base primes, and the low
    one at OMEGA_UNIT - 1 - l, where l is LOG_SCALE * log2 m to within
    delta <= Omega(n)/2 <= 26 units and m is the part of n that the base
    primes make up.  l <= 64 * 52 + 26 < OMEGA_UNIT, so the low field
    never borrows from omega.  n has one more prime factor, above
    sqrt(hi), exactly when m < n, and then m < n / sqrt(hi).  So l is at
    least LOG_SCALE * log2 n - delta when m = n and below LOG_SCALE *
    (log2 n - log2(hi) / 2) + delta otherwise; the test l < t is against
    the midpoint t, which for every n >= n0 = 2 isqrt(hi) + 2 >=
    2 sqrt(hi) may be taken at n0 (the gap there is at least LOG_SCALE =
    64, against 2 delta <= 52 and the rounding of t).  Adding t to the
    word carries one into omega exactly when l < t, and the word shifted
    right by 12 is then the key.  The adds commute, so t goes in with
    the first value.  The n below n0 each get their own midpoint (its
    ceiling, at least 0); a window of at most SEGMENT_WIDTH integers
    has them only if it starts below about 2.1 k.

    The hits of 2, 3, 5, 7, 11 and 13 come from `_presieve_pattern`,
    added to t from lo mod 30030 period by period, with no rolled copy:
    it is the word's first value.  One of them above sqrt(hi) (hi < 169)
    is no base prime, but it divides each n <= hi at most once, so it
    counts in omega and m as n's one prime factor above sqrt(hi) should,
    and the test finds m = n.  Each other base prime below
    SCATTER_MIN_PRIME makes one strided add.  A larger prime has at most
    width/SCATTER_MIN_PRIME + 1 multiples here, so one Python step per
    prime would cost more than its few hits: `_scatter_primes` applies
    the hits of all of them at once.  The levels p^e, e >= 2, of every
    prime whose square has a multiple here make one strided add each,
    over the multiples of p^e.
    """
    width = hi - lo + 1
    top = np.searchsorted(base_primes, isqrt(hi), side="right")
    packed = _packed_hits(base_primes[:top])
    split = np.searchsorted(base_primes[:top], SCATTER_MIN_PRIME)
    small, values = base_primes[:split].tolist(), packed[:split].tolist()
    n0 = max(lo, 2 * isqrt(hi) + 2)
    t = round(LOG_SCALE * (log2(n0) + log2(hi) / 2) / 2)
    pattern = _presieve_pattern()
    acc = np.empty(width, dtype=np.uint32)
    r = lo % pattern.size
    head = min(pattern.size - r, width)
    np.add(pattern[r : r + head], t, out=acc[:head])
    # the rest starts at n = 0 mod 30030: whole periods, then a part
    for start in range(head, width, pattern.size):
        np.add(pattern[: width - start], t, out=acc[start : start + pattern.size])

    for p, v in zip(small[len(PRESIEVE_PRIMES) :], values[len(PRESIEVE_PRIMES) :]):
        start = (-lo) % p
        if start < width:  # only a prime above the width can miss
            acc[start::p] += v
    squared = _scatter_primes(lo, base_primes[split:top], packed[split:top], acc)

    for p, v in list(zip(small, values)) + squared:
        q, e = p * p, 2
        while q <= hi:
            start = (-lo) % q
            if start >= width:
                break
            acc[start::q] += _LEVEL_STEPS[e] + v
            q *= p
            e += 1

    head = min(n0 - lo, width)
    if head:  # each n below n0 takes its own midpoint in place of t
        n = np.arange(lo, lo + head, dtype=np.float64)
        own = np.ceil(LOG_SCALE * (np.log2(n) - log2(hi) / 4))
        acc[:head] += np.maximum(own, 0).astype(np.uint32)
        acc[:head] -= t
    acc >>= 12
    # intp, which bincount counts without a copy; acc is freed here
    return acc.astype(np.intp)


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


# enough primes for the exponents e >= 2 of n <= 2^52: (2*3*...*23)^2 > 2^52
_SIGNATURE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


@cache
def _signature(key):
    """(omega, ascending exponents e >= 2) of each n with key code << 4 | omega.

    A depth-first search for the one multiset whose D values sum to the
    code: exponents in descending order on 2, 3, 5, ..., so each branch
    is the least n with its multiset, and a branch ends when that n
    passes 2^52 or its sum passes the code.
    """
    def find(rest, i, top, room):
        if rest == 0:
            return ()
        p = _SIGNATURE_PRIMES[i]
        for e in range(top, 1, -1):
            d = _EXPONENT_CODE[e - 2]
            if d <= rest and p**e <= room:
                exps = find(rest - d, i + 1, e, room // p**e)
                if exps is not None:
                    return exps + (e,)
        return None

    return key & 15, find(key >> 4, 0, len(_EXPONENT_CODE) + 1, SIEVE_MAX_POINT)


@cache
def _reciprocals(fid):
    """The ints 1/f(p^e) for e = 0..52, from `spec(fid).local`."""
    local = spec(fid).local
    return (1,) + tuple(int(1 / local(e)) for e in range(1, 53))


def _denominator_counts(stats, fids):
    """`_decode` of the keys of `stats`, `_segment_stats`'s key array."""
    return _decode(_value_counts(stats), fids)


def _decode(keys, fids):
    """{fid: Counter mapping each denominator d of f(n) = 1/d to its count}.

    `keys` holds (key, count) pairs, counted once for all of `fids`.
    Each distinct key is decoded once per process by `_signature`, and
    its denominator (1/f(p))^(omega - |sig|) times prod 1/f(p^e) over
    the exponents e of sig, an int product from `_reciprocals`, is
    memoized per function.
    """
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
# the full range n <= X without sieving

# D(e) for e = 0..52, with D(0) = D(1) = 0: a node's code steps
_CODE_STEP = (0, 0) + _EXPONENT_CODE
_WALK_CHUNK = SEGMENT_WIDTH // 16  # children made at once


def _prime_counts(X):
    """(small, large), int64: small[v] = pi(v) for v <= r = isqrt(X), and
    large[k] = pi(X // k) for 1 <= k <= r.

    Lucy_Hedgehog's recursion over the O(sqrt X) values v = X // k: S(v)
    starts at v - 1, the count of 2..v, and each prime p <= r takes from
    every v >= p^2 the numbers whose least prime factor is p, S(v) -=
    S(v // p) - S(p - 1), read from the values before p.  For large[k],
    v // p = X // (k p) is large[k p] while k p <= r (a strided slice)
    and small[(X // k) // p] after.  One prime is three array updates,
    O(X^(3/4) / log X) work in all.
    """
    r = isqrt(X)
    small = np.arange(-1, r, dtype=np.int64)
    small[0] = 0
    quot = X // np.arange(1, r + 1, dtype=np.int64)  # X // k at k - 1
    large = np.concatenate(([0], quot - 1))
    for p in primes_up_to(r).tolist():
        below = small[p - 1]
        top = min(X // (p * p), r)  # large[k] holds a v >= p^2 for k <= top
        inner = min(top, r // p)
        large[1 : inner + 1] -= large[p : p * inner + 1 : p] - below
        large[inner + 1 : top + 1] -= small[quot[inner:top] // p] - below
        if p * p <= r:
            small[p * p :] -= small[np.arange(p * p, r + 1) // p] - below
    return small, large


def _walk_counts(X, fids):
    """`_decode` of the keys of every n <= X, from a walk that sieves no n.

    The walk visits the nodes c = m q^e: q prime, above every prime of
    m, and m q^(e+1) <= X.  It goes one level per omega(c), from the
    root c = 1.  Each n > 1 is counted at the node n / p, p its largest
    prime.  When p does not divide c, n = c p is one of the pi(X // c)
    - pi(q) primes p above q (`_prime_counts`), all with c's key plus
    one.  When p = q, n = m q^(e+1) has c's omega and m's code plus
    D(e + 1).  The children of c are c q'^e' for the primes q' above q
    with c q'^(e'+1) <= X.  A level's children are made in chunks of at
    most _WALK_CHUNK: one `searchsorted` over the cumulative child
    counts finds each child's node and prime, and one filter per
    exponent e' keeps those that are still nodes.  Their omega is the
    level, so a level's counts go by code and exponent into one small
    tally (bincounts over the nodes' distinct codes; float sums of at
    most X < 2^53 are exact), folded into the totals when the level
    ends.  Only the next level's nodes are kept: at X = 10^10 the
    largest level has 83 k nodes and 2.2 M children, and the walk's
    traced peak is 13.5 MiB.
    """
    r = isqrt(X)
    small, large = _prime_counts(X)
    primes = primes_up_to(r)
    keys = Counter({0: 1, 1: int(large[1])})  # n = 1, and the primes
    # the nodes of a level: value, index of the largest prime (-1 at the
    # root), code, and the number of children
    nodes = [np.array([v], dtype=np.int64) for v in (1, -1, 0, small[r])]
    omega = 0
    while nodes[0].size:
        c, top, code, kids = nodes
        omega += 1
        # tally[w, d, j]: the count of the n with omega + w primes and code
        # codes[j] + D(d); an exponent of n <= X is below X's bit length
        codes, code = np.unique(code, return_inverse=True)
        tally = np.zeros((2, X.bit_length(), codes.size))
        ends = np.cumsum(kids)
        offset = ends - kids - top - 1  # a child's position minus its prime's index
        found = []
        for a in range(0, int(ends[-1]), _WALK_CHUNK):
            pos = np.arange(a, min(a + _WALK_CHUNK, int(ends[-1])))
            node = np.searchsorted(ends, pos, side="right")
            i = pos - offset[node]
            q, base = primes[i], code[node]
            n = c[node] * q
            for e in range(1, len(_CODE_STEP) - 1):  # n = c q^e, n q <= X
                v = X // n
                pi = np.where(n <= r, large[np.minimum(n, r)], small[np.minimum(v, r)])
                counts = np.bincount(base, weights=pi - i - 1)
                tally[1, e, : counts.size] += counts
                counts = np.bincount(base)
                tally[0, e + 1, : counts.size] += counts
                root = np.sqrt(v).astype(np.int64)
                root -= root * root > v  # isqrt(v)
                more = small[root] - i - 1
                room = more > 0
                found.append((n[room], i[room], codes[base[room]] + _CODE_STEP[e],
                              more[room]))
                keep = v // q >= q  # n q^2 <= X
                if not keep.any():
                    break
                q, i, base = q[keep], i[keep], base[keep]
                n = n[keep] * q
        for w, d, j in zip(*np.nonzero(tally)):
            keys[int(codes[j] + _CODE_STEP[d]) << 4 | omega + int(w)] += int(tally[w, d, j])
        nodes = [np.concatenate(z) for z in zip(*found)] if found else [c[:0]]
    return _decode((+keys).items(), fids)  # + drops the zero count of X = 1


# ---------------------------------------------------------------------------
# public operations

def _counts_to_sums(counts):
    return sum((Fraction(c, d) for d, c in sorted(counts.items())), Fraction(0))


def interval_counts(x: int, h: int, threads: int = 1, fids=ALL_FNS):
    """Denominator counts of the functions `fids` over x < n <= x+h.

    From n = 1 (x = 0) with h >= WALK_MIN_POINT the counts come from
    the walk (`_walk_counts`), which sieves no n and takes no threads.
    Every other interval is sieved (`_sieve_counts`).  Both give the
    same counts.
    """
    if x < 0 or h < 1:
        raise ValueError("need x >= 0 and h >= 1")
    if x + h > SIEVE_MAX_POINT:
        raise CapacityError(
            "interval endpoint beyond the sieve budget "
            f"(needs base primes above {BASE_PRIME_BUDGET})"
        )
    if x == 0 and h >= WALK_MIN_POINT:
        return _walk_counts(h, fids)
    return _sieve_counts(x + 1, x + h, threads, fids)


def _sieve_counts(lo, hi, threads, fids):
    """Denominator counts of the functions `fids` over lo <= n <= hi, sieved.

    Each finished segment is folded into the totals at once, and at most
    `threads` segments are in the pool at a time, so memory does not grow
    with the number of segments.  One thread sieves on the calling thread.
    """
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
