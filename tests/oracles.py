"""Reference implementations that the tests compare shortmean against.

Each oracle takes an independent route to a quantity the package
computes (trial division, the per-prime segment loop, a direct prime
sum or product, the small primes' series term by term in mpf, the
sawtooth integral for zeta, mpmath's zeta derivatives and Stieltjes
constants, closed forms, a circle quadrature of Pi), or is a check or
helper that only the tests run.  Test modules import them with
`from oracles import ...`; pytest puts this directory on sys.path
because `tests/` is not a package.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np
from mpmath import mp, mpf

from shortmean.asymptotics import DENSITY_EXPONENT
from shortmean.constants import (
    DEFAULT_P0,
    PiExpansion,
    _g_bound,
    _ln_G_tail_bound,
    _local_cut,
    _log_of_cut,
    _q,
    _series_log,
    _small_prime_log_coeffs,
    gamma_route_K,
    pi_function,
)
from shortmean.eulerform import EulerForm
from shortmean.functions import MultFnId, local_value
from shortmean.powerseries import exp_linear_coeffs
from shortmean.sieve import _EXPONENT_CODE, primes_up_to
from shortmean.zeta import _em_N, _em_tail, zeta_many
from shortmean.zetachecks import GROWTH_C

# ---------------------------------------------------------------------------
# factorization records (from functions)


@dataclass(frozen=True)
class Factorization:
    """Complete factorization of n as ordered (prime, exponent) pairs."""

    n: int
    factors: tuple  # ((p1, r1), (p2, r2), ...) with p1 < p2 < ...

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        prod = 1
        last_p = 0
        for p, r in self.factors:
            if p <= last_p:
                raise ValueError("primes must be distinct and increasing")
            if r < 1:
                raise ValueError("exponents must be >= 1")
            last_p = p
            prod *= p**r
        if prod != self.n:
            raise ValueError(f"factor product {prod} != n = {self.n}")

    @property
    def omega(self) -> int:
        return len(self.factors)

    @property
    def big_omega(self) -> int:
        return sum(r for _, r in self.factors)


def factorize(n: int) -> Factorization:
    """Trial-division factorization; fine for small n and for test oracles."""
    if n < 1:
        raise ValueError("n must be >= 1")
    m = n
    factors = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            r = 0
            while m % d == 0:
                m //= d
                r += 1
            factors.append((d, r))
        d += 1 if d == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return Factorization(n, tuple(factors))


def f_value(fid: MultFnId, fac: Factorization) -> Fraction:
    """f(n) = product of local values over the prime-power factors."""
    out = Fraction(1)
    for _, r in fac.factors:
        out *= local_value(fid, r)
    return out


# ---------------------------------------------------------------------------
# per-prime segment statistics (from sieve)


# D(e) for the exponents e <= 52 of n <= 2^52; D(0) = D(1) = 0
_SIGNATURE_TERM = np.array([0, 0, *_EXPONENT_CODE], dtype=np.int32)


def signature_code(exponents):
    """sum D(e) over the exponents e >= 2: the sieve's signature code."""
    return int(_SIGNATURE_TERM[list(exponents)].sum())


@dataclass
class SegmentFactors:
    """Per-integer statistics of n = lo..hi from `segment_stats_loop`."""

    omega: np.ndarray      # int16 omega(n)
    big_omega: np.ndarray  # int16 Omega(n)
    tau: np.ndarray        # int64 tau(n) = prod (e+1)
    tau_n2: np.ndarray     # int64 tau(n^2) = prod (2e+1)
    code: np.ndarray       # int32 signature_code of n's exponents
    dens: dict             # fid -> int64 1/f(n) = prod 1/f(p^e)

    @property
    def key(self):
        """intp code << 4 | omega, as `sieve._segment_stats` returns it."""
        return self.code.astype(np.intp) << 4 | self.omega


def segment_stats_loop(lo, hi, base_primes, fids=()):
    """Oracle for `sieve._segment_stats`: one Python step per base prime.

    Only the base primes p <= sqrt(hi) are used.  ``found`` collects the
    part of n made of them, so n has one more prime factor, above
    sqrt(hi), exactly when found != n.  Each base prime with a multiple
    here adds 1 to omega and multiplies found by p over its multiples.
    Where p^2 has multiples, the multiples of p^3, p^4, ... among them
    give the exponent e >= 2 of p in each, and every statistic takes its
    factor from that e: Omega gets e - 1 more, and the products
    prod (e+1), prod (2e+1), the sum of D(e) and, for each fid of `fids`,
    prod 1/f(p^e) (from `local_value`) over the primes with e >= 2 are
    kept.  Each of the k = omega - #{e >= 2} primes that divide n once
    gives the same factor, so tau = 2^k prod (e+1), tau(n^2) =
    3^k prod (2e+1) and 1/f(n) = (1/f(p))^k prod 1/f(p^e).
    """
    width = hi - lo + 1
    top = np.searchsorted(base_primes, isqrt(hi), side="right")
    found = np.ones(width, dtype=np.int64)
    omega = np.zeros(width, dtype=np.int16)
    squares = np.zeros(width, dtype=np.int16)   # primes with e >= 2
    extra = np.zeros(width, dtype=np.int16)     # Omega - omega
    tau_sq = np.ones(width, dtype=np.int64)
    tau2_sq = np.ones(width, dtype=np.int64)
    code = np.zeros(width, dtype=np.int32)
    recip = {fid: np.array([int(1 / local_value(fid, e)) for e in range(53)])
             for fid in fids}
    dens = {fid: np.ones(width, dtype=np.int64) for fid in fids}

    for p in base_primes[:top].tolist():
        start = (-lo) % p
        if start >= width:  # only a prime above the width can miss
            continue
        omega[start::p] += 1
        found[start::p] *= p
        q = p * p
        first = (-lo) % q
        if q > hi or first >= width:
            continue
        hit = slice(first, None, q)
        e = np.full(len(range(first, width, q)), 2, dtype=np.int64)
        while q * p <= hi:
            q *= p
            start = (-lo) % q
            if start >= width:
                break
            e[(start - first) // (p * p) :: q // (p * p)] += 1
        found[hit] *= p ** (e - 1)
        squares[hit] += 1
        extra[hit] += (e - 1).astype(np.int16)
        tau_sq[hit] *= e + 1
        tau2_sq[hit] *= 2 * e + 1
        code[hit] += _SIGNATURE_TERM[e]
        for fid in fids:
            dens[fid][hit] *= recip[fid][e]

    omega += found != np.arange(lo, hi + 1, dtype=np.int64)
    del found
    k = (omega - squares).astype(np.int64)
    for fid in fids:
        dens[fid] *= recip[fid][1] ** k
    return SegmentFactors(
        omega=omega, big_omega=omega + extra, tau=2**k * tau_sq,
        tau_n2=3**k * tau2_sq, code=code, dens=dens)


# ---------------------------------------------------------------------------
# closed form of g_n (from eulerform)


def g_closed_form(fid: MultFnId, n: int) -> Fraction:
    """Piecewise closed form of g_n, available for f3 and f4 only.

    f3: g_n = (1/n)(1/2 - 2^{-n}) for odd n, (1/n)(1/4 - 2^{-n}) for even n;
    f4 is the same with opposite sign.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if fid is MultFnId.INV_TWO_OMEGA:
        sign = 1
    elif fid is MultFnId.INV_TWO_BIG_OMEGA:
        sign = -1
    else:
        raise ValueError("closed form only available for f3 and f4")
    base = Fraction(1, 2) if n % 2 else Fraction(1, 4)
    return sign * Fraction(1, n) * (base - Fraction(1, 2**n))


# ---------------------------------------------------------------------------
# direct Euler product of G (from constants)


def G_product_direct(ef: EulerForm, s, limit=10**6):
    """Oracle: direct product prod_{p <= limit} G_p(s), double precision.

    G_p = F_p(X) (1-X)^a (1-X^2)^b at X = p^{-s}, with F_p - 1 summed from
    the local rule by Horner up to the K where |X|^{K+1}/(1-|X|) < 1e-18
    (every f(p^k) <= 1 bounds the rest), then taken through log1p, in
    double precision and without the g_n.  Returns (value, tail_bound);
    tail_bound covers the dropped p > limit.
    """
    s = complex(s)
    a, b = float(ef.a), float(ef.b)
    total = 0.0 + 0.0j
    for p_block in np.array_split(primes_up_to(limit), max(1, limit // 10**6)):
        X = np.exp(-s * np.log(p_block.astype(float)))
        xmax = float(np.max(np.abs(X)))
        K = 1
        while xmax ** (K + 1) / (1 - xmax) >= 1e-18:
            K += 1
        acc = np.zeros_like(X)
        for k in range(K, 0, -1):
            acc = (acc + float(local_value(ef.fid, k))) * X
        total += (np.log1p(acc) + a * np.log1p(-X) + b * np.log1p(-X * X)).sum()
    # |ln G_p| <~ gmax * p^{-3 sigma} / (1 - p^{-sigma})
    sigma = s.real
    gmax = float(_g_bound(ef))
    tail = (
        2 * gmax * limit ** (1 - 3 * sigma) / ((3 * sigma - 1) * math.log(limit))
    )
    return complex(np.exp(total)), float(tail)


# ---------------------------------------------------------------------------
# Taylor coefficients of Pi by circle quadrature (from constants)

# Pi(u) is analytic in |u| < 1/2 (the nearest singularity is the pole of
# zeta(2-2u) at u = 1/2); using the conservative radius of analyticity
# below keeps the aliasing bound honest with room to spare.
_PI_ANALYTIC_RADIUS = 0.4
_PI_SUP_BOUND = 4.0     # bound on |Pi| over that disc, for the aliasing terms
_ALIAS_TARGET = 1e-21


def _aliasing_nodes(radius, N):
    """Node count Q so that trapezoid aliasing | c_{n+Q} r^Q | stays
    below _ALIAS_TARGET for every extracted coefficient n <= N."""
    ratio = radius / _PI_ANALYTIC_RADIUS
    amp = _PI_SUP_BOUND * _PI_ANALYTIC_RADIUS ** (-N)
    Q = math.ceil(math.log(_ALIAS_TARGET / amp) / math.log(ratio)) + 2
    return Q + (Q % 2)  # even, so conjugate pairing covers every node


def pi_taylor_quadrature(ef: EulerForm, N: int, radius=0.125) -> PiExpansion:
    """Oracle: Pi_0..Pi_N by circle quadrature of `pi_function` at |u| = radius.

    The trapezoid rule on Q nodes recovers c_n up to aliasing terms
    c_{n+jQ} r^{jQ}; Q is sized from the analyticity radius so that the
    aliasing is below 1e-21 and carried in the error budget.  Pi has real
    Taylor coefficients, so nodes come in conjugate pairs and only the
    upper half circle is evaluated; the imaginary residue of the
    quadrature is folded into the error budget as well, with the ln G
    truncation bound at Re s = 1 - radius.
    """
    if not 0 <= N <= 8:
        raise ValueError("need 0 <= N <= 8")
    if not 0 < radius <= 0.25:
        raise ValueError("need 0 < radius <= 1/4")
    Q = _aliasing_nodes(radius, N)
    # extraction divides by radius^n, amplifying node-level rounding noise
    # by up to radius^{-N}; pin the working precision so a low ambient
    # mp.dps cannot silently degrade the coefficients
    with mp.workdps(max(mp.dps, 30)):
        half = [
            pi_function(ef, radius * mp.exp(2j * mp.pi * q / Q))
            for q in range(Q // 2 + 1)
        ]
        vals = half + [mp.conj(half[Q - q]) for q in range(Q // 2 + 1, Q)]
        cur = []
        for n in range(N + 1):
            acc = mp.fsum(
                vals[q] * mp.exp(-2j * mp.pi * n * q / Q) for q in range(Q)
            )
            cur.append(acc / (Q * mpf(radius) ** n))

        imag_resid = max(abs(c.imag) for c in cur)
        alias = float(
            _PI_SUP_BOUND
            * _PI_ANALYTIC_RADIUS ** (-N)
            * (radius / _PI_ANALYTIC_RADIUS) ** Q
        )
        lng_tail = _ln_G_tail_bound(ef, float(1 - radius))
        Pi = [c.real for c in cur]
        K = [gamma_route_K(ef.a, n, Pi[n]) for n in range(N + 1)]
    return PiExpansion(
        fid=ef.fid,
        a=ef.a,
        Pi=Pi,
        K=K,
        nodes=Q,
        error_budget=float(alias + imag_resid + lng_tail),
    )


# ---------------------------------------------------------------------------
# the small primes of ln Pi(u), one mpf term at a time (from constants)


def termwise_series(seqs, p, K, N):
    """sum_{k <= K} a_k X^k at X = p^{-1} e^{u ln p}, through u^N, for
    each sequence a of mpf in `seqs`: each term X^k = p^{-k} e^{k u ln p}
    is an mpf series of its own, as `constants` summed them before its
    fixed-point moments."""
    lnp = mp.log(p)
    sums = [[mpf(0)] * (N + 1) for _ in seqs]
    p_k = mpf(1)
    for k in range(K + 1):
        X_k = exp_linear_coeffs(p_k, k * lnp, N)
        for a, out in zip(seqs, sums):
            for j, x in enumerate(X_k):
                out[j] += a[k] * x
        p_k /= p
    return sums


def small_primes_termwise(lnpi, ef: EulerForm, c, N, log_tol):
    """Oracle for `constants._add_small_primes`: the same sum, with the
    same cuts and cut bounds, from `termwise_series` in place of integer
    moments.  Adds to the `_LogSum` lnpi; returns the bound of the cuts."""
    E = float(abs(ef.a) + abs(ef.b) + sum(abs(x) for x in c))
    cuts = {p: _local_cut(p, N, log_tol - math.log(max(1.0, E)))
            for p in primes_up_to(DEFAULT_P0).tolist()}
    top = max(K for K, _ in cuts.values())
    local = [_q(local_value(ef.fid, k)) for k in range(top + 1)]
    e = [_q(x) for x in _small_prime_log_coeffs(ef, c, top)]
    eps = [0.0] * (N + 1)
    for p, (K, tail) in cuts.items():
        F, e_sum, e_abs = termwise_series([local, e, [abs(x) for x in e]], p, K, N)
        lnF = _series_log(F)
        lnpi.add(lnF)
        lnpi.add(e_sum, e_abs)
        eps = [x + y + E * t for x, y, t in zip(eps, _log_of_cut(lnF, tail), tail)]
    return eps


# ---------------------------------------------------------------------------
# zeta: scalar form, unfactored block sum, Taylor series in u, direct prime
# zeta, sawtooth integral, first zero
# (from zeta)


def zeta(s):
    """Single-point double-precision zeta (Re s > 0, s != 1)."""
    return complex(zeta_many(np.array([s]))[0])


def zeta_terms(s):
    """zeta by Euler-Maclaurin with the truncation N of `zeta_many` for
    max|Im s|, its direct part summed term by term from fresh exponentials
    rather than through the shifted-row kernel."""
    N = _em_N(float(np.max(np.abs(s.imag))))
    direct = np.exp(-np.multiply.outer(s, np.log(np.arange(1, N + 1.0)))).sum(axis=-1)
    n_pow, boundary, corr = _em_tail(s, N)
    return direct + n_pow * N / (s - 1.0) + boundary + corr


def unfactored_block_sum(coef, lam, rows, shift):
    """sum_n coef_n e^{-s lam_n} on one block of shifted rows without a
    column table: the exponentials of the block's first row (J x N) taken
    afresh, times its row shifts (rows x N), one matrix product."""
    return shift @ (coef * np.exp(-np.multiply.outer(rows[0], lam))).T


def zeta_taylor_mpmath(m, N):
    """Oracle for `zeta.zeta_series_hp`: the Taylor coefficients in u,
    through u^N, of zeta(m - m u), m >= 2, from mpmath's derivatives,
    zeta^{(j)}(m) (-m)^j / j!; for m = 1, those of w(1 - u) = -u zeta(1 - u)
    from the Stieltjes constants, w(1 - u) = 1 - sum_k gamma_k u^{k+1} / k!
    (mpmath integrates each gamma_k by quadrature)."""
    if m == 1:
        return [mpf(1)] + [-mp.stieltjes(k) / mp.factorial(k) for k in range(N)]
    return [mp.zeta(m, 1, j) * (-m) ** j / mp.factorial(j) for j in range(N + 1)]


def on_fresh_thread(fn, *args):
    """fn(*args) on a thread of its own, so it starts with none of the
    caller's thread-local state."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn, *args).result()


def prime_zeta_direct(s, limit=10**7):
    """Oracle: direct sum over primes <= limit plus an integral tail estimate.

    Returns (value, tail_bound).  Real s only (the oracle role).
    """
    s = float(s)
    p = primes_up_to(limit).astype(float)
    val = float(np.sum(p**-s))
    # tail ~ int_limit^oo dt / (t^s ln t) <= limit^{1-s} / ((s-1) ln limit)
    tail = limit ** (1.0 - s) / ((s - 1.0) * math.log(limit))
    return val, tail


_INTREP_PANELS = 10_000


def zeta_integral_rep(s, nodes=8):
    """zeta via 1/2 + 1/(s-1) + s * int_1^oo (1/2 - {u}) u^{-s-1} du.

    Panel-per-integer Gauss-Legendre quadrature on [1, M], M =
    _INTREP_PANELS + 1.  The tail on [M, oo) is integrated by parts
    twice: the sawtooth's mean-zero antiderivatives are -B_2({u})/2,
    which is -1/12 at M and gives the boundary term s M^{-s-1}/12, and
    -B_3({u})/6, which vanishes at M and is at most sqrt(3)/216 in size.
    So what is left is bounded by
    |s(s+1)(s+2)| (sqrt(3)/36) / (6 (sigma+2) M^{sigma+2}).
    Returns (value, tail_bound).
    """
    s = complex(s)
    if s.real <= 0 or s == 1:
        raise ValueError("representation requires Re s > 0, s != 1")
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    m = np.arange(1, _INTREP_PANELS + 1, dtype=float)[:, None]
    u = m + 0.5 * (xg[None, :] + 1.0)
    rho = 0.5 - (u - m)
    integrand = rho * np.exp((-s - 1) * np.log(u))
    integral = 0.5 * np.sum(integrand * wg[None, :])
    M = _INTREP_PANELS + 1
    boundary = M ** (-s - 1) / 12
    tail_bound = (abs(s * (s + 1) * (s + 2)) * (math.sqrt(3) / 36)
                  / (6 * (s.real + 2) * M ** (s.real + 2)))
    val = 0.5 + 1.0 / (s - 1.0) + s * (integral + boundary)
    return complex(val), float(tail_bound)


def hardy_z(t):
    """Z(t) = e^{i theta(t)} zeta(1/2 + it), real for real t."""
    with mp.workdps(25):
        theta = mp.im(mp.loggamma(mpf(0.25) + 0.5j * t)) - t / 2 * mp.log(mp.pi)
        theta = float(theta)
    z = zeta(0.5 + 1j * t)
    return (complex(math.cos(theta), math.sin(theta)) * z).real


def first_zero(lo=14.0, hi=14.2, tol=1e-9):
    """Locate the first critical-line zero by bisection on Hardy Z."""
    flo, fhi = hardy_z(lo), hardy_z(hi)
    if flo * fhi > 0:
        raise ValueError("no sign change in bracket")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = hardy_z(mid)
        if flo * fm <= 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# subconvex growth envelope (from zetachecks)


@dataclass
class GrowthEnvelopeReport:
    c: Fraction
    samples: list  # (sigma, t, abs_zeta, envelope, ratio)
    fittedK: float

    def csv_rows(self):
        yield ("sigma", "t", "abs_zeta", "envelope", "ratio")
        for row in self.samples:
            yield row


def growth_envelope(sigmas=None, ts=None) -> GrowthEnvelopeReport:
    """Fitted constant of |zeta(sigma+it)| <= K t^{c(1-sigma)} ln t over a grid.

    Defaults cover sigma in [1/2, 1] and t in [10, 1e4].
    """
    if sigmas is None:
        sigmas = [0.5 + 0.1 * i for i in range(6)]
    if ts is None:
        ts = [10.0 * 10 ** (0.25 * i) for i in range(13)]  # 10 .. 1e4
    sigmas = [float(s) for s in sigmas]
    ts = [float(t) for t in ts]
    if not sigmas or not ts:
        raise ValueError("empty grid")
    for s in sigmas:
        if not 0.5 <= s <= 1.0:
            raise ValueError("sigma outside [1/2, 1]")
    for t in ts:
        if not 10.0 <= t <= 1e4:
            raise ValueError("t outside [10, 1e4]")
    c = float(GROWTH_C)
    pts = np.array([complex(s, t) for s in sigmas for t in ts])
    vals = np.abs(zeta_many(pts))
    samples = []
    fittedK = 0.0
    i = 0
    for s in sigmas:
        for t in ts:
            env = t ** (c * (1.0 - s)) * math.log(t)
            ratio = float(vals[i]) / env
            samples.append((s, t, float(vals[i]), env, ratio))
            fittedK = max(fittedK, ratio)
            i += 1
    return GrowthEnvelopeReport(c=GROWTH_C, samples=samples, fittedK=fittedK)


# ---------------------------------------------------------------------------
# contour height (from asymptotics)


@dataclass(frozen=True)
class ContourChoice:
    T: float
    h_min: float  # (x/T) (ln x)^2, the "h >> (x/T) ln^2 x" threshold


def choose_T(x: float, k: int, C1: float = 1.0) -> ContourChoice:
    """Contour height T with T^{12/5 + c/k} D(x) = x, D(x) = e^{C1 (ln x)^{0.8}}."""
    if x < 10:
        raise ValueError("need x >= 10")
    if C1 <= 0:
        raise ValueError("need C1 > 0")
    expo = float(DENSITY_EXPONENT + GROWTH_C / k)
    lnx = math.log(x)
    lnT = (lnx - C1 * lnx**0.8) / expo
    T = math.exp(lnT)
    return ContourChoice(T=T, h_min=(x / T) * lnx**2)
