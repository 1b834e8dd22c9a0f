"""Euler-product constants: G(s), Pi(u), its Taylor coefficients, and the
leading constants of the asymptotic expansions.

ln G(s) is evaluated in hybrid form

    ln G(s) = sum_{p <= P0} ln G_p(s)  +  sum_{n=3}^{M} g_n * P_tail(n s),

where P_tail(z) = P(z) - sum_{p <= P0} p^{-z} is the prime zeta tail.
Splitting off the small primes makes the n-series tail decay like
P0^{-n Re s}, so the truncation at order M leaves a bound that is tiny
and is carried along explicitly as an error budget.  That bound depends
only on Re s, M and the g_n (`_ln_G_tail_bound`).  Each small prime's
local factor F_p(X) = sum_k f(p^k) X^k is summed from `local_value`.

Each P(n s) is the Mobius-log series sum_k mu(k)/k * log zeta(k n s).
One ln G evaluation shares its log zeta(m s), m = k n, across all n:
zeta(6s) serves both n = 3 and n = 6.

Pi(u) = G(1-u) * w(1-u)^a * zeta(2-2u)^b, and the expansion constants are

    K_n = (-1)^n Pi_n / Gamma(a - n) = sin(pi a)/pi * Gamma(n+1-a) * Pi_n.

`pi_taylor` takes the first form (`gamma_route_K`); the tests and the
constants demo check it against the second (`reflection_K`).
`pi_function` evaluates Pi at one complex point (A0 uses it at u = 0).
The Taylor coefficients Pi_n come from `pi_taylor`, which builds ln Pi
as a truncated series in u from real-argument data only and takes its
exp:

    a ln w(1-u),      w(s) = (s-1) zeta(s);
    b ln zeta(2-2u);
    sum_{p > P0} ln G_p(1-u) = sum_m c_m ln zeta_{>P0}(m - m u),

with c_m = sum_{n | m, n >= 3} g_n mu(m/n)/(m/n) and ln zeta_{>P0}(w) =
ln zeta(w) + sum_{p <= P0} ln(1 - p^{-w}).  Each prime p <= P0 then
gives ln F_p(X) + sum_k e_k X^k at X = p^{-1} e^{u ln p}: the one series
log of sum_k f(p^k) p^{-k} e^{k u ln p}, plus the exact X^k coefficients
e_k of a ln(1 - X) + b ln(1 - X^2) + sum_m c_m ln(1 - X^m).  The u^j
coefficient of sum_k a_k X^k is the moment (ln p)^j / j! sum_k a_k k^j
p^{-k}, summed by Horner in 1/p over Python integers in units of 2^-P,
P = mp.prec + FIXED_GUARD_BITS, from columns floor(a_k k^j 2^P) built
once from the exact a_k; each such sum is below its value by under 4
units.  The series of w(1-u) and of every zeta(m - m u) come from one
call of `zeta.zeta_series_hp`, a real Euler-Maclaurin on series in u
with a bound on each coefficient.  The series arithmetic is that of
`powerseries`.  The cuts in k and m, the zeta series' bounds, the
fixed-point truncations and the rounding make an error bound on each
coefficient of ln Pi, carried through exp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath import mp, mpc, mpf

from .eulerform import EulerForm, euler_form, local_series
from .functions import MultFnId, local_value
from .powerseries import (
    exp_coeffs,
    exp_linear_coeffs,
    log_coeffs,
    log_one_minus_coeffs,
    mul_coeffs,
)
from .sieve import _mobius_upto, primes_up_to
from .zeta import (
    FIXED_GUARD_BITS,
    GUARD_DPS,
    ROUNDING_ULPS,
    _prime_zeta_kmax,
    _prime_zeta_mobius,
    prime_zeta_hp,
    w_hp,
    zeta_hp,
    zeta_series_hp,
)

CONSTANTS_DPS = 30
DEFAULT_P0 = 100


# ---------------------------------------------------------------------------
# ln G_p(s) = ln F_p(X) + a ln(1-X) + b ln(1-X^2), X = p^{-s}

def _ln_G_p_hp(ef: EulerForm, small):
    """sum of ln G_p over the X = p^{-s} in `small`, at working precision.

    F_p(X) = sum_k f(p^k) X^k is summed by Horner from `local_value`,
    through the K where |X|^{K+1} / (1 - |X|) < 10^-(dps+5): every
    f(p^k) <= 1, so that bounds the terms dropped.  The f(p^k) become mpf
    once per call.
    """
    log_tol = -(mp.dps + 5) * math.log(10)
    cuts = []
    for X in small:
        x = float(abs(X))
        cuts.append(max(1, math.floor((log_tol + math.log(1 - x)) / math.log(x))))
    local = [_q(local_value(ef.fid, k)) for k in range(max(cuts) + 1)]
    a, b = _q(ef.a), _q(ef.b)
    total = mpf(0)
    for X, K in zip(small, cuts):
        acc = mpf(0)
        for k in range(K, 0, -1):
            acc = (acc + local[k]) * X
        total += mp.log(1 + acc) + a * mp.log(1 - X) + b * mp.log(1 - X * X)
    return total


def _q(frac):
    return mpf(frac.numerator) / frac.denominator


def _g_bound(ef):
    return max(abs(g) for g in ef.g[2:]) if len(ef.g) > 2 else Fraction(1, 6)


def _ln_G_order(ef: EulerForm, sigma):
    """Order M of the n-series at Re s = sigma.

    The series tail decays like P0^{-n sigma}; stop once it is below
    working precision rather than always using the full stored order.
    """
    digits_per_term = sigma * math.log10(DEFAULT_P0)
    return min(ef.order, max(4, math.ceil((mp.dps + 2) / digits_per_term)))


def _ln_G_tail_bound(ef: EulerForm, sigma):
    """Bound on the n-series terms n > M that ln_G_hp drops at Re s = sigma.

    It depends only on sigma, M and the g_n, not on the value of ln G.
    """
    tail_ratio = DEFAULT_P0 ** (-sigma)
    M = _ln_G_order(ef, sigma)
    return float(_g_bound(ef)) * tail_ratio ** (M + 1) / (1 - tail_ratio) * 2


def ln_G_hp(ef: EulerForm, s):
    """ln G(s) at working precision; returns (value, truncation_bound).

    Requires Re s > 1/3 (in practice all callers have Re s >= 3/4).
    The small primes' p^{-s} serve both the local factors and P_tail(n s).
    All P(n s), n = 3..M, share one dict of log zeta(m s), m = k n, local
    to this call, so each log zeta(m s) is computed once per s.
    """
    s = mpc(s)
    sigma = float(s.real)
    if sigma <= 1 / 3:
        raise ValueError("ln_G requires Re s > 1/3")
    # closing the tail bound needs P0^{-(M+1) sigma} to be small
    if DEFAULT_P0 ** (-sigma) >= 0.5:
        raise ValueError("Re s too small for the truncation bound to close")
    M = _ln_G_order(ef, sigma)
    small = [mp.power(int(p), -s) for p in primes_up_to(DEFAULT_P0)]
    total = _ln_G_p_hp(ef, small)
    pows = [x * x * x for x in small]
    # kmax of the Mobius series is largest at the smallest n
    mu = _mobius_upto(_prime_zeta_kmax(float((3 * s).real)))
    log_zeta = {}
    for n in range(3, M + 1):
        gn = ef.g_at(n)
        if gn != 0:
            ptail = _prime_zeta_mobius(s, n, mu, log_zeta) - mp.fsum(pows)
            total = total + _q(gn) * ptail
        if n < M:
            pows = [x * y for x, y in zip(pows, small)]
    return total, _ln_G_tail_bound(ef, sigma)


# ---------------------------------------------------------------------------
# Pi(u) and its Taylor coefficients

def pi_function(ef: EulerForm, u):
    """Pi(u) = G(1-u) * w(1-u)^a * zeta(2-2u)^b, principal branches."""
    u = mpc(u)
    if abs(u) > 0.25 + 1e-12:
        raise ValueError("pi_function requires |u| <= 1/4")
    s = 1 - u
    lng, _ = ln_G_hp(ef, s)
    wbase = w_hp(s)
    zbase = zeta_hp(2 - 2 * u)
    # all base points sit in a disc around the positive reals
    if wbase.real <= 0 or zbase.real <= 0:
        raise ArithmeticError("branch assertion failed: base left the right half-plane")
    return mp.exp(lng) * mp.power(wbase, _q(ef.a)) * mp.power(zbase, _q(ef.b))


@dataclass
class PiExpansion:
    fid: object
    a: Fraction
    Pi: list       # mpf, Pi_0..Pi_N
    K: list        # mpf, K_n = (-1)^n Pi_n / Gamma(a-n)
    nodes: int     # real points at which zeta is expanded in u
    error_budget: float

    def to_json_dict(self):
        return {
            "fid": str(self.fid),
            "a": self.a,
            "Pi": [mp.nstr(v, 30) for v in self.Pi],
            "K": [mp.nstr(v, 30) for v in self.K],
            "nodes": self.nodes,
            "errorBudget": self.error_budget,
        }


def reflection_K(a: Fraction, n: int, Pi_n):
    """K_n via sin(pi a)/pi * Gamma(n+1-a) * Pi_n."""
    return mp.sinpi(_q(a)) / mp.pi * mp.gamma(n + 1 - _q(a)) * Pi_n


def gamma_route_K(a: Fraction, n: int, Pi_n):
    """K_n via (-1)^n Pi_n / Gamma(a-n)."""
    return (-1) ** n * Pi_n / mp.gamma(_q(a) - n)


# ---------------------------------------------------------------------------
# Taylor coefficients of Pi(u) by power-series arithmetic in u

def _series_log(c):
    """Taylor coefficients of ln c(u), for a real series with c[0] > 0."""
    c0 = c[0]
    return [mp.log(c0)] + log_coeffs([x / c0 for x in c])[1:]


def _series_exp(l):
    """Taylor coefficients of exp l(u)."""
    e0 = mp.exp(l[0])
    return [e0 * x for x in exp_coeffs([l[0] * 0] + l[1:])]


def _log_bound_exp_terms(log_base, log_lam, N):
    """ln of base * lam^j / j! for j = 0..N (floats, no underflow)."""
    return [log_base + j * log_lam - math.lgamma(j + 1) for j in range(N + 1)]


def _cut(K, log_terms, ratio, log_tol):
    """The first cut K (from the one given) whose dropped terms sum below tol.

    The dropped terms K+1, K+2, ... start at exp(log_terms(K+1)[j]) and
    fall by at least ratio(K) < 1 each, so they sum to at most the first
    over 1 - ratio(K).  Returns K and that bound for each j.
    """
    while True:
        q = ratio(K)
        if q < 1:
            logs = log_terms(K + 1)
            if max(logs) - math.log(1 - q) <= log_tol:
                return K, [math.exp(x) / (1 - q) for x in logs]
        K += 1


def _local_cut(p, N, log_tol):
    """Order K of p's local series and the bound t_j on what it drops.

    The dropped terms k > K of sum_k f(p^k) p^{-k} (k ln p)^j / j! have
    |f(p^k)| <= 1 and ratio at most (1 + 1/(K+1))^N / p.
    """
    lnp = math.log(p)
    return _cut(
        max(1, math.ceil(-log_tol / lnp)),
        lambda k: _log_bound_exp_terms(-k * lnp, math.log(k * lnp), N),
        lambda K: (1 + 1 / (K + 1)) ** N / p,
        log_tol,
    )


def _log_of_cut(lnF, t):
    """Bound on the error of ln F(u) from errors t_j in the coefficients of F.

    ln(F + T) - ln F = ln(1 + T/F); T/F is majorized by r = t * |1/F|,
    and -ln(1 - r) by r_j + s^2/(1 - s) with s = sum_j r_j < 1.
    """
    inv = _series_exp([-x for x in lnF])
    r = [float(x) for x in mul_coeffs([mpf(x) for x in t], [abs(x) for x in inv])]
    s = sum(r)
    if s >= 0.5:
        raise ArithmeticError("local series cut too coarse for its log")
    return [x + s * s / (1 - s) for x in r]


def _large_prime_cut(ef, N, log_tol):
    """Last m of sum_m c_m ln zeta_{>P0}(m - m u) and the bound on the rest.

    The coefficient j of ln zeta_{>P0}(m - m u) = sum_{p > P0, k} p^{-km}
    e^{k m u ln p} / k is at most sum_{n > P0} n^{-m} (m ln n)^j / j!,
    which with n0 = P0 + 1 is at most n0^{-m} (m ln n0)^j / j! times
    1 + n0 / (m - 1 - j / ln n0) (first term plus the integral).  With
    |c_m| <= g (1 + ln m), g the bound on |g_n|, the terms m > M fall by
    at least (1 + 1/(M+1))^{N+1} / n0 each.
    """
    n0 = DEFAULT_P0 + 1
    ln_n0 = math.log(n0)
    ln_g = math.log(float(_g_bound(ef)))

    def log_terms(m):
        base = ln_g + math.log(1 + math.log(m)) - m * ln_n0
        return [
            x + math.log(1 + n0 / (m - 1 - j / ln_n0))
            for j, x in enumerate(_log_bound_exp_terms(base, math.log(m * ln_n0), N))
        ]

    return _cut(3, log_terms, lambda M: (1 + 1 / (M + 1)) ** (N + 1) / n0, log_tol)


def _large_prime_coeffs(ef, M):
    """c_m = sum_{n | m, n >= 3} g_n mu(m/n) / (m/n), m = 0..M (exact)."""
    form = ef if ef.order >= M else euler_form(ef.fid, M)
    mu = _mobius_upto(M).tolist()
    c = [Fraction(0)] * (M + 1)
    for n in range(3, M + 1):
        gn = form.g_at(n)
        if gn:
            for m in range(n, M + 1, n):
                c[m] += gn * mu[m // n] / (m // n)
    return c


class _LogSum:
    """ln Pi(u) as a Taylor series, with the size of every term added.

    The sizes bound the rounding: each term is good to a few units of
    mp.eps of its own size.
    """

    def __init__(self, N):
        self.value = [mpf(0)] * (N + 1)
        self.size = [mpf(0)] * (N + 1)

    def add(self, series, size=None):
        """Add a series; its size is |series| unless a bound is given."""
        for j, x in enumerate(series):
            self.value[j] += x
            self.size[j] += abs(x) if size is None else size[j]


def _small_prime_log_coeffs(ef, c, K):
    """e_k, k = 0..K (exact): the X^k coefficient of a ln(1 - X)
    + b ln(1 - X^2) + sum_m c_m ln(1 - X^m), with c = _large_prime_coeffs,

        e_k = -(a + [2 | k] 2b + sum_{m | k} m c_m) / k.
    """
    e = log_one_minus_coeffs(ef.a, ef.b, K)
    for m in range(3, len(c)):
        if c[m]:
            for k in range(m, K + 1, m):
                e[k] -= m * c[m] / k
    return e


def _fixed_columns(a, N, P):
    """floor(a_k k^j 2^P), k = 0..len(a)-1, one list per j = 0..N, from
    the exact rationals a_k."""
    return [[(x.numerator * k**j << P) // x.denominator for k, x in enumerate(a)]
            for j in range(N + 1)]


def _horner_fixed(col, p):
    """sum_k col[k] p^{-k} in the units of col, by Horner with one floor
    division a step: S = col[k] + S // p.

    Each step loses under 1 unit, and so does each floor in col, so for
    col[k] = floor(2^P a_k) the result is below 2^P sum_k a_k p^{-k} by
    under 2 (1 + 1/p + 1/p^2 + ...) = 2 p / (p - 1) <= 4 units.
    """
    S = 0
    for x in reversed(col):
        S = x + S // p
    return S


def _moments(cols, p, K, scale):
    """scale[j] sum_{k <= K} a_k k^j p^{-k}, j = 0..N, from the columns of
    `_fixed_columns` at P bits; with scale[j] = 2^-P (ln p)^j / j! that is
    the u^j coefficient of sum_{k <= K} a_k X^k at X = p^{-1} e^{u ln p},
    below it by under 4 scale[j] (`_horner_fixed`)."""
    return [mpf(_horner_fixed(col[: K + 1], p)) * w for col, w in zip(cols, scale)]


def _local_log(cols, p, K, tail, scale):
    """ln F_p(X) at X = p^{-1} e^{u ln p} and a bound on each coefficient.

    F_p = sum_{k <= K} f(p^k) X^k is summed by `_moments` from the columns
    of the f(p^k).  Its coefficient j misses t_j = tail[j] for the cut
    and under 4 scale[j] for the truncation; `_log_of_cut` carries both
    through the log.
    """
    lnF = _series_log(_moments(cols, p, K, scale))
    return lnF, _log_of_cut(lnF, [t + 4 * float(w) for t, w in zip(tail, scale)])


def _add_small_primes(lnpi, ef, c, N, log_tol):
    """Add the primes p <= P0 of ln G(1-u) and of every c_m ln zeta_{>P0}
    to lnpi; return the bound of the k cuts and of the truncations.

    At X = p^{-1} e^{u ln p} that is ln F_p(X) + sum_k e_k X^k, with
    F_p = sum_{k <= K} f(p^k) X^k taken through one series log and the
    e_k of `_small_prime_log_coeffs`, each sum_k a_k X^k by `_moments`.
    The fixed-point columns of a_k = f(p^k), e_k and |e_k| (the e-sum's
    size), at P = mp.prec + FIXED_GUARD_BITS, are built once and serve
    all 25 primes.

    Each |e_k| is at most E = |a| + |b| + sum_m |c_m|, since m <= k for
    every m | k (m = 1 for a, 2 for b), so one cut at tol / max(1, E)
    serves both sums: the dropped e_k add E t_j to the bound, and the
    dropped f(p^k) go through the log of F_p (`_local_log`).  Each
    moment is below its exact value by under 4 units of 2^-P times (ln
    p)^j / j!: F_p's goes into its tail before the log, the e-sum's into
    the bound, and the |e|-sum's on top of the size, so that it stays an
    upper bound.
    """
    E = float(abs(ef.a) + abs(ef.b) + sum(abs(x) for x in c))
    cuts = {p: _local_cut(p, N, log_tol - math.log(max(1.0, E)))
            for p in primes_up_to(DEFAULT_P0).tolist()}
    top = max(K for K, _ in cuts.values())
    P = mp.prec + FIXED_GUARD_BITS
    local = _fixed_columns([local_value(ef.fid, k) for k in range(top + 1)], N, P)
    e = _small_prime_log_coeffs(ef, c, top)
    e_cols = _fixed_columns(e, N, P)
    abs_cols = _fixed_columns([abs(x) for x in e], N, P)
    eps = [0.0] * (N + 1)
    for p, (K, tail) in cuts.items():
        scale = exp_linear_coeffs(mp.ldexp(1, -P), mp.log(p), N)
        lnF, lnF_cut = _local_log(local, p, K, tail, scale)
        lnpi.add(lnF)
        e_abs = _moments(abs_cols, p, K, scale)
        lnpi.add(_moments(e_cols, p, K, scale),
                 [x + 4 * w for x, w in zip(e_abs, scale)])
        eps = [x + y + E * t + 4 * float(w)
               for x, y, t, w in zip(eps, lnF_cut, tail, scale)]
    return eps


def _add_zeta_factors(lnpi, ef, c, N):
    """Add a ln w(1-u), b ln zeta(2-2u) and c_m ln zeta(m - m u), m >= 3,
    to lnpi: one zeta_series_hp call serves all.

    Returns the number of m with c_m != 0 and the bound of every zeta
    series, carried through its log.
    """
    ms = [m for m in range(3, len(c)) if c[m]]
    zs = zeta_series_hp([1, 2] + ms, N)
    eps = [0.0] * (N + 1)
    for coef, m in [(_q(ef.a), 1), (_q(ef.b), 2)] + [(_q(c[m]), m) for m in ms]:
        z, bound = zs[m]
        lnz = _series_log(z)
        lnpi.add([coef * x for x in lnz])
        eps = [e + abs(float(coef)) * x for e, x in zip(eps, _log_of_cut(lnz, bound))]
    return len(ms), eps


def pi_taylor(ef: EulerForm, N: int) -> PiExpansion:
    """Taylor coefficients Pi_0..Pi_N from ln Pi(u) as a series in u.

    Every piece of ln Pi is a real Taylor series at u = 0 (see the module
    docstring); exp of their sum gives the Pi_n.  The error budget bounds
    max_n |Pi_n| error: the dropped local terms k > K (those of F_p
    carried through its log), the dropped m > M, the Euler-Maclaurin
    remainder of each zeta series (carried through its log), the
    fixed-point truncations of both, and rounding, each a bound eps_j
    on coefficient j of ln Pi, carried through exp by the majorant
    exp(|ln Pi|) (exp(eps) - 1).  The Pi_n
    carry GUARD_DPS digits above CONSTANTS_DPS or mp.dps, whichever is
    more; the K_n are rounded to that precision.  `nodes` counts the real
    points at which zeta is expanded in u by `zeta_series_hp`: s = 1 (for
    w), s = 2 and each m with c_m != 0.
    """
    if not 0 <= N <= 8:
        raise ValueError("need 0 <= N <= 8")
    with mp.workdps(max(mp.dps, CONSTANTS_DPS)), mp.extradps(GUARD_DPS):
        log_tol = -mp.dps * math.log(10)
        lnpi = _LogSum(N)
        M, m_cut = _large_prime_cut(ef, N, log_tol)
        c = _large_prime_coeffs(ef, M)
        k_cut = _add_small_primes(lnpi, ef, c, N, log_tol)
        used, z_cut = _add_zeta_factors(lnpi, ef, c, N)
        eps = [k + m + z + ROUNDING_ULPS * mp.eps * r
               for k, m, z, r in zip(k_cut, m_cut, z_cut, lnpi.size)]

        Pi = _series_exp(lnpi.value)
        # |exp(l + d) - exp(l)| <= exp(|l|) (exp(|d|) - 1), coefficientwise
        major = _series_exp([abs(x) for x in lnpi.value])
        growth = _series_exp(eps)
        growth[0] = mp.expm1(eps[0])
        budget = [x + ROUNDING_ULPS * mp.eps * y
                  for x, y in zip(mul_coeffs(major, growth), major)]
    with mp.workdps(max(mp.dps, CONSTANTS_DPS)):
        K = [gamma_route_K(ef.a, n, Pi[n]) for n in range(N + 1)]
    return PiExpansion(
        fid=ef.fid,
        a=ef.a,
        Pi=Pi,
        K=K,
        nodes=2 + used,
        error_budget=float(max(budget)),
    )


def constants_report(fid: MultFnId, N=4):
    """The constants of one function id, as a dict for `reports.json_report`."""
    ef = euler_form(fid)
    with mp.workdps(CONSTANTS_DPS):
        d = pi_taylor(ef, N).to_json_dict()
    d["b"] = ef.b
    d["flags"] = list(ef.flags)
    return d


# ---------------------------------------------------------------------------
# Ramanujan's leading constant for 1/tau

def _eq1_tail_coeffs(order):
    """Rational coefficients d_k of ln[sqrt(p(p-1)) ln(p/(p-1))] in 1/p.

    d_1 vanishes; the series starts at 1/p^2, which is what makes the
    direct product converge.
    """
    lf = log_coeffs(local_series("inv_tau", order))  # of sum t^k/(k+1)
    d = [x + y for x, y in zip(lf, log_one_minus_coeffs(Fraction(1, 2), 0, order))]
    assert d[1] == 0
    return d


_A0_TAIL_ORDER = 8


def ramanujan_A0_product(limit=10**6):
    """A0 = (1/sqrt(pi)) prod_p sqrt(p(p-1)) ln(p/(p-1)), log-domain sum
    over p <= limit with a series tail correction.  Returns (value, bound).

    The tail is sum_k d_k (P(k) - sum_{p <= limit} p^{-k}), k = 2..8, with
    each prime zeta value P(k) from `prime_zeta_hp` at CONSTANTS_DPS
    digits, so the result does not depend on the ambient mp.dps.
    """
    p = primes_up_to(limit).astype(float)
    logf = 0.5 * (np.log(p) + np.log(p - 1)) + np.log(-np.log1p(-1.0 / p))
    total = float(np.sum(logf))
    tail_order = _A0_TAIL_ORDER
    d = _eq1_tail_coeffs(tail_order)
    with mp.workdps(CONSTANTS_DPS):
        for k in range(2, tail_order + 1):
            if d[k] == 0:
                continue
            pz = float(prime_zeta_hp(k).real)
            ptail = pz - float(np.sum(p ** (-float(k))))
            total += float(d[k]) * ptail
    # next omitted coefficient bounds the remainder, with
    # sum_{p > limit} p^{-m} <= int_limit^oo u^{-m} du = limit^{1-m}/(m-1)
    m = tail_order + 1
    nxt = _eq1_tail_coeffs(m)[m]
    partial_bound = 2 * abs(float(nxt)) * float(limit) ** (1 - m) / (m - 1) + 1e-12
    return math.exp(total) / math.sqrt(math.pi), partial_bound


def ramanujan_A0_eulerform(order=24):
    """Independent route: A0 = Pi_0 / Gamma(1/2) from the 1/tau Euler form."""
    ef = euler_form("inv_tau", order)
    with mp.workdps(CONSTANTS_DPS):
        pi0 = pi_function(ef, 0)
        return float(pi0.real / mp.sqrt(mp.pi))


def ramanujan_A0():
    """Best value with reported error bound: (value, bound, cross_delta)."""
    v1, bound = ramanujan_A0_product()
    v2 = ramanujan_A0_eulerform()
    return v2, bound, abs(v1 - v2)
