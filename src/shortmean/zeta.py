"""Riemann zeta evaluation: double-precision grids, mpmath points and
real power series in extended precision.

  * `zeta_many` - numpy-vectorized double-precision Euler-Maclaurin for
    critical-line and vertical-line scans (|t| up to T_MAX).  Its argument
    is a grid whose rows are complex shifts of one another,
    s[k] = s[0] + d_k: equal quadrature panels with the same nodes, or any
    1-D array taken as one column.  Every direct sum, here and in
    `perron.ln_G_line`, goes through one kernel, `_dirichlet_grid`
    (multi-evaluation after Odlyzko-Schoenhage).  Such a grid is a tensor
    grid: in the block of 64 rows from row a, s[a + k, j] = s[a, 0] + d_k
    + c_j, with the same column offsets c_j in every row, so a term
    factors into three exponentials, e^{-s lam} = e^{-s[a, 0] lam}
    e^{-d_k lam} e^{-c_j lam}: one N-vector exp per block times a
    column table and a row-shift table, summed by one matrix product.
    Each kernel call builds one column table, and one row-shift table
    that every block with the same shifts slices, and drops both when it
    returns, so a value does not depend on earlier calls.  `zeta_em`
    evaluates one block;
  * `zeta_hp` - one point at working precision, from mpmath's `mp.zeta`
    (Borwein's algorithm; P. Borwein, "An efficient algorithm for the
    Riemann zeta function", 2000).  It serves `constants.pi_function` and
    the prime zeta below;
  * `zeta_series_hp` - on the real axis: the Taylor coefficients in u
    of zeta(m - m u) and of w(1 - u) = (s - 1) zeta(s), from
    Euler-Maclaurin on truncated power series in u, with Backlund's
    remainder bound carried to each coefficient by Cauchy's estimate.
    The direct sum and the Bernoulli terms are Python integers in units
    of 2^-P, P = mp.prec + FIXED_GUARD_BITS: the direct sum is one
    integer dot product per m, and each Bernoulli term is the last times
    an exact rational from `mp.bernfrac`.  Each floor has its own bound
    in the one returned.  It serves `constants.pi_taylor`.

The high-precision prime zeta P(s) is the Mobius-log series
sum_k mu(k)/k * log zeta(ks); `_prime_zeta_mobius` lets ln G share each
log zeta(ms) across the P(ns) of one point s.  Ramanujan's A0 takes
its P(k) from it as well.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np
from mpmath import mp, mpc, mpf

from .powerseries import exp_linear_coeffs
from .sieve import _mobius_upto

_EM_K = 36  # Bernoulli correction depth (double precision)

# zeta_many's accuracy is stated up to this height; the scans that size
# their panel arrays by a height refuse heights above it.
T_MAX = 2e4

# B_{2k} for k = 1.._EM_K+1 as floats; |B_72|/72! etc. handled via ratios.
def _bernoulli_floats(kmax):
    with mp.workdps(30):
        return [float(mp.bernoulli(2 * k)) for k in range(1, kmax + 2)]


_B2K = _bernoulli_floats(_EM_K)


def _em_tail(s, N):
    """Euler-Maclaurin pieces past the direct sum, vectorized over s.

    Returns (n_pow, boundary, corrections) with n_pow = N^{-s} and
      zeta(s) = direct + N^{1-s}/(s-1) + boundary + corrections.
    The N^{1-s}/(s-1) = n_pow * N/(s-1) pole piece is left to the caller.
    """
    n_pow = np.exp(-s * math.log(N))  # N^{-s}
    boundary = -0.5 * n_pow
    term = (_B2K[0] / 2.0) * s * n_pow / N  # k = 1 term
    corr = term.copy()
    invN2 = 1.0 / (N * N)
    for k in range(1, _EM_K):
        ratio = _B2K[k] / _B2K[k - 1] / ((2 * k + 1) * (2 * k + 2))
        term = term * (s + (2 * k - 1)) * (s + 2 * k) * (ratio * invN2)
        corr += term
    return n_pow, boundary, corr


def _em_N(tmax):
    return max(24, int(0.25 * tmax) + 8)


# ---------------------------------------------------------------------------
# Dirichlet polynomials on grids of shifted rows

_GRID_ROWS = 64  # rows of a grid that share one set of exponentials


def _as_grid(s):
    """s as a 2-D grid of len(s) rows; a 1-D s is one column."""
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    return s.reshape(len(s), math.prod(s.shape[1:]))


def _shift_table(d, lam):
    """e^{-d_k lam_n}, shape (len(d), len(lam)): the one place a row-shift
    or column table is built, in place, so a build holds one table's
    memory rather than two."""
    table = np.multiply.outer(d, lam)
    return np.exp(np.negative(table, out=table), out=table)


def _blocks(s, lam, widths=None):
    """(a, rows, shift, cols) for each block rows = s[a : a + _GRID_ROWS]
    of a grid s of shifted rows, s[k, j] = s[k, 0] + c_j: shift =
    e^{-d_k lam_n} for its row shifts d_k = rows[k, 0] - rows[0, 0] and
    cols = e^{-c_j lam_n} for the column offsets c_j = s[0, j] - s[0, 0],
    both for n < its width (widths[i] for block i, else len(lam)).

    Every column of s must agree with column 0 to tol = 8 eps
    max(1, max|s|), else ValueError.  The call first builds one column
    table, as wide as the widest block, and every block takes a slice of
    it (a 1-D s, one column, has a column table of ones).  It then builds
    one row-shift table from the first block's d, as wide as the widest
    block whose d agrees with it to tol, and each such block takes a
    slice of it; any other block (the uneven panels of a halving round,
    a 1-D s spanning many heights) builds its own.  Nothing outlives the
    call.  A slice gives the first block's d_k, and s[a, 0] + c_j stands
    for s[a, j]; each differs from this block's own value by about an ulp
    of t: the rounding the node already carries, and within the tol by
    which any column may stray from column 0.
    """
    if not len(s):
        return
    tol = 8 * np.finfo(float).eps * max(1.0, np.max(np.abs(s)))
    c = s[0] - s[0, 0]
    if np.any(np.abs((s - s[:, :1]) - c) > tol):
        raise ValueError("grid rows are not shifts of one another")
    starts = range(0, len(s), _GRID_ROWS)
    widths = [len(lam)] * len(starts) if widths is None else widths
    cols = _shift_table(c, lam[: max(widths)])
    ds = [s[a : a + _GRID_ROWS, 0] - s[a, 0] for a in starts]
    same = [not np.any(np.abs(d - ds[0][: len(d)]) > tol) for d in ds]
    table = _shift_table(ds[0], lam[: max(w for w, m in zip(widths, same) if m)])
    for a, d, m, w in zip(starts, ds, same, widths):
        shift = table[: len(d), :w] if m else _shift_table(d, lam[:w])
        yield a, s[a : a + _GRID_ROWS], shift, cols[:, :w]


def _block_sum(coef, lam, rows, shift, cols):
    """sum_n coef_n e^{-s lam_n} on one block, s[k, j] = rows[0, 0] + d_k +
    c_j: coef e^{-rows[0, 0] lam} (one N-vector exp) times the column
    table (J x N), times the row shifts (rows x N) by one matrix product.
    Each term is the product of three exponentials, so no long recurrence
    accumulates rounding.  Their moduli are e^{-Re s[0, 0] lam},
    e^{-Re d_k lam} and e^{-Re c_j lam}, so keep |Re d_k| max(lam) within a
    block, and |Re c_j| max(lam) across a row, well under about 700, or
    the factors under- and overflow."""
    return shift @ (cols * (coef * np.exp(-rows[0, 0] * lam))).T


def _dirichlet_grid(coef, lam, s):
    """sum_n coef_n e^{-s lam_n}, shaped like s, for s whose rows are
    shifts of one another, or any 1-D s (multi-evaluation after
    Odlyzko-Schoenhage): e^{-s lam} = e^{-s[a, 0] lam} e^{-d_k lam}
    e^{-c_j lam}, with two tables per call (`_blocks`) and one matrix
    product per block of _GRID_ROWS rows (`_block_sum`)."""
    grid = _as_grid(s)
    out = np.empty_like(grid)
    for a, rows, shift, cols in _blocks(grid, lam):
        out[a : a + _GRID_ROWS] = _block_sum(coef, lam, rows, shift, cols)
    return out.reshape(np.shape(s))


def zeta_em(s, N, lam, shift, cols):
    """zeta on one block s of shifted rows by Euler-Maclaurin with N terms.
    lam holds ln n, n <= N, and `shift` and `cols` the block's row-shift
    and column tables from `_blocks`, so its direct sum is
    e^{-s[0, 0] lam} e^{-d_k lam} e^{-c_j lam} (`_block_sum`)."""
    n_pow, boundary, corr = _em_tail(s, N)
    return (_block_sum(1.0, lam, s, shift, cols) + n_pow * N / (s - 1.0)
            + boundary + corr)


def zeta_many(s):
    """Vectorized zeta, shaped like s (at least 1-D), for |Im s| <= T_MAX.

    No error bound is computed (ROADMAP item 4, "A computed error on
    every numeric output").  Measured against `mp.zeta` at 30 digits, on
    30 points in [t, t + 64]: on the critical line, absolute errors up
    to 3.7e-11 at t near 2e4 and 1.3e-11 near 1e4, where the
    double-precision phases t ln n dominate (relative errors reach
    3.7e-10 near zeros); at Re s = 1 + 1/ln 1000.5, at most 2.7e-12 at t
    near 2e4.

    The rows of a 2-D s must be shifts of one another (ValueError
    otherwise); a 1-D s is one column.  Each block of _GRID_ROWS rows is one
    `zeta_em` call, its N sized for that block's top height; the call's
    ln n, its column table and its one row-shift table (`_blocks`) are as
    wide as the N of the top block, and each block takes its first N
    columns.
    """
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    if np.any(s == 1.0):
        raise ValueError("zeta pole at s = 1")
    grid = _as_grid(s)
    Ns = [_em_N(float(np.max(np.abs(grid[a : a + _GRID_ROWS].imag))))
          for a in range(0, len(grid), _GRID_ROWS)]
    lam = np.log(np.arange(1, max(Ns, default=0) + 1, dtype=float))
    out = np.empty_like(grid)
    for (a, rows, shift, cols), N in zip(_blocks(grid, lam, Ns), Ns):
        out[a : a + _GRID_ROWS] = zeta_em(rows, N, lam[:N], shift, cols)
    return out.reshape(s.shape)


# ---------------------------------------------------------------------------
# one point at working precision (mpmath)

def zeta_hp(s):
    """zeta(s) at working precision mp.dps, from mpmath's `mp.zeta`;
    ValueError at the pole s = 1."""
    return mpc(mp.zeta(s))


def w_hp(s):
    """(s-1)*zeta(s) at working precision; exact 1 at s = 1."""
    s = mpc(s)
    if s == 1:
        return mpc(1)
    return (s - 1) * zeta_hp(s)


# ---------------------------------------------------------------------------
# Taylor series in u of zeta(m - m u) on the real axis (mpmath)

_SERIES_RADII = (0.125, 0.25, 0.5, 1.0, 2.0)  # circles |s - m| = rho for Cauchy
# the high-precision series here and in `constants` carry GUARD_DPS more
# digits, and bound rounding by ROUNDING_ULPS guarded ulps per unit of size
GUARD_DPS = 10
ROUNDING_ULPS = 1000
# fixed-point sums in Python integers keep P = mp.prec + FIXED_GUARD_BITS
# bits after the point; each truncation adds its own bound
FIXED_GUARD_BITS = 64


def _series_N0(dps):
    """Length of the direct sum: the Bernoulli terms then fall by about
    (2 pi N0)^2 / (m + 2k)^2 each, and a few dozen reach 10^-(dps+3)."""
    return int(dps) + 10


def _backlund_log_bounds(m, N0, K, log_b_next, N):
    """ln of a bound on coefficient j, j = 0..N, of the Euler-Maclaurin
    remainder R_K(m - m u) after K Bernoulli terms.

    Backlund (Edwards, Riemann's Zeta Function, 6.4): for sigma > -(2K+1),
    |R_K(s)| <= |s + 2K + 1| / (sigma + 2K + 1) |T_{K+1}(s)|, with
    |T_{K+1}(s)| = |B_{2K+2}|/(2K+2)! N0^{-sigma-2K-1} prod_{i <= 2K} |s + i|
    and log_b_next = ln |B_{2K+2}|.  On the circle |s - m| = rho, that is
    |u| = rho/m, |s + i| <= m + rho + i and sigma >= m - rho; Cauchy's
    estimate divides by (rho/m)^j.  Each j takes the best of _SERIES_RADII.
    """
    ln_N0 = math.log(N0)
    logs = [math.inf] * (N + 1)
    for rho in _SERIES_RADII:
        hi, lo = m + rho, m - rho
        log_f = (log_b_next - math.lgamma(2 * K + 3)
                 - (lo + 2 * K + 1) * ln_N0
                 + math.lgamma(hi + 2 * K + 1) - math.lgamma(hi)
                 + math.log((hi + 2 * K + 1) / (lo + 2 * K + 1)))
        step = math.log(m / rho)
        logs = [min(x, log_f + j * step) for j, x in enumerate(logs)]
    return logs


def zeta_series_hp(ms, N):
    """Taylor coefficients in u, through u^N, by one real Euler-Maclaurin.

    Returns {m: (coeffs, bound)} for each m in `ms`: the series of
    zeta(m - m u) for an integer m >= 2, and of w(1 - u) = (s - 1) zeta(s)
    at s = 1 - u for m = 1; bound[j] (a float) bounds the error of
    coeffs[j].  With s = m - m u,

        zeta(s) = sum_{n < N0} n^{-s} + N0^{1-s}/(s-1) + N0^{-s}/2
                  + sum_{k <= K} T_k(s) + R_K(s),
        T_k(s) = B_2k/(2k)! N0^{1-s-2k} s (s+1) ... (s+2k-2),

    and T_{k+1} is T_k times (s+2k-1)(s+2k), two linear polynomials in
    u, and the exact rational B_{2k+2} / (B_2k (2k+1)(2k+2) N0^2).  For
    m = 1 the pole cancels exactly: (s-1) N0^{1-s}/(s-1) = N0^u, and the
    rest is multiplied by s - 1 = -u.  Terms are added until Backlund's
    bound on the remainder (`_backlund_log_bounds`) falls below
    10^-(dps+3) in every coefficient.

    The direct sum and the T_k are Python integers in units of 2^-P,
    P = mp.prec + FIXED_GUARD_BITS, each with a bound on its truncation:

      * the direct sum m^j sum_{1 < n < N0} n^{-m} (ln n)^j / j! is one
        integer dot product of floor(2^P / n^m) (off by under 1 unit)
        with columns of (ln n)^j / j! (under 2), built once per call and
        shared by every m.  It is off by at most (2 sum_n n^{-m} +
        sum_n (ln n)^j / j! + 2 N0 2^-P) m^j 2^-P;
      * T_1 starts under 2 units off, times s = m - m u.  Each step of the
        recurrence multiplies an error e by (2m+2k-1)(2m+2k) through the
        two linear factors and by |ratio|, and floors once: e <- e |ratio|
        (2m+2k-1)(2m+2k) + 1.  The e of every term added are summed.

    Both bounds go into the one returned, with Backlund's and with the
    rounding of the mpf parts at GUARD_DPS guard digits.
    """
    if N < 0 or any(m < 1 for m in ms):
        raise ValueError("need N >= 0 and integers m >= 1")
    log_tol = -(mp.dps + 3) * math.log(10)
    N0 = _series_N0(mp.dps)
    out = {}
    with mp.extradps(GUARD_DPS):
        P = mp.prec + FIXED_GUARD_BITS
        unit = math.ldexp(1.0, -P)
        with mp.workprec(P + 32):  # within 2^-20 units before the floor
            # floor(2^P (ln n)^j / j!) for n = 2..N0-1, one column per j
            cols = list(zip(*(_fixed(exp_linear_coeffs(mpf(1), mp.log(n), N), P)
                              for n in range(2, N0))))
            ln_N0 = mp.log(N0)
        # upper bounds on sum_n (ln n)^j / j!: each entry is within 2 units
        col_sums = [float(sum(col) + 2 * N0) * unit for col in cols]
        bern = [Fraction(1)]  # bern[k] = B_2k
        rounding = ROUNDING_ULPS * mp.eps
        for m in ms:
            lam = m * ln_N0  # N0^{-s} = N0^{-m} e^{lam u}
            # sum_{n < N0} n^{-s} + N0^{-s}/2, every term positive
            inv = [(1 << P) // n**m for n in range(2, N0)]
            total = [mp.ldexp(sum(map(operator.mul, inv, col)) * m**j, -2 * P)
                     for j, col in enumerate(cols)]
            total[0] += 1
            for j, x in enumerate(exp_linear_coeffs(mpf(N0) ** -m / 2, lam, N)):
                total[j] += x
            inv_sum = float(sum(inv) + N0) * unit  # >= sum_n n^{-m}
            trunc = [(2 * inv_sum + c + 2 * N0 * unit) * m**j * unit
                     for j, c in enumerate(col_sums)]
            # T_1 = B_2/2 N0^{-s-1} s
            with mp.workprec(P + 32):
                term = _fixed(exp_linear_coeffs(mpf(N0) ** (-m - 1) / 12,
                                                m * ln_N0, N), P)
            term = _times_linear(term, m, m)
            err = 2.0 * 2 * m  # under 2 units, times |m| + |m|
            terms, size_terms, err_sum = [0] * (N + 1), [0] * (N + 1), 0.0
            K, prev = 1, math.inf
            while True:
                for j, x in enumerate(term):
                    terms[j] += x
                    size_terms[j] += abs(x)
                err_sum += err
                while len(bern) <= K + 1:
                    bern.append(Fraction(*mp.bernfrac(2 * len(bern))))
                b_next = bern[K + 1]
                logs = _backlund_log_bounds(
                    m, N0, K,
                    math.log(abs(b_next.numerator)) - math.log(b_next.denominator), N)
                if max(logs) <= log_tol:
                    break
                if max(logs) >= prev:
                    raise ArithmeticError("Euler-Maclaurin terms stopped falling")
                prev = max(logs)
                ratio = b_next / bern[K] / ((2 * K + 1) * (2 * K + 2) * N0 * N0)
                term = _times_linear(_times_linear(term, m + 2 * K - 1, m),
                                     m + 2 * K, m)
                term = [x * ratio.numerator // ratio.denominator for x in term]
                err = (err * abs(float(ratio))
                       * (2 * m + 2 * K - 1) * (2 * m + 2 * K) + 1)
                K += 1
            size = [z + mp.ldexp(x, -P) for z, x in zip(total, size_terms)]
            total = [z + mp.ldexp(x, -P) for z, x in zip(total, terms)]
            bound = [math.exp(x) + t + err_sum * unit for x, t in zip(logs, trunc)]
            if m == 1:  # w = N0^u - u * (everything else)
                pole = exp_linear_coeffs(mpf(1), lam, N)
                coeffs = pole[:1] + [p - x for p, x in zip(pole[1:], total)]
                size = pole[:1] + [p + z for p, z in zip(pole[1:], size)]
                bound = [0.0] + bound[:N]
            else:  # add N0^{1-s}/(s-1) = N0^{1-m} e^{lam u} / (m - 1 - m u)
                pole = exp_linear_coeffs(mpf(N0) ** (1 - m), lam, N)
                for j in range(N + 1):
                    pole[j] = (pole[j] + m * (pole[j - 1] if j else 0)) / (m - 1)
                coeffs = [x + p for x, p in zip(total, pole)]
                size = [z + p for z, p in zip(size, pole)]
            out[m] = (coeffs, [b + float(rounding * z) for b, z in zip(bound, size)])
    return out


def _fixed(xs, P):
    """floor(2^P x) for each mpf x."""
    return [int(mp.floor(mp.ldexp(x, P))) for x in xs]


def _times_linear(c, alpha, beta):
    """Coefficients of (alpha - beta u) c(u), truncated to the length of c."""
    return [alpha * x - (beta * c[j - 1] if j else 0) for j, x in enumerate(c)]


# ---------------------------------------------------------------------------
# prime zeta function  P(s) = sum_p p^{-s}

def _prime_zeta_kmax(sigma):
    """Terms of the Mobius-log series for P at Re = sigma, mp.dps digits."""
    return max(4, int((mp.dps + 6) * math.log(10) / (sigma * math.log(2))) + 2)


def _prime_zeta_mobius(s, n, mu, log_zeta):
    """P(n s) = sum_k mu(k)/k * log zeta(k n s), for Re(n s) > 1.

    `log_zeta` maps an integer m to log zeta(m s) and is filled on demand,
    so callers that pass one dict for several n compute each log zeta(m s)
    once.  The point is k * (n s), with n s rounded at the caller's
    precision as in prime_zeta_hp(n s); the first (k, n) to reach m sets
    it.  `mu` must cover k <= _prime_zeta_kmax(n Re s).
    """
    z = n * s
    eps = mpf(10) ** (-(mp.dps + 5))
    kmax = _prime_zeta_kmax(float(z.real))
    with mp.extradps(10):
        total = mpf(0)
        for k in range(1, kmax + 1):
            if mu[k] == 0:
                continue
            m = k * n
            if m not in log_zeta:
                log_zeta[m] = mp.log(zeta_hp(k * z))
            term = log_zeta[m] * mp.mpf(int(mu[k])) / k
            total += term
            if k > 1 and abs(term) < eps:
                break
    return mpc(total)


def prime_zeta_hp(s):
    """P(s) via the Mobius-log series sum_k mu(k)/k * log zeta(ks)."""
    s = mpc(s)
    if s.real <= 1:
        raise ValueError("prime_zeta requires Re s > 1")
    mu = _mobius_upto(_prime_zeta_kmax(float(s.real)))
    return _prime_zeta_mobius(s, 1, mu, {})
