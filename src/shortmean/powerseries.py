"""Truncated formal power series as plain coefficient lists.

A series is the list [c0, c1, ..., cM] of its coefficients through
order M; in `eulerform` the variable stands for X = p^{-s}, and in
`constants.pi_taylor` and `zeta.zeta_series_hp` for u.  The product, log
and exp recurrences work over any field: exact over fractions.Fraction
for the Euler forms, at working precision over mpf for the Taylor series
in u and their error majorants.  Every result is truncated at the order
of its input.
"""

from __future__ import annotations

from fractions import Fraction


def mul_coeffs(a, b):
    """Coefficients of the product of two series of one order, truncated."""
    M = len(a) - 1
    out = [a[0] * 0] * (M + 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j in range(M + 1 - i):
            if b[j]:
                out[i + j] += ai * b[j]
    return out


def log_coeffs(c):
    """Coefficients of log P for P with constant coefficient c[0] = 1.

    Uses the recurrence n*l_n = n*c_n - sum_{k=1}^{n-1} k*l_k*c_{n-k}
    from (log P)' = P'/P; l_0 = 0.
    """
    if c[0] != 1:
        raise ValueError("log requires constant coefficient 1")
    M = len(c) - 1
    l = [c[0] * 0] * (M + 1)
    for n in range(1, M + 1):
        acc = n * c[n]
        for k in range(1, n):
            acc -= k * l[k] * c[n - k]
        l[n] = acc / n
    return l


def exp_coeffs(l):
    """Coefficients of exp L for L with constant coefficient l[0] = 0.

    Uses n*e_n = sum_{k=1}^{n} k*l_k*e_{n-k} from (exp L)' = L' exp L.
    """
    if l[0] != 0:
        raise ValueError("exp requires constant coefficient 0")
    M = len(l) - 1
    zero = l[0] * 0
    e = [zero] * (M + 1)
    e[0] = zero + 1
    for n in range(1, M + 1):
        acc = zero
        for k in range(1, n + 1):
            if l[k]:
                acc += k * l[k] * e[n - k]
        e[n] = acc / n
    return e


def exp_linear_coeffs(scale, lam, N):
    """Coefficients scale * lam^j / j!, j = 0..N, of scale * e^{lam u}."""
    out = [scale]
    for j in range(1, N + 1):
        out.append(out[-1] * lam / j)
    return out


def log_one_minus_coeffs(a, b, order):
    """Coefficients of a ln(1 - X) + b ln(1 - X^2) through X^order,

        -(a + [2 | k] 2b) / k  at X^k, k >= 1,

    the log of (1 - X)^a (1 - X^2)^b: minus the log of the local factor
    of zeta(s)^a zeta(2s)^b at X = p^{-s}.
    """
    return [Fraction(0)] + [
        -(a + (2 * b if k % 2 == 0 else 0)) / Fraction(k)
        for k in range(1, order + 1)
    ]
