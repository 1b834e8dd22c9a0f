"""Truncated formal power series with exact rational coefficients.

The formal variable stands for p^{-s}, so a series [c0, c1, c2, ...]
represents c0 + c1 p^{-s} + c2 p^{-2s} + ...  All arithmetic is exact
(fractions.Fraction) and closed under truncation at a fixed order.

The product, log and exp recurrences are module functions on coefficient
lists over any field, so the Taylor series in u of `constants.pi_taylor`,
its error majorants and the zeta series of `zeta.zeta_series_hp` (mpf
coefficients) share them.
"""

from __future__ import annotations

from fractions import Fraction


class PowerSeriesQ:
    """Power series truncated at order M, coefficients c0..cM."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = [Fraction(c) for c in coeffs]
        if not self.coeffs:
            raise ValueError("need at least the constant coefficient")

    @property
    def order(self):
        return len(self.coeffs) - 1

    def __eq__(self, other):
        if not isinstance(other, PowerSeriesQ):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        return f"PowerSeriesQ({self.coeffs!r})"

    def __getitem__(self, n):
        return self.coeffs[n]

    def _check_same_order(self, other):
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    def __add__(self, other):
        self._check_same_order(other)
        return PowerSeriesQ([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def scale(self, r):
        r = Fraction(r)
        return PowerSeriesQ([r * a for a in self.coeffs])

    def __mul__(self, other):
        self._check_same_order(other)
        return PowerSeriesQ(mul_coeffs(self.coeffs, other.coeffs))

    def log(self):
        """Exact truncated logarithm; requires constant coefficient 1."""
        if self.coeffs[0] != 1:
            raise ValueError("log requires constant coefficient 1")
        return PowerSeriesQ(log_coeffs(self.coeffs))

    def exp(self):
        """Exact truncated exponential; requires constant coefficient 0."""
        if self.coeffs[0] != 0:
            raise ValueError("exp requires constant coefficient 0")
        return PowerSeriesQ(exp_coeffs(self.coeffs))

    def pow(self, r):
        """P^r for rational r, requires constant coefficient 1."""
        if self.coeffs[0] != 1:
            raise ValueError("pow requires constant coefficient 1")
        return self.log().scale(Fraction(r)).exp()


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


def log_one_minus_x(order):
    """ln(1 - X) = -sum_{k>=1} X^k / k."""
    c = [Fraction(0)] * (order + 1)
    for k in range(1, order + 1):
        c[k] = Fraction(-1, k)
    return PowerSeriesQ(c)


def log_one_minus_x2(order):
    """ln(1 - X^2) = -sum_{k>=1} X^{2k} / k."""
    c = [Fraction(0)] * (order + 1)
    for k in range(1, order // 2 + 1):
        c[2 * k] = Fraction(-1, k)
    return PowerSeriesQ(c)
