"""Exact rational power series as coefficient lists: product, log/exp,
the a ln(1-X) + b ln(1-X^2) helper, and round trips."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shortmean.powerseries import (
    exp_coeffs,
    log_coeffs,
    log_one_minus_coeffs,
    mul_coeffs,
)

ORDER = 8


def series(coeffs, order=ORDER):
    full = list(coeffs) + [0] * (order + 1 - len(coeffs))
    return [Fraction(c) for c in full]


def test_mul_truncated_convolution():
    # (1 + x)(1 - x) = 1 - x^2
    c = mul_coeffs(series([1, 1]), series([1, -1]))
    assert len(c) == ORDER + 1
    assert c[:4] == [1, 0, -1, 0]


def test_log_of_geometric_series():
    # log(1/(1-x)) = sum x^k / k
    lg = log_coeffs(series([1] * (ORDER + 1)))
    assert lg[0] == 0
    for k in range(1, ORDER + 1):
        assert lg[k] == Fraction(1, k)


def test_log_one_minus_coeffs():
    # ln(1-X) = -sum X^k/k and ln(1-X^2) = -sum X^{2k}/k, scaled and summed
    a, b = Fraction(2, 3), Fraction(-5, 7)
    c = log_one_minus_coeffs(a, b, ORDER)
    assert len(c) == ORDER + 1 and c[0] == 0
    for k in range(1, ORDER + 1):
        l2 = Fraction(-2, k) if k % 2 == 0 else 0
        assert c[k] == a * Fraction(-1, k) + b * l2
    # it is the log of (1 - X)^a (1 - X^2)^b for integer exponents
    direct = mul_coeffs(series([1, -1]), series([1, -1]))
    direct = mul_coeffs(direct, series([1, 0, -1]))
    assert exp_coeffs(log_one_minus_coeffs(2, 1, ORDER)) == direct


def test_exp_matches_exponential_coefficients():
    # exp(x) has coefficients 1/k!
    e = exp_coeffs(series([0, 1]))
    fact = 1
    for k in range(ORDER + 1):
        fact *= max(k, 1)
        assert e[k] == Fraction(1, fact)


def test_pow_rational_exponent():
    # (1-x)^{-1/2}: central-binomial coefficients binom(2k,k)/4^k
    r = Fraction(-1, 2)
    s = exp_coeffs([r * x for x in log_coeffs(series([1, -1]))])
    for k in range(ORDER + 1):
        assert s[k] == Fraction(comb(2 * k, k), 4**k)


def test_log_requires_unit_constant_term():
    with pytest.raises(ValueError):
        log_coeffs(series([0, 1]))


def test_exp_requires_zero_constant_term():
    with pytest.raises(ValueError):
        exp_coeffs(series([1, 1]))


@st.composite
def unit_series(draw):
    return [Fraction(1)] + [
        Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
        for _ in range(ORDER)
    ]


@settings(max_examples=60, deadline=None)
@given(unit_series())
def test_exp_log_round_trip(s):
    assert exp_coeffs(log_coeffs(s)) == s


@settings(max_examples=60, deadline=None)
@given(unit_series(), unit_series())
def test_log_turns_products_into_sums(a, b):
    lhs = log_coeffs(mul_coeffs(a, b))
    rhs = [x + y for x, y in zip(log_coeffs(a), log_coeffs(b))]
    assert lhs == rhs
