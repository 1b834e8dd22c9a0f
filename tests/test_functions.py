"""Factorization and point values of the four multiplicative functions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import Factorization, f_value, factorize
from shortmean.functions import ALL_FNS, MultFnId, local_value


def test_factorize_small_samples():
    assert factorize(1).factors == ()
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(97).factors == ((97, 1),)
    assert factorize(2**10).factors == ((2, 10),)


def test_factorize_large_semiprime():
    n = 1000003 * 1000033
    assert factorize(n).factors == ((1000003, 1), (1000033, 1))


def test_factorization_validates_input():
    with pytest.raises(ValueError):
        Factorization(12, ((2, 1), (3, 1)))  # product mismatch
    with pytest.raises(ValueError):
        Factorization(6, ((3, 1), (2, 1)))  # unsorted primes


def test_omega_counts():
    f = factorize(360)  # 2^3 3^2 5
    assert f.omega == 3
    assert f.big_omega == 6


def test_local_values_prime_power():
    # at p^k: tau(p^{2k}) = 2k+1, tau(p^k) = k+1
    for k in range(1, 6):
        assert local_value(MultFnId.INV_TAU_SQ, k) == Fraction(1, 2 * k + 1)
        assert local_value(MultFnId.INV_TAU_SQUARED, k) == Fraction(1, (k + 1) ** 2)
        assert local_value(MultFnId.INV_TWO_OMEGA, k) == Fraction(1, 2)
        assert local_value(MultFnId.INV_TWO_BIG_OMEGA, k) == Fraction(1, 2**k)
        assert local_value("inv_tau", k) == Fraction(1, k + 1)


def test_f_value_at_one_is_one():
    one = factorize(1)
    for fid in ALL_FNS:
        assert f_value(fid, one) == 1


def test_f_value_samples():
    f12 = factorize(12)  # tau(144) = 15, tau(12) = 6, omega 2, Omega 3
    assert f_value(MultFnId.INV_TAU_SQ, f12) == Fraction(1, 15)
    assert f_value(MultFnId.INV_TAU_SQUARED, f12) == Fraction(1, 36)
    assert f_value(MultFnId.INV_TWO_OMEGA, f12) == Fraction(1, 4)
    assert f_value(MultFnId.INV_TWO_BIG_OMEGA, f12) == Fraction(1, 8)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5000), st.integers(1, 5000))
def test_multiplicativity_on_coprime_pairs(m, n):
    from math import gcd

    if gcd(m, n) != 1:
        return
    fmn = factorize(m * n)
    fm, fn = factorize(m), factorize(n)
    for fid in ALL_FNS:
        assert f_value(fid, fmn) == f_value(fid, fm) * f_value(fid, fn)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 10**6))
def test_factorize_round_trip(n):
    fac = factorize(n)
    prod = 1
    for p, e in fac.factors:
        prod *= p**e
    assert prod == n


def test_value_orderings():
    # 2^{-Omega} <= 2^{-omega} and 1/tau(n)^2 <= 1/tau(n^2) pointwise
    for n in range(1, 2000):
        fac = factorize(n)
        assert f_value(MultFnId.INV_TWO_BIG_OMEGA, fac) <= f_value(
            MultFnId.INV_TWO_OMEGA, fac
        )
        assert f_value(MultFnId.INV_TAU_SQUARED, fac) <= f_value(
            MultFnId.INV_TAU_SQ, fac
        )
