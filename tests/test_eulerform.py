"""Euler-factorization exponents (a, b) and series coefficients g_n,
derived from first principles and checked against closed forms."""

from fractions import Fraction

import pytest

from oracles import g_closed_form
from shortmean.eulerform import (
    DEFAULT_ORDER,
    euler_form,
    local_series,
    reconstruct_local_series,
)
from shortmean.functions import ALL_FNS, MultFnId
from shortmean.reports import json_report

EXPECTED_AB = {
    MultFnId.INV_TAU_SQ: (Fraction(1, 3), Fraction(-1, 45)),
    MultFnId.INV_TAU_SQUARED: (Fraction(1, 4), Fraction(-13, 288)),
    MultFnId.INV_TWO_OMEGA: (Fraction(1, 2), Fraction(1, 8)),
    MultFnId.INV_TWO_BIG_OMEGA: (Fraction(1, 2), Fraction(-1, 8)),
}

EXPECTED_G3 = {
    MultFnId.INV_TAU_SQ: Fraction(-64, 2835),
    MultFnId.INV_TWO_OMEGA: Fraction(1, 8),
    MultFnId.INV_TWO_BIG_OMEGA: Fraction(-1, 8),
}


def test_extracted_exponents():
    for fid, (a, b) in EXPECTED_AB.items():
        ef = euler_form(fid)
        assert (ef.a, ef.b) == (a, b)


def test_normalization_g1_g2_vanish():
    for fid in ALL_FNS:
        ef = euler_form(fid)
        assert ef.g_at(1) == 0
        assert ef.g_at(2) == 0
    ef = euler_form("inv_tau")
    assert ef.g_at(1) == 0 and ef.g_at(2) == 0


def test_g3_values():
    for fid, g3 in EXPECTED_G3.items():
        assert euler_form(fid).g_at(3) == g3


def test_inv_tau_form():
    ef = euler_form("inv_tau")
    assert (ef.a, ef.b) == (Fraction(1, 2), Fraction(-1, 24))


def test_closed_form_g_matches_series_extraction():
    for fid in (MultFnId.INV_TWO_OMEGA, MultFnId.INV_TWO_BIG_OMEGA):
        ef = euler_form(fid)
        for n in range(3, 13):
            assert ef.g_at(n) == g_closed_form(fid, n)


def test_closed_forms_are_opposite_parity_pair():
    # the two 2^{-(omega/Omega)} tails differ only in the sign pattern
    for n in range(3, 13):
        g3 = g_closed_form(MultFnId.INV_TWO_OMEGA, n)
        g4 = g_closed_form(MultFnId.INV_TWO_BIG_OMEGA, n)
        assert g3 == -g4


def test_reconstruction_identity_orders_3_to_40():
    # exp(a ln zeta_p + b ln zeta2_p + sum g_n t^n) reproduces the local
    # Dirichlet series of f at p, coefficient by coefficient
    for fid in (*ALL_FNS, "inv_tau"):
        for order in range(3, 41):
            rebuilt = reconstruct_local_series(euler_form(fid, order))
            assert rebuilt == local_series(fid, order), (fid, order)
            assert all(type(c) is Fraction for c in rebuilt), (fid, order)


def test_g_bound_one_sixth_beyond_smallest_cases():
    # |g_n| <= 1/6 holds for every derived coefficient with n >= 4
    for fid in ALL_FNS:
        ef = euler_form(fid, DEFAULT_ORDER)
        for n in range(4, DEFAULT_ORDER + 1):
            assert abs(ef.g_at(n)) <= Fraction(1, 6), (fid, n)


def test_euler_form_is_derived_once_per_order():
    ef = euler_form(MultFnId.INV_TWO_OMEGA, 13)
    assert euler_form(MultFnId.INV_TWO_OMEGA, 13) is ef
    assert euler_form(MultFnId.INV_TWO_OMEGA, order=13) is ef
    assert euler_form(MultFnId.INV_TWO_OMEGA, 14) is not ef


def test_discrepancy_flags_present():
    assert any("19/244" in f for f in euler_form(MultFnId.INV_TAU_SQUARED).flags)
    assert any(
        "sign" in f for f in euler_form(MultFnId.INV_TWO_OMEGA).flags
    )
    assert euler_form(MultFnId.INV_TAU_SQ).flags == ()
    assert euler_form(MultFnId.INV_TWO_BIG_OMEGA).flags == ()


def test_json_round_trip_rationals():
    import json

    d = json.loads(json_report(euler_form(MultFnId.INV_TAU_SQ)))
    assert d["a"] == "1/3"
    assert d["b"] == "-1/45"
    assert d["g"][2] == "-64/2835"  # g_3 is the third entry (g_1, g_2, g_3)


def test_invalid_closed_form_request():
    with pytest.raises(ValueError):
        g_closed_form(MultFnId.INV_TAU_SQ, 3)
