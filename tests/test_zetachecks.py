"""Second moment, Gamma-tail bound, growth envelope, arc bounds."""

import math
from fractions import Fraction

import pytest
from mpmath import mp
from numpy.polynomial.legendre import legval

from oracles import growth_envelope
from shortmean.zeta import T_MAX
from shortmean.zetachecks import (
    _gl16,
    _null16,
    GROWTH_C,
    arc_bounds_check,
    gamma_tail_check,
    second_moment,
)


def test_second_moment_positive_and_growing():
    m100 = second_moment(100.0)
    m200 = second_moment(200.0)
    assert 0 < m100 < m200


def test_second_moment_ratio_window():
    r100 = second_moment(100.0) / (100.0 * math.log(100.0))
    r1000 = second_moment(1000.0) / (1000.0 * math.log(1000.0))
    assert 0.3 < r100 < 1.2
    assert r1000 < 1.2
    assert abs(r1000 - r100) < 0.3


def test_second_moment_matches_quadrature_oracle():
    # classical refinement: T ln(T/2pi) + (2 gamma - 1) T + O(T^{1/2+eps})
    T = 200.0
    measured = second_moment(T)
    predicted = T * math.log(T / (2 * math.pi)) + (2 * 0.5772156649 - 1) * T
    assert measured == pytest.approx(predicted, rel=0.05)


def test_second_moment_independent_panel_width():
    a = second_moment(50.0, panel_width=0.25)
    b = second_moment(50.0, panel_width=0.125)
    assert a == pytest.approx(b, rel=1e-8)


def _spy_zeta_many(monkeypatch):
    """Record the shape of every zeta_many call made by zetachecks."""
    import shortmean.zetachecks as zc

    shapes = []
    zeta_many = zc.zeta_many

    def spy(s):
        shapes.append(s.shape)
        return zeta_many(s)

    monkeypatch.setattr(zc, "zeta_many", spy)
    return shapes


def test_second_moment_halving_rounds_on_grid(monkeypatch):
    # 4-wide panels fail the null-rule test, so halved panels are
    # re-integrated; every round is one zeta_many call on a 2-D grid of
    # GL16 rows, and a later round has fewer rows than the first
    shapes = _spy_zeta_many(monkeypatch)
    halved = second_moment(50.0, panel_width=4.0)
    assert len(shapes) >= 2 and all(len(sh) == 2 for sh in shapes)
    assert all(sh[1] == 16 for sh in shapes)
    assert any(sh[0] < shapes[0][0] for sh in shapes[1:])
    monkeypatch.undo()
    assert halved == pytest.approx(second_moment(50.0), rel=1e-8)


def test_second_moment_sweep_matches_per_height_calls():
    Ts = [2000.0, 100.0, 1000.0, 100.0, 123.4]
    swept = second_moment(Ts)
    assert isinstance(swept, list) and len(swept) == len(Ts)
    for T, m in zip(Ts, swept):
        assert m == pytest.approx(second_moment(T), rel=1e-13), T


def test_second_moment_sweep_integrates_each_gap_once(monkeypatch):
    # [0, 2000] in 8000 panels of 16 nodes, not 12400 panels for three scans
    shapes = _spy_zeta_many(monkeypatch)
    second_moment((100.0, 1000.0, 2000.0))
    assert sum(math.prod(sh) for sh in shapes) == 128_000


def test_null_rule_degree():
    # zero on Legendre P_0..P_7 to rounding, nonzero on P_8
    x, _ = _gl16()
    for k in range(9):
        got = legval(x, [0] * k + [1]) @ _null16()
        if k < 8:
            assert abs(got) < 1e-14, k
        else:
            assert abs(got) > 1e-3


def test_second_moment_domain(monkeypatch):
    with pytest.raises(ValueError):
        second_moment(5.0)
    shapes = _spy_zeta_many(monkeypatch)
    for Ts in ([100.0, 5.0], [100.0, 2 * T_MAX], [3e4, 200.0], []):
        with pytest.raises(ValueError):
            second_moment(Ts)
    assert shapes == []


def test_gamma_tail_grid_holds():
    for lam in (2.0, 5.0, 10.0):
        for k in (1, 2, 3):
            for g in (Fraction(1, 3), Fraction(1, 4), Fraction(1, 2)):
                lhs, rhs, holds = gamma_tail_check(lam, k, g)
                assert holds, (lam, k, g, lhs, rhs)
                assert lhs > 0


def test_gamma_tail_quadrature_against_mpmath():
    lhs, _, _ = gamma_tail_check(5.0, 2, Fraction(1, 4))
    ref = float(mp.gammainc(2 - mp.mpf(1) / 4 + 1, 5.0))
    assert lhs == pytest.approx(ref, rel=1e-9)


def test_gamma_tail_domain_guards():
    with pytest.raises(ValueError):
        gamma_tail_check(0.5, 1, Fraction(1, 3))
    with pytest.raises(ValueError):
        gamma_tail_check(2.0, 1, Fraction(3, 2))
    with pytest.raises(ValueError):
        gamma_tail_check(2.0, 0, Fraction(1, 3))


def test_growth_envelope_defaults():
    rep = growth_envelope()
    assert rep.c == GROWTH_C == Fraction(64, 205)
    assert math.isfinite(rep.fittedK) and rep.fittedK > 0
    sigmas = {s for s, *_ in rep.samples}
    ts = {t for _, t, *_ in rep.samples}
    assert min(sigmas) == 0.5 and max(sigmas) == 1.0
    assert min(ts) == 10.0 and max(ts) == pytest.approx(1e4)


def test_growth_envelope_single_points():
    rep = growth_envelope(sigmas=[1.0], ts=[100.0])
    (sigma, t, absz, env, ratio) = rep.samples[0]
    assert ratio < 1.0  # |zeta(1+100i)| well under ln 100
    rep2 = growth_envelope(sigmas=[0.5], ts=[100.0])
    assert math.isfinite(rep2.fittedK)


def test_growth_envelope_rejects_bad_grid():
    with pytest.raises(ValueError):
        growth_envelope(sigmas=[], ts=[100.0])
    with pytest.raises(ValueError):
        growth_envelope(sigmas=[0.4], ts=[100.0])


def test_growth_envelope_csv_shape():
    rep = growth_envelope(sigmas=[0.5, 1.0], ts=[10.0, 100.0])
    rows = list(rep.csv_rows())
    assert rows[0] == ("sigma", "t", "abs_zeta", "envelope", "ratio")
    assert len(rows) == 5


def test_arc_bounds():
    mz, mz2 = arc_bounds_check(0.02)
    assert mz <= 3.2
    assert mz2 >= 0.4
    mz, mz2 = arc_bounds_check(0.05)
    assert mz > 0 and mz2 > 0


def test_arc_bounds_domain():
    with pytest.raises(ValueError):
        arc_bounds_check(0.2)
