"""Numerical verification of the truncated Perron formula.

The partial sum Sigma_{n <= x} f(n) (x a half-integer, so no jump sits on
the boundary) is compared with

    (1/2 pi i) int_{b-iT}^{b+iT} F(s) x^s / s ds,      b = 1 + 1/ln x,

where F(s) = zeta(s)^a zeta(2s)^b_2 G(s) is the Dirichlet series of f.
The remainder should shrink like x ln x / T; the scan over T fits the
log-log slope and the single bounding constant.

Everything here runs in double precision: F is evaluated via the
vectorized Euler-Maclaurin zeta plus a finite sum of the Euler form's
ln G = sum_p sum_{n>=3} g_n p^{-ns}, whose truncation error (below
LNG_BUDGET = 1e-9 on the contour) is far below the Perron remainders
being measured.

The contour is cut into equal GL16 panels (quarter-height below
_REFINE_BELOW, unit-height above), so the rows of the (panels, 16) node
grid are shifts of one another by whole panel widths.  F_eval takes such
a grid whole: zeta(s), zeta(2s) and ln G go through the shifted-row
kernel `zeta._dirichlet_grid`.  Every block of such a grid has the same
row shifts and every row the same column offsets, so each of the three
sums builds two tables per call, one of the row shifts' exponentials and
one of the column offsets', and every block slices both.  The one extra
panel up to an off-grid T is a grid of one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eulerform import EulerForm, euler_form
from .functions import MultFnId
from .sieve import interval_sum, primes_up_to
from .zeta import T_MAX, _dirichlet_grid, zeta_many
from .zetachecks import _gl16

# ln G on the contour: g_n p^{-ns} over p <= _LNG_CUTOFF[n] for n = 3, 4
# and p <= _LNG_P0 for n >= 5, keeping the terms with p^{-1.05 n} >= 1e-18
# (n ln p <= _LNG_LAM_MAX); p = 2 sets the order _LNG_ORDER of g_n this
# needs.  For Re s >= 1.05 the dropped terms, largest at n = 3 and t = 0,
# stay within LNG_BUDGET of the full ln G.
LNG_BUDGET = 1e-9
_LNG_P0 = 61
_LNG_CUTOFF = {3: 2000, 4: 200}
_LNG_LAM_MAX = 18 * math.log(10) / 1.05
_LNG_ORDER = int(_LNG_LAM_MAX / math.log(2))  # 56

# Below this height, where |F x^s/s| is largest and most oscillatory, the
# contour is integrated on quarter-height panels instead of unit ones.
_REFINE_BELOW = 64.0


def ln_G_line(ef: EulerForm, s: np.ndarray) -> np.ndarray:
    """ln G at an array of points with Re s >= 1.05, double precision,
    within LNG_BUDGET of the full ln G.

    One `zeta._dirichlet_grid` call sums the Euler form's g_n p^{-ns}
    (coefficients g_n, frequencies n ln p) over the prime powers that
    _LNG_LAM_MAX and _LNG_CUTOFF keep, so `ef` must reach order
    _LNG_ORDER.  The rows of a 2-D s must be shifts of one another; any
    other s is one column.
    """
    s = np.asarray(s, dtype=complex)
    if np.min(s.real) < 1.05:
        raise ValueError("ln_G_line needs Re s >= 1.05")
    gn, lam = [], []
    for n in range(3, _LNG_ORDER + 1):
        lp = n * np.log(primes_up_to(_LNG_CUTOFF.get(n, _LNG_P0)).astype(float))
        lp = lp[lp <= _LNG_LAM_MAX]
        gn.append(np.full(len(lp), float(ef.g_at(n))))
        lam.append(lp)
    gn, lam = np.concatenate(gn), np.concatenate(lam)
    return _dirichlet_grid(gn, lam, s)


def F_eval(fid: MultFnId, s) -> np.ndarray:
    """F(s) = zeta(s)^a zeta(2s)^b exp(ln G(s)), principal branches.

    The rows of a 2-D s must be shifts of one another (see `zeta_many`);
    zeta(s), zeta(2s) and ln G all go through the shifted-row kernel.
    """
    ef = euler_form(fid, _LNG_ORDER)
    s = np.asarray(s, dtype=complex)
    a, b = float(ef.a), float(ef.b)
    return np.exp(a * np.log(zeta_many(s)) + b * np.log(zeta_many(2 * s))
                  + ln_G_line(ef, s))


def _gl16_partials(fid, x, b, lows, highs):
    """GL16 values of (1/pi) Re int F x^{b+it}/(b+it) dt over each [low, high].

    The panels must share one width, so that F_eval takes the (panels, 16)
    nodes as one grid whose rows are height shifts.
    """
    lows = np.asarray(lows, dtype=float)
    highs = np.asarray(highs, dtype=float)
    mid = (lows + highs) / 2.0
    half = (highs - lows) / 2.0
    glx, glw = _gl16()
    t = mid[:, None] + half[:, None] * glx[None, :]
    s = b + 1j * t
    integrand = F_eval(fid, s) * np.exp(s * math.log(x)) / s
    return (integrand.real @ glw) * half / math.pi


def _perron_integrals(fid, x, b, Ts):
    """(1/pi) Re int_0^T F x^{b+it}/(b+it) dt for each T of the sorted Ts.

    One sweep of whole GL16 panels, quarter-height below _REFINE_BELOW and
    unit-height from there to max(Ts), serves every T as a prefix sum; a T
    off that grid adds one GL16 panel from the last grid edge below it.
    """
    edges, parts = [0.0], []
    for lo, hi, panel in ((0.0, min(Ts[-1], _REFINE_BELOW), 0.25),
                          (_REFINE_BELOW, Ts[-1], 1.0)):
        uppers = lo + panel * np.arange(1, int((hi - lo) // panel) + 1)
        if len(uppers):
            parts.append(_gl16_partials(fid, x, b, uppers - panel, uppers))
            edges.extend(uppers)
    edges = np.array(edges)
    cum = np.concatenate([[0.0], np.cumsum(np.concatenate(parts))])
    Ts = np.asarray(Ts, dtype=float)
    k = np.searchsorted(edges, Ts, side="right") - 1
    integrals = cum[k]
    for i in np.flatnonzero(edges[k] < Ts):  # each tail is a one-row grid
        integrals[i] += _gl16_partials(fid, x, b, [edges[k[i]]], [Ts[i]])[0]
    return integrals


@dataclass
class PerronRun:
    fid: MultFnId
    x: float
    b: float
    T: float
    integral: float
    exact: float
    abs_err: float

    @property
    def bound(self):
        return self.x * math.log(self.x) / self.T

    def to_json_dict(self):
        return {
            "fid": str(self.fid),
            "x": self.x,
            "b": self.b,
            "T": self.T,
            "integral": self.integral,
            "exact": self.exact,
            "abs_err": self.abs_err,
            "bound": self.bound,
            "ratio": self.abs_err / self.bound,
        }


def _perron_setup(fid, x, Ts):
    """(b, exact sum to x) after checking x and the sorted Ts.

    x must be a half-integer >= 10.5, and 50 <= T <= T_MAX / 2, since
    zeta(2s) is evaluated at height 2T.
    """
    if (not math.isfinite(x) or x < 10.5
            or (2 * x) != int(2 * x) or int(2 * x) % 2 == 0):
        raise ValueError("x must be a half-integer N + 1/2 with x >= 10.5")
    if Ts[0] < 50:
        raise ValueError("need T >= 50")
    if Ts[-1] > T_MAX / 2:
        raise ValueError(
            f"need T <= {T_MAX / 2:g}: zeta(2s) is evaluated at height 2T")
    return 1 + 1 / math.log(x), float(interval_sum(fid, 0, int(x)))


def perron_truncated(fid: MultFnId, x: float, T: float) -> PerronRun:
    """One truncated-Perron evaluation; quadrature on unit-height panels,
    quarter-height below _REFINE_BELOW."""
    b, exact = _perron_setup(fid, x, [T])
    total = float(_perron_integrals(fid, x, b, [float(T)])[0])
    return PerronRun(
        fid=fid, x=x, b=b, T=T, integral=total,
        exact=exact, abs_err=abs(total - exact),
    )


def perron_error_scan(fid: MultFnId, x: float, Ts) -> list:
    """Rows (T, abs_err, bound, ratio) for increasing T, one contour pass.

    The integral for every T in the scan is a prefix sum of the same panel
    partials (`_perron_integrals`), so the whole scan costs one sweep to
    max(Ts).
    """
    Ts = sorted(float(T) for T in Ts)
    b, exact = _perron_setup(fid, x, Ts)
    rows = []
    for T, integral in zip(Ts, _perron_integrals(fid, x, b, Ts)):
        err = abs(float(integral) - exact)
        bound = x * math.log(x) / T
        rows.append((T, err, bound, err / bound))
    return rows


def fit_loglog_slope(rows) -> float:
    """Least-squares slope of ln(abs_err) against ln(T) over scan rows.

    A slope needs at least two distinct T; fewer is a ValueError.
    """
    if len({r[0] for r in rows}) < 2:
        raise ValueError("a slope needs at least two distinct T")
    lt = np.log([r[0] for r in rows])
    le = np.log([max(r[1], 1e-300) for r in rows])
    A = np.vstack([lt, np.ones_like(lt)]).T
    slope, _ = np.linalg.lstsq(A, le, rcond=None)[0]
    return float(slope)
