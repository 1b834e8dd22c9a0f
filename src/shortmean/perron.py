"""Numerical verification of the truncated Perron formula.

The partial sum Sigma_{n <= x} f(n) (x a half-integer, so no jump sits on
the boundary) is compared with

    (1/2 pi i) int_{b-iT}^{b+iT} F(s) x^s / s ds,      b = 1 + 1/ln x,

where F(s) = zeta(s)^a zeta(2s)^b_2 G(s) is the Dirichlet series of f.
The remainder should shrink like x ln x / T; the scan over T fits the
log-log slope and the single bounding constant.

Everything here runs in double precision: F is evaluated via the
vectorized Euler-Maclaurin zeta plus a finite-prime form of ln G whose
truncation error (< 1e-9 on the contour) is far below the Perron
remainders being measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import ln_G_p_np
from .eulerform import EulerForm, euler_form
from .functions import MultFnId
from .sieve import interval_sum, primes_up_to
from .zeta import zeta_many

# Gauss-Legendre 16 on [-1, 1]
_GLX, _GLW = np.polynomial.legendre.leggauss(16)

# ln G on the contour: closed-form local factors for p <= _LNG_P0, then the
# n-series over prime tails; cutoffs sized so the dropped mass is < 1e-9
# for Re s >= 1.05.
_LNG_P0 = 61
_LNG_CUTOFF = {3: 2000, 4: 200, 5: 61, 6: 61}

# Below this height, where |F x^s/s| is largest and most oscillatory, the
# contour is integrated on quarter-height panels instead of unit ones.
_REFINE_BELOW = 64.0


def ln_G_line(ef: EulerForm, s: np.ndarray) -> np.ndarray:
    """ln G at an array of points with Re s >= 1.05, double precision."""
    s = np.asarray(s, dtype=complex)
    if np.min(s.real) < 1.05:
        raise ValueError("ln_G_line needs Re s >= 1.05")
    out = np.zeros(s.shape, dtype=complex)
    for p in primes_up_to(_LNG_P0):
        out += ln_G_p_np(ef, np.exp(-s * math.log(int(p))))
    for n, cutoff in _LNG_CUTOFF.items():
        gn = float(ef.g_at(n))
        if gn == 0:
            continue
        tail_primes = [int(p) for p in primes_up_to(cutoff) if p > _LNG_P0]
        if not tail_primes:
            continue
        lp = np.log(np.array(tail_primes, dtype=float))
        out += gn * np.exp(-n * s[..., None] * lp).sum(axis=-1)
    return out


def F_eval(fid: MultFnId, s) -> np.ndarray:
    """F(s) = zeta(s)^a zeta(2s)^b exp(ln G(s)), principal branches."""
    ef = euler_form(fid)
    s = np.asarray(s, dtype=complex)
    a, b = float(ef.a), float(ef.b)
    z1 = zeta_many(s.ravel()).reshape(s.shape)
    z2 = zeta_many(2 * s.ravel()).reshape(s.shape)
    return (
        np.exp(a * np.log(z1) + b * np.log(z2) + ln_G_line(ef, s))
    )


def _gl16_partials(fid, x, b, lows, highs):
    """GL16 values of (1/pi) Re int F x^{b+it}/(b+it) dt over each [low, high]."""
    lows = np.asarray(lows, dtype=float)
    highs = np.asarray(highs, dtype=float)
    mid = (lows + highs) / 2.0
    half = (highs - lows) / 2.0
    partials = np.empty(len(lows))
    block = 2048  # keeps the (points x primes) ln G temporaries modest
    for i in range(0, len(lows), block):
        t = mid[i:i + block, None] + half[i:i + block, None] * _GLX[None, :]
        s = b + 1j * t
        integrand = F_eval(fid, s) * np.exp(s * math.log(x)) / s
        partials[i:i + block] = (integrand.real @ _GLW) * half[i:i + block]
    return partials / math.pi


def _panel_partials(fid, x, b, T, panel=1.0):
    """Per-panel GL16 contributions to (1/pi) Re int_0^T F x^{b+it}/(b+it) dt.

    Returns (uppers, partials): cumulative-sum-ready panel values with panel
    boundaries at multiples of `panel` (last panel clipped at T).
    """
    edges = [0.0]
    while edges[-1] < T:
        edges.append(min(edges[-1] + panel, T))
    highs = np.array(edges[1:])
    return highs, _gl16_partials(fid, x, b, edges[:-1], highs)


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


def _check_x(x):
    if x < 10.5 or (2 * x) != int(2 * x) or int(2 * x) % 2 == 0:
        raise ValueError("x must be a half-integer N + 1/2 with x >= 10.5")


def perron_truncated(fid: MultFnId, x: float, T: float) -> PerronRun:
    """One truncated-Perron evaluation; quadrature on unit-height panels,
    quarter-height below _REFINE_BELOW."""
    _check_x(x)
    if T < 50:
        raise ValueError("need T >= 50")
    b = 1 + 1 / math.log(x)
    lo_T = min(_REFINE_BELOW, T)
    _, fine = _panel_partials(fid, x, b, lo_T, panel=0.25)
    total = float(np.sum(fine))
    if T > lo_T:
        _, coarse = _panel_partials(fid, x, b, T, panel=1.0)
        n_skip = int(round(lo_T))
        total += float(np.sum(coarse[n_skip:]))
    exact = float(interval_sum(fid, 0, int(x)).approx)
    return PerronRun(
        fid=fid, x=x, b=b, T=T, integral=total,
        exact=exact, abs_err=abs(total - exact),
    )


def perron_error_scan(fid: MultFnId, x: float, Ts) -> list:
    """Rows (T, abs_err, bound, ratio) for increasing T, one contour pass.

    The integral for every T in the scan is a prefix sum of the same panel
    partials, so the whole scan costs one sweep to max(Ts).  A T off that
    grid (quarter steps below _REFINE_BELOW, unit steps above) adds one
    GL16 panel from the last grid edge below it up to T.
    """
    _check_x(x)
    Ts = sorted(float(T) for T in Ts)
    if Ts[0] < 50:
        raise ValueError("need T >= 50")
    b = 1 + 1 / math.log(x)
    exact = float(interval_sum(fid, 0, int(x)).approx)
    fine_uppers, fine = _panel_partials(fid, x, b, _REFINE_BELOW, panel=0.25)
    head = float(np.sum(fine))
    uppers, coarse = _panel_partials(fid, x, b, Ts[-1], panel=1.0)
    cum = np.cumsum(coarse)
    n_fine_units = int(_REFINE_BELOW)
    edges, integrals = [], []  # last grid edge <= T, and the integral to it
    for T in Ts:
        if T <= _REFINE_BELOW:
            k = int(np.searchsorted(fine_uppers, T, side="right"))
            edges.append(fine_uppers[k - 1])
            integrals.append(float(np.sum(fine[:k])))
        else:
            k = int(np.searchsorted(uppers, T, side="right")) - 1
            edges.append(uppers[k])
            integrals.append(head + float(cum[k] - cum[n_fine_units - 1]))
    off = [i for i, T in enumerate(Ts) if edges[i] < T]
    if off:
        tails = _gl16_partials(fid, x, b, [edges[i] for i in off],
                               [Ts[i] for i in off])
        for i, tail in zip(off, tails):
            integrals[i] += float(tail)
    rows = []
    for T, integral in zip(Ts, integrals):
        err = abs(integral - exact)
        bound = x * math.log(x) / T
        rows.append((T, err, bound, err / bound))
    return rows


def fit_loglog_slope(rows) -> float:
    """Least-squares slope of ln(abs_err) against ln(T) over scan rows."""
    lt = np.log([r[0] for r in rows])
    le = np.log([max(r[1], 1e-300) for r in rows])
    A = np.vstack([lt, np.ones_like(lt)]).T
    slope, _ = np.linalg.lstsq(A, le, rcond=None)[0]
    return float(slope)
