"""Desk-scale numerical checks of the zeta estimates used by the
short-interval machinery: the critical-line second moment, the incomplete
Gamma tail bound and the small-arc bounds around s = 1/2.  GROWTH_C is
the subconvex growth exponent constant c = 64/205 of the admissible
intervals (`asymptotics.admissible_alpha`).

All scans run in double precision through `zeta_many`, whose direct
sums all go through the shifted-row kernel `zeta._dirichlet_grid`.  The
second moment is one sweep over the gaps between the requested heights:
16-node Gauss-Legendre on equal panels, with adaptive halving where a
null rule on the same 16 values estimates an error above 1e-4 relative.
Every round of a gap has panels of one width, so its nodes form one grid
whose rows are height shifts: one kernel call, with two tables of
exponentials, one of the column offsets within a panel that every block
slices and one of the row shifts that every block sharing the first
block's shifts slices.  The arc samples go in as one column.

The one 16-node rule, `_gl16`, also serves the Perron panels; it and the
null rule are built on first use, so commands that integrate nothing
never build them.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .zeta import T_MAX, zeta_many

GROWTH_C = Fraction(64, 205)


@functools.cache
def _gl16():
    """The 16-node Gauss-Legendre nodes and weights on [-1, 1], read-only.

    The one rule of the second moment, the Gamma tail and the Perron
    panels.  Built on first use, not at import: the first `leggauss` call
    in a process (an eigenvalue solve) adds about 1.7 MiB of resident
    memory, which commands that never integrate need not carry.
    """
    x, w = np.polynomial.legendre.leggauss(16)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@functools.cache
def _null16():
    """The GL16 weights minus the interpolatory weights of the 8
    even-indexed GL16 nodes (solved from int P_k = 2 [k == 0], k < 8),
    read-only.

    Zero on P_0..P_7, so on a panel's 16 values it estimates the error of
    that degree-7 rule (Berntsen & Espelid, ACM TOMS 17, 1991).  Built on
    first use, as `_gl16` is: the first LAPACK solve in a process adds
    about 0.25 MiB of resident memory.
    """
    x, w = _gl16()
    null = w.copy()
    null[::2] -= np.linalg.solve(
        np.polynomial.legendre.legvander(x[::2], 7).T, 2.0 * np.eye(8)[0])
    null.flags.writeable = False
    return null


def _panel_values(lows, width):
    """Critical-line |zeta|^2 at the mapped GL16 nodes of every panel,
    shape (npanel, 16).  The panels share one width, so the points go to
    zeta_many as one grid of shifted rows."""
    x, _ = _gl16()
    t = lows[:, None] + (x[None, :] + 1.0) * (width / 2.0)
    return np.abs(zeta_many(0.5 + 1j * t)) ** 2


_MOMENT_TOL = 1e-4
_MAX_HALVINGS = 6


def _gap_moment(lo, hi, panel_width):
    """int_lo^hi |zeta(1/2+it)|^2 dt on ceil((hi-lo)/panel_width) equal
    panels, halving those whose null-rule estimate exceeds _MOMENT_TOL
    relative (up to _MAX_HALVINGS rounds)."""
    npanel = int(math.ceil((hi - lo) / panel_width))
    width = (hi - lo) / npanel
    lows = lo + np.arange(npanel) * width
    _, w = _gl16()
    null = _null16()
    total = 0.0
    rounds = 0
    while True:
        half = width / 2.0
        v = _panel_values(lows, width)
        est = v @ (w * half)
        err = np.abs(v @ null) * half
        bad = err > _MOMENT_TOL * np.maximum(np.abs(est), 1e-30)
        total += float(np.sum(est[~bad]))
        if not bad.any():
            break
        rounds += 1
        if rounds > _MAX_HALVINGS:
            # accept the GL16 estimate on the stubborn panels
            total += float(np.sum(est[bad]))
            break
        lows = np.repeat(lows[bad], 2)
        lows[1::2] += half
        width = half
    return total


def second_moment(T, panel_width=0.25):
    """int_0^T |zeta(1/2+it)|^2 dt by GL16 quadrature on panels <= 0.25 wide.

    T is one height (returns a float) or a sequence of heights (returns a
    list in the order given).  Each gap between consecutive sorted
    distinct heights, from 0 up, is integrated once on equal panels
    (`_gap_moment`), and the moments are the gaps' prefix sums; a single
    T gets the panels of [0, T] alone.  The error estimate of a panel is
    the null rule `_null16` on its 16 values.  Every height must lie in
    [10, T_MAX], the range in which `zeta_many` states its accuracy, and
    is checked before any zeta value.
    """
    heights = [float(t) for t in np.atleast_1d(T)]
    if not heights:
        raise ValueError("need at least one T")
    for t in heights:
        if not t >= 10:
            raise ValueError("need T >= 10")
        if t > T_MAX:
            raise ValueError(f"need T <= {T_MAX:g}")
    moment = {}
    lo = total = 0.0
    for hi in sorted(set(heights)):
        total += _gap_moment(lo, hi, panel_width)
        moment[hi] = total
        lo = hi
    if np.ndim(T) == 0:
        return moment[heights[0]]
    return [moment[t] for t in heights]


def gamma_tail_check(lam: float, k: int, gamma: Fraction):
    """Check int_lam^inf w^{k-gamma} e^{-w} dw  <  e * k! * lam^{k-gamma} e^{-lam}.

    Returns (lhs, rhs, holds).  The integral is GL quadrature over
    [lam, lam+45] plus an analytic tail bound for the rest.
    """
    gamma = Fraction(gamma)
    if not (lam > 1 and 0 < gamma < 1 and k >= 1):
        raise ValueError("need lam > 1, 0 < gamma < 1, k >= 1")
    expo = k - float(gamma)
    cut = lam + 45.0
    x, w = _gl16()
    npanel = 90  # half-unit panels over [lam, cut]
    width = (cut - lam) / npanel
    lows = lam + np.arange(npanel) * width
    t = lows[:, None] + (x[None, :] + 1.0) * (width / 2.0)
    lhs = float(np.sum(t**expo * np.exp(-t) @ (w * width / 2.0)))
    # beyond `cut`, w^{expo} <= cut^{expo} e^{(w-cut) expo/cut}, so the tail
    # is below cut^{expo} e^{-cut} / (1 - expo/cut)
    tail = cut**expo * math.exp(-cut) / (1.0 - expo / cut)
    lhs += tail
    rhs = math.e * math.factorial(k) * lam**expo * math.exp(-lam)
    return lhs, rhs, bool(lhs < rhs)


_ARC_ANGLES = 64


def arc_bounds_check(delta: float):
    """Samples s = 1/2 + delta e^{i phi} at _ARC_ANGLES angles phi in
    [-pi/2, pi/2].

    Returns (maxZeta, minZeta2) = (max |zeta(s)|, min |zeta(2s)| * delta).
    The interesting regime has max <= 3.2 and min >= 0.4; callers report
    rather than assert, since the underlying bound is asymptotic.
    """
    if not 0 < delta <= 0.05:
        raise ValueError("need 0 < delta <= 0.05")
    phi = np.linspace(-math.pi / 2, math.pi / 2, _ARC_ANGLES)
    s = 0.5 + delta * np.exp(1j * phi)
    max_zeta = float(np.max(np.abs(zeta_many(s))))
    min_zeta2 = float(np.min(np.abs(zeta_many(2 * s))) * delta)
    return max_zeta, min_zeta2
