"""Desk-scale numerical checks of the zeta estimates used by the
short-interval machinery: the critical-line second moment, the incomplete
Gamma tail bound and the small-arc bounds around s = 1/2.  GROWTH_C is
the subconvex growth exponent constant c = 64/205 of the admissible
intervals (`asymptotics.admissible_alpha`).

All scans run in double precision through `zeta_many`, whose direct
sums all go through the shifted-row kernel `zeta._dirichlet_grid`;
quadrature is Gauss-Legendre on fixed panels with adaptive halving when
two estimates of a panel disagree by more than 1e-4 relative.  Every
round of the second moment has panels of one width, so its nodes form
one grid whose rows are height shifts; the kernel computes those shifts'
exponentials once and reuses them from block to block, and from the
8-node grid to the 16-node grid of the same panels.  The arc samples go
in as one column.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .zeta import T_MAX, zeta_many

GROWTH_C = Fraction(64, 205)

# Gauss-Legendre nodes/weights on [-1, 1]
_GL8 = np.polynomial.legendre.leggauss(8)
_GL16 = np.polynomial.legendre.leggauss(16)


def _panel_values(lows, width, rule):
    """Critical-line |zeta|^2 at the mapped GL nodes of every panel.

    Returns (points shape (npanel, nnodes), weights) with the affine map
    onto [low, low+width] folded into the weights.  The panels share one
    width, so the points go to zeta_many as one grid of shifted rows.
    """
    x, w = rule
    t = lows[:, None] + (x[None, :] + 1.0) * (width / 2.0)
    return np.abs(zeta_many(0.5 + 1j * t)) ** 2, w * (width / 2.0)


_MOMENT_TOL = 1e-4
_MAX_HALVINGS = 6


def second_moment(T: float, panel_width=0.25) -> float:
    """int_0^T |zeta(1/2+it)|^2 dt by GL quadrature on panels <= 0.25 wide.

    Each panel is estimated with 8-node and 16-node rules; panels whose two
    estimates disagree by more than _MOMENT_TOL relative are halved (up to
    _MAX_HALVINGS rounds) and re-integrated.  T is at most T_MAX, the
    height up to which `zeta_many` states its accuracy.
    """
    if T < 10:
        raise ValueError("need T >= 10")
    if T > T_MAX:
        raise ValueError(f"need T <= {T_MAX:g}")
    npanel = int(math.ceil(T / panel_width))
    width = T / npanel
    lows = np.arange(npanel) * width

    def integrate(lows, width):
        v8, w8 = _panel_values(lows, width, _GL8)
        v16, w16 = _panel_values(lows, width, _GL16)
        est8 = v8 @ w8
        est16 = v16 @ w16
        bad = np.abs(est16 - est8) > _MOMENT_TOL * np.maximum(np.abs(est16), 1e-30)
        return est16, bad

    total = 0.0
    rounds = 0
    while True:
        est, bad = integrate(lows, width)
        total += float(np.sum(est[~bad]))
        if not bad.any():
            break
        rounds += 1
        if rounds > _MAX_HALVINGS:
            # accept the finer estimate on the stubborn panels
            total += float(np.sum(est[bad]))
            break
        lows = np.repeat(lows[bad], 2)
        lows[1::2] += width / 2.0
        width /= 2.0
    return total


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
    x, w = _GL16
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
