"""Euler-product constants: G(s), Pi(u), its Taylor coefficients, and the
leading constants of the asymptotic expansions.

ln G(s) is evaluated in hybrid form

    ln G(s) = sum_{p <= P0} ln G_p(s)  +  sum_{n=3}^{M} g_n * P_tail(n s),

where P_tail(z) = P(z) - sum_{p <= P0} p^{-z} is the prime zeta tail.
Splitting off the small primes makes the n-series tail decay like
P0^{-n Re s}, so the truncation at order M leaves a bound that is tiny
and is carried along explicitly as an error budget.  That bound depends
only on Re s, M and the g_n (`_ln_G_tail_bound`).

Each P(n s) is the Mobius-log series sum_k mu(k)/k * log zeta(k n s).
One ln G evaluation shares its log zeta(m s), m = k n, across all n, so
a quadrature node computes each of them once: zeta(6s) serves both
n = 3 and n = 6.

Pi(u) = G(1-u) * w(1-u)^a * zeta(2-2u)^b, and the expansion constants are

    K_n = (-1)^n Pi_n / Gamma(a - n) = sin(pi a)/pi * Gamma(n+1-a) * Pi_n,

computed both ways as a consistency check.  Taylor coefficients Pi_n are
extracted by trapezoid quadrature on a circle, not by repeated
differentiation.  The node count is fixed in advance by `_aliasing_nodes`
from the radius of analyticity of Pi, so that the aliasing error stays
below the budget carried with the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath import mp, mpc, mpf

from .eulerform import EulerForm, euler_form, local_series
from .functions import MultFnId, spec
from .powerseries import log_one_minus_x
from .sieve import _mobius_upto, primes_up_to
from .zeta import (
    _prime_zeta_kmax,
    _prime_zeta_mobius,
    prime_zeta_hp,
    w_hp,
    zeta_hp,
)

CONSTANTS_DPS = 30
DEFAULT_P0 = 100


# ---------------------------------------------------------------------------
# ln G_p(s) = ln F_p(X) + a ln(1-X) + b ln(1-X^2), X = p^{-s}

def _ln_G_p_hp(ef: EulerForm, X):
    """ln G_p at X = p^{-s}, working precision."""
    return (
        mp.log(spec(ef.fid).factor_hp(X))
        + mpf(ef.a.numerator) / ef.a.denominator * mp.log(1 - X)
        + mpf(ef.b.numerator) / ef.b.denominator * mp.log(1 - X * X)
    )


def _q(frac):
    return mpf(frac.numerator) / frac.denominator


def _g_bound(ef):
    return max(abs(g) for g in ef.g[2:]) if len(ef.g) > 2 else Fraction(1, 6)


def _ln_G_order(ef: EulerForm, sigma):
    """Order M of the n-series at Re s = sigma.

    The series tail decays like P0^{-n sigma}; stop once it is below
    working precision rather than always using the full stored order.
    """
    digits_per_term = sigma * math.log10(DEFAULT_P0)
    return min(ef.order, max(4, math.ceil((mp.dps + 2) / digits_per_term)))


def _ln_G_tail_bound(ef: EulerForm, sigma):
    """Bound on the n-series terms n > M that ln_G_hp drops at Re s = sigma.

    It depends only on sigma, M and the g_n, not on the value of ln G.
    """
    tail_ratio = DEFAULT_P0 ** (-sigma)
    M = _ln_G_order(ef, sigma)
    return float(_g_bound(ef)) * tail_ratio ** (M + 1) / (1 - tail_ratio) * 2


def ln_G_hp(ef: EulerForm, s):
    """ln G(s) at working precision; returns (value, truncation_bound).

    Requires Re s > 1/3 (in practice all callers have Re s >= 3/4).
    The small primes' p^{-s} serve both the local factors and P_tail(n s).
    All P(n s), n = 3..M, share one dict of log zeta(m s), m = k n, local
    to this call, so each log zeta(m s) is computed once per s.
    """
    s = mpc(s)
    sigma = float(s.real)
    if sigma <= 1 / 3:
        raise ValueError("ln_G requires Re s > 1/3")
    # closing the tail bound needs P0^{-(M+1) sigma} to be small
    if DEFAULT_P0 ** (-sigma) >= 0.5:
        raise ValueError("Re s too small for the truncation bound to close")
    M = _ln_G_order(ef, sigma)
    small = [mp.power(int(p), -s) for p in primes_up_to(DEFAULT_P0)]
    total = mpf(0)
    for X in small:
        total = total + _ln_G_p_hp(ef, X)
    pows = [x * x * x for x in small]
    # kmax of the Mobius series is largest at the smallest n
    mu = _mobius_upto(_prime_zeta_kmax(float((3 * s).real)))
    log_zeta = {}
    for n in range(3, M + 1):
        gn = ef.g_at(n)
        if gn != 0:
            ptail = _prime_zeta_mobius(s, n, mu, log_zeta) - mp.fsum(pows)
            total = total + _q(gn) * ptail
        if n < M:
            pows = [x * y for x, y in zip(pows, small)]
    return total, _ln_G_tail_bound(ef, sigma)


# ---------------------------------------------------------------------------
# Pi(u) and its Taylor coefficients

def pi_function(ef: EulerForm, u):
    """Pi(u) = G(1-u) * w(1-u)^a * zeta(2-2u)^b, principal branches."""
    u = mpc(u)
    if abs(u) > 0.25 + 1e-12:
        raise ValueError("pi_function requires |u| <= 1/4")
    s = 1 - u
    lng, _ = ln_G_hp(ef, s)
    wbase = w_hp(s)
    zbase = zeta_hp(2 - 2 * u)
    # all base points sit in a disc around the positive reals
    if wbase.real <= 0 or zbase.real <= 0:
        raise ArithmeticError("branch assertion failed: base left the right half-plane")
    return mp.exp(lng) * mp.power(wbase, _q(ef.a)) * mp.power(zbase, _q(ef.b))


@dataclass
class PiExpansion:
    fid: object
    a: Fraction
    Pi: list       # mpf, Pi_0..Pi_N
    K: list        # mpf, K_n = (-1)^n Pi_n / Gamma(a-n)
    radius: float
    nodes: int
    error_budget: float

    def to_json_dict(self):
        return {
            "fid": str(self.fid),
            "a": f"{self.a.numerator}/{self.a.denominator}",
            "Pi": [mp.nstr(v, 30) for v in self.Pi],
            "K": [mp.nstr(v, 30) for v in self.K],
            "radius": self.radius,
            "nodes": self.nodes,
            "errorBudget": self.error_budget,
        }


def reflection_K(a: Fraction, n: int, Pi_n):
    """K_n via sin(pi a)/pi * Gamma(n+1-a) * Pi_n."""
    return mp.sinpi(_q(a)) / mp.pi * mp.gamma(n + 1 - _q(a)) * Pi_n


def gamma_route_K(a: Fraction, n: int, Pi_n):
    """K_n via (-1)^n Pi_n / Gamma(a-n)."""
    return (-1) ** n * Pi_n / mp.gamma(_q(a) - n)


# Pi(u) is analytic in |u| < 1/2 (the nearest singularity is the pole of
# zeta(2-2u) at u = 1/2); using the conservative radius of analyticity
# below keeps the aliasing bound honest with room to spare.
_PI_ANALYTIC_RADIUS = 0.4
_PI_SUP_BOUND = 4.0     # bound on |Pi| over that disc, for the aliasing terms
_ALIAS_TARGET = 1e-21


def _aliasing_nodes(radius, N):
    """Node count Q so that trapezoid aliasing | c_{n+Q} r^Q | stays
    below _ALIAS_TARGET for every extracted coefficient n <= N."""
    ratio = radius / _PI_ANALYTIC_RADIUS
    amp = _PI_SUP_BOUND * _PI_ANALYTIC_RADIUS ** (-N)
    Q = math.ceil(math.log(_ALIAS_TARGET / amp) / math.log(ratio)) + 2
    return Q + (Q % 2)  # even, so conjugate pairing covers every node


def pi_taylor(ef: EulerForm, N: int, radius=0.125) -> PiExpansion:
    """Taylor coefficients Pi_0..Pi_N by circle quadrature at |u| = radius.

    The trapezoid rule on Q nodes recovers c_n up to aliasing terms
    c_{n+jQ} r^{jQ}; Q is sized from the analyticity radius so that the
    aliasing is below 1e-21 and carried in the error budget.  Pi has real
    Taylor coefficients, so nodes come in conjugate pairs and only the
    upper half circle is evaluated; the imaginary residue of the
    quadrature is folded into the error budget as well.
    """
    if not 0 <= N <= 8:
        raise ValueError("need 0 <= N <= 8")
    if not 0 < radius <= 0.25:
        raise ValueError("need 0 < radius <= 1/4")
    Q = _aliasing_nodes(radius, N)
    # extraction divides by radius^n, amplifying node-level rounding noise
    # by up to radius^{-N}; pin the working precision so a low ambient
    # mp.dps cannot silently degrade the coefficients
    with mp.workdps(max(mp.dps, CONSTANTS_DPS)):
        half = [
            pi_function(ef, radius * mp.exp(2j * mp.pi * q / Q))
            for q in range(Q // 2 + 1)
        ]
        vals = half + [mp.conj(half[Q - q]) for q in range(Q // 2 + 1, Q)]
        cur = []
        for n in range(N + 1):
            acc = mp.fsum(
                vals[q] * mp.exp(-2j * mp.pi * n * q / Q) for q in range(Q)
            )
            cur.append(acc / (Q * mpf(radius) ** n))

        imag_resid = max(abs(c.imag) for c in cur)
        alias = float(
            _PI_SUP_BOUND
            * _PI_ANALYTIC_RADIUS ** (-N)
            * (radius / _PI_ANALYTIC_RADIUS) ** Q
        )
        lng_tail = _ln_G_tail_bound(ef, float(1 - radius))
        Pi = [c.real for c in cur]
        K = [gamma_route_K(ef.a, n, Pi[n]) for n in range(N + 1)]
    return PiExpansion(
        fid=ef.fid,
        a=ef.a,
        Pi=Pi,
        K=K,
        radius=float(radius),
        nodes=Q,
        error_budget=float(alias + imag_resid + lng_tail),
    )


def constants_report(fid: MultFnId, N=4):
    """JSON-ready constants for one function id."""
    ef = euler_form(fid)
    with mp.workdps(CONSTANTS_DPS):
        d = pi_taylor(ef, N).to_json_dict()
    d["b"] = f"{ef.b.numerator}/{ef.b.denominator}"
    d["flags"] = list(ef.flags)
    return d


# ---------------------------------------------------------------------------
# Ramanujan's leading constant for 1/tau

def _eq1_tail_coeffs(order):
    """Rational coefficients d_k of ln[sqrt(p(p-1)) ln(p/(p-1))] in 1/p.

    d_1 vanishes; the series starts at 1/p^2, which is what makes the
    direct product converge.
    """
    series = local_series("inv_tau", order)  # sum t^k/(k+1)
    lf = series.log() + log_one_minus_x(order).scale(Fraction(1, 2))
    assert lf[1] == 0
    return lf.coeffs


_A0_TAIL_ORDER = 8


def ramanujan_A0_product(limit=10**6):
    """A0 = (1/sqrt(pi)) prod_p sqrt(p(p-1)) ln(p/(p-1)), log-domain sum
    over p <= limit with a series tail correction.  Returns (value, bound).

    The tail is sum_k d_k (P(k) - sum_{p <= limit} p^{-k}), k = 2..8, with
    each prime zeta value P(k) from `prime_zeta_hp` at CONSTANTS_DPS
    digits, so the result does not depend on the ambient mp.dps.
    """
    p = primes_up_to(limit).astype(float)
    logf = 0.5 * (np.log(p) + np.log(p - 1)) + np.log(-np.log1p(-1.0 / p))
    total = float(np.sum(logf))
    tail_order = _A0_TAIL_ORDER
    d = _eq1_tail_coeffs(tail_order)
    with mp.workdps(CONSTANTS_DPS):
        for k in range(2, tail_order + 1):
            if d[k] == 0:
                continue
            pz = float(prime_zeta_hp(k).real)
            ptail = pz - float(np.sum(p ** (-float(k))))
            total += float(d[k]) * ptail
    # next omitted coefficient bounds the remainder, with
    # sum_{p > limit} p^{-m} <= int_limit^oo u^{-m} du = limit^{1-m}/(m-1)
    m = tail_order + 1
    nxt = _eq1_tail_coeffs(m)[m]
    partial_bound = 2 * abs(float(nxt)) * float(limit) ** (1 - m) / (m - 1) + 1e-12
    return math.exp(total) / math.sqrt(math.pi), partial_bound


def ramanujan_A0_eulerform(order=24):
    """Independent route: A0 = Pi_0 / Gamma(1/2) from the 1/tau Euler form."""
    ef = euler_form("inv_tau", order)
    with mp.workdps(CONSTANTS_DPS):
        pi0 = pi_function(ef, 0)
        return float(pi0.real / mp.sqrt(mp.pi))


def ramanujan_A0():
    """Best value with reported error bound: (value, bound, cross_delta)."""
    v1, bound = ramanujan_A0_product()
    v2 = ramanujan_A0_eulerform()
    return v2, bound, abs(v1 - v2)
