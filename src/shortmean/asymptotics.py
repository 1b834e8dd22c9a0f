"""N-term predictions for the short-interval sums, the admissible-interval
exponents, and comparison reports against exact sieve truth.

The prediction for an interval (x, x+h] is

    predict(x, h) = h * (ln x)^{a-1} * sum_{n<=N} K_n (ln x)^{-n},

with K_n = (-1)^n Pi_n / Gamma(a-n) from the Euler-constants pipeline.

The full-range sum over n <= X (requested as x = 0, h = X) obeys the same
shape with L = ln X and cumulative coefficients: integrating the density
replaces Pi(u) by Pi(u)/(1-u), i.e. Pi_n by  Pi_0 + ... + Pi_n.  (One can
check the two are consistent: d/dx applied to the cumulative main term
reproduces the interval coefficients exactly.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from .constants import CONSTANTS_DPS, gamma_route_K, pi_taylor
from .eulerform import euler_form
from .functions import ZETA_POWER_DENOM, MultFnId, spec
from .sieve import interval_sum
from .zetachecks import GROWTH_C

DENSITY_EXPONENT = Fraction(12, 5)

H_THRESHOLD_NOTE = (
    "h-threshold-mismatch: theorem states exp((ln x)^0.1), proof derivation "
    "yields exp(C2 (ln x)^0.8); both reported"
)
# C2 of the proof's variant: the derivation leaves it unspecified, and
# the reported threshold takes it as 1
PROOF_C2 = 1.0


def admissible_alpha(k: int) -> Fraction:
    """alpha = 1 - 1/(12/5 + c/k) with c = 64/205, exact."""
    if k not in (2, 3, 4):
        raise ValueError("k must be one of 2, 3, 4")
    return 1 - 1 / (DENSITY_EXPONENT + GROWTH_C / k)


# the admissible-interval exponents, as `predict` reports them
EXPONENTS = {
    "c": GROWTH_C,
    "densityExponent": DENSITY_EXPONENT,
    "k": dict(ZETA_POWER_DENOM),
    "alpha": {fid: admissible_alpha(k) for fid, k in ZETA_POWER_DENOM.items()},
}


@dataclass(frozen=True)
class HThreshold:
    fid: MultFnId
    alpha: Fraction
    theorem: float  # x^alpha e^{(ln x)^{0.1}}
    proof: float    # x^alpha e^{PROOF_C2 (ln x)^{0.8}}

    def to_json_dict(self):
        return {
            "fid": str(self.fid),
            "alpha": self.alpha,
            "theorem": self.theorem,
            "proof": self.proof,
            "flags": [H_THRESHOLD_NOTE],
        }


def h_threshold(fid: MultFnId, x: float) -> HThreshold:
    """Minimal admissible h, in both printed variants (see H_THRESHOLD_NOTE)."""
    if x < 10:
        raise ValueError("need x >= 10")
    alpha = admissible_alpha(ZETA_POWER_DENOM[fid])
    lnx = math.log(x)
    base = float(alpha) * lnx
    return HThreshold(
        fid=fid,
        alpha=alpha,
        theorem=math.exp(base + lnx**0.1),
        proof=math.exp(base + PROOF_C2 * lnx**0.8),
    )


# ---------------------------------------------------------------------------
# prediction models

_MODEL_CACHE = {}
_PE_CACHE = {}


def _pi_expansion(fid: MultFnId, N: int):
    """One cached Taylor expansion per fid covers every N up to 4."""
    want = max(N, 4)
    have = _PE_CACHE.get(fid)
    if have is None or len(have.Pi) - 1 < want:
        _PE_CACHE[fid] = pi_taylor(euler_form(fid), want)
    return _PE_CACHE[fid]


@dataclass(frozen=True)
class AsymptoticModel:
    fid: MultFnId
    a: Fraction
    K: tuple          # floats K_0..K_N (interval mode) or cumulative mode
    N: int
    cumulative: bool  # True: full-range sum over n <= X, L = ln X
    error_budget: float

    def evaluate(self, L: float, h: float) -> float:
        """h * L^{a-1} * sum K_n L^{-n}."""
        acc = 0.0
        for n in range(self.N, -1, -1):
            acc = acc / L + self.K[n]
        return h * L ** (float(self.a) - 1.0) * acc


def model(fid: MultFnId, N: int, cumulative: bool = False) -> AsymptoticModel:
    key = (fid, N, cumulative)
    if key not in _MODEL_CACHE:
        with mp.workdps(CONSTANTS_DPS):
            pe = _pi_expansion(fid, N)
            if cumulative:
                run = mp.mpf(0)
                Pi = []
                for v in pe.Pi[: N + 1]:
                    run += v
                    Pi.append(run)
            else:
                Pi = pe.Pi[: N + 1]
            a = pe.a
            K = tuple(float(gamma_route_K(a, n, Pi[n])) for n in range(N + 1))
        _MODEL_CACHE[key] = AsymptoticModel(
            fid=fid, a=a, K=K, N=N, cumulative=cumulative,
            error_budget=pe.error_budget,
        )
    return _MODEL_CACHE[key]


def predict(fid: MultFnId, x: int, h: int, N: int):
    """Main-term prediction; returns (value, relative_budget, lagrange_rel).

    x = 0 means the full-range sum over n <= h (cumulative mode, L = ln h).
    The remainder budget is the first dropped power of 1/L; the Lagrange
    term h/x covers replacing ln(x+u) by ln x across the interval.
    """
    if not 0 <= N <= 8:
        raise ValueError("need 0 <= N <= 8")
    if x == 0:
        if h < 3:
            raise ValueError("full-range mode needs h >= 3")
        m = model(fid, N, cumulative=True)
        L = math.log(h)
        return m.evaluate(L, float(h)), L ** (-(N + 1)), 0.0
    if x < 3 or h < 1:
        raise ValueError("need x >= 3, h >= 1")
    m = model(fid, N, cumulative=False)
    L = math.log(x)
    return m.evaluate(L, float(h)), L ** (-(N + 1)), h / x


@dataclass
class PredictionReport:
    fid: MultFnId
    x: int
    h: int
    N: int
    exact: Fraction
    prediction: float
    abs_err: float
    rel_err: float
    budget: float
    lagrange: float
    thresholds: HThreshold | None
    tolerance: float
    passed: bool

    def to_json_dict(self):
        flag = spec(self.fid).flag
        d = {
            "fid": str(self.fid),
            "x": self.x,
            "h": self.h,
            "N": self.N,
            "exact": {
                "num": str(self.exact.numerator),
                "den": str(self.exact.denominator),
                "float": float(self.exact),
            },
            "prediction": self.prediction,
            "abs_err": self.abs_err,
            "rel_err": self.rel_err,
            "budget": self.budget,
            "lagrange": self.lagrange,
            "thresholds": self.thresholds,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "flags": [flag] if flag else [],
        }
        return d


def compare(fid: MultFnId, x: int, h: int, N: int, tolerance: float = 0.05,
            threads: int = 1) -> PredictionReport:
    """Exact sieve sum vs N-term prediction over (x, x+h].

    The tolerance, a bound on the relative error, is checked before the
    sieve runs.
    """
    if not 0 <= tolerance < math.inf:
        raise ValueError(f"need a finite tolerance >= 0, not {tolerance!r}")
    exact = interval_sum(fid, x, h, threads=threads)
    pred, budget, lagrange = predict(fid, x, h, N)
    exact_f = float(exact)
    abs_err = abs(pred - exact_f)
    rel_err = abs_err / abs(exact_f) if exact_f else math.inf
    thresholds = h_threshold(fid, float(x)) if x >= 10 else None
    return PredictionReport(
        fid=fid, x=x, h=h, N=N,
        exact=exact, prediction=pred, abs_err=abs_err, rel_err=rel_err,
        budget=budget, lagrange=lagrange,
        thresholds=thresholds, tolerance=tolerance,
        passed=bool(rel_err <= tolerance),
    )
