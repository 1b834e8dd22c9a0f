"""Euler factorization of the Dirichlet series of each target function.

Writing F(s) = prod_p F_p(s) with F_p a power series in X = p^{-s}, we
factor

    F(s) = zeta(s)^a * zeta(2s)^b * G(s),
    ln G_p(X) = sum_{n>=3} g_n X^n,

where (a, b) are fixed by requiring the X^1 and X^2 coefficients of
ln G_p to vanish.  This normalization is what makes prod_p G_p converge
for Re s > 1/3, and it is the criterion used throughout: the exponents
are *derived* from the local series, never transcribed.

Two derived values differ from commonly quoted displays; the text is
`FnSpec.flag` and is carried on the EulerForm record:

  * f2: the derived zeta(2s) exponent is -13/288 (a display giving
    19/244 fails the g_2 = 0 identity);
  * f3: the derived exponent is +1/8 (a display with the opposite sign
    fails g_2 = 0).

`euler_form` is the one derivation, for the four target functions and
for 1/tau(n) ("inv_tau", behind Ramanujan's A0).  A single g_n is
`EulerForm.g_at(n)`.  The CLI hands the record to `reports.json_report`,
which writes its `to_json_dict`, Fractions included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .functions import local_value, spec
from .powerseries import exp_coeffs, log_coeffs, log_one_minus_coeffs

DEFAULT_ORDER = 24


def local_series(fid, order: int) -> list:
    """F_p as a truncated series: the coefficient list f(p^k), k = 0..order.

    `fid` is a MultFnId or "inv_tau".
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    return [local_value(fid, k) for k in range(order + 1)]


@dataclass(frozen=True)
class EulerForm:
    """The data (a, b, g_3..g_M) of F = zeta^a zeta(2s)^b exp(sum g_n P(ns))."""

    fid: object  # MultFnId, or "inv_tau"
    a: Fraction
    b: Fraction
    g: tuple  # g[0] is g_1 = 0, g[1] is g_2 = 0, g[n-1] is g_n
    order: int
    flags: tuple = field(default=())

    def g_at(self, n: int) -> Fraction:
        if n < 1:
            raise ValueError("n must be >= 1")
        if n > self.order:
            raise IndexError(f"g_{n} beyond truncation order {self.order}")
        return self.g[n - 1]

    def to_json_dict(self):
        return {
            "fid": str(self.fid),
            "a": self.a,
            "b": self.b,
            "g": self.g,
            "order": self.order,
            "flags": list(self.flags),
        }


_FORMS = {}  # (fid, order) -> EulerForm; the record is frozen, so shared


def euler_form(fid, order: int = DEFAULT_ORDER) -> EulerForm:
    """Derive (a, b, g_n) for a MultFnId, or for "inv_tau" (1/tau(n)).

    Each (fid, order) is derived once; later calls return the same record.
    """
    if order < 3:
        raise ValueError("order must be >= 3")
    key = (fid, order)
    if key not in _FORMS:
        _FORMS[key] = _derive(fid, order)
    return _FORMS[key]


def _derive(fid, order):
    lf = log_coeffs(local_series(fid, order))
    a = lf[1]
    b = lf[2] - a / 2
    # ln F_p = -a ln(1-X) - b ln(1-X^2) + sum g_n X^n
    rest = [x + y for x, y in zip(lf, log_one_minus_coeffs(a, b, order))]
    g = tuple(rest[1:])
    assert g[0] == 0 and g[1] == 0, "g_1 = g_2 = 0 must hold by construction"
    flag = spec(fid).flag
    flags = (flag,) if flag else ()
    return EulerForm(fid=fid, a=a, b=b, g=g, order=order, flags=flags)


def reconstruct_local_series(ef: EulerForm) -> list:
    """(1-X)^{-a} (1-X^2)^{-b} exp(sum_{n>=3} g_n X^n), truncated."""
    zeta_part = log_one_minus_coeffs(-ef.a, -ef.b, ef.order)
    return exp_coeffs([z + g for z, g in zip(zeta_part, (0, *ef.g))])
