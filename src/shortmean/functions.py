"""The four target multiplicative functions, as rules on prime powers.

Each function is determined by its value on prime powers p^k, which here
depends only on the exponent k:

    f1(p^k) = 1/(2k+1)      (reciprocal of tau(n^2))
    f2(p^k) = 1/(k+1)^2     (reciprocal of tau(n)^2)
    f3(p^k) = 1/2 for k>=1  (2^{-omega(n)})
    f4(p^k) = 2^{-k}        (2^{-Omega(n)})

The value at n = 1 is the empty product, 1.  `spec(fid)` holds the
rule of each function, and every per-function formula elsewhere is
derived from it.  Every
f(p^k) is 1/integer, so the sieve counts the integer denominators 1/f(n),
each taken from `local` and the exponents of n.  No local factor has a
closed form: the Taylor series of `constants.pi_taylor` and the small
primes of `constants.ln_G_hp` sum F_p(X) = sum_k f(p^k) X^k from `local`
too, and `perron.ln_G_line` sums ln G_p from the Euler form's g_n.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


class MultFnId(enum.Enum):
    """Selector for the four target functions."""

    INV_TAU_SQ = "f1"        # 1/tau(n^2)
    INV_TAU_SQUARED = "f2"   # 1/tau(n)^2
    INV_TWO_OMEGA = "f3"     # 2^{-omega(n)}
    INV_TWO_BIG_OMEGA = "f4" # 2^{-Omega(n)}

    def __str__(self):
        return self.value


ALL_FNS = tuple(MultFnId)


@dataclass(frozen=True)
class FnSpec:
    """One function's local rule, and the flag its Euler form carries.

    Every per-function formula lives here, so no other module branches
    on which function it is given: every local quantity is derived from
    `local`.
    """

    local: Callable        # k -> f(p^k) = 1/integer as a Fraction, for k >= 1
    flag: str | None = None  # where a derived exponent disagrees with a display


_SPECS = {
    MultFnId.INV_TAU_SQ: FnSpec(local=lambda k: Fraction(1, 2 * k + 1)),
    MultFnId.INV_TAU_SQUARED: FnSpec(
        local=lambda k: Fraction(1, (k + 1) ** 2),
        flag="zeta2s-exponent: derived -13/288 (display prints 19/244)",
    ),
    MultFnId.INV_TWO_OMEGA: FnSpec(
        local=lambda k: Fraction(1, 2),
        flag="zeta2s-exponent-sign: derived +1/8 (display prints -1/8)",
    ),
    MultFnId.INV_TWO_BIG_OMEGA: FnSpec(local=lambda k: Fraction(1, 2**k)),
    # 1/tau(n), for the Ramanujan constant cross-check only
    "inv_tau": FnSpec(local=lambda k: Fraction(1, k + 1)),
}


def spec(fid) -> FnSpec:
    """The FnSpec of a MultFnId, or of "inv_tau" (1/tau(n))."""
    try:
        return _SPECS[fid]
    except KeyError:
        raise ValueError(f"unknown function id {fid!r}") from None


# The zeta power k_j of each theorem is 1/a, and a = f(p): it is the X^1
# coefficient of ln F_p, which the Euler form gives to zeta(s)^a.
ZETA_POWER_DENOM = {fid: int(1 / spec(fid).local(1)) for fid in ALL_FNS}


def local_value(fid, k: int) -> Fraction:
    """f(p^k) as an exact rational; k = 0 gives 1."""
    if k < 0:
        raise ValueError("exponent must be >= 0")
    if k == 0:
        return Fraction(1)
    return spec(fid).local(k)
