"""Mean values of reciprocal divisor-type multiplicative functions in
short intervals: exact segmented-sieve sums, Euler-product constants,
N-term asymptotic predictions, and numerical checks of the supporting
zeta estimates.
"""

__version__ = "0.1.0"

from .functions import ALL_FNS, MultFnId  # noqa: F401
