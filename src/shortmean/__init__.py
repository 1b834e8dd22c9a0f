"""Mean values of reciprocal divisor-type multiplicative functions in
short intervals: exact segmented-sieve sums, Euler-product constants,
N-term asymptotic predictions, and numerical checks of the supporting
zeta estimates.
"""

import os

# set before any module here imports numpy, which loads OpenBLAS: on its
# default threads the zeta kernel's small matrix products take more CPU
# for the same wall time.  A caller's own setting is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .functions import ALL_FNS, MultFnId  # noqa: F401
