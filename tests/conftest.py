"""Test-session setup, loaded before any test module imports numpy.

OpenBLAS would spread the zeta kernel's small complex matrix products
over every core and spend more CPU for the same wall time, so the suite
runs it on one thread unless OPENBLAS_NUM_THREADS is already set.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
