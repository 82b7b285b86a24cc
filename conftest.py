"""Pin the BLAS thread count of every test session to one thread.

The hex goldens under ``tests/golden`` lock full-precision output, and
OpenBLAS rounds some products differently at another thread count (the
surface correlation factor's ``eigh`` roots and the correlated draw's
block product at Q = 1024).  So the tests run at the one thread that
``perfbench/run.py`` and CI use, whatever the caller's environment says.
The variables are read when numpy loads its BLAS, so this file refuses to
run once numpy is imported.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy is imported before conftest.py could pin the BLAS threads")

for _var in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"
