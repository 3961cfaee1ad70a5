"""Run the suite with BLAS on one thread, as perfbench does.

The variables must be set before numpy is first imported.  On a small
shared machine a multi-threaded BLAS makes the first `build` in a process
take anywhere from 0.08 to 1 s, which the wall-clock budgets in
`test_acceptance.py` cannot absorb; on one thread it takes under 0.1 s.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
