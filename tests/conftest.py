"""The suite runs numpy's BLAS on one thread unless the caller set a
count: its matrices are small, and on a 2-core host the whole suite took
52.5 s with OpenBLAS's default threads against 46.3 s with one.  numpy
reads these variables once, when it is first imported, which is after
this file loads."""

import os

for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(name, "1")
