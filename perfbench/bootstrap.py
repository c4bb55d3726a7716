"""Process preparation shared by every benchmark entry script.

Pins BLAS/OpenMP pools to one thread (this must happen before numpy is
imported, so the entry scripts call it before importing anything that
pulls numpy in), pins the process to one CPU so the calibration kernel
and the work it calibrates run on the same core (children inherit it),
and puts the checkout's own `src/` first on `sys.path`, so the benchmark
measures the code of the checkout it runs in and never an installed copy.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class MissingSource(RuntimeError):
    """The checkout holds no driftlab sources to benchmark."""


def prepare():
    """Pin thread pools and make `import driftlab` resolve to ROOT/src."""
    if not (SRC / "driftlab" / "__init__.py").is_file():
        raise MissingSource(f"no driftlab package under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
