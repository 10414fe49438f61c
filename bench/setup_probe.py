"""Set-up cost of the benchmark: import cornerbie and make one warm-up call.

The warm-up is the smallest table row, heart at (8, 32), which fills the
quadrature rule caches.  Run as a script it times that set-up in a fresh
interpreter and prints the seconds on its last line; run.py runs it this
way several times for setup_s, and records its own process's set-up too.
"""

import os
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = Path(__file__).resolve().parent.parent / "src"


def pin_threads_and_path() -> None:
    """One BLAS/OpenMP thread (set before numpy loads) and the checkout's sources."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "cornerbie" / "__init__.py").is_file():
        raise SystemExit(f"cornerbie sources not found under {SRC}")
    sys.path.insert(0, str(SRC))


def import_and_warm_up() -> float:
    """Seconds to import cornerbie and run the warm-up row."""
    start = time.perf_counter()
    import cornerbie

    if not Path(cornerbie.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported cornerbie from {cornerbie.__file__}, not {SRC}")
    rows = cornerbie.run_example(cornerbie.example_config("heart", pairs=((8, 32),)))
    if rows[0].failed:
        raise SystemExit(f"warm-up row failed: {rows[0].error_message}")
    return time.perf_counter() - start


if __name__ == "__main__":
    pin_threads_and_path()
    print(repr(import_and_warm_up()))
