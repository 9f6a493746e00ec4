#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of optiqft.

Run from the repository root:

    python3 perfbench/run.py --workload fit_default --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs a fixed number of operations traced and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. perfbench/README.md
describes the workloads and metrics.
"""

import time

T0 = time.perf_counter()  # set-up probes are timed from here

import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One caller in one process: pin BLAS to one thread before numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    if not (SRC / "optiqft" / "__init__.py").is_file():
        print(f"perfbench: no optiqft source at {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    return harness.main(sys.argv[1:], T0)


if __name__ == "__main__":
    sys.exit(main())
