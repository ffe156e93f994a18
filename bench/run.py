"""Benchmark entry point for the bsann solver.

Usage, from the root of a checkout:

    python3 bench/run.py --workload call_truncated --seed 0 --seconds 28 --trace 0

`--trace 0` runs the workload's `bsann` command(s) in child processes in a
closed loop for `--seconds` and reports the end-to-end metrics;
`--trace 1` runs it in-process with spans around the package's public
functions and reports the per-layer metrics. The last line of standard output
is the JSON result; the lines before it are a human-readable table and the
environment stamp. See `harness.py` for the workloads and metric definitions.

The BLAS/OpenMP thread counts and the hash seed are pinned here, before numpy
is imported, so the harness and every child it starts run in one fixed
environment. A checkout without `src/bsann` is refused with exit status 2.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONPATH": SRC,
}


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "bsann", "__init__.py")):
        print(f"error: no bsann package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, SRC)
    import harness  # after the environment is pinned: harness imports numpy

    return harness.main(argv, ROOT)


if __name__ == "__main__":
    sys.exit(main())
