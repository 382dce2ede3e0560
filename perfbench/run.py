"""condcorr benchmark: one workload per invocation.

    python3 perfbench/run.py --workload cli-chain --seed 1 --seconds 20 --trace 0

Run from the root of a condcorr checkout; the package is imported from its
``src`` directory.  ``--trace 0`` reports the end-to-end metrics from
untraced runs; ``--trace 1`` adds traced runs and reports the per-layer
metrics.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Work files go to ``.perfbench-work``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

WORKLOAD_NAMES = ("cli-chain", "dense-grid", "long-walk")
# one BLAS thread ran no slower than two on a 2-core machine, and it keeps
# the run's load to one thread (<= nproc)
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="how long the timed runs go on")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int,
                        help="override T or n (smoke checks); default: the workload's")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.size is not None and args.size < 300:
        parser.error("--size must be >= 300 (the detrend window is 251 days)")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "condcorr" / "__init__.py").is_file():
        print(f"error: no condcorr package under {src}; run from a condcorr checkout",
              file=sys.stderr)
        return 2
    # must be set before numpy is first imported
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    # Each vCPU of a shared host speeds up and slows down on its own, so the
    # reference kernel (speed.py) tracks a run's speed only on the same CPU:
    # pin the benchmark, and every process it starts, to one.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(src))
    import harness
    return harness.run(args, root)


if __name__ == "__main__":
    sys.exit(main())
