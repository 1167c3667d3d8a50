"""Benchmark of the corefed simulator.

    python3 perfbench/run.py --workload desk|wide|crowd --seed N --seconds S --trace 0|1

Runs from the root of a source checkout, against ``src/corefed``. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``. Lines before it start
with ``#`` and record the environment, digests and how each metric was taken.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BLAS_THREADS = 1  # one thread gave the tightest run-to-run spread on 2 cores
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def configure() -> None:
    """Pin BLAS threads and put the checkout's sources first on the path.

    Must run before numpy is imported. Exits non-zero when the checkout has
    no corefed sources, rather than measuring some other installed copy.
    """
    if not (SRC / "corefed" / "__init__.py").is_file():
        sys.exit(f"perfbench: no corefed sources under {SRC}")
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in THREAD_VARS:
        os.environ[var] = threads
    os.environ.pop("COREFED_SEED", None)  # the CLI would override the workload's seeds
    sys.path.insert(0, str(SRC))
    import corefed

    if not Path(corefed.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: imported corefed from {corefed.__file__}, not {SRC}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("desk", "wide", "crowd"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="repeat the workload's unit of work until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    configure()
    import bench

    result = bench.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for note in result.notes:
        print("#", note)
    print(json.dumps(result.line()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
