"""Generate one workload's inputs in a fresh process (the benchmark's set-up).

    python3 bench/prepare.py --workload fit-d10 --seed 1 --out DIR

The benchmark runs this several times and reports the median wall time, so
set-up covers interpreter start, imports and input generation.
"""

import argparse
import sys
from pathlib import Path

from environment import pin_blas_threads

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    pin_blas_threads()  # before anything imports numpy
    sys.path.insert(0, str(SRC))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    workloads.WORKLOADS[args.workload].prepare(args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
