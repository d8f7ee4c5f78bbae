"""qivr benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 e2ebench/run.py --workload pi_short --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. qivr is imported
from ``src/`` next to this directory; without it the command exits 2.
"""

import os

# one BLAS thread, fixed before numpy loads: two threads are slower at the
# VQ shapes and make timings spread more on a 2-core machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOAD_NAMES = ("pi_short", "gd_long", "fvstar_long")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qivr" / "__init__.py").is_file():
        print(f"error: qivr sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import flow
    result = flow.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
