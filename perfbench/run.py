"""Benchmark entry point: run one ddrom workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it holds diagnostics (host-speed probe,
BLAS threads, chosen weights, sample counts and quartiles).  Spans are
written to ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# 2 is the core count of the machine the bounds were set on.  Pinning BLAS
# to 1 thread would hide the cost users pay with the default pool.
BLAS_THREADS = "2"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "ddrom" / "cli.py").is_file():
        print(f"error: no ddrom sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    # before numpy loads, so the caller's shell cannot change the thread count
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))
    import harness

    result, diag = harness.run(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), root
    )
    print(json.dumps(diag))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
