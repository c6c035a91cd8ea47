"""Benchmark entry point; run from the root of a checkout:

    python3 perfbench/run.py --workload scan-k3-n60 --seed 1 --seconds 15 \
        --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones and writes the spans to
perfbench/out/. Progress and check failures go to standard error.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness
from workloads import WORKLOADS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        harness.fresh_import()
    except ImportError as exc:
        print(f"cannot import fthresh from {harness.SRC}: {exc}",
              file=sys.stderr)
        return 2
    result = harness.run(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
