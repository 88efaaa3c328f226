"""relaxobj harness benchmark: one workload, timed end to end or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload explore --seed 1 --seconds 30 --trace 0

The program is used from source (``src/``); nothing is installed.  The
load is closed-loop in one process: each unit (an exhaustive CLI round,
one history, one bench call) starts when the previous one has returned.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description="relaxobj harness benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("explore", "check-long", "bench-counter", "bench-maxreg"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "relaxobj" / "__init__.py").is_file():
        print(f"error: relaxobj's source is not at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import harness
    harness.execute(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
