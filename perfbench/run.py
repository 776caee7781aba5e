"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload warm-small --seed 1 \\
        --seconds 10 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of the separate traced run with ``--trace 1``.  Lines before it
start with ``#`` and describe the run (parameters, ``cpu_count``, the
Python version, check tallies).  Workloads, metrics and what each
per-layer metric should move are described in ``perfbench/README.md``.

The script re-executes itself once with ``PYTHONHASHSEED=0``: string
hashing then no longer varies between processes, so shard assignment,
and with it every count the run reports, repeats exactly for a fixed
seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Spans and temporary workspaces go here (ignored by git).
OUT_DIR = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("warm-small", "adhoc-compile", "bulk-serial")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"),
                        default="full",
                        help="'smoke' shrinks every size (for the "
                             "benchmark's own tests)")
    return parser.parse_args(argv)


#: The interpreter's string-hash seed for every run.
HASH_SEED = "0"


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if argv is None and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        # measure the checkout's own source, never an installed copy
        print(f"perfbench: no program under test at {source}/repro; "
              "run from a checkout", file=sys.stderr)
        return 2
    for path in (ROOT, source):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import bench
    result = bench.run(args.workload, args.seed, args.seconds,
                       bool(args.trace), scale=args.scale,
                       out_dir=OUT_DIR)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
