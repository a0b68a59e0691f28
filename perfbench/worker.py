"""Run one workload in this process and print its result as one JSON line.

Started by run.py in a fresh interpreter, with pisom importable from the
checkout's src/ and BLAS held to one thread.
"""

import argparse
import importlib
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = {
    "matrix-exact": "wl_matrix",
    "irreducibles": "wl_irr",
    "numeric-certify": "wl_numeric",
    "cli-session": "wl_cli",
}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    import harness
    import pisom

    src = os.path.join(harness.ROOT, "src") + os.sep
    if not os.path.abspath(pisom.__file__).startswith(src):
        sys.exit("perfbench: pisom was imported from %s, not from %s" % (pisom.__file__, src))
    workload = importlib.import_module(WORKLOADS[args.workload])
    result = harness.Run(workload, args.seed, args.seconds, bool(args.trace)).main()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
