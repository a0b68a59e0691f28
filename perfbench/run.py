"""pisom benchmark: one command, four workloads, every metric by name and unit.

One run (prints one JSON line last):
    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run-to-run spread over seeds (the figures the bounds were set from):
    python3 perfbench/run.py --workload W --repeat 10 [--seconds S] [--trace 0|1]

W is matrix-exact, irreducibles, numeric-certify or cli-session (or "all"
with --repeat).  Run from the root of a checkout: pisom is imported from
its src/, each run is a fresh interpreter with BLAS held to one thread and
a fixed hash seed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("matrix-exact", "irreducibles", "numeric-certify", "cli-session")
RUN_TIMEOUT_S = 170


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.path.join(ROOT, "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(argv, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("perfbench: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("perfbench: %s worker exited with code %d" % (workload, proc.returncode))
    return json.loads(lines[-1])


def spread_report(workload: str, runs) -> dict:
    report = {"workload": workload, "runs": len(runs), "correct": all(r["correct"] for r in runs),
              "failed_share": sorted({r["failed"] / r["attempted"] for r in runs}), "metrics": {}}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        report["metrics"][name] = {"median": med, "q1": q1, "q3": q3,
                                   "spread": (q3 - q1) / med if med else float("nan"),
                                   "unit": runs[0]["metrics"][name]["unit"]}
        print("%-16s %-42s median %12.6g  spread %6.3f  %s" % (
            workload, name, med, report["metrics"][name]["spread"], runs[0]["metrics"][name]["unit"]), file=sys.stderr)
    return report


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0, help="runs with seeds seed, seed+1, ...; prints the spread")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "pisom", "__init__.py")):
        print("perfbench: no src/pisom in %s; run from the root of a pisom checkout" % ROOT, file=sys.stderr)
        sys.exit(2)
    if args.workload == "all" and not args.repeat:
        ap.error("--workload all needs --repeat")

    if not args.repeat:
        print(json.dumps(run_once(args.workload, args.seed, args.seconds, args.trace)))
        return
    reports = []
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        runs = [run_once(workload, args.seed + i, args.seconds, args.trace) for i in range(args.repeat)]
        reports.append(spread_report(workload, runs))
    print(json.dumps(reports))


if __name__ == "__main__":
    main()
