"""Run one pisom CLI call and report, apart from its output, what it cost.

Usage: PERFBENCH_FD=<fd> [PERFBENCH_TRACE=1] python3 perfbench/cli_child.py <pisom args...>

Behaves like ``python3 -m pisom.cli <args>`` (same output and exit code)
and writes one JSON object to the inherited file descriptor: the seconds
spent importing pisom.cli and inside ``pisom.cli.run``, and with
PERFBENCH_TRACE=1 the span summary of the call under the benchmark's
tracer (installed after the import, so the import is not traced).
"""

import json
import os
import sys
import time

t_start = time.perf_counter()
import pisom.cli  # noqa: E402

t_imported = time.perf_counter()
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main():
    fd = int(os.environ["PERFBENCH_FD"])
    tracer = None
    if os.environ.get("PERFBENCH_TRACE") == "1":
        from tracer import Tracer

        tracer = Tracer().install()
    t0 = time.perf_counter()
    try:
        code = pisom.cli.run(sys.argv[1:])
    finally:
        report = {"import_s": t_imported - t_start, "run_s": time.perf_counter() - t0}
        if tracer is not None:
            tracer.uninstall()
            report["summary"] = tracer.summary()
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(report))
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
