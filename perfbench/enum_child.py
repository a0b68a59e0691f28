"""Cold enumeration of the plus-irreducibles in a fresh interpreter.

Usage: python3 perfbench/enum_child.py TOP_GRADE [--trace]

Imports pisom first, then times enum_irr(1), ..., enum_irr(TOP_GRADE) with
the enumeration memo empty, and prints one JSON line.  raw_s is the clock
reading; enum_s is scaled to reference machine speed (see calib.py), each
grade by calibration samples taken right before and after it, outside the
timed calls (the memo makes each call build one new grade).  With --trace
the enumeration runs under the benchmark's tracer and the span summary is
included.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calib  # noqa: E402
import pisom.structure  # noqa: E402
from reference import grade_count  # noqa: E402


def main(argv):
    top = int(argv[0])
    tracer = None
    if "--trace" in argv:
        from tracer import Tracer

        tracer = Tracer().install()
    elements, raw_s, enum_s = 0, 0.0, 0.0
    before = calib.LOOP.sample()
    for g in range(1, top + 1):
        t0 = time.perf_counter()
        elements += len(pisom.structure.enum_irr(g).elements)
        dt = time.perf_counter() - t0
        after = calib.LOOP.sample()
        raw_s += dt
        enum_s += dt * calib.LOOP.scale(before, after)
        before = after
    out = {
        "enum_s": enum_s,
        "raw_s": raw_s,
        "elements": elements,
        "expected": sum(grade_count(g) for g in range(1, top + 1)),
    }
    if tracer is not None:
        tracer.uninstall()
        out["summary"] = tracer.summary()
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
