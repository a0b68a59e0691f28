#!/usr/bin/env python3
"""Print the graded tables of plus-irreducibles.

A grade above the enumeration cap ends the listing with one ``error:`` line
on stderr and exit code 1.
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from pisom.structure import enum_irr  # noqa: E402
from pisom.words import DomainError, format_word  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("max_grade", type=int, nargs="?", default=8)
    args = ap.parse_args()
    start = time.perf_counter()
    for k in range(1, args.max_grade + 1):
        try:
            table = enum_irr(k)
        except DomainError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 1
        print("grade %2d (%3d elements): %s" % (k, len(table.elements), " ".join(format_word(w) for w in table.elements)))
    print("total %.2fs" % (time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
