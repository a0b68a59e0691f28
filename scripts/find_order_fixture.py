#!/usr/bin/env python3
"""Search for, and verify, the order-but-not-2-order assignment fixture.

The target is a multiplicative *-map pi on the prefix-sum-nonpositive
subsemigroup that preserves every basic hollowing step (an order
representation) while its 2-amplification fails on the block relation
built from the vector [(-2,3),(-3,4)].  The failure needs

    pi((-4,3,-3,4)) == pi((-4,2,-2,4))   and   pi((-4,4)) != 0,

with the two non-selfadjoint grade-6 generators mapped to zero.

Part 1 below shows no finite-support assignment can work: positivity of
pi((-4,4)) forces nonzero images along the infinite square-hollow orbit
of (-4,3,-3,4).  Part 2 verifies the rule-based scalar assignment
(selfadjoint generator -> c**hollow_depth, with doubled exponents along
that orbit, everything non-selfadjoint -> 0) against the two constraint
families that generate all scalar order obligations:

  (A)  pi(a) <= pi(hollow(a))        for selfadjoint irreducibles a,
  (B)  pi(s*) pi(s) <= pi(X(s))      for irreducibles s, where X(s) is
                                     the element one step above s* s.

Every selfadjoint element is flank* . core . flank for a core covered by
(A) or (B), and hollowing commutes with flank conjugation, so (A) + (B)
imply monotonicity on all of the subsemigroup.  Part 3 writes the
fixture asset consumed by the test suite.

A parameter outside (0, 1), a grade above the enumeration cap, or a
constraint that fails ends the run with one ``error:`` line on stderr and
exit code 1, before anything is written.
"""

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from pisom.numeric import OVERRIDE_ROOT, sa_depth_fixture  # noqa: E402
from pisom.order import hollow_successors, square_hollow  # noqa: E402
from pisom.structure import enum_irr  # noqa: E402
from pisom.words import UNIT_PLUS, DomainError, Word, format_word, parse_word  # noqa: E402


def forced_orbit(steps):
    """The generators any order-preserving pi with pi((-4,4)) != 0 must
    send to nonzero values: positivity gives pi(s)^2 != 0 for nonzero
    PSD pi(s), and relation (B) pushes that up the orbit forever."""
    out, t = [Word((-4, 4))], OVERRIDE_ROOT
    for _ in range(steps):
        out.append(t)
        t = square_hollow(t)
    return out


class ConstraintError(Exception):
    """The rule breaks constraint (A) or (B) at some irreducible."""


def verify_rule(fx, max_grade):
    """Check (A) and (B) on every irreducible of grade <= max_grade and
    return how many of each were checked.  Grades run from the top down, so
    a grade above the enumeration cap is refused before any work."""

    def val(w):
        return float(fx.image(w)[0, 0].real) if w != UNIT_PLUS else 1.0

    checked_a = checked_b = 0
    for k in range(max_grade, 0, -1):
        for s in enum_irr(k).elements:
            if s.is_selfadjoint() and s != UNIT_PLUS:
                (succ,) = hollow_successors(s)
                if not val(s) <= val(succ) + 1e-15:
                    raise ConstraintError("(A) fails: pi(%s) > pi(%s)" % (format_word(s), format_word(succ)))
                checked_a += 1
            if s != UNIT_PLUS:
                x = square_hollow(s)
                if not val(s.star) * val(s) <= val(x) + 1e-15:
                    raise ConstraintError(
                        "(B) fails: pi(%s*) pi(%s) > pi(%s)" % (format_word(s), format_word(s), format_word(x))
                    )
                checked_b += 1
    return checked_a, checked_b


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--c", type=float, default=0.5)
    ap.add_argument("--max-grade", type=int, default=8)
    ap.add_argument("--out", default=str(pathlib.Path(__file__).resolve().parents[1] / "tests/assets/order_fixture.json"))
    args = ap.parse_args()
    try:
        fx = sa_depth_fixture(args.c)
        a, b = verify_rule(fx, args.max_grade)
    except (DomainError, ConstraintError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    print("forced-nonzero orbit (finite support is impossible):")
    for w in forced_orbit(4):
        print("  %s  (grade %d)" % (format_word(w), w.tau_plus()))
    print("  ... grades keep growing, so the support is infinite.\n")
    print("rule verified: %d hollowing constraints, %d square constraints, grades <= %d" % (a, b, args.max_grade))

    table = {
        lit: float(fx.image(parse_word(lit))[0, 0].real)
        for lit in ["(-2,2)", "(-3,3)", "(-4,4)", "(-3,2,-2,3)", "(-4,2,-2,4)", "(-4,3,-3,4)"]
    }
    print("key values:", json.dumps(table))

    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"kind": "sa_depth_rule", "c": args.c}) + "\n")
    print("wrote", out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
