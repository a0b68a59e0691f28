"""irreducibles: the enumerated plus-irreducibles and queries on their products.

Before the set-up the process enumerates grades 1..16 cold and checks every
table against the definition of a plus-irreducible and the Stein-Waterman
counts.  (``enum_s`` is timed separately, in fresh interpreters.)  The
set-up builds a seeded pool of selfadjoint D1 elements s = u* c u, with u a
product of one or two non-unit plus-irreducibles of grade <= 10 and c one of
(), (1,-1), (-1,1), and walks each a few hollowing steps up for the
``leq`` pairs.

Every round draws fresh seeded queries, in fixed numbers:
  160 factor_d0 on products of 1-4 non-unit plus-irreducibles,
  160 factor_a0 on products of 1-4 plus- or minus-irreducibles,
  160 alpha and 160 omega on such D0 products,
  160 beta_omega on single non-unit plus-irreducibles,
  120 sa_canonical_d1, 120 hollow_successors, 120 leq (half of them true).
Grades are drawn uniformly from 2..16, then an element of the grade.
Wide queries are those whose input uses an irreducible of grade >= 12.
"""

from __future__ import annotations

from dataclasses import dataclass

import pisom.maps as maps
import pisom.order as order
import pisom.structure as S
from pisom.words import Word

import calib
import reference as ref
from harness import Op

NAME = "irreducibles"
PROBE = True
CALIBRATION = calib.LOOP
LONG_OPS = False
TAIL_PERCENTILE = 99
TOP_GRADE = 16
WIDE_GRADE = 12
SA_GRADE = 10
SA_POOL = 300
MAX_UP = 8
COUNTS = {"factor_d0": 160, "factor_a0": 160, "alpha": 160, "omega": 160, "beta_omega": 160,
          "sa_canonical_d1": 120, "hollow_successors": 120, "leq": 120}

_TABLES: dict = {}


@dataclass
class State:
    tables: dict
    sa_pool: list
    chains: list


def prepare():
    """Enumerate every grade once and check the tables; returns problems."""
    problems = []
    for g in range(1, TOP_GRADE + 1):
        elements = S.enum_irr(g).elements
        msg = ref.check_grade_table(g, elements)
        if msg:
            problems.append(msg)
        _TABLES[g] = [tuple(w) for w in elements]
    return problems


def _irr(tables, rng, max_grade=TOP_GRADE):
    g = rng.randint(2, max_grade)
    return rng.choice(tables[g]), g


def setup(seed: int) -> State:
    import random

    rng = random.Random(seed)
    pool = []
    for _ in range(SA_POOL):
        u = ref.prod(*[_irr(_TABLES, rng, SA_GRADE)[0] for _ in range(rng.randint(1, 2))])
        c = rng.choice(((), ref.UNIT_MINUS, ref.UNIT_PLUS))
        n = ref.prod(ref.star(u), c, u)
        if ref.in_d1(n):
            pool.append(Word(n))
    chains = []
    for n in pool:
        chain, cur = [n], n
        for _ in range(MAX_UP):
            succ = order.hollow_successors(cur)
            if not succ:
                break
            (cur,) = succ
            chain.append(cur)
        chains.append(chain)
    return State(_TABLES, pool, chains)


# -- checks ------------------------------------------------------------------------------


def check_factor_d0(factors):
    def check(out):
        return None if [tuple(f) for f in out] == factors else "factor_d0 of %r gave %r" % (factors, out)

    return check


def check_factor_a0(p):
    def check(out):
        out = [tuple(f) for f in out]
        if ref.prod(*out) != p:
            return "factors of %r do not recompose" % (p,)
        if not all(ref.is_irreducible(f) for f in out):
            return "a factor of %r is not irreducible" % (p,)
        if not ref.is_minimal_sequence(out):
            return "factor sequence of %r is not minimal" % (p,)
        return None

    return check


def check_equals(expect, what):
    def check(out):
        return None if tuple(out) == expect else "%s gave %r, expected %r" % (what, out, expect)

    return check


def check_beta_omega(n):
    def check(out):
        b = tuple(out)
        if not (ref.is_reduced(b) and ref.in_d0(b) and ref.prod((-1,), b, (1,)) == n):
            return "beta_omega(%r) = %r is not a D0 left inverse of alpha" % (n, b)
        return None

    return check


def check_canonical(n):
    n = tuple(n)

    def check(out):
        center, flank = out
        if center is not None and center != ref.UNIT_MINUS and not ref.is_irreducible(center):
            return "center of %r is not irreducible" % (n,)
        flank_star = ref.star(flank) if flank is not None else None
        if ref.prod(flank_star, center, flank) != n:
            return "flank* center flank does not recompose %r" % (n,)
        return None

    return check


def check_successors(n):
    n = tuple(n)

    def check(out):
        if len(out) != 1:
            return "%r has %d hollowing successors, expected one" % (n, len(out))
        (m,) = out
        if tuple(m) != ref.star(m) or ref.weight(m) >= ref.weight(n):
            return "successor %r of %r is not a lighter selfadjoint word" % (m, n)
        return None

    return check


def check_bool(expect):
    return lambda out: None if out is expect else "expected %r, got %r" % (expect, out)


# -- rounds ------------------------------------------------------------------------------


def _product(rng, plus_only: bool):
    factors, grades = [], []
    for _ in range(rng.randint(1, 4)):
        w, g = _irr(_TABLES, rng)
        if not plus_only and rng.random() < 0.5:
            w = tuple(-e for e in w)
        factors.append(w)
        grades.append(g)
    return factors, max(grades) >= WIDE_GRADE


def make_round(state: State, rng):
    ops = []
    for _ in range(COUNTS["factor_d0"]):
        factors, wide = _product(rng, True)
        p = Word(ref.prod(*factors))
        ops.append(Op(lambda p=p: S.factor_d0(p), check_factor_d0(factors), wide=wide, label="factor_d0"))
    for _ in range(COUNTS["factor_a0"]):
        factors, wide = _product(rng, False)
        p = ref.prod(*factors)
        ops.append(Op(lambda w=Word(p): S.factor_a0(w), check_factor_a0(p), wide=wide, label="factor_a0"))
    for name, left, right in (("alpha", (-1,), (1,)), ("omega", (1,), (-1,))):
        for _ in range(COUNTS[name]):
            factors, wide = _product(rng, True)
            p = ref.prod(*factors)
            # Looked up at call time, like every op here, so the tracer's rebinding applies.
            ops.append(Op(lambda w=Word(p), name=name: getattr(maps, name)(w), check_equals(ref.prod(left, p, right), name),
                          wide=wide, label=name))
    for _ in range(COUNTS["beta_omega"]):
        n, g = _irr(_TABLES, rng)
        ops.append(Op(lambda w=Word(n): maps.beta_omega(w), check_beta_omega(n), wide=g >= WIDE_GRADE, label="beta_omega"))
    for _ in range(COUNTS["sa_canonical_d1"]):
        n = rng.choice(state.sa_pool)
        ops.append(Op(lambda n=n: S.sa_canonical_d1(n), check_canonical(n), label="sa_canonical_d1"))
    for _ in range(COUNTS["hollow_successors"]):
        n = rng.choice(state.sa_pool)
        ops.append(Op(lambda n=n: order.hollow_successors(n), check_successors(n), label="hollow_successors"))
    chains = [c for c in state.chains if len(c) > 1]
    for i in range(COUNTS["leq"]):
        chain = rng.choice(chains)
        lo, hi = chain[0], chain[rng.randint(1, len(chain) - 1)]
        if i % 2:
            lo, hi = hi, lo
        ops.append(Op(lambda lo=lo, hi=hi: order.leq(lo, hi), check_bool(not i % 2), label="leq"))
    return ops


def self_test(state: State):
    g = 10
    table = list(state.tables[g])
    del table[len(table) // 2]
    if ref.check_grade_table(g, table) is None:
        yield "a grade table with an element dropped passed the check"
