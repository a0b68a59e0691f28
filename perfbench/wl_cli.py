"""cli-session: one fresh interpreter per CLI call, over a fixed mix.

Every round makes the same 20 calls, with fresh seeded arguments:
reduce, mul, member, factor --in-d0, alpha, beta-omega, order-succ,
order-leq, enum-irr (grade 7..10, --json), gram, factor-gram, matrix-succ,
matrix-pred, classify (a Gram matrix and a word), verify-rep, and one
malformed word literal that must end in exit 1 with one "error:" line;
then three malformed inputs that are the same for every seed:
``gram '[3]'``, ``factor-gram '[1,2]'`` and ``iota-tau`` with a partition
part "x".  A call that ends in a traceback counts as failed.

Wide calls are those that take a Gram matrix or word vector with k >= 2.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from types import SimpleNamespace

import pisom.matrix as M
import pisom.order as order
import pisom.structure as S
from pisom.words import Word, format_word

import calib
import reference as ref
import wl_irr
import wl_matrix
from harness import Op, cli_call, spawn

NAME = "cli-session"
PROBE = False
CALIBRATION = calib.INTERPRETER
LONG_OPS = True
TAIL_PERCENTILE = 75
TRACEBACK = "Traceback (most recent call last)"
MAX_IRR_GRADE = 9
FIXED_GRAM = json.dumps({"k": 1, "cells": [["(-3,2,-2,3)"]], "witness": ["(-2,3)"]})
FIXED_BAD = (
    ["gram", "[3]"],
    ["factor-gram", "[1,2]"],
    ["iota-tau", FIXED_GRAM, '["x"]'],
)
MALFORMED = ("(1,0,2)", "(1,,2)", "1,2", "(a)", "(-0)", "()", "(1 2)")
TAGS = ("A0", "Aplus", "Aminus", "Aplus0", "D0", "D1")


@dataclass
class State:
    tables: dict
    words: list
    matrix: object
    sa_pool: list
    child_summaries: list = field(default_factory=list)
    child_peak_kb: int = 0


def setup(seed: int) -> State:
    import random

    rng = random.Random(seed)
    tables = {g: [tuple(w) for w in S.enum_irr(g).elements] for g in range(2, MAX_IRR_GRADE + 1)}
    sa_pool = []
    for _ in range(100):
        u = ref.prod(*[rng.choice(tables[rng.randint(2, 6)]) for _ in range(rng.randint(1, 2))])
        n = ref.prod(ref.star(u), rng.choice(((), ref.UNIT_MINUS)), u)
        if ref.in_d1(n):
            chain, cur = [n], Word(n)
            while len(chain) < 5 and (succ := order.hollow_successors(cur)):
                (cur,) = succ
                chain.append(tuple(cur))
            if len(chain) > 1:
                sa_pool.append(chain)
    return State(tables, ref.reduced_words(6), wl_matrix.setup(seed), sa_pool)


# -- running calls ------------------------------------------------------------------------


def _call(state: State, argv, traced: bool):
    if not traced:
        out = spawn([sys.executable, "-m", "pisom.cli"] + argv)[:5]
        state.child_peak_kb = max(state.child_peak_kb, out[4])
        return out
    out, rep = cli_call(argv, trace=True)
    if rep is not None:
        state.child_summaries.append(rep["summary"])
    return out


def failed(out, err) -> bool:
    if err is not None:
        return True
    code, _, stderr, _, _ = out
    return TRACEBACK in stderr or code not in (0, 1, 2)


def known_fault(out, err) -> bool:
    return err is None and TRACEBACK in out[2]


# -- checks --------------------------------------------------------------------------------


def expect_stdout(text):
    def check(out):
        code, stdout, stderr, _, _ = out
        if code != 0:
            return "exit %d: %s" % (code, stderr.strip()[-200:])
        return None if stdout.strip() == text else "printed %r, expected %r" % (stdout.strip()[:200], text[:200])

    return check


def expect_json(validate):
    def check(out):
        code, stdout, stderr, _, _ = out
        if code != 0:
            return "exit %d: %s" % (code, stderr.strip()[-200:])
        return validate(json.loads(stdout))

    return check


def expect_error(out):
    code, stdout, stderr, _, _ = out
    lines = stderr.strip().splitlines()
    if code not in (1, 2) or stdout:
        return "malformed input ended with exit %d" % code
    if code == 1 and (len(lines) != 1 or not lines[0].startswith("error:")):
        return "malformed input did not end in one 'error:' line: %r" % stderr[:200]
    return None


def _literal(text) -> tuple:
    return tuple(int(e) for e in text.strip("()").split(","))


def _gram_json(vec):
    cells = ref.gram_cells(vec)
    return json.dumps({"k": len(vec), "cells": [[format_word(c) for c in row] for row in cells],
                       "witness": [format_word(w) for w in vec]})


def _check_cells(obj, vec):
    cells = [[format_word(c) for c in row] for row in ref.gram_cells(vec)]
    return None if obj["cells"] == cells else "Gram cells differ from the reference"


def _check_enum(g):
    def validate(obj):
        return ref.check_grade_table(g, [_literal(t) for t in obj["elements"]])

    return validate


def _check_factor_gram(vec):
    def validate(found):
        vecs = [tuple(_literal(t) for t in v) for v in found]
        if tuple(vec) not in vecs or len(vecs) != (2 if ref.uniform_sign(vec) else 1):
            return "factor-gram does not recover the input vector exactly"
        return None

    return validate


def _parse_gram(obj):
    return M.GramMatrix.from_json(json.dumps(obj))


def _check_successors(vec):
    weight = ref.diag_weight(ref.gram_cells(vec))

    def validate(items):
        for obj in items:
            h = _parse_gram(obj)
            if ref.diag_weight(h.cells) >= weight or ref.gram_cells(h.witness) != h.cells:
                return "a successor does not lower the diagonal weight or does not recompose"
        return None

    return validate


def _check_predecessors(vec):
    return lambda items: wl_matrix.check_predecessors(vec)([_parse_gram(obj) for obj in items])


def _check_classify(vec):
    cells = ref.gram_cells(vec)

    def validate(obj):
        def vec_of(key):
            return [_literal(t) for t in obj[key]] if obj[key] else None

        c = SimpleNamespace(case=obj["case"], maximal=obj["maximal"], m=vec_of("m"), a=vec_of("a"), lam=vec_of("lambda"))
        return wl_matrix.check_classification(cells, ref.uniform_sign(vec))(c)

    return validate


def _check_verify(count):
    total = count + 2 * (count // 2)
    return lambda obj: None if obj == {"total": total, "failures": []} else "verify-rep reported %r" % (obj,)


# -- the round -------------------------------------------------------------------------------


def _raw_sequence(rng):
    return tuple(rng.choice((-1, 1)) * rng.randint(1, 4) for _ in range(rng.randint(3, 8)))


def make_round(state: State, rng):
    words = state.words
    calls = []

    def add(argv, check, wide=False, fault=None):
        calls.append((argv, check, wide, fault))

    raw = _raw_sequence(rng)
    add(["reduce", format_word(raw)], expect_stdout(format_word(ref.reduce(raw))))
    a, b = rng.choice(words), rng.choice(words)
    add(["mul", format_word(a), format_word(b)], expect_stdout(format_word(ref.prod(a, b))))
    w, tag = rng.choice(words), rng.choice(TAGS)
    add(["member", format_word(w), tag], expect_stdout("true" if ref.member(w, tag) else "false"))
    factors = [rng.choice(state.tables[rng.randint(2, MAX_IRR_GRADE)]) for _ in range(rng.randint(1, 3))]
    add(["factor", format_word(ref.prod(*factors)), "--in-d0"], expect_stdout(" ".join(format_word(f) for f in factors)))
    w = rng.choice(words)
    add(["alpha", format_word(w)], expect_stdout(format_word(ref.prod((-1,), w, (1,)))))
    n = rng.choice(state.tables[rng.randint(2, MAX_IRR_GRADE)])
    add(["beta-omega", format_word(n)], expect_stdout(format_word((n[0] + 1,) + n[1:-1] + (n[-1] - 1,))))
    chain = rng.choice(state.sa_pool)
    add(["order-succ", format_word(chain[0]), "--json"],
        expect_json(lambda items, n=chain[0]: wl_irr.check_successors(n)([_literal(t) for t in items])))
    j = rng.randint(1, len(chain) - 1)
    lo, hi, truth = (chain[0], chain[j], "true") if rng.random() < 0.5 else (chain[j], chain[0], "false")
    add(["order-leq", format_word(lo), format_word(hi)], expect_stdout(truth))
    g = rng.randint(7, 10)
    add(["enum-irr", str(g), "--json"], expect_json(_check_enum(g)))
    vec = tuple(rng.choice(words[:60]) for _ in range(rng.randint(2, 3)))
    add(["gram", json.dumps([format_word(x) for x in vec])], expect_json(lambda obj, v=vec: _check_cells(obj, v)), wide=True)
    vec = tuple(rng.choice(words[:60]) for _ in range(rng.randint(2, 3)))
    add(["factor-gram", _gram_json(vec)], expect_json(_check_factor_gram(vec)), wide=True)
    vec = wl_matrix.draw_d1(state.matrix, rng, rng.randint(2, 3), True)
    add(["matrix-succ", _gram_json(vec)], expect_json(_check_successors(vec)), wide=True)
    vec = wl_matrix.draw_d1(state.matrix, rng, rng.randint(2, 3), rng.random() < 0.5)
    add(["matrix-pred", _gram_json(vec)], expect_json(_check_predecessors(vec)), wide=True)
    vec = wl_matrix.draw_d1(state.matrix, rng, rng.randint(2, 3), True)
    add(["classify", _gram_json(vec)], expect_json(_check_classify(vec)), wide=True)
    chain = rng.choice(state.sa_pool)
    half = tuple(-e for e in reversed(chain[0][: len(chain[0]) // 2]))
    add(["classify", format_word(chain[0])], expect_json(_check_classify((half,))))
    count = 16
    add(["verify-rep", "--seed", str(rng.randrange(10**6)), "--dim", str(rng.randint(1, 6)), "--count", str(count)],
        expect_json(_check_verify(count)))
    add(["reduce", rng.choice(MALFORMED)], expect_error)
    for argv in FIXED_BAD:
        add(list(argv), expect_error, fault=known_fault)

    return [
        Op(lambda argv=argv: _call(state, argv, False), check, wide=wide, fault=fault, failed=failed,
           traced=lambda argv=argv: _call(state, argv, True), label="pisom " + argv[0])
        for argv, check, wide, fault in calls
    ]


def self_test(state: State):
    if expect_stdout("(3,-1)")((0, "(3,1)\n", "", 0.0, 0)) is None:
        yield "a wrong CLI output passed the check"
    if not failed((1, "", TRACEBACK + "\n  File ...\nValueError: x\n", 0.0, 0), None):
        yield "a traceback was not counted as a failure"
