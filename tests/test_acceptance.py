"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time

import numpy as np

from pisom.maps import alpha, beta_omega, omega
from pisom.matrix import gram, matrix_successors
from pisom.numeric import (
    displayed_block_relation,
    load_assignment,
    matrix_relations,
    random_partial_isometry,
    scalar_relations,
    verify_conjugation,
    verify_k_order,
    verify_order_rep,
    verify_schwarz,
)
from pisom.order import hollow_successors, leq, upper_idempotent
from pisom.structure import enum_irr, factor_a0
from pisom.words import UNIT_MINUS, UNIT_PLUS, Word, parse_word, reduce_word

from conftest import (
    oracle_normal_forms,
    product,
    random_minimal_sequences,
    raw_sequences,
    sa_words_upto,
    words_upto,
)

W = parse_word


def report(num, ok, detail=""):
    print("ACCEPTANCE %2d: %s %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok


def test_criterion_1_irreducible_tables():
    start = time.perf_counter()
    tables = {k: enum_irr(k) for k in range(1, 7)}
    elapsed = time.perf_counter() - start
    expected = {
        1: ["(-1,1)"],
        2: ["(-2,2)"],
        3: ["(-3,3)"],
        4: ["(-4,4)"],
        5: ["(-5,5)", "(-3,2,-2,3)"],
        6: ["(-6,6)", "(-4,2,-2,4)", "(-4,3,-2,3)", "(-3,2,-3,4)"],
    }
    ok = all(
        [str(w) for w in tables[k].elements] == expected[k] for k in expected
    ) and elapsed < 1.0
    report(1, ok, "grades 1-6 exact, %.3fs" % elapsed)


def test_criterion_2_factorization_golden():
    got = factor_a0(W("(-2,3,-3,2)"))
    ok = got == [Word((-2, 2)), Word((1, -1)), Word((-2, 2))]
    report(2, ok, "factor(-2,3,-3,2) = %s" % " ".join(str(f) for f in got))


def test_criterion_3_confluence():
    start = time.perf_counter()
    memo = {}
    cases = disagreements = 0
    for seq in raw_sequences(8):
        cases += 1
        forms = oracle_normal_forms(seq, memo)
        if len(forms) != 1 or reduce_word(seq) != Word(next(iter(forms))):
            disagreements += 1
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and elapsed < 30.0
    report(3, ok, "%d sequences, %d disagreements, %.1fs" % (cases, disagreements, elapsed))


def test_criterion_4_map_identities(irr_pool):
    failures = 0
    graded = [w for k in range(1, 7) for w in enum_irr(k).elements]
    for d in graded:
        if alpha(omega(d)) != d:
            failures += 1
        if beta_omega(alpha(d)) != d:
            failures += 1
        if d != UNIT_PLUS:
            if alpha(beta_omega(d)) != d:
                failures += 1
            if omega(d) != UNIT_MINUS * beta_omega(d) * UNIT_MINUS:
                failures += 1
    plus_pool = [w for w in irr_pool if w[0] < 0]
    for seq in random_minimal_sequences(plus_pool, 1000, seed=404, max_len=4):
        d = product(seq)
        if alpha(omega(d)) != d or beta_omega(alpha(d)) != d:
            failures += 1
    report(4, failures == 0, "identities on grades <= 6 and 1000 random products")


def test_criterion_5_order_suite():
    failures = 0
    for k in range(1, 11):
        if not leq(Word((-k, k)), UNIT_PLUS):
            failures += 1
    d1_sa = sa_words_upto(8, "D1")
    for a in d1_sa:
        if not leq(a * a, a):
            failures += 1
        if not leq(a, upper_idempotent(a)):
            failures += 1
    small = sa_words_upto(6, "D1")
    for a in small:
        for b in small:
            if a != b and leq(a, b) and leq(b, a):
                failures += 1
    report(5, failures == 0, "%d selfadjoints checked" % len(d1_sa))


def test_criterion_6_factor_gram_exactness():
    from pisom.matrix import factor_gram

    pool = list(words_upto(5))
    failures = cases = 0

    def vectors(k):
        if k == 0:
            yield ()
            return
        for w in pool:
            for rest in vectors(k - 1):
                yield (w,) + rest

    for k in (1, 2, 3):
        for vec in vectors(k):
            cases += 1
            recovered = factor_gram(gram(vec))
            uniform = len({w[0] > 0 for w in vec}) == 1
            if vec not in recovered or len(recovered) != (2 if uniform else 1):
                failures += 1
    report(6, failures == 0, "%d vectors, k <= 3, entry weight <= 5" % cases)


def test_criterion_7_example_reproduction():
    g = gram((W("(-2,3)"), W("(-3,4)")))
    succ = matrix_successors(g)
    nonmax = gram((W("(-1,3)"), W("(-2,4)")))
    max1 = gram((W("(-1,3)"), W("(1,-3,4)")))
    max2 = gram((W("(1,-2,3)"), W("(-2,4)")))
    ok = (
        nonmax in succ
        and bool(matrix_successors(nonmax))
        and max1 in succ
        and matrix_successors(max1) == set()
        and max2 in succ
        and matrix_successors(max2) == set()
    )
    g2 = gram((W("(-1,2,-5,6)"), W("(-3,5)")))
    succ2 = matrix_successors(g2)
    m1 = gram((W("(2,-5,6)"), W("(-2,5)")))
    m2 = gram((W("(1,-5,6)"), W("(-3,5)")))
    ok = ok and succ2 == {m1, m2} and all(matrix_successors(s) == set() for s in succ2)
    report(7, ok, "both worked examples byte-exact")


def test_criterion_8_two_predecessors():
    from pisom.matrix import immediate_predecessors

    rng = random.Random(2024)
    pool = list(words_upto(4))
    failures = done = 0
    while done < 500:
        k = rng.randint(1, 4)
        vec = tuple(rng.choice(pool) for _ in range(k))
        g = gram(vec)
        if not g.tagged("D1"):
            continue
        done += 1
        lo_neg, lo_pos = immediate_predecessors(g)
        if lo_neg == lo_pos:
            failures += 1
            continue
        for lo in (lo_neg, lo_pos):
            # predecessors may leave M_k(D1); compare at the ambient level
            if g not in matrix_successors(lo, require=None):
                failures += 1
    report(8, failures == 0, "500 random gram matrices, k <= 4")


def test_criterion_9_numeric_soundness():
    start = time.perf_counter()
    scalar_pairs = scalar_relations(200, seed=9)
    rels = {
        k: matrix_relations(50, seed=90 + k, ks=(k,), entry_weight=4) for k in (1, 2, 3)
    }
    conj_samples = [p[0] for p in scalar_pairs[:50]]
    failures = 0
    for seed in range(100):
        dim = 1 + seed % 6
        rep = random_partial_isometry(dim, seed)
        if not verify_order_rep(rep, scalar_pairs, tol=1e-9).ok:
            failures += 1
        for k in (1, 2, 3):
            if not verify_k_order(rep, k, rels[k], tol=1e-9).ok:
                failures += 1
        if not verify_conjugation(rep, conj_samples).ok:
            failures += 1
        if not verify_schwarz(rep, conj_samples, tol=1e-9).ok:
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 60.0
    report(9, ok, "100 reps x (200 scalar + 3x50 matrix + conj + schwarz), %.1fs" % elapsed)


def test_criterion_10_discrimination():
    import pathlib

    asset = pathlib.Path(__file__).parent / "assets" / "order_fixture.json"
    fx = load_assignment(asset)
    k1 = verify_order_rep(fx, scalar_relations(200, seed=10, within="D0"))
    lower, upper = displayed_block_relation()
    k2 = verify_k_order(fx, 2, [(lower, upper)])
    ok = k1.ok and not k2.ok
    detail = "k=1 passes (%d pairs), k=2 min_eig %.4f" % (
        k1.total,
        k2.failures[0]["min_eig"] if k2.failures else float("nan"),
    )
    report(10, ok, detail)
