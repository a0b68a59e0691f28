import collections
import functools
import io
import itertools
import json
import random
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from pisom import matrix
from pisom.cli import run
from pisom.matrix import (
    K_CAP,
    GramMatrix,
    MatrixClassification,
    PARTITION_CAP,
    _left_quotients,
    classify_matrix,
    compose_partitions,
    conj_delta,
    factor_gram,
    gram,
    immediate_predecessors,
    iota_tau,
    matrix_leq,
    matrix_successors,
    partitions,
    vector_from_json,
)
from pisom.maps import alpha, conj
from pisom.numeric import PSD_TOL, eval_word, random_partial_isometry
from pisom.order import leq, sa_factor_min, sa_factorizations, unit_shift
from pisom.structure import factor_a0, is_irreducible, sa_canonical_d1
from pisom.words import (
    GEN,
    GEN_STAR,
    TAGS,
    UNIT_MINUS,
    UNIT_PLUS,
    DomainError,
    Word,
    WordError,
    _checked,
    iter_words,
    member,
    parse_word,
)

from conftest import hollow_choices, passes_the_check, random_word, ref, words_upto

W = parse_word

HMM_VECTOR = (W("(-2,3)"), W("(-3,4)"))
HMM_GRAM = gram(HMM_VECTOR)


# -- gram and recovery ---------------------------------------------------------


def test_gram_examples():
    assert HMM_GRAM.cells[0][1] == W("(-3,2,-3,4)")
    w = W("(-2,3)")
    assert gram((w,)).cells == ((w.star * w,),)
    g = gram((Word((-1,)), Word((-1,))))
    assert all(c == UNIT_MINUS for row in g.cells for c in row)


def test_gram_stars_the_upper_triangle():
    # gram builds every cell from pieces of the entries cut once, with no
    # product or star per cell: the same cells as every product v_i* v_j,
    # on all vectors of rank <= 3 and entry weight <= 3
    for k in (1, 2, 3):
        for vec in itertools.product(words_upto(3), repeat=k):
            g = gram(vec)
            assert g.cells == tuple(tuple(a.star * b for b in vec) for a in vec), vec
            assert g.witness == vec


def test_gram_cells_pass_the_check():
    # the kernel wraps every cell unchecked; on the vector of all 106 words
    # of weight <= 7 its 11,236 cells are every pair of them, and each must
    # equal a.star * b and satisfy the invariants
    pool = list(words_upto(7))
    assert len(pool) == 106
    rows = gram(pool).cells
    assert type(rows) is tuple and len(rows) == len(pool)
    for a, row in zip(pool, rows):
        assert type(row) is tuple and len(row) == len(pool)
        s = a.star
        for b, c in zip(pool, row):
            assert type(c) is Word and _checked(tuple(c)) == c == s * b, (a, b)


def test_gram_cells_match_the_reference():
    # 5,000 seeded vectors of rank 1..6 drawn from 120 seeded words with up
    # to 30 entries, magnitudes up to 10^20 and a unit at each end about
    # half the time, against the reference's cells; the 14,400 pairs of the
    # pool fit the reference's cell cache, which keeps the test near 1 s
    rng = random.Random(2028)
    pool = [random_word(rng, 30, 10**20) for _ in range(120)]
    assert 40 < sum(abs(w[0]) == 1 for w in pool) < 80
    for _ in range(5000):
        vec = tuple(rng.choice(pool) for _ in range(rng.randint(1, 6)))
        assert gram(vec).cells == ref.gram_cells(vec), vec


def test_gram_refuses_a_plain_tuple(monkeypatch):
    # an entry that is not a Word is refused, wherever it stands in the
    # vector, before the kernel makes any cell, so nothing built from that
    # entry is wrapped unchecked
    made = []
    real = matrix._trusted

    def record(entries):
        made.append(tuple(entries))
        return real(entries)

    monkeypatch.setattr(matrix, "_trusted", record)
    w = Word((-2, 3))
    for vec in (((2, 2), w), (w, (2, 2))):
        made.clear()
        with pytest.raises(TypeError, match=r"^a Gram entry must be a Word, not tuple$"):
            gram(vec)
        assert made == [], vec


def test_gram_selfadjoint_and_tagged():
    assert all(HMM_GRAM.cells[j][i] == c.star for i, row in enumerate(HMM_GRAM.cells) for j, c in enumerate(row))
    assert HMM_GRAM.tagged("D1") and HMM_GRAM.tagged("D0")


def test_every_tag_is_closed_under_star():
    # every tag holds a word exactly when it holds its star, so a Gram
    # matrix, whose cell (j, i) is the star of cell (i, j), is in a tag's
    # subsemigroup when its cells with i <= j are: on all 174 words of
    # weight <= 8
    pool = list(iter_words(8))
    assert len(pool) == 174
    for tag in TAGS:
        assert all(member(w, tag) == member(w.star, tag) for w in pool), tag


def cells_in(cells, tag):
    """The cell scan of the reference: every cell in D0 or D1."""
    test = ref.in_d0 if tag == "D0" else ref.in_d1
    return all(test(c) for row in cells for c in row)


def test_d_tags_are_read_off_the_witness():
    # tagged("D0") and tagged("D1") read the witness's taus and prefix sums,
    # not the cells: the same verdict as the reference's scan of every cell,
    # on all 56,354 vectors of rank <= 3 and entry weight <= 5 and on the
    # seeded draws at k = 4..8
    pool = list(words_upto(5))
    vecs = [vec for k in (1, 2, 3) for vec in itertools.product(pool, repeat=k)]
    assert len(vecs) == 56354
    counts = {"D0": 0, "D1": 0}
    for vec in vecs + list(d1_draws_wide()):
        g, cells = gram(vec), ref.gram_cells(vec)
        for tag in counts:
            got = g.tagged(tag)
            assert got == cells_in(cells, tag), (vec, tag)
            counts[tag] += got
    assert counts["D1"] > counts["D0"] > 0


@pytest.mark.parametrize(
    "vec, tag, want",
    [
        # unequal taus, every prefix sum within the bound
        (("(-2,2)", "(-3,2)"), "D0", False),
        (("(-2,2)", "(-3,2)"), "D1", False),
        # in cell (0, 1) the prefix sum over the bound lies left of the
        # junction (from w_0*), then right of it (from w_1)
        (("(-1,2,-1)", "(-1,1)"), "D0", False),
        (("(-1,1)", "(-1,2,-1)"), "D0", False),
        (("(-1,3,-2)", "(-1,1)"), "D1", False),
        (("(-1,1)", "(-1,3,-2)"), "D1", False),
        # the bound is T + tau(w_0): 2 at tau 1, 0 at tau -1
        (("(-1,3,-1)",), "D1", True),
        (("(-1,3,-1)",), "D0", False),
        (("(-1,2,-2)", "(-2,1)"), "D1", False),
        (("(-2,1)", "(-3,2)"), "D1", True),
    ],
)
def test_d_tags_by_hand(vec, tag, want):
    vec = tuple(W(t) for t in vec)
    assert gram(vec).tagged(tag) is want
    assert cells_in(ref.gram_cells(vec), tag) is want


def test_factor_gram_examples():
    assert factor_gram(HMM_GRAM) == (
        (W("(-2,3)"), W("(-3,4)")),
        (W("(1,-2,3)"), W("(1,-3,4)")),
    )
    mixed = gram((W("(-1,3)"), W("(1,-3,4)")))
    assert factor_gram(mixed) == ((W("(-1,3)"), W("(1,-3,4)")),)
    assert set(factor_gram(gram((Word((-1,)),)))) == {
        (Word((-1,)),),
        (UNIT_MINUS,),
    }


def test_factor_gram_inconsistent():
    # selfadjoint cells that no word vector has are refused at the way in
    with pytest.raises(DomainError, match="^inconsistent gram matrix: no factorization$"):
        GramMatrix.from_cells(((W("(-2,2)"), W("(-2,2)")), (W("(-2,2)"), W("(-3,3)"))))


def test_from_cells_checks_diagonal_and_upper_triangle():
    # the recovered witness is the one factorization or the all-negative one
    a, b = HMM_GRAM.cells[0]
    assert GramMatrix.from_cells(HMM_GRAM.cells).witness == HMM_VECTOR
    assert GramMatrix.from_cells(gram(factor_gram(HMM_GRAM)[1]).cells).witness == HMM_VECTOR
    for cells in (((W("(-2,3)"),),), ((a, b), (b, HMM_GRAM.cells[1][1]))):
        with pytest.raises(DomainError, match="^gram matrix is not selfadjoint$"):
            GramMatrix.from_cells(cells)


def test_factor_gram_rejects_inner_cell_mismatch():
    # row 0 and the diagonal come from a real vector, so the vector read off
    # tau matches them and only the inner cells (1, 2) and (2, 1) refuse it
    g = gram((W("(-2,3)"), W("(-3,4)"), W("(-1,2)")))
    odd = W("(-7,7)")
    cells = [list(row) for row in g.cells]
    cells[1][2], cells[2][1] = odd, odd.star
    assert odd != g.cells[1][2]
    with pytest.raises(DomainError, match="no factorization"):
        GramMatrix.from_cells(tuple(map(tuple, cells)))


def test_factor_gram_exhaustive_small():
    # each matrix twice: read off its witness, and off the witness that
    # from_cells recovers from its cells
    for k in (1, 2):
        for vec in itertools.product(words_upto(4), repeat=k):
            g = gram(vec)
            recovered = factor_gram(g)
            assert recovered == factor_gram(GramMatrix.from_cells(g.cells)) == factor_gram_by_search(g.cells), vec
            assert vec in recovered
            signs = {w[0] > 0 for w in vec}
            assert len(recovered) == (2 if len(signs) == 1 else 1), vec
            for v in recovered:
                assert gram(v) == g


def factor_gram_by_search(cells):
    """factor_gram as first written, on a square array of cells: for each
    factorization of cell (0, 0), every branch of candidates for the other
    diagonal cells that matches row 0, kept when it also matches the inner
    cells."""
    k = len(cells)
    if any(cells[j][i] != cells[i][j].star for i in range(k) for j in range(i, k)):
        raise DomainError("gram matrix is not selfadjoint")
    diag_opts = [sa_factorizations(cells[i][i]) for i in range(k)]
    found = set()
    for first in diag_opts[0]:
        branches = [[first]]
        for i in range(1, k):
            branches = [br + [cand] for br in branches for cand in diag_opts[i] if first.star * cand == cells[0][i]]
        for br in branches:
            if all(br[i].star * br[j] == cells[i][j] for i in range(1, k - 1) for j in range(i + 1, k)):
                found.add(tuple(br))
    if not found:
        raise DomainError("inconsistent gram matrix: no factorization")
    return tuple(sorted(found, key=lambda v: (v[0][0] > 0, v)))


def _outcome(fn, g):
    try:
        return fn(g)
    except DomainError as exc:
        return str(exc)


def test_factor_gram_matches_search():
    # every distinct Gram matrix of a vector with k <= 3 and entry weight
    # <= 4, at the ambient level, and for each one of rank >= 2 a variant
    # that conjugates one cell on or above the diagonal by the unit (1)
    # (and its mirror below), the cell cycling through the positions: both
    # recoveries agree, and the vectors found are one with mixed first
    # signs, or the all-negative one and then the all-positive one.  Each
    # array of cells goes through GramMatrix.from_cells; a matrix built by
    # gram() is also read off its own witness, with the same answer
    pool = list(words_upto(4))
    grams = sorted({gram(v) for k in (1, 2, 3) for v in itertools.product(pool, repeat=k)}, key=lambda g: g.cells)
    assert len(grams) == 10570
    variants = []
    for n, g in enumerate(g for g in grams if g.k > 1):
        positions = list(itertools.combinations_with_replacement(range(g.k), 2))
        i, j = positions[n % len(positions)]
        odd = GEN_STAR * g.cells[i][j] * GEN
        cells = [list(row) for row in g.cells]
        cells[i][j], cells[j][i] = odd, odd.star
        variants.append(tuple(map(tuple, cells)))
    outcomes = {}
    for cells, g in [(g.cells, g) for g in grams] + [(cells, None) for cells in variants]:
        got = _outcome(lambda c: factor_gram(GramMatrix.from_cells(c)), cells)
        assert got == _outcome(factor_gram_by_search, cells), cells
        if g:
            assert factor_gram(g) == got, g
        if not isinstance(got, str):
            signs = [{w[0] > 0 for w in v} for v in got]
            assert signs in ([{False, True}], [{False}, {True}]), cells
            got = len(got)
        outcomes[got] = outcomes.get(got, 0) + 1
    assert outcomes == {1: 8228, 2: 2624, "inconsistent gram matrix: no factorization": 10274}, outcomes


# -- successors, reachability, predecessors ---------------------------------------


def test_matrix_successor_example_hmm():
    succ = matrix_successors(HMM_GRAM)
    expected_nonmax = gram((W("(-1,3)"), W("(-2,4)")))
    expected_max = [
        gram((W("(-1,3)"), W("(1,-3,4)"))),
        gram((W("(1,-2,3)"), W("(-2,4)"))),
    ]
    assert expected_nonmax in succ
    assert matrix_successors(expected_nonmax)
    for g in expected_max:
        assert g in succ
        assert matrix_successors(g) == set()
    assert len(succ) == 3


def test_matrix_successor_idempotent_maximal():
    assert matrix_successors(gram((Word((-1,)),))) == set()


def test_matrix_successor_second_example():
    g = gram((W("(-1,2,-5,6)"), W("(-3,5)")))
    succ = matrix_successors(g)
    assert succ == {
        gram((W("(2,-5,6)"), W("(-2,5)"))),
        gram((W("(1,-5,6)"), W("(-3,5)"))),
    }
    for s in succ:
        assert matrix_successors(s) == set()


def test_matrix_successors_closure_d1():
    rng = random.Random(5)
    pool = list(words_upto(4))
    done = 0
    while done < 60:
        vec = tuple(rng.choice(pool) for _ in range(2))
        g = gram(vec)
        if not g.tagged("D1"):
            continue
        done += 1
        for s in matrix_successors(g):
            assert s.tagged("D1")


def test_maximal_census_k2():
    # no uniform-sign factorization <=> no successors, for k = 2 and
    # per-entry weight <= 5 (sampled stride keeps this quick)
    pool = list(words_upto(5))
    count = 0
    for w1 in pool:
        for w2 in pool:
            g = gram((w1, w2))
            if not g.tagged("D1"):
                continue
            count += 1
            uniform = any(len({w[0] > 0 for w in v}) == 1 for v in factor_gram(g))
            if not uniform:
                assert matrix_successors(g) == set()
    assert count > 100


def successors_by_gram(g, require="D1"):
    """matrix_successors as first written: the Gram matrix of every choice
    vector, each built by gram(), the first choice vector of a matrix
    keeping the witness."""
    if require:
        assert g.tagged(require)
    out = set()
    for vec in factor_gram(g):
        if len({w[0] > 0 for w in vec}) != 1:
            continue
        for choice in itertools.product(*(hollow_choices(w) for w in vec)):
            h = gram(choice)
            if h != g:
                out.add(h)
    return out


def matrix_successors_by_choices(g, require="D1"):
    """matrix_successors with the 4k^2 table: every cell c_a(w_i)* c_b(w_j)
    of the hollowing choices multiplied once, and each choice vector, in
    cartesian order, assembled from the table by lookup."""
    if require:
        assert g.tagged(require)
    assert g.k <= K_CAP
    facts = factor_gram(g)
    out = set()
    if len(facts) == 1:
        return out
    for vec in facts:
        opts = [hollow_choices(w) for w in vec]
        stars = [[c.star for c in o] for o in opts]
        table = [[[[s * c for c in o] for o in opts] for s in row] for row in stars]
        for pick in itertools.product(*(range(len(o)) for o in opts)):
            cells = tuple(tuple(row[b] for row, b in zip(table[i][a], pick)) for i, a in enumerate(pick))
            if cells != g.cells:
                out.add(GramMatrix(cells, tuple(o[a] for o, a in zip(opts, pick))))
    return out


def assert_same_successors(g, require="D1"):
    # the successors, their witnesses and the set's iteration order are
    # those of the table reference; cells and witnesses those of gram()
    got = [(h.cells, h.witness) for h in matrix_successors(g, require=require)]
    assert got == [(h.cells, h.witness) for h in matrix_successors_by_choices(g, require)], g
    want = {h.cells: h.witness for h in successors_by_gram(g, require)}
    assert dict(got) == want, g


def test_successor_table_matches_gram_reference():
    # cells and witnesses, on every D1 matrix of the small space and on
    # both immediate predecessors of each (which may leave D1)
    for g in d1_grams_small():
        assert_same_successors(g)
        for lo in immediate_predecessors(g):
            assert_same_successors(lo, require=None)


def immediate_predecessors_by_push(g):
    """immediate_predecessors as first written: each side tries gram of its
    unit times every entry of the first factorization, and the unit squared
    when that gives g back."""
    vec = factor_gram(g)[0]

    def push(unit_word, double):
        cand = gram(tuple(unit_word * w for w in vec))
        return cand if cand != g else gram(tuple(double * w for w in vec))

    return push(GEN_STAR, Word((-2,))), push(GEN, Word((2,)))


def mirror(g):
    """g with its other factorization as the witness; g must have two."""
    negative, positive = factor_gram(g)
    return gram(positive if g.witness == negative else negative)


def with_both_witnesses(grams):
    """Each matrix and, when it has two factorizations, after it the same
    matrix with the mirror witness."""
    return [h for g in grams for h in ((g, mirror(g)) if len(factor_gram(g)) == 2 else (g,))]


def witness_signs(g):
    """The first signs of g's witness: mixed, negative or positive."""
    first = {w[0] > 0 for w in g.witness}
    return "mixed" if len(first) == 2 else "positive" if True in first else "negative"


def test_shifts_leave_the_cells_of_g():
    # on every D1 matrix of the small space the predecessors are those of
    # the reference that builds gram((1) w), with the witness that
    # d1_grams_small kept and with the mirror one, so that all-negative and
    # all-positive witnesses both occur; on the 227 with two factorizations
    # the second is (1) times the first entry by entry, and a shifted entry
    # of a choice vector leaves its row and its column as they are in g
    grams = with_both_witnesses(d1_grams_small())
    assert collections.Counter(map(witness_signs, grams)) == {"mixed": 422, "negative": 227, "positive": 227}
    for h in grams:
        got = immediate_predecessors(h)
        want = immediate_predecessors_by_push(h)
        assert [(p.cells, p.witness) for p in got] == [(p.cells, p.witness) for p in want], h
    two = shifted = 0
    for g in d1_grams_small():
        facts = factor_gram(g)
        if len(facts) == 1:
            continue
        two += 1
        assert facts[1] == tuple(GEN * w for w in facts[0]), g
        for vec in facts:
            for choice in itertools.product(*(hollow_choices(w) for w in vec)):
                h = gram(choice).cells
                for i, (w, c) in enumerate(zip(vec, choice)):
                    if c == unit_shift(w):
                        shifted += 1
                        assert h[i] == g.cells[i], (g, choice)
                        assert all(h[j][i] == g.cells[j][i] for j in range(g.k)), (g, choice)
    assert (two, shifted) == (227, 2327)


def test_every_choice_vector_gives_its_own_successor():
    # no successor is reached twice (proof at matrix_successors): on every
    # D1 matrix of the small space the successors number 2^m - 1 from each
    # factorization, summed over both, m the entries of that factorization
    # with two hollowing choices; a mixed-sign matrix has none
    total = 0
    for g in d1_grams_small():
        facts = factor_gram(g)
        want = sum(2 ** sum(len(hollow_choices(w)) == 2 for w in vec) - 1 for vec in facts) if len(facts) == 2 else 0
        assert len(matrix_successors(g)) == want, g
        total += want
    assert total == 813


def draw_d1_vector(rng, pool, compat, k, uniform):
    """k words whose Gram cells all lie in D1: each new word is drawn from
    those compatible with every word drawn so far."""
    while True:
        sign = rng.random() < 0.5
        cands = [w for w in pool if not uniform or (w[0] > 0) == sign]
        vec = [rng.choice(cands)]
        while len(vec) < k:
            vec.append(rng.choice([w for w in cands if all(w in compat[u] for u in vec)]))
        if (len({w[0] > 0 for w in vec}) == 1) == uniform:
            return tuple(vec)


@functools.cache
def d1_pool():
    """The words of weight <= 5 whose w* w lies in D1, and for each word a
    the words b among them with a* b and b* a in D1."""
    pool = [w for w in words_upto(5) if member(w.star * w, "D1")]
    compat = {a: {b for b in pool if member(a.star * b, "D1") and member(b.star * a, "D1")} for a in pool}
    return pool, compat


@functools.cache
def d1_draws_wide():
    """Seeded D1 vectors: four of uniform first sign and one mixed at each
    rank 4..K_CAP."""
    rng = random.Random(4)
    return tuple(
        draw_d1_vector(rng, *d1_pool(), k, uniform) for k in range(4, K_CAP + 1) for uniform in (True,) * 4 + (False,)
    )


def test_successor_table_matches_gram_reference_wide():
    case3 = 0
    for vec in d1_draws_wide():
        g = gram(vec)
        assert g.tagged("D1")
        assert_same_successors(g)
        if len({w[0] > 0 for w in vec}) == 1:
            assert matrix_successors(g), g
        res = classify_matrix(g)
        if res.case == "Case3" and not res.maximal:
            assert case3_recomposes(g, res.m, res.lam), g
            case3 += 1
        assert res == case3_by_search(g), g
    assert case3 == 9


def test_every_witness_factors_its_cells():
    # factor_gram reads its answer off the witness, so every matrix that
    # matrix.py builds carries a witness whose Gram matrix is its cells, and
    # the witness that from_cells recovers gives the same factorizations.
    # Every builder is checked: gram, from_json (with a witness, and without
    # one through from_cells), matrix_successors, iota_tau, conj_delta and,
    # through gram, immediate_predecessors.  On the 649 matrices of
    # d1_grams_small and the 25 seeded draws at k = 4..8.
    def holds(h):
        assert gram(h.witness).cells == h.cells, h
        assert factor_gram(GramMatrix.from_cells(h.cells)) == factor_gram(h), h

    pool, _ = d1_pool()
    grams = list(d1_grams_small()) + [gram(vec) for vec in d1_draws_wide()]
    assert len(grams) == 674
    for n, g in enumerate(grams):
        holds(g)
        holds(GramMatrix.from_json(g.to_json()))
        bare = json.loads(g.to_json())
        del bare["witness"]
        holds(GramMatrix.from_json(json.dumps(bare)))
        holds(conj_delta(tuple(pool[(n + i) % len(pool)] for i in range(g.k)), g))
        tau = tuple((n + i) % 3 for i in range(g.k))
        if any(tau):
            holds(iota_tau(g, tau))
        for require in ("D1", None):
            for h in matrix_successors(g, require=require):
                holds(h)
        for h in immediate_predecessors(g):
            holds(h)


def test_matrix_relations_keep_their_witnesses(monkeypatch):
    # the sampler draws from the sorted successor set, so the witnesses it
    # hands on must be those of the gram reference
    import pisom.numeric as numeric

    for ks in ((2,), (3,), (2, 3)):
        got = numeric.matrix_relations(12, 7, ks=ks)
        with monkeypatch.context() as m:
            m.setattr(numeric, "matrix_successors", successors_by_gram)
            want = numeric.matrix_relations(12, 7, ks=ks)
        assert [(lo, hi, hi.witness) for lo, hi in got] == [(lo, hi, hi.witness) for lo, hi in want]


def test_matrix_leq_examples():
    assert matrix_leq(HMM_GRAM, gram((W("(-1,3)"), W("(1,-3,4)"))))
    assert matrix_leq(HMM_GRAM, HMM_GRAM)
    assert not matrix_leq(
        gram((W("(-1,3)"), W("(1,-3,4)"))), gram((W("(1,-2,3)"), W("(-2,4)")))
    )
    with pytest.raises(DomainError):
        matrix_leq(HMM_GRAM, gram((W("(-1)"),)))
    # a D1 diagonal cell that is not selfadjoint belongs to no Gram matrix,
    # nor does a matrix whose cell (1, 0) is not the star of cell (0, 1); as
    # JSON either is refused wherever it appears
    skew = '{"k": 1, "cells": [["(-3,2,-4,5)"]]}'
    g = '{"k": 2, "cells": [["(-1,1)", "(-3,3)"], ["(-2,2)", "(-1,1)"]]}'
    h = gram((UNIT_PLUS, UNIT_PLUS)).to_json()
    for text in (skew, g):
        with pytest.raises(DomainError, match="not selfadjoint"):
            GramMatrix.from_json(text)
    for lower, upper in ((skew, skew), (gram((W("(2)"),)).to_json(), skew), (g, g), (h, g), (g, h)):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(["matrix-leq", lower, upper])
        assert (code, out.getvalue(), err.getvalue()) == (1, "", "error: gram matrix is not selfadjoint\n")


def test_matrix_leq_refuses_a_matrix_without_factorization():
    # a selfadjoint D1 matrix that no word vector has as its Gram matrix is
    # refused on either side, and against itself, as from_cells refuses it
    g = '{"k": 2, "cells": [["(-2,2)", "(-2,2)"], ["(-2,2)", "(-3,3)"]]}'
    h = gram((UNIT_PLUS, UNIT_PLUS)).to_json()
    assert all(member(W(c), "D1") for row in json.loads(g)["cells"] for c in row)
    for lower, upper in ((g, h), (h, g), (g, g)):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(["matrix-leq", lower, upper])
        assert (code, out.getvalue(), err.getvalue()) == (1, "", "error: inconsistent gram matrix: no factorization\n")


def matrix_leq_by_search(g1, g2):
    """Breadth-first search up the successors, pruned below the summed
    diagonal weight of g2 (each basic step strictly lowers it)."""
    bound = sum(g2.cells[i][i].weight for i in range(g2.k))
    frontier, seen = {g1}, set()
    while frontier:
        if g2 in frontier:
            return True
        seen |= frontier
        frontier = {
            y
            for x in frontier
            for y in matrix_successors(x, require=None)
            if y not in seen and sum(y.cells[i][i].weight for i in range(y.k)) >= bound
        }
    return False


@functools.lru_cache(maxsize=None)
def small_d1_grams():
    """The D1 Gram matrices of rank <= 3 built from words of weight <= 3,
    grouped by rank."""
    pool = list(words_upto(3))
    grams = ({gram(v) for v in itertools.product(pool, repeat=k)} for k in (1, 2, 3))
    return tuple(sorted((g for g in gs if g.tagged("D1")), key=lambda g: g.cells) for gs in grams)


def test_matrix_leq_matches_search():
    by_rank = small_d1_grams()
    assert [len(gs) for gs in by_rank] == [6, 16, 42]
    pairs = [(a, b) for gs in by_rank for a in gs for b in gs]
    verdicts = [matrix_leq(a, b) for a, b in pairs]
    assert len(pairs) == 2056 and sum(verdicts) == 111
    assert verdicts == [matrix_leq_by_search(a, b) for a, b in pairs]
    # the same verdicts with either witness of each matrix, all-negative
    # and all-positive witnesses alike
    verdict = {(a.cells, b.cells): v for (a, b), v in zip(pairs, verdicts)}
    both = [with_both_witnesses(gs) for gs in by_rank]
    signs = collections.Counter(witness_signs(g) for gs in both for g in gs)
    assert signs == {"mixed": 30, "negative": 34, "positive": 34}
    for gs in both:
        for a in gs:
            for b in gs:
                assert matrix_leq(a, b) == verdict[a.cells, b.cells], (a.witness, b.witness)


def test_left_quotients_exhaustive():
    # every word x is a left quotient of x * c by c, and every quotient
    # found multiplies back: all 30,276 pairs of words of weight <= 8
    pool = list(words_upto(8))
    for x in pool:
        for c in pool:
            w = x * c
            found = list(_left_quotients(w, c))
            assert x in found, (x, c)
            assert all(q * c == w for q in found), (x, c)
    assert len(pool) ** 2 == 30276


def test_hollow_choices_are_the_unit_quotients():
    # a basic step from gram(u c) goes to gram(c): the hollowing choices of
    # w are exactly the words c with u c == w, u the unit of w's first sign
    # (u c has weight at least that of c less one, so weight <= 9 covers w)
    quotients = {}
    for c in words_upto(9):
        for u in (GEN_STAR, GEN):
            quotients.setdefault((u, u * c), set()).add(c)
    for w in words_upto(8):
        u = GEN_STAR if w[0] < 0 else GEN
        assert set(hollow_choices(w)) == quotients[u, w], w


def up_set(g):
    """g and every Gram matrix above it, by walking the successors."""
    seen, frontier = {g}, {g}
    while frontier:
        frontier = {y for x in frontier for y in matrix_successors(x) if y not in seen}
        seen |= frontier
    return seen


def test_matrix_leq_matches_search_wide():
    # pairs drawn from the up-sets of uniform D1 matrices at ranks 4..8,
    # where comparable pairs are common
    pool, compat = d1_pool()
    rng = random.Random(13)
    pairs = []
    for k in range(4, K_CAP + 1):
        for _ in range(4):
            ups = sorted(up_set(gram(draw_d1_vector(rng, pool, compat, k, True))), key=lambda g: g.cells)
            pairs += [(rng.choice(ups), rng.choice(ups)) for _ in range(40)]
    verdicts = [matrix_leq(a, b) for a, b in pairs]
    assert len(pairs) == 800 and sum(verdicts) == 126
    assert verdicts == [matrix_leq_by_search(a, b) for a, b in pairs]


def schwarz_pair(a):
    """gram((alpha(a_i))_i) and gram((a_i (1))_i)."""
    return gram(tuple(map(alpha, a))), gram(tuple(x * GEN for x in a))


def test_schwarz_step_is_in_the_matrix_order():
    # the Schwarz inequality at every rank: gram((alpha(a_i))) <= gram((a_i (1)))
    # when both are in D1, since each lower entry is (-1) times the upper one,
    # a single basic step or an equality; every vector of rank <= 3 over the
    # words of weight <= 3, and 5,000 seeded draws at rank 3 over weight <= 6
    pool = list(words_upto(3))
    equal = {1: [], 2: [], 3: []}  # per rank, lower == upper for each vector checked
    for k in equal:
        for a in itertools.product(pool, repeat=k):
            lower, upper = schwarz_pair(a)
            if lower.tagged("D1") and upper.tagged("D1"):
                assert matrix_leq(lower, upper), a
                equal[k].append(lower == upper)
    assert len(equal[1]) + len(equal[2]) == 34 and sum(equal[1]) + sum(equal[2]) == 14
    assert (len(equal[3]), sum(equal[3])) == (64, 12)
    pool, rng = list(words_upto(6)), random.Random(5)
    pairs = [schwarz_pair([rng.choice(pool) for _ in range(3)]) for _ in range(5000)]
    pairs = [(lower, upper) for lower, upper in pairs if lower.tagged("D1") and upper.tagged("D1")]
    assert len(pairs) == 75 and all(matrix_leq(lower, upper) for lower, upper in pairs)


def test_matrix_order_against_the_operator_order_at_partial_isometries():
    # on the matrices of d1_grams_small, every pair below in matrix_leq
    # stays PSD at 30 seeded partial isometries of dimension 2..4, and every
    # other pair is refuted there (its block difference has an eigenvalue
    # below -PSD_TOL at one of them) but for 6 at rank 2 and 24 at rank 3.
    # Those are the cross-compressions gram(u c) below gram(c): c is the one
    # factorization of a mixed-sign matrix, and u_i the idempotent that does
    # not fix c_i, Q = v v* before a negative-start c_i, P = v* v before a
    # positive-start one.  They hold at every partial isometry: for
    # p = c_0 x_0 in ran P and q = c_1 x_1 in ran Q,
    # Qp + Pq = (P + Q - I)(p + q), and P - (I - Q) lies between -I and I,
    # so ||Qp + Pq|| <= ||p + q||.  Yet gram(c) is maximal, so matrix_leq
    # answers false: the basic-step order is strictly finer than the
    # operator order.  Ranks 1 and 2 take every ordered pair; rank 3, with
    # 294,306 of them, a seeded sample of 10,000 and every cross-compression
    # pair.  A refuted pair is not evaluated again.
    grams = d1_grams_small()
    rng = random.Random(7)
    for k, below_count, cross_count in ((1, 29, 0), (2, 147, 6), (3, 21, 24)):
        mats = [g for g in grams if g.k == k]
        at_mat = {g: i for i, g in enumerate(mats)}
        cross = set()
        for j, g in enumerate(mats):
            facts = factor_gram(g)
            if len(facts) == 1:
                lower = gram(tuple((UNIT_MINUS if w[0] < 0 else UNIT_PLUS) * w for w in facts[0]))
                if lower in at_mat:
                    cross.add((at_mat[lower], j))
        m = len(mats)
        picks = range(m * (m - 1)) if k < 3 else rng.sample(range(m * (m - 1)), 10000)
        # pick p is the pair (i, j), i != j, at position p of the row-major order
        pairs = sorted({(i, r + (r >= i)) for i, r in (divmod(p, m - 1) for p in picks)} | cross)
        lo, hi = np.array(pairs).T
        words = sorted({c for g in mats for row in g.cells for c in row})
        at = {w: i for i, w in enumerate(words)}
        cells = np.array([[[at[c] for c in row] for row in g.cells] for g in mats])
        below = np.array([matrix_leq(mats[i], mats[j]) for i, j in pairs])
        worst = np.zeros(len(lo))
        pending = np.ones(len(lo), dtype=bool)
        for seed in range(30):
            n = 2 + seed % 3
            rep = random_partial_isometry(n, seed)
            ev = np.array([eval_word(rep, w) for w in words])
            blocks = ev[cells].transpose(0, 1, 3, 2, 4).reshape(m, k * n, k * n)
            idx = np.flatnonzero(pending)
            worst[idx] = np.minimum(worst[idx], np.linalg.eigvalsh(blocks[hi[idx]] - blocks[lo[idx]])[:, 0])
            pending &= below | (worst >= -PSD_TOL)
        assert below.sum() == below_count and worst[below].min() >= -PSD_TOL
        unrefuted = set(zip(lo[pending & ~below].tolist(), hi[pending & ~below].tolist()))
        assert unrefuted == cross and len(cross) == cross_count


def test_matrix_steps_hollow_each_diagonal_cell():
    # every basic step leaves each diagonal cell below it in the scalar
    # order, so g1 <= g2 needs each diagonal cell of g1 below that of g2
    steps = 0
    for gs in small_d1_grams():
        for x in gs:
            for y in matrix_successors(x, require=None):
                steps += 1
                assert all(leq(x.cells[i][i], y.cells[i][i]) for i in range(x.k)), (x, y)
    assert steps


def test_k_cap():
    vec = tuple(Word((-1,)) for _ in range(K_CAP + 1))
    with pytest.raises(DomainError, match="capped at k = 8"):
        matrix_successors(gram(vec))


def test_immediate_predecessors_example():
    g = gram((W("(2,-5,6)"), W("(-2,5)")))
    lo_neg, lo_pos = immediate_predecessors(g)
    assert lo_neg == gram((W("(-1,2,-5,6)"), W("(-3,5)")))
    assert lo_pos == gram((W("(3,-5,6)"), W("(1,-2,5)")))
    for lo in (lo_neg, lo_pos):
        assert g in matrix_successors(lo)
        assert lo != g


def test_immediate_predecessors_k1():
    lo_neg, lo_pos = immediate_predecessors(gram((Word((1,)),)))
    assert gram((Word((2,)),)) == lo_pos or gram((Word((2,)),)) == lo_neg
    assert lo_neg != lo_pos
    for lo in (lo_neg, lo_pos):
        assert gram((Word((1,)),)) in matrix_successors(lo, require=None)


def test_immediate_predecessors_exhaustive_d1_small():
    for g in d1_grams_small():
        lo_neg, lo_pos = immediate_predecessors(g)
        assert lo_neg != lo_pos, g


def test_predecessors_random(irr_pool):
    rng = random.Random(99)
    pool = list(words_upto(4))
    done = 0
    while done < 120:
        k = rng.randint(1, 4)
        vec = tuple(rng.choice(pool) for _ in range(k))
        g = gram(vec)
        if not g.tagged("D1"):
            continue
        done += 1
        lo_neg, lo_pos = immediate_predecessors(g)
        assert lo_neg != lo_pos
        for lo in (lo_neg, lo_pos):
            assert g in matrix_successors(lo, require=None)


# -- classification -----------------------------------------------------------------


def test_classify_case1():
    res = classify_matrix(gram((Word((-1,)),)))
    assert res.case == "Case1" and res.m == (UNIT_MINUS,)
    m = W("(-2,2)")
    res = classify_matrix(gram((Word((-1,)) * m,)))
    assert res.case == "Case1"
    assert res.m[0].star * UNIT_MINUS * res.m[0] == m.star * UNIT_MINUS * m


def test_classify_case2_worked_instance():
    g = gram((W("(-2,3,-2,1)"), W("(-1,1)")))
    res = classify_matrix(g)
    assert res.case == "Case2"
    assert res.a == (W("(-2,2)"), UNIT_PLUS)
    assert res.m == (W("(1,-2,1)"), UNIT_PLUS)
    for i in range(2):
        for j in range(2):
            assert res.m[i].star * (res.a[i].star * res.a[j]) * res.m[j] == g.cells[i][j]


def test_classify_case3():
    res = classify_matrix(HMM_GRAM)
    assert res.case == "Case3" and not res.maximal
    assert res.lam == HMM_VECTOR
    assert case3_recomposes(HMM_GRAM, res.m, res.lam)


def test_classify_case3_maximal():
    res = classify_matrix(gram((W("(-1,3)"), W("(1,-3,4)"))))
    assert res.case == "Case3" and res.maximal


def test_classify_case1_k2():
    # w_i = (-1) m_i threads the hollowed idempotent through every cell
    m = (W("(-2,2)"), W("(-3,3)"))
    vec = tuple(Word((-1,)) * x for x in m)
    assert vec == (W("(-3,2)"), W("(-4,3)"))
    g = gram(vec)
    res = classify_matrix(g)
    assert res.case == "Case1" and res.m == m
    for i in range(2):
        for j in range(2):
            assert m[i].star * UNIT_MINUS * m[j] == g.cells[i][j]


def test_classify_case3_nontrivial_flank():
    lam = (W("(-2,3)"), W("(-3,4)"))
    flank = UNIT_MINUS * W("(-2,2)")  # (1,-3,2)
    vec = tuple(x * flank for x in lam)
    g = gram(vec)
    res = classify_matrix(g)
    assert res.case == "Case3" and not res.maximal
    assert res.m == (flank, flank)
    assert res.lam == lam
    assert case3_recomposes(g, res.m, res.lam)


def _case3_left_quotients(w, m):
    """All x with x * m == w.

    Products of reduced words lose at most two letters at the junction, so
    candidates are prefixes of w with up to two adjusted trailing entries.
    """
    lw, lm = len(w), len(m)
    cands = []
    L = lw - lm
    if L >= 1:
        cands.append(tuple(w[:L]))
    L = lw - lm + 1
    if 1 <= L <= lw:
        cands.append(tuple(w[: L - 1]) + (w[L - 1] - m[0],))
    L = lw - lm + 2
    if 2 <= L <= lw + 1:
        for e in (1, -1):
            cands.append(tuple(w[: L - 2]) + (w[L - 2] - e - m[0], e))
    if lm >= 2 and 1 <= lw - lm + 2 <= lw:
        L = lw - lm + 2
        cands.append(tuple(w[: L - 1]) + (w[L - 1] - m[0] - m[1],))
    out = []
    for entries in cands:
        try:
            x = Word(entries)
        except WordError:
            continue
        if x * m == w and x not in out:
            out.append(x)
    return out


def case3_by_search(g):
    """classify_matrix with its Case3 branch as first written: the flank of
    each diagonal cell, then every combination of left quotients of a
    uniform factorization by those flanks, keeping the first whose cores
    lam_i* lam_j are non-unit irreducibles of D0 that recompose g."""
    res = classify_matrix(g)
    if res.case != "Case3" or res.maximal:
        return res
    flanks = []
    for i in range(g.k):
        _, flank = sa_canonical_d1(g.cells[i][i])
        flanks.append(flank if flank is not None else UNIT_PLUS)
    for vec in factor_gram(g):
        if len({w[0] > 0 for w in vec}) != 1:
            continue
        for lam in itertools.product(*(_case3_left_quotients(vec[i], flanks[i]) for i in range(g.k))):
            if case3_recomposes(g, flanks, lam):
                return MatrixClassification("Case3", False, m=tuple(flanks), lam=lam)
    raise DomainError("no case-3 decomposition found")


def case3_recomposes(g, m, lam):
    """Every core lam_i* lam_j is a non-unit irreducible of D0 and
    m_i* core m_j is the cell (i, j) of g."""
    for i in range(g.k):
        for j in range(g.k):
            core = lam[i].star * lam[j]
            if core == UNIT_PLUS or not (member(core, "D0") and is_irreducible(core)):
                return False
            if m[i].star * core * m[j] != g.cells[i][j]:
                return False
    return True


@functools.cache
def d1_grams_small():
    """Every distinct D1 Gram matrix with k <= 3 and entries of weight <= 5,
    each with one vector that has it as its Gram matrix."""
    _, compat = d1_pool()
    seen = {}
    for k in (1, 2, 3):
        for vec in itertools.product(words_upto(5), repeat=k):
            if all(vec[j] in compat.get(vec[i], ()) for i in range(k) for j in range(i, k)):
                seen.setdefault(gram(vec), vec)
    assert len(seen) == 649
    return seen


def test_classify_exhaustive_d1_small():
    # classification never raises, mixed signs are Case3 maximal, and the
    # maximal flag agrees with the successor set, except on the constant
    # idempotent matrices (see the strict xfail below).  Case1 strips a
    # factorization whose entries are (-1) or start at -2 or below, Case2
    # cuts one whose entries lie in D1, Case3 reads an irreducible core, and
    # all three recompose to g and agree with the Case3 search.
    mixed, case3, cases = 0, 0, {}
    for g, vec in d1_grams_small().items():
        res = classify_matrix(g)
        if len(factor_gram(g)) == 2:  # the other witness gives the same answer
            assert classify_matrix(mirror(g)) == res, g
        cases[res.case] = cases.get(res.case, 0) + 1
        if len({w[0] > 0 for w in vec}) > 1:
            mixed += 1
            assert (res.case, res.maximal) == ("Case3", True), g
        if not any(all(c == idem for row in g.cells for c in row) for idem in (UNIT_MINUS, UNIT_PLUS)):
            assert res.maximal == (not matrix_successors(g)), g
        k = g.k
        if res.case == "Case1":
            threaded = next(v for v in factor_gram(g) if v[0].star.tau == 1)
            assert all(w == GEN_STAR or w[0] <= -2 for w in threaded), g
            for i in range(k):
                for j in range(k):
                    assert res.m[i].star * UNIT_MINUS * res.m[j] == g.cells[i][j], g
        elif res.case == "Case2":
            core = next(v for v in factor_gram(g) if v[0].star.tau == 0)
            assert all(member(w, "D1") for w in core), g
            for i in range(k):
                for j in range(k):
                    assert res.m[i].star * (res.a[i].star * res.a[j]) * res.m[j] == g.cells[i][j], g
        elif not res.maximal:
            assert case3_recomposes(g, res.m, res.lam), g
            case3 += 1
        assert res == case3_by_search(g), g
    assert mixed == 44 + 378
    assert case3 == 59
    assert min(cases.get(c, 0) for c in ("Case1", "Case2", "Case3")) > 0, cases


def case2_by_factor_and_fold(w):
    """classify_matrix's Case2 split of one entry as first written: the
    factors of w before its first (1,-1) and from it on, each side
    multiplied out, (-1,1) for an empty second side."""
    factors = factor_a0(w)
    cut = next((i for i, f in enumerate(factors) if f == UNIT_MINUS), len(factors))
    head, tail = factors[:cut], factors[cut:]
    # w starts negative, so its first factor is not (1,-1) and head is never empty
    return functools.reduce(Word.__mul__, head), (functools.reduce(Word.__mul__, tail) if tail else UNIT_PLUS)


def case2_entries(max_weight):
    """Every word of weight <= max_weight that can be an entry of a Case2
    factorization: it starts negative, has tau 0 and every prefix sum at
    most 1.  Depth first, through the checked constructor."""
    out = []

    def extend(seq, s, used):
        if s == 0:
            out.append(Word(seq))
        if len(seq) > 1 and abs(seq[-1]) == 1:
            return
        sign = 1 if seq[-1] < 0 else -1
        top = max_weight - used if sign < 0 else min(max_weight - used, 1 - s)
        for mag in range(1, top + 1):
            extend(seq + (sign * mag,), s + sign * mag, used + mag)

    for first in range(1, max_weight + 1):
        extend((-first,), -first, first)
    return out


def test_case2_matches_factor_and_fold():
    # on every possible Case2 entry of weight <= 22 the split read off the
    # prefix sums equals the one folded from the factors, entry by entry in
    # order, and each piece, built unchecked, is a Word the checked
    # constructor accepts.  Any vector of such entries is a Case2 matrix
    # (each entry starts negative, has tau 0 and prefix sums <= 1), so they
    # go in six at a time
    entries = case2_entries(22)
    assert len(entries) == 2498
    assert sum(1 in itertools.accumulate(w) for w in entries) == 1737  # the rest lie in D0
    for start in range(0, len(entries), 6):
        vec = tuple(entries[start : start + 6])
        res = classify_matrix(gram(vec))
        assert res.case == "Case2", vec
        assert list(zip(res.a, res.m)) == [case2_by_factor_and_fold(w) for w in vec], vec
        assert all(map(passes_the_check, res.a + res.m)), vec


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known defect: [(1,-1)]^kxk (Case1) and [(-1,1)]^kxk (Case2) have no successors but "
    "report maximal false; perfbench/wl_matrix.py check_classification still requires maximal => Case3",
)
def test_classify_constant_idempotents_maximal():
    for k in (1, 2, 3):
        for entry, idem, case in ((GEN_STAR, UNIT_MINUS, "Case1"), (GEN, UNIT_PLUS, "Case2")):
            g = gram((entry,) * k)
            assert g.cells == ((idem,) * k,) * k
            assert matrix_successors(g) == set()
            res = classify_matrix(g)
            assert (res.case, res.maximal) == (case, True)


def test_classify_scalar_consistency():
    # the scalar tag reads tau of the *minimal* factor, the matrix case the
    # max over both factorizations; they part ways exactly when the center
    # is the unit of D0 (then the shifted factorization reaches tau 0)
    from pisom.order import sa_factor_min
    from pisom.structure import classify_sa

    for n in words_upto(8):
        if not (n.is_selfadjoint() and member(n, "D1")):
            continue
        case = classify_matrix(gram((sa_factor_min(n),))).case
        tag = classify_sa(n)
        center, _ = sa_canonical_d1(n)
        if tag == "CenterUnitPos":
            assert case == "Case1", n
        elif tag == "Boundary" or center == UNIT_PLUS:
            assert case == "Case2", n
        else:
            assert case == "Case3", n


def test_odd_factor_count_iff_nonzero_tau():
    # classify_matrix reads a center off every diagonal cell in Case3, where
    # the minimal factor of each has tau -top or 1 - top, top not 0 or 1.
    # That is enough: a selfadjoint D1 word has an odd number of minimal
    # factors exactly when its minimal factor has nonzero tau, the middle of
    # w* w being a zero cut exactly when tau(w) = 0.  Checked on the 194
    # selfadjoint D1 words of weight <= 22, each w* w for its minimal factor
    # w, of weight <= 11.
    sa = sorted(n for n in {w.star * w for w in iter_words(11)} if member(n, "D1"))
    assert len(sa) == 194
    for n in sa:
        odd = len(factor_a0(n)) % 2 == 1
        assert odd == (sa_factor_min(n).tau != 0), n
        assert odd == (sa_canonical_d1(n)[0] is not None), n


# -- partitions and the block calculus ------------------------------------------------


def test_partitions_examples():
    assert partitions(1, 5) == ((5,),)
    assert (1,) * 4 in partitions(4, 4)
    assert partitions(2, 3) == ((0, 3), (1, 2), (2, 1), (3, 0))


def test_partitions_count():
    import math

    for d in range(1, 5):
        for k in range(1, 6):
            assert len(partitions(d, k)) == math.comb(k + d - 1, d - 1)


def test_partitions_wide_and_tall():
    assert len(partitions(1000, 1)) == 1000  # was a RecursionError
    assert partitions(1, 10**9) == ((10**9,),)


@pytest.mark.parametrize("d,k", [(30, 30), (2, 10**9), (10**9, 1), (10**9, 10**9), (1001, 1)])
def test_partitions_cap_refuses_before_enumerating(d, k):
    with pytest.raises(DomainError, match="exceed the cap of %d" % PARTITION_CAP):
        partitions(d, k)


def test_iota_tau_examples():
    assert iota_tau(HMM_GRAM, (1,) * 2) == HMM_GRAM
    w = W("(-2,3)")
    assert iota_tau(gram((w,)), (2,)) == gram((w, w))
    with pytest.raises(DomainError):
        iota_tau(HMM_GRAM, (1, 1, 1))


def test_iota_tau_composition_law():
    rng = random.Random(3)
    pool = list(words_upto(3))
    for _ in range(40):
        d = rng.randint(1, 3)
        h = rng.randint(d, 4)
        k = rng.randint(h, 4)
        tau = rng.choice(partitions(d, h))
        sigma = rng.choice(partitions(h, k))
        g = gram(tuple(rng.choice(pool) for _ in range(d)))
        assert iota_tau(iota_tau(g, tau), sigma) == iota_tau(g, compose_partitions(sigma, tau))


def test_iota_tau_zero_parts():
    w1, w2 = W("(-2,3)"), W("(-3,4)")
    g = iota_tau(gram((w1, w2)), (0, 3))
    assert g == gram((w2, w2, w2))


def test_conj_delta_examples():
    units = (UNIT_PLUS, UNIT_PLUS)
    assert conj_delta(units, HMM_GRAM) == HMM_GRAM  # cells lie in D0
    w, s = W("(-2,3)"), W("(-2,2)")
    g1 = conj_delta((w,), gram((s,)))
    assert g1.cells[0][0] == conj(w, s.star * s)
    with pytest.raises(DomainError):
        conj_delta((w,), HMM_GRAM)


def test_conj_delta_preserves_order():
    rng = random.Random(17)
    pool = [w for w in words_upto(3)]
    done = 0
    for _ in range(8000):  # 3,893 draws make 40 checks; a draw without successors makes none
        vec = tuple(rng.choice(pool) for _ in range(2))
        g = gram(vec)
        if not g.tagged("D1"):
            continue
        succ = matrix_successors(g)
        if not succ:
            continue
        upper = sorted(succ, key=lambda x: x.cells)[0]
        x = tuple(rng.choice(pool) for _ in range(2))
        cg, cu = conj_delta(x, g), conj_delta(x, upper)
        if not (cg.tagged("D1") and cu.tagged("D1")):
            continue
        done += 1
        assert matrix_leq(cg, cu)
        if done == 40:
            break
    assert done == 40


# -- amplified maps ---------------------------------------------------------------------


def amplify(g, edge):
    """Entrywise alpha (edge=GEN) or omega (edge=GEN_STAR) of a gram matrix."""
    return gram(tuple(w * edge for w in g.witness))


def test_alpha_is_complete_order_map():
    from pisom.words import GEN

    rng = random.Random(23)
    pool = list(words_upto(3))
    done = 0
    for _ in range(1000):  # 266 draws make 40 checks
        k = rng.randint(1, 3)
        vec = tuple(rng.choice(pool) for _ in range(k))
        g = gram(vec)
        if not g.tagged("D1"):
            continue
        succ = matrix_successors(g)
        if not succ:
            continue
        done += 1
        upper = sorted(succ, key=lambda x: x.cells)[0]
        from pisom.maps import alpha

        ag = amplify(g, GEN)
        au = gram(tuple(w * GEN for w in upper.witness))
        assert ag.cells == tuple(
            tuple(alpha(c) for c in row) for row in g.cells
        )
        assert matrix_leq(ag, au)
        if done == 40:
            break
    assert done == 40


def test_omega_is_complete_order_map_on_d0():
    from pisom.maps import omega
    from pisom.words import GEN_STAR

    rng = random.Random(29)
    pool = list(words_upto(3))
    done = 0
    for _ in range(1000):  # 311 draws make 30 checks
        k = rng.randint(1, 3)
        vec = tuple(rng.choice(pool) for _ in range(k))
        g = gram(vec)
        if not g.tagged("D0"):
            continue
        succ = {s for s in matrix_successors(g) if s.tagged("D0")}
        if not succ:
            continue
        done += 1
        upper = sorted(succ, key=lambda x: x.cells)[0]
        og = amplify(g, GEN_STAR)
        ou = gram(tuple(w * GEN_STAR for w in upper.witness))
        assert og.cells == tuple(tuple(omega(c) for c in row) for row in g.cells)
        assert matrix_leq(og, ou)
        if done == 30:
            break
    assert done == 30


MATRIX_REFUSALS = {
    "float_k": (
        lambda: GramMatrix.from_json('{"k": 1.0, "cells": [["(-1,1)"]]}'),
        "a gram matrix needs an integer 'k'",
    ),
    "string_k": (
        lambda: GramMatrix.from_json('{"k": "1", "cells": [["(-1,1)"]]}'),
        "a gram matrix needs an integer 'k'",
    ),
    "mislabelled": (
        lambda: GramMatrix.from_json('{"k": 2, "cells": [["(-1,1)"]]}'),
        "ragged or mislabelled gram matrix",
    ),
    "empty_vector": (lambda: gram(vector_from_json("[]")), "empty word vector"),
    "no_parts": (lambda: partitions(0, 3), "partitions need d, k >= 1"),
    "nothing_to_part": (lambda: partitions(3, 0), "partitions need d, k >= 1"),
    "composition_short": (lambda: compose_partitions((1, 2), (1,)), "partition composition mismatch"),
    "composition_long": (lambda: compose_partitions((1,), (2,)), "partition composition mismatch"),
    "empty_expansion": (lambda: iota_tau(HMM_GRAM, (0, 0)), "empty expansion"),
    "tag_outside_d": (lambda: HMM_GRAM.tagged("A0"), "gram matrices are tagged D0 or D1, got 'A0'"),
}


@pytest.mark.parametrize("name", MATRIX_REFUSALS)
def test_matrix_refusals(name):
    call, message = MATRIX_REFUSALS[name]
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == message


# -- serialization -------------------------------------------------------------------------


def test_gram_json_roundtrip():
    text = HMM_GRAM.to_json()
    again = GramMatrix.from_json(text)
    assert again == HMM_GRAM and again.witness == HMM_GRAM.witness
    obj = json.loads(text)
    assert obj["cells"][0] == ["(-3,2,-2,3)", "(-3,2,-3,4)"]


def test_gram_equality_ignores_witness():
    a = gram(HMM_VECTOR)
    b = GramMatrix(a.cells, factor_gram(a)[1])
    assert b.witness != a.witness
    assert a == b and hash(a) == hash(b)
    assert a != GramMatrix(a.cells[::-1], a.witness)
    assert repr(b) == repr(a) == "GramMatrix[(-3,2,-2,3),(-3,2,-3,4); (-4,3,-2,3),(-4,3,-3,4)]"


def test_classification_equality_is_field_wise():
    fields = dict(case="Case3", maximal=False, m=(UNIT_PLUS,), a=None, lam=(W("(-2,2)"),))
    res = MatrixClassification(**fields)
    assert res == MatrixClassification(**fields) and hash(res) == hash(MatrixClassification(**fields))
    for name, other in (("case", "Case1"), ("maximal", True), ("m", None), ("a", (UNIT_PLUS,)), ("lam", None)):
        assert res != MatrixClassification(**dict(fields, **{name: other})), name
