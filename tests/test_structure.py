import gc
import json
import random
import tracemalloc
from functools import reduce as fold
from itertools import accumulate, product as cartesian

import pytest

import pisom.structure as structure
from pisom.maps import alpha, is_irr_plus
from pisom.structure import (
    IRR_CAP,
    MAX_GRADE,
    classify_sa,
    enum_irr,
    factor_a0,
    factor_d0,
    is_irreducible,
    sa_canonical_d1,
)
from pisom.words import UNIT_MINUS, UNIT_PLUS, DomainError, Word, iter_words, member, parse_word

from conftest import (
    passes_the_check,
    product,
    random_minimal_sequences,
    ref,
    sa_words_upto,
    words_upto,
)


# -- irreducibility ---------------------------------------------------------------


def test_irreducible_examples():
    assert not is_irreducible(Word((-2, 3, -3, 2)))
    for n in range(1, 11):
        assert is_irreducible(Word((-n, n)))
    assert is_irreducible(Word((-3, 2, -2, 3)))
    with pytest.raises(DomainError):
        is_irreducible(Word((1,)))


def brute_reducible(p, pool):
    return any(
        m * n == p and m != p and n != p
        for m in pool
        for n in pool
        if m.weight + n.weight <= p.weight + 4
    )


def test_irreducibility_against_split_search():
    pool = [w for w in words_upto(10) if w.tau == 0]
    small = [w for w in pool if w.weight <= 10]
    for p in pool:
        assert is_irreducible(p) == (not brute_reducible(p, small)), p


def test_irreducibles_are_bracketed_even_length():
    for p in words_upto(10):
        if p.tau == 0 and is_irreducible(p):
            assert member(p, "Aplus") or member(p, "Aminus")
            assert len(p) % 2 == 0


# -- factorization ----------------------------------------------------------------


def factor_by_splits(p):
    """The least-bad-prefix split as cut and recurse: cut p = m * n at the
    first interior prefix sum that is zero or crosses the sign of the
    leading entry, with every piece through the checked constructor, and
    factor the remainder n again from its own prefix sums."""
    factors = []
    while True:
        sig = tuple(accumulate(p))
        r = next((i for i in range(1, len(p) - 1) if p[0] * sig[i] <= 0), None)
        if r is None:
            return factors + [p]
        if sig[r] == 0:
            m, p = Word(p[: r + 1]), Word(p[r + 1 :])
        else:
            m, p = Word(p[:r] + (-sig[r - 1],)), Word((p[r] + sig[r - 1],) + p[r + 1 :])
        factors.append(m)


def test_factor_examples():
    assert factor_a0(Word((-2, 3, -3, 2))) == [Word((-2, 2)), UNIT_MINUS, Word((-2, 2))]
    assert factor_a0(UNIT_PLUS) == [UNIT_PLUS]
    seq = [Word((-3, 2, -2, 3)), UNIT_MINUS, Word((-3, 2, -2, 3)).star]
    assert factor_a0(product(seq)) == seq
    with pytest.raises(DomainError):
        factor_a0(Word((2, -1)))


def test_factor_roundtrip_random(irr_pool):
    for seq in random_minimal_sequences(irr_pool, 1000, seed=20240817):
        assert factor_a0(product(seq)) == seq


def test_factor_exhaustive_small():
    # factor_a0 has no minimality pass; the one scan must give the unique
    # minimal decomposition of every tau-kernel word up to weight 20, equal
    # to the cut-and-recurse reference, with every factor (built unchecked)
    # a reduced Word
    kernel = [p for p in words_upto(20) if p.tau == 0]
    assert len(kernel) == 6092
    for p in kernel:
        factors = factor_a0(p)
        assert factors == factor_by_splits(p), p
        assert all(passes_the_check(f) for f in factors), p
        assert product(factors) == p
        assert all(is_irreducible(f) for f in factors), p
        assert ref.is_minimal_sequence(factors), p


def test_factor_d0_examples():
    w = Word((-3, 2, -2, 3)) * Word((-2, 2))
    assert factor_d0(w) == [Word((-3, 2, -2, 3)), Word((-2, 2))]
    assert factor_d0(UNIT_PLUS) == [UNIT_PLUS]
    with pytest.raises(DomainError):
        factor_d0(Word((-2, 3, -3, 2)))


def test_factor_d0_exhaustive_small():
    # every D0 word up to weight 20 factors into plus-irreducibles, with the
    # unit (-1,1) as a factor only of the unit itself; the factors, slices
    # between zero prefix sums built unchecked, are reduced Words and equal
    # to factor_a0's
    d0 = [d for d in words_upto(20) if member(d, "D0")]
    assert len(d0) == 338
    for d in d0:
        factors = factor_d0(d)
        assert factors == factor_a0(d), d
        assert all(passes_the_check(f) for f in factors), d
        assert product(factors) == d
        assert all(is_irr_plus(f) for f in factors), d
        assert d == UNIT_PLUS or UNIT_PLUS not in factors, d


def test_factor_d0_matches_factor_a0_on_products():
    # seeded D0 products of 1-4 plus-irreducibles of grade <= 16, with long
    # words and many zero cuts
    tables = [enum_irr(k).elements for k in range(1, 17)]
    rng = random.Random(20261019)
    for _ in range(2000):
        d = product([rng.choice(rng.choice(tables)) for _ in range(rng.randint(1, 4))])
        factors = factor_d0(d)
        assert factors == factor_a0(d), d
        assert all(passes_the_check(f) for f in factors), d


# -- graded enumeration ------------------------------------------------------------


def test_enum_examples():
    for k in range(1, 5):
        assert enum_irr(k).elements == (Word((-k, k)),)
    assert enum_irr(5).elements == (Word((-5, 5)), Word((-3, 2, -2, 3)))
    assert enum_irr(6).elements == (
        Word((-6, 6)),
        Word((-4, 2, -2, 4)),
        Word((-4, 3, -2, 3)),
        Word((-3, 2, -3, 4)),
    )


def test_enum_grading_invariants():
    for k in range(1, 8):
        for w in enum_irr(k).elements:
            assert w.tau_plus() == k
            assert is_irr_plus(w)
            if w != UNIT_PLUS:
                assert alpha(w).tau_plus() == k + 1


def test_irr_table_json_roundtrip():
    t = enum_irr(6)
    obj = json.loads(t.to_json())
    assert obj["elements"] == ["(-6,6)", "(-4,2,-2,4)", "(-4,3,-2,3)", "(-3,2,-3,4)"]


def test_enum_counts_stein_waterman():
    a = ref.stein_waterman(16)
    for g in range(1, 19):
        assert len(enum_irr(g).elements) == (1 if g == 1 else a[g - 2]), g
    assert a[16] == 72832


def test_enum_elements_meet_the_definition():
    # the enumerator builds its words unchecked; each is a reduced Word, and
    # the independent check reads the definition off the entries: sorted, no
    # duplicates, and as many as the Stein-Waterman count
    for g in range(1, 17):
        elements = enum_irr(g).elements
        for w in elements:
            assert passes_the_check(w), w
        assert ref.check_grade_table(g, elements) is None


def plus_irreducibles_by_search(k):
    """Grade k by a depth-first search that lists the completions of each
    prefix afresh: the enumerator's state lemma is not used."""
    out = [Word((-k, k))]

    def extend(prefix, s, b):
        top = b + s
        for x in range(2, -s):
            p = prefix + (x,)
            out.append(Word(p + (-top, b - x)))
            for m in range(top - 2, 1, -1):
                extend(p + (-m,), s + x - m, b - x)

    for a in range(k - 2, 2, -1):
        extend((-a,), -a, k)
    return out


def test_enum_matches_the_search():
    for k in range(1, 19):
        assert list(enum_irr(k).elements) == plus_irreducibles_by_search(k), k


def test_enum_keeps_nothing_between_calls():
    # no new module name, no reference cycle left for the collector, and
    # what the call allocated is freed when its table is
    before = set(vars(structure))
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        enum_irr(16)
        cycles = gc.collect()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert set(vars(structure)) == before
    assert cycles == 0
    assert peak > 2**20 and kept < 2**14, (kept, peak)


def generated_grades(k_max):
    """Grades 1..k_max by the generation theorem: grade k collects alpha^k0
    of every product of lower-grade plus-irreducibles whose grades sum to
    k - k0, either one factor of any grade or at least two of grade >= 2."""

    def compositions(total, min_part):
        if total == 0:
            yield ()
            return
        for first in range(min_part, total + 1):
            for rest in compositions(total - first, min_part):
                yield (first,) + rest

    grades = {1: {UNIT_PLUS}}
    for k in range(2, k_max + 1):
        found = set()
        for k0 in range(1, k):
            target = k - k0
            comps = [(target,)] + [c for c in compositions(target, 2) if len(c) > 1]
            for comp in comps:
                for choice in cartesian(*(grades[ki] for ki in comp)):
                    w = product(choice)
                    for _ in range(k0):
                        w = alpha(w)
                    found.add(w)
        grades[k] = found
    return grades


def test_enum_matches_generation_theorem():
    for k, found in generated_grades(12).items():
        assert enum_irr(k).elements == tuple(sorted(found)), k


def test_enum_cap_refuses_before_enumerating(monkeypatch):
    def boom(k):
        raise AssertionError("enumerated grade %d" % k)

    monkeypatch.setattr(structure, "_plus_irreducibles", boom)
    # grade k >= 2 holds a[k - 2] words
    a = ref.stein_waterman(19)
    assert a[MAX_GRADE - 2] <= IRR_CAP < a[MAX_GRADE - 1]
    for k in (21, 30, 10**9):
        with pytest.raises(DomainError, match="cap"):
            enum_irr(k)
    with pytest.raises(AssertionError, match="enumerated grade 20"):
        enum_irr(20)
    for k in (0, -3):
        with pytest.raises(DomainError, match="^grades start at 1$"):
            enum_irr(k)


# -- selfadjoint canonical form ------------------------------------------------------


def test_sa_canonical_examples():
    assert sa_canonical_d1(UNIT_MINUS) == (UNIT_MINUS, None)
    m = Word((-2, 2))
    n = m.star * UNIT_MINUS * m
    assert n == Word((-2, 3, -3, 2))
    center, flank = sa_canonical_d1(n)
    assert center == UNIT_MINUS and flank == m
    assert flank.star * center * flank == n
    assert UNIT_PLUS * flank == flank
    assert sa_canonical_d1(Word((-5, 5))) == (Word((-5, 5)), None)
    with pytest.raises(DomainError):
        sa_canonical_d1(Word((1, -2)))
    with pytest.raises(DomainError):
        sa_canonical_d1(Word((-2, 4, -4, 2)))  # selfadjoint, sigma hits 2


def test_sa_canonical_exhaustive():
    # every selfadjoint D1 word up to weight 16: the minimal factor sequence
    # is star-palindromic and flank* . center . flank recomposes to it
    elems = sa_words_upto(16, "D1")
    assert len(elems) == 52
    for n in elems:
        factors = factor_a0(n)
        assert factors == [f.star for f in reversed(factors)], n
        center, flank = sa_canonical_d1(n)
        parts = [x for x in (flank and flank.star, center, flank) if x is not None]
        assert product(parts) == n, n


def canonical_by_factor_and_fold(n):
    """The canonical form from the whole factor sequence: the middle factor
    of an odd sequence, and the product of the second half."""
    factors = factor_a0(n)
    s = len(factors)
    tail = factors[(s + 1) // 2 :]
    return (factors[s // 2] if s % 2 else None), (fold(lambda a, b: a * b, tail) if tail else None)


def test_sa_canonical_matches_factor_and_fold():
    # the canonical form read off the prefix sums equals the one folded from
    # the factors on every D1 word w* w with weight(w) <= 18, and each part,
    # built unchecked, is a Word the checked constructor accepts
    elems = {n for n in (w.star * w for w in iter_words(18)) if member(n, "D1")}
    assert len(elems) == 4279
    for n in elems:
        got = sa_canonical_d1(n)
        assert got == canonical_by_factor_and_fold(n), n
        assert all(x is None or passes_the_check(x) for x in got), n


def test_sa_canonical_unit_action():
    # when the center is (1,-1) the flank is fixed by (-1,1) and vice versa
    for u in words_upto(5):
        for center in (UNIT_MINUS, UNIT_PLUS):
            n = u.star * center * u
            if not member(n, "D1"):
                continue
            c, m = sa_canonical_d1(n)
            if c == UNIT_MINUS and m is not None:
                assert UNIT_PLUS * m == m
            if c == UNIT_PLUS and m is not None:
                assert UNIT_MINUS * m == m


def test_classify_sa_examples():
    assert classify_sa(UNIT_MINUS) == "CenterUnitPos"
    assert classify_sa(UNIT_PLUS) == "CenterIrrNeg"
    # boundary witness: m* m with m fixed by the plus unit
    m = Word((-2, 2))
    assert classify_sa(m.star * m) == "Boundary"
    # the product (1,-1)(-2,2) squares to the *hollowed* form, so it
    # classifies as CenterUnitPos, not Boundary
    w = UNIT_MINUS * Word((-2, 2))
    assert classify_sa(w.star * w) == "CenterUnitPos"
    # the selfadjointness check comes before the D1 check
    with pytest.raises(DomainError, match="not selfadjoint"):
        classify_sa(Word((1, -2)))  # outside D1 as well
    with pytest.raises(DomainError, match="not in D1"):
        classify_sa(Word((-2, 4, -4, 2)))


def test_classify_sa_exhaustive_consistency():
    # the tag read off the minimal factor names the center of the canonical
    # form, for every selfadjoint D1 word up to weight 16
    tags = set()
    for n in sa_words_upto(16, "D1"):
        center, _ = sa_canonical_d1(n)
        expected = "CenterUnitPos" if center == UNIT_MINUS else "Boundary" if center is None else "CenterIrrNeg"
        assert classify_sa(n) == expected, n
        tags.add(expected)
    assert len(tags) == 3
