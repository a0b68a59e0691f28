import doctest
import random
from itertools import product as cartesian

import pytest
from hypothesis import given, strategies as st

from pisom import words
from pisom.words import (
    GEN,
    UNIT_MINUS,
    UNIT_PLUS,
    DomainError,
    Word,
    WordError,
    _checked,
    format_word,
    iter_words,
    member,
    parse_word,
    reduce_word,
)

from conftest import oracle_normal_forms, random_word, raw_sequences, ref, words_upto

entries_st = st.lists(
    st.integers(-5, 5).filter(lambda x: x != 0), min_size=1, max_size=7
)
words_st = entries_st.map(reduce_word)


# -- construction and literals -------------------------------------------------


def test_word_invariants_enforced():
    with pytest.raises(WordError):
        Word(())
    with pytest.raises(WordError):
        Word((1, 0))
    with pytest.raises(WordError):
        Word((2, 3))
    with pytest.raises(WordError):
        Word((2, -1, 2))


@pytest.mark.parametrize(
    "entries,message",
    [
        ((), "empty word"),
        ((1, 0), "zero entry in word"),
        ((2, 2, 0), "zero entry in word"),
        ((2, 3), "adjacent entries share a sign: (2, 3)"),
        ((-2, 3, -3, 4, 5), "adjacent entries share a sign: (-2, 3, -3, 4, 5)"),
        ((3, -1, -2), "adjacent entries share a sign: (3, -1, -2)"),
        ((2.0, 3), "adjacent entries share a sign: (2, 3)"),
        ((2, -1, 2), "interior entry of absolute value 1: (2, -1, 2)"),
        ((-2, 3, 1, -2), "adjacent entries share a sign: (-2, 3, 1, -2)"),
        ((-2, 1, -1, 2), "interior entry of absolute value 1: (-2, 1, -1, 2)"),
    ],
)
def test_word_error_messages(entries, message):
    # zero faults are reported before sign faults, sign before interior
    with pytest.raises(WordError) as exc:
        Word(entries)
    assert str(exc.value) == message


def first_fault(entries):
    """The normal-form check as a per-entry scan: the message of the first
    fault, zero before sign before interior, or None."""
    if not entries:
        return "empty word"
    if 0 in entries:
        return "zero entry in word"
    if any((a > 0) == (b > 0) for a, b in zip(entries, entries[1:])):
        return "adjacent entries share a sign: %r" % (entries,)
    if any(abs(e) < 2 for e in entries[1:-1]):
        return "interior entry of absolute value 1: %r" % (entries,)
    return None


def test_checked_matches_per_entry_scan():
    # every int sequence of length <= 5 with entries in -3..3, zeros included
    for n in range(6):
        for entries in cartesian(range(-3, 4), repeat=n):
            fault = first_fault(entries)
            if fault is None:
                assert _checked(entries) == entries, entries
            else:
                with pytest.raises(WordError) as exc:
                    _checked(entries)
                assert str(exc.value) == fault, entries


def test_parse_examples():
    assert parse_word("(-2,3,-3,2)") == Word((-2, 3, -3, 2))
    # oracle: every rewrite order of (1,-1,1) ends at (1)
    assert oracle_normal_forms((1, -1, 1)) == frozenset({(1,)})
    assert parse_word("(1,-1,1)") == Word((1,))
    # a zero entry is refused by the reducer, once the entries are read, so a
    # malformed entry beside it is the one reported
    for text, message in (
        ("(0)", "zero entry in word"),
        ("(-0)", "zero entry in word"),
        ("(0,x)", "bad integer 'x' in word literal"),
    ):
        with pytest.raises(WordError) as exc:
            parse_word(text)
        assert str(exc.value) == message
    with pytest.raises(WordError):
        parse_word("(1,02)")
    with pytest.raises(WordError):
        parse_word("1,-1")


def test_literal_entries_have_at_most_4000_digits():
    # the bound of words._INT_RE: sums of entries then print within Python's
    # 4,300 digits on int/str conversion
    most = "9" * 4000
    w = parse_word("(%s,-1,%s)" % (most, most))
    assert format_word(w * w) == "(%d)" % (4 * int(most) - 2)
    with pytest.raises(WordError) as exc:
        parse_word("(-%s9)" % most)
    # the head of the entry, and the bound, on one short line
    assert str(exc.value) == "bad integer '-9999999999999999999...' in word literal: an entry has at most 4,000 digits"


def test_format_examples():
    assert format_word(Word((-1, 1))) == "(-1,1)"
    assert format_word(Word((-6, 6))) == "(-6,6)"
    assert " " not in format_word(Word((-4, 2, -2, 4)))


@given(words_st)
def test_parse_format_roundtrip(w):
    assert parse_word(format_word(w)) == w


# -- reduction ------------------------------------------------------------------


def test_reduce_examples():
    assert reduce_word((2, -1, 2, -1)) == Word((3, -1))
    assert reduce_word((1, -1, 1, -1)) == Word((1, -1))
    assert oracle_normal_forms((-3, 3, 2, -2)) == frozenset({(-3, 5, -2)})
    assert reduce_word((-3, 3, 2, -2)) == Word((-3, 5, -2))


def test_confluence_small_weights():
    memo = {}
    for seq in raw_sequences(6):
        forms = oracle_normal_forms(seq, memo)
        assert len(forms) == 1, seq
        assert reduce_word(seq) == Word(next(iter(forms))), seq


@given(entries_st)
def test_reduce_matches_oracle(seq):
    forms = oracle_normal_forms(tuple(seq))
    assert forms == frozenset({tuple(reduce_word(seq))})


def test_reduce_matches_reference_on_long_input():
    # long raw sequences, half of their entries units, so a unit folds deep
    # in the stack and the fold's guard meets a one-entry stack
    rng = random.Random(27)
    for _ in range(20000):
        mags = [1 if rng.random() < 0.5 else rng.randint(1, 10**12) for _ in range(rng.randint(1, 40))]
        seq = [m if rng.random() < 0.5 else -m for m in mags]
        assert reduce_word(seq) == ref.reduce(seq), seq


# -- multiplication and star -----------------------------------------------------


def test_mul_examples():
    for n in range(2, 6):
        for m in range(2, 6):
            assert Word((-n, n)) * Word((m, -m)) == Word((-n, n + m, -m))
    assert UNIT_PLUS * UNIT_PLUS == UNIT_PLUS
    assert GEN * GEN == Word((2,))


@given(words_st, words_st, words_st)
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(words_st, words_st)
def test_length_law(m, n):
    # the junction lemma: with opposite signs, one rule (b) step happens
    # exactly when a unit at the junction has a neighbour in its own factor
    prod = m * n
    if (m[-1] > 0) == (n[0] > 0):
        assert len(prod) == len(m) + len(n) - 1
    elif (abs(m[-1]) == 1 and len(m) > 1) or (abs(n[0]) == 1 and len(n) > 1):
        assert len(prod) == len(m) + len(n) - 2
    else:
        assert len(prod) == len(m) + len(n)


@given(words_st, words_st)
def test_mul_matches_full_reduction(a, b):
    prod = a * b
    assert prod == reduce_word(tuple(a) + tuple(b))
    assert type(prod) is Word and type(a.star) is Word
    for x in (prod, a.star, reduce_word(tuple(b) + tuple(a))):
        assert Word(tuple(x)) == x


def test_mul_matches_oracle_small_weights():
    # every pair of reduced words of weight <= 6 against the all-orders
    # oracle, which shares nothing with the closed-form junction of the
    # product
    memo = {}
    pool = list(words_upto(6))
    for a in pool:
        for b in pool:
            assert oracle_normal_forms(tuple(a) + tuple(b), memo) == frozenset({tuple(a * b)}), (a, b)


def test_products_and_stars_pass_the_check():
    # products and stars are built without the checked constructor; every
    # product of two words of weight <= 8 (30,276 pairs) and every star
    # must still satisfy its invariants and equal the full reduction
    pool = list(words_upto(8))
    assert len(pool) == 174
    for a in pool:
        s = a.star
        assert type(s) is Word and _checked(tuple(s)) == s == Word(tuple(-e for e in reversed(a))), a
        for b in pool:
            p = a * b
            assert type(p) is Word and _checked(tuple(p)) == p == reduce_word(tuple(a) + tuple(b)), (a, b)


def test_long_products_with_big_entries():
    # the closed form's slices a[:-2] and b[2:] on long words with big
    # entries, against the reference's fixpoint reducer
    rng = random.Random(2026)
    for _ in range(20000):
        a = random_word(rng, 30, 10**20)
        b = random_word(rng, 30, 10**20)
        p = a * b
        assert type(p) is Word and tuple(p) == ref.prod(a, b), (a, b)


def test_mul_by_plain_tuple():
    assert Word((-2, 3)) * (-3, 4) == Word((-2, 3, -3, 4))
    assert Word((2, -1)) * (1, -1, 1) == Word((2,))
    assert type(Word((1,)) * (1,)) is Word
    with pytest.raises(WordError):
        Word((1,)) * (0,)


def test_star_examples():
    assert GEN.star == Word((-1,))
    assert Word((-2, 3, -3, 2)).star == Word((-2, 3, -3, 2))
    assert Word((-3, 2)).star == Word((-2, 3))


@given(words_st, words_st)
def test_star_antihomomorphism(a, b):
    assert (a * b).star == b.star * a.star
    assert a.star.star == a


# -- invariants -------------------------------------------------------------------


def test_tau_examples():
    assert Word((-2, 3, -3, 2)).tau == 0
    assert GEN.tau == 1
    assert Word((3, -1)).tau == 2


@given(words_st, words_st)
def test_tau_laws(a, b):
    assert (a * b).tau == a.tau + b.tau
    assert a.star.tau == -a.tau


def test_sigma_examples():
    assert Word((-2, 3, -3, 2)).sigma(1) == 1
    assert Word((-5, 5)).sigma(99) == 0
    for r in range(3):
        assert Word((-3, 2, -2, 3)).sigma(r) < 0
    for r in (-1, -7):
        with pytest.raises(WordError, match="^sigma index must be nonnegative$"):
            Word((-2, 2)).sigma(r)


def test_tau_plus_examples():
    assert Word((-4, 2, -2, 4)).tau_plus() == 6
    assert UNIT_PLUS.tau_plus() == 1
    with pytest.raises(DomainError):
        Word((-3,)).tau_plus()


def test_membership_examples():
    w = Word((-2, 3, -3, 2))
    assert not member(w, "D0")
    assert member(w, "Aplus0")
    assert member(UNIT_MINUS, "D1")
    assert not member(UNIT_MINUS, "D0")
    assert not member(GEN, "A0")
    with pytest.raises(WordError):
        member(w, "bogus")


def test_selfadjoint_idempotent_examples():
    assert UNIT_PLUS.is_selfadjoint() and UNIT_PLUS * UNIT_PLUS == UNIT_PLUS
    w = Word((-5, 5))
    assert w.is_selfadjoint()
    assert w * w == Word((-5, 5, -5, 5)) and w * w != w
    v = Word((1, -2))
    assert not v.is_selfadjoint() and v * v != v


def test_selfadjoint_matches_the_reference():
    # is_selfadjoint compares the halves of a word, with no star built; on
    # every word of weight <= 14 it agrees with equality to the reference star
    ws = list(iter_words(14))
    assert len(ws) == 3190
    found = [w for w in ws if w.is_selfadjoint()]
    assert found == [w for w in ws if tuple(w) == ref.star(w)]
    assert len(found) == 66


def test_selfadjoint_decides_plain_tuples():
    # is_selfadjoint reads only the entries, and numeric's evaluation chain
    # asks it about plain tuple slices of words: on every suffix of every
    # word of weight <= 12, the second halves among them, it agrees with
    # equality to the reference star
    ws = list(iter_words(12))
    suffixes = [w[i:] for w in ws for i in range(len(w))]
    halves = [w[len(w) // 2 :] for w in ws]
    assert len(ws) == 1216 and len(suffixes) == 4568
    for slices, selfadjoint in ((suffixes, 228), (halves, 108)):
        assert all(type(t) is tuple for t in slices)
        found = [Word.is_selfadjoint(t) for t in slices]
        assert found == [ref.star(t) == t for t in slices]
        assert sum(found) == selfadjoint


def test_docstring_examples_run():
    # the examples in the words docstrings, which also run Word.__repr__
    result = doctest.testmod(words)
    assert (result.attempted, result.failed) == (5, 0)


def test_idempotent_census_weight_6():
    idems = [w for w in words_upto(6) if w * w == w]
    assert sorted(idems) == [Word((-1, 1)), Word((1, -1))]


def test_arbitrary_precision_entries():
    big = 10**30
    w = Word((-big, big))
    assert (w * w).weight == 4 * big
    assert w.sigma(0) == -big


def test_iter_words_is_every_reduced_sequence():
    # the enumerator against an independent filter: every raw sequence of
    # weight <= w that Word accepts as it stands, each listed once
    for w in range(1, 8):
        valid = set()
        for seq in raw_sequences(w):
            try:
                valid.add(Word(seq))
            except WordError:
                pass
        listed = list(iter_words(w))
        assert len(listed) == len(set(listed)), w
        assert set(listed) == valid, w


def test_value_semantics():
    w = Word((-2, 3))
    assert hash(w) == hash(Word((-2, 3)))
    assert {w: 1}[Word((-2, 3))] == 1
