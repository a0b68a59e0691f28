import re

import pytest
from hypothesis import given, strategies as st

from pisom.order import (
    _check_sa_d1,
    hollow_depth,
    hollow_successors,
    leq,
    sa_factor_min,
    sa_factorizations,
    upper_idempotent,
)
from pisom.words import (
    UNIT_MINUS,
    UNIT_PLUS,
    DomainError,
    Word,
    iter_words,
    member,
    parse_word,
    reduce_word,
    unit_strip,
)

from conftest import hollow_choices, passes_the_check, sa_words_upto, words_upto

W = parse_word

words_st = st.lists(
    st.integers(-4, 4).filter(lambda x: x != 0), min_size=1, max_size=6
).map(reduce_word)


# -- factorization of selfadjoints ------------------------------------------------


def test_sa_factor_min_examples():
    assert sa_factor_min(UNIT_MINUS) == Word((-1,))
    assert sa_factor_min(Word((-3, 3))) == Word((3,))
    assert sa_factor_min(Word((-3, 2, -2, 3))) == Word((-2, 3))
    with pytest.raises(DomainError):
        sa_factor_min(Word((1, -2)))


def test_sa_factor_min_is_minimal():
    # no shorter reduced word recomposes to n
    for n in sa_words_upto(8):
        w = sa_factor_min(n)
        shorter = [u for u in words_upto(n.weight) if len(u) < len(w) and u.star * u == n]
        assert not shorter, (n, w, shorter)


def test_sa_factorizations_examples():
    assert set(sa_factorizations(UNIT_MINUS)) == {Word((-1,)), UNIT_MINUS}
    assert set(sa_factorizations(UNIT_PLUS)) == {Word((1,)), UNIT_PLUS}
    assert set(sa_factorizations(Word((-3, 2, -2, 3)))) == {
        Word((-2, 3)),
        Word((1, -2, 3)),
    }


def test_sa_factorizations_recompose_and_order():
    for n in sa_words_upto(16):
        ws = sa_factorizations(n)
        assert len(ws) == 2 and ws[0][0] < 0 < ws[1][0]
        for w in ws:
            assert w.star * w == n


def test_sa_factorizations_exhaustive():
    # the two returned factorizations are the only reduced solutions
    for n in sa_words_upto(6):
        ws = set(sa_factorizations(n))
        brute = {u for u in words_upto(n.weight) if u.star * u == n}
        assert brute == ws, n


# -- hollowing ---------------------------------------------------------------------


def test_hollow_successor_examples():
    for k in range(2, 11):
        assert hollow_successors(Word((-k, k))) == {Word((-k + 1, k - 1))}
    assert hollow_successors(UNIT_PLUS) == set()
    assert hollow_successors(UNIT_MINUS) == set()
    assert hollow_successors(Word((-3, 2, -2, 3))) == {Word((-3, 3))}


def decrement_oracle(n):
    """Endpoint-decrement form of the basic order step."""
    if n in (UNIT_PLUS, UNIT_MINUS):
        return set()
    half = len(n) // 2
    head = n[:half]
    mid = head[-1]
    step = mid - 1 if mid > 0 else mid + 1
    new_head = head[:-1] + ((step,) if step else ())
    if not new_head:
        return set()
    raw = new_head + tuple(-e for e in reversed(new_head))
    return {reduce_word(raw)} - {n}


def hollow_successors_by_definition(n):
    """Generate and filter: hollow both factorizations by both choices and
    keep every recomposition other than n."""
    out = set()
    for u in sa_factorizations(n):
        for c in hollow_choices(u):
            m = c.star * c
            if m != n:
                out.add(m)
    return out


def leq_by_search(n, m):
    """Breadth-first search up the definitional successors, pruned below
    the weight of m."""
    frontier, seen = {n}, set()
    while frontier:
        if m in frontier:
            return True
        seen |= frontier
        frontier = {
            y
            for x in frontier
            for y in hollow_successors_by_definition(x)
            if y not in seen and y.weight >= m.weight
        }
    return False


def test_hollow_successors_match_definition():
    elems = sa_words_upto(16)
    assert len(elems) == 108
    for n in elems:
        succ = hollow_successors(n)
        assert succ == hollow_successors_by_definition(n), n
        assert bool(succ) == (n not in (UNIT_PLUS, UNIT_MINUS)), n


def test_leq_matches_search():
    # all 30,976 ordered pairs of selfadjoint words up to weight 18 (the D1
    # words of weight <= 10 among them)
    elems = sa_words_upto(18)
    assert len(elems) == 176 and len([n for n in elems if n.weight <= 10 and member(n, "D1")]) == 15
    verdicts = [leq(a, b) for a in elems for b in elems]
    assert verdicts == [leq_by_search(a, b) for a in elems for b in elems]
    assert len(elems) < sum(verdicts) < len(verdicts)


def test_hollowing_agrees_with_endpoint_decrement():
    for n in sa_words_upto(8):
        assert hollow_successors(n) == decrement_oracle(n), n


def test_hollow_monotone_weight():
    for n in sa_words_upto(8):
        for m in hollow_successors(n):
            assert m.weight < n.weight


def test_hollow_stays_in_tag():
    for tag in ("D0", "D1"):
        for n in sa_words_upto(8, tag):
            for m in hollow_successors(n):
                assert member(m, tag)


def test_trusted_slices_pass_the_check():
    # sa_factor_min and unit_strip build their words unchecked; on every
    # selfadjoint word of weight <= 18 each of them is a reduced Word
    elems = sa_words_upto(18)
    assert len(elems) == 176
    for n in elems:
        w = sa_factor_min(n)
        assert passes_the_check(w) and w.star * w == n, n
        assert w == Word(tuple(-e for e in reversed(n[: len(n) // 2]))), n
        for u in sa_factorizations(n):
            c = unit_strip(u)
            assert passes_the_check(c) and u in (Word((-1,)) * c, Word((1,)) * c), u


def test_hollow_step_matches_the_product():
    # hollow_successors reads the step off the middle of n and builds its
    # word unchecked; on every selfadjoint word whose minimal factor has
    # weight <= 12 (each is u* u for its minimal factor u) it is the
    # recomposition of the stripped minimal factor, other than n, and a
    # reduced Word.  The three cases of the step are all met
    elems = {u.star * u for u in iter_words(12)}
    assert len(elems) == 752
    lengths = set()
    for n in elems:
        c = unit_strip(sa_factor_min(n))
        succ = hollow_successors(n)
        assert succ == {c.star * c} - {n}, n
        assert all(passes_the_check(m) for m in succ), n
        lengths |= {len(n) - len(m) for m in succ}
    assert lengths == {0, 2} and {n for n in elems if not hollow_successors(n)} == {UNIT_MINUS, UNIT_PLUS}


@pytest.mark.parametrize("bad, other", [("(1,-2)", "(-3,2,-3,3)"), ("(-3,2,-3,3)", "(1,-2)")])
def test_order_refuses_a_word_that_is_not_selfadjoint(bad, other):
    # leq checks n before m, so it names n when both are bad
    calls = (
        lambda: hollow_successors(W(bad)),
        lambda: leq(W(bad), UNIT_PLUS),
        lambda: leq(UNIT_PLUS, W(bad)),
        lambda: leq(W(bad), W(other)),
    )
    for call in calls:
        with pytest.raises(DomainError, match=r"^not selfadjoint: %s$" % re.escape(bad)):
            call()


def test_d1_check_reads_the_first_half():
    # on every product w* w with weight(w) <= 12 the half scan agrees with
    # the full one: a D1 word gives h and the sum of its first half, any
    # other is refused as not in D1; a word that is not selfadjoint is
    # refused as such first, also when its prefix sums pass 1
    squares = [w.star * w for w in iter_words(12)]
    assert len(squares) == 1216
    in_d1 = 0
    for n in squares:
        h = len(n) // 2
        if member(n, "D1"):
            assert _check_sa_d1(n) == (h, sum(n[:h])), n
            in_d1 += 1
        else:
            with pytest.raises(DomainError, match=r"^not in D1: "):
                _check_sa_d1(n)
    assert in_d1 == 488
    others = [w for w in iter_words(12) if not w.is_selfadjoint()]
    assert len(others) == 1176 and any(w[0] > 1 for w in others)
    for w in others:
        with pytest.raises(DomainError, match=r"^not selfadjoint: "):
            _check_sa_d1(w)


def hollow_depth_by_walk(n):
    """Hollowing steps from n until a word with no successor."""
    steps = 0
    while succ := hollow_successors(n):
        (n,) = succ
        steps += 1
    return steps


def test_hollow_depth_values():
    assert hollow_depth(UNIT_PLUS) == 0
    assert hollow_depth(UNIT_MINUS) == 0
    assert hollow_depth(W("(2,-2)")) == 1
    assert hollow_depth(W("(-4,4)")) == 3
    assert hollow_depth(W("(-3,2,-2,3)")) == 3
    assert hollow_depth(W("(-4,3,-3,4)")) == 5
    # every selfadjoint word of weight <= 18 is u* u for some u of weight <= 9
    sa_words = {u.star * u for u in iter_words(9)}
    assert len(sa_words) == 176 and {UNIT_MINUS, W("(2,-2)")} <= sa_words
    for n in sa_words:
        assert hollow_depth(n) == hollow_depth_by_walk(n), n
    with pytest.raises(DomainError, match="not selfadjoint"):
        hollow_depth(W("(-2,3)"))


# -- reachability --------------------------------------------------------------------


def test_leq_examples():
    assert leq(Word((-5, 5)), UNIT_PLUS)
    assert not leq(UNIT_PLUS, UNIT_MINUS)
    for a in sa_words_upto(8, "D1"):
        assert leq(a * a, a), a


@pytest.mark.parametrize(
    "lower, upper",
    [
        ("(-3,2,-2,3)", "(-3,2,-2,2,-2,3)"),  # minimal factors (-2,3) and (2,-2,3)
        ("(-4,3,-2,2,-3,4)", "(-5,2,-2,5)"),  # (2,-3,4) and (-2,5)
        ("(-3,3)", "(1,-1)"),  # (3) and (-1)
        ("(-2,2)", "(-3,3)"),  # (2) and (3)
    ],
    ids=["length", "suffix", "sign", "magnitude"],
)
def test_leq_closed_form_conditions(lower, upper):
    # with w, u the minimal factors of lower, upper and j = len(w) - len(u),
    # lower <= upper needs j >= 0, u[1:] == w[j+1:], u[0] of the sign of
    # w[j] and |u[0]| <= |w[j]|; each pair breaks the condition its id
    # names and meets the others (read with Python's negative indexing)
    n, m = W(lower), W(upper)
    assert not leq(n, m) and not leq_by_search(n, m)


def test_leq_reflexive_and_antisymmetric():
    elems = sa_words_upto(6, "D1")
    for a in elems:
        assert leq(a, a)
    for a in elems:
        for b in elems:
            if a != b:
                assert not (leq(a, b) and leq(b, a)), (a, b)


@given(words_st)
def test_leq_conjugation_compatible(x):
    a, b = Word((-3, 3)), Word((-2, 2))
    assert leq(a, b)
    assert leq(x.star * a * x, x.star * b * x)


def test_upper_idempotent_examples():
    assert upper_idempotent(Word((-5, 5))) == UNIT_PLUS
    assert upper_idempotent(UNIT_MINUS) == UNIT_MINUS
    m = Word((-2, 2))
    assert upper_idempotent(m.star * UNIT_MINUS * m) == UNIT_PLUS
    with pytest.raises(DomainError):
        upper_idempotent(Word((-2, 4, -4, 2)))  # outside D1


def test_plus_unit_fixes_exactly_the_negative_start_words():
    # upper_idempotent reads (-1,1) off n[0] < 0: the plus unit fixes a word
    # on the left exactly when it starts negative, on every word of weight
    # <= 14, and the selfadjoint D1 ones among them get that idempotent
    ws = list(iter_words(14))
    assert len(ws) == 3190
    for w in ws:
        assert (UNIT_PLUS * w == w) == (w[0] < 0), w
    for n in sa_words_upto(14, "D1"):
        assert upper_idempotent(n) == (UNIT_PLUS if UNIT_PLUS * n == n else UNIT_MINUS), n


def test_upper_idempotent_reachable():
    for a in sa_words_upto(8, "D1"):
        assert leq(a, upper_idempotent(a)), a


def test_d0_unique_upper_bound():
    for a in sa_words_upto(8, "D0"):
        assert leq(a, UNIT_PLUS), a
