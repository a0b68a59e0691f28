import pytest
from hypothesis import given, strategies as st

from pisom.maps import alpha, beta_omega, conj, is_irr_plus, omega
from pisom.structure import enum_irr
from pisom.words import GEN, GEN_STAR, UNIT_MINUS, UNIT_PLUS, DomainError, Word, iter_words, member, reduce_word

from conftest import passes_the_check, product, random_minimal_sequences, ref

words_st = st.lists(
    st.integers(-5, 5).filter(lambda x: x != 0), min_size=1, max_size=7
).map(reduce_word)


def grades(up_to):
    for k in range(1, up_to + 1):
        yield from enum_irr(k).elements


def test_alpha_examples():
    assert alpha(UNIT_MINUS) == UNIT_PLUS
    assert alpha(UNIT_PLUS) == Word((-2, 2))
    assert alpha(Word((-3, 2, -2, 3))) == Word((-4, 2, -2, 4))


def test_bracket_matches_the_products():
    # alpha and omega settle each end of a word in closed form, with the
    # product path kept for words of at most two entries: on every word of
    # weight <= 18 they equal the products, built unchecked to a Word the
    # checked constructor accepts
    count = 0
    for n in iter_words(18):
        a, o = alpha(n), omega(n)
        assert a == GEN_STAR * n * GEN and passes_the_check(a), n
        assert o == GEN * n * GEN_STAR and passes_the_check(o), n
        count += 1
    assert count == 21888


def test_is_irr_plus_matches_the_reference():
    # on every word of weight <= 14, against the reference's definition; a
    # product of plus-irreducibles has an interior prefix sum of 0 and is
    # refused
    found = 0
    for n in iter_words(14):
        expected = n[0] < 0 and ref.is_irreducible(n)
        assert is_irr_plus(n) == expected, n
        found += expected
    assert found == 18
    assert not is_irr_plus(Word((-2, 2, -2, 2)))


def test_alpha_image_is_irreducible():
    # alpha maps D0 into the non-unit plus-irreducibles
    for seq in random_minimal_sequences(sorted(grades(4)), 100, seed=11, max_len=3):
        d = product(seq)
        if member(d, "D0"):
            img = alpha(d)
            assert is_irr_plus(img) and img != UNIT_PLUS


def test_omega_examples():
    assert omega(UNIT_PLUS) == UNIT_MINUS
    for d in grades(6):
        assert alpha(omega(d)) == d
    assert omega(Word((-2, 2))) == Word((1, -2, 2, -1))


def test_omega_lands_in_d1():
    for d in grades(6):
        assert member(omega(d), "D1")


def test_beta_omega_examples():
    assert beta_omega(Word((-2, 2))) == UNIT_PLUS
    assert beta_omega(Word((-4, 2, -2, 4))) == Word((-3, 2, -2, 3))
    assert alpha(beta_omega(Word((-4, 2, -2, 4)))) == Word((-4, 2, -2, 4))
    with pytest.raises(DomainError):
        beta_omega(UNIT_PLUS)
    with pytest.raises(DomainError):
        beta_omega(Word((-2, 3, -3, 2)))  # reducible


def test_beta_omega_lands_in_d0():
    # every non-unit plus-irreducible of grade <= 14 shifts into D0, to a
    # reduced Word (built unchecked) that alpha takes back
    count = 0
    for k in range(2, 15):
        for w in enum_irr(k).elements:
            b = beta_omega(w)
            assert passes_the_check(b), w
            assert member(b, "D0") and alpha(b) == w, w
            count += 1
    assert count == 4022


def test_beta_omega_alpha_identities():
    for k in range(1, 7):
        for w in enum_irr(k).elements:
            if w != UNIT_PLUS:
                assert alpha(beta_omega(w)) == w
                assert beta_omega(alpha(w)) == w
            assert beta_omega(alpha(w)) == w  # holds for the unit too


def test_conj_examples():
    assert conj(Word((1,)), UNIT_MINUS) == UNIT_PLUS
    for d in grades(5):
        assert conj(UNIT_PLUS, d) == d
    n = Word((-3, 2, -2, 3))
    assert omega(n) == UNIT_MINUS * beta_omega(n) * UNIT_MINUS


@given(words_st, words_st)
def test_alpha_absorbs_inner_idempotent(a, b):
    assert alpha(a * UNIT_MINUS * b) == alpha(a) * alpha(b)
    assert alpha(UNIT_MINUS * a) == alpha(a)
    assert alpha(a * UNIT_MINUS) == alpha(a)


def test_alpha_closure_generates_d0():
    """Iterating alpha and products from the unit reaches all of D0, grade
    by grade."""
    cap = 6
    closure = {UNIT_PLUS}
    changed = True
    while changed:
        changed = False
        for x in list(closure):
            img = alpha(x)
            if img.tau_plus() <= cap and img not in closure:
                closure.add(img)
                changed = True
        for x in list(closure):
            for y in list(closure):
                p = x * y
                if p.tau_plus() <= cap and p not in closure:
                    closure.add(p)
                    changed = True

    d0_elements = {UNIT_PLUS}
    frontier = {UNIT_PLUS}
    pool = [w for k in range(1, cap + 1) for w in enum_irr(k).elements]
    while frontier:
        nxt = set()
        for x in frontier:
            for g in pool:
                p = x * g
                if p.tau_plus() <= cap and p not in d0_elements:
                    d0_elements.add(p)
                    nxt.add(p)
        frontier = nxt

    assert closure == d0_elements


def test_alpha_injective_on_d0_grades():
    seen = {}
    for k in range(1, 6):
        for w in enum_irr(k).elements:
            img = alpha(w)
            assert img not in seen
            seen[img] = w
            assert beta_omega(img) == w
