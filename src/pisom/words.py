"""Reduced words: the exact arithmetic core.

A word is a finite sequence of nonzero integers with alternating signs in
which every interior entry has absolute value at least 2.  Such words are
the normal forms of the *-semigroup generated by a single element whose
representations are partial isometries: a positive entry k stands for the
k-th power of the generator, a negative entry -k for the k-th power of its
adjoint.  Multiplication concatenates and renormalizes; the two rewrite
rules are

  (a)  merge adjacent entries of equal sign by addition,
  (b)  replace an interior triple (x, e, y) with e = +-1 and x, y of the
       opposite sign by the single entry x + e + y.

Rule (b) preserves nonzeroness because |x + e + y| = |x| + |y| - 1 >= 1.
Each rule strictly shortens the sequence, so normalization terminates; the
test suite checks confluence against an exhaustive all-orders oracle.

A product of two reduced words can be non-reduced only at the junction,
and it settles there in closed form.  Write a = (..., a2, a1) and
b = (b1, b2, ...).  Equal signs at the junction merge a1 and b1 into one
entry of absolute value >= 2, which is final.  With opposite signs, at most
one rule (b) step happens:

- if a1 is a unit and len(a) > 1, the product is
  a[:-2] + (a2 + a1 + b1,) + b[1:];
- otherwise, if b1 is a unit and len(b) > 1, it is
  a[:-1] + (a1 + b1 + b2,) + b[2:];
- otherwise it is the plain concatenation, with no unit at an interior
  position.

Proof for the first case.  The new entry z = a2 + a1 + b1 has
|z| = |a2| + |b1| - 1 >= 1 and the sign of a2 and b1, so it merges with
neither neighbour: a3 has the opposite sign of a2, and b2 that of b1.  z is
a unit only when a2 and b1 both are; a2 is then an end of a, so len(a) = 2
and z is the first entry of the product, not an interior one.  The entries
next to z were interior entries of a or b, or are ends of the product.  So
no second rule applies.  The second case is the mirror image.  When a1 and
b1 are both units, both cases give the same word.

The same lemma settles :func:`reduce_word`, and so parsing, one entry at a
time: pushing v onto a reduced stack multiplies it by the one-entry word
(v).  v merges into a last entry of its own sign; otherwise a unit last
entry with an entry before it folds with v into one entry; otherwise v is
appended.  The second case never applies, since (v) has one entry.

Selfadjointness is decided in one place, ``Word.is_selfadjoint``, off the
two halves of a word; it reads only the entries, so the numeric layer asks
it about plain tuple slices of words as well.

Words that come from outside (``Word(...)``, :func:`parse_word`,
:func:`reduce_word`, a Word times a plain tuple, the JSON readers) pass
through one checked constructor that validates the invariants.  Words that
are reduced by construction are wrapped unchecked by ``_trusted``, the only
place a Word is made without that check; each of its callers has a test
that re-validates every output on an exhaustive space:

- products and stars of Words (the junction lemma above):
  ``test_products_and_stars_pass_the_check`` (every product of two words of
  weight <= 8, and every star), ``test_mul_matches_oracle_small_weights``
  (the all-orders oracle, weight <= 6) and ``test_mul_matches_full_reduction``;
- the Gram cells v_i* v_j of ``matrix.gram`` (the same lemma, with the
  pieces of each entry, its star among them, cut once as plain tuples, so
  that the cells are the only Words the kernel makes):
  ``test_gram_cells_pass_the_check`` (every pair of words of weight <= 7)
  and ``test_gram_cells_match_the_reference`` (seeded vectors of rank <= 6
  with long entries and big magnitudes);
- the factors of ``structure.factor_a0`` (pieces of a reduced word between
  cuts, with the cut entries replaced by prefix sums of the right sign):
  ``test_factor_exhaustive_small`` (the 6,092 tau-kernel words of weight
  <= 20, against the cut-and-recurse reference);
- the factors of ``structure.factor_d0`` (slices of a D0 word between its
  zero prefix sums): ``test_factor_d0_exhaustive_small`` (the 338 D0 words
  of weight <= 20, against ``factor_a0``) and
  ``test_factor_d0_matches_factor_a0_on_products`` (seeded products of up
  to four plus-irreducibles of grade <= 16);
- ``order.sa_factor_min`` (the second half of a selfadjoint word) and
  ``words.unit_strip`` (a reduced word with a unit taken off its front):
  ``test_trusted_slices_pass_the_check`` (the 176 selfadjoint words of
  weight <= 18);
- ``order.hollow_successors`` (the middle pair of a selfadjoint word moved
  one step toward zero, or dropped): ``test_hollow_step_matches_the_product``
  (the 752 selfadjoint words whose minimal factor has weight <= 12, against
  the product);
- ``maps.beta_omega`` (a non-unit plus-irreducible with its endpoints moved
  toward zero): ``test_beta_omega_lands_in_d0`` (grades 2..14);
- ``maps._bracket``, the closed form of ``alpha`` and ``omega`` (a word with
  each end settled by the junction lemma): ``test_bracket_matches_the_products``
  (every word of weight <= 18, against the products);
- ``structure.sa_canonical_d1`` (the center and flank of a selfadjoint D1
  word: slices between its cuts, with the cut entries replaced by prefix
  sums): ``test_sa_canonical_matches_factor_and_fold`` (the 4,279 D1 words
  w* w with weight(w) <= 18, against the factor sequence and its product);
- ``matrix.classify_matrix``'s Case2 split (an entry cut at its first
  prefix sum 1, the cut entry shared out between the two pieces):
  ``test_case2_matches_factor_and_fold`` (the 2,498 negative-start words
  of tau 0, every prefix sum <= 1 and weight <= 22, against the factor
  sequence cut at its first (1,-1) and multiplied out);
- the words of ``structure._plus_irreducibles`` (a first entry, x and -m
  concatenated with one of the completions listed once per prefix state):
  ``test_enum_elements_meet_the_definition`` (every plus-irreducible of
  grade <= 16) and ``test_enum_matches_the_search`` (grades <= 18, against
  a depth-first search through the checked constructor).

``test_trusted_word_construction_stays_in_words`` keeps ``tuple.__new__``
inside ``_trusted`` and ``_trusted`` to the callers above.
"""

import re
from itertools import accumulate


class WordError(ValueError):
    """Malformed word literal or invalid entry sequence."""


class DomainError(ValueError):
    """Operation applied outside its domain (wrong subsemigroup, not
    selfadjoint, ...)."""


#: a literal entry: an optional sign, then 0 (refused as a zero entry when
#: the literal is reduced) or at most 4,000 digits without a leading zero.
#: Every integer a command computes from words (an entry, a prefix sum, tau)
#: is a signed sum of entries of its input, plus a unit or two.  The input
#: has fewer than 10^299 entries, as no longer one fits in memory, so that
#: sum has at most 4,300 digits: within Python's limit on int/str
#: conversion, which then never raises
_INT_RE = re.compile(r"-?(?:0|[1-9][0-9]{0,3999})")

#: membership tags accepted by :func:`member`
TAGS = ("A0", "Aplus", "Aminus", "Aplus0", "D0", "D1")


def _checked(entries) -> "Word":
    """Validate the normal-form invariants of an int sequence and wrap it.

    Every Word made from outside input comes through here; words reduced
    by construction go through :func:`_trusted` instead (the module
    docstring names them and the tests that check them).  The checks run
    as C-level scans: min/max over the even and odd slices (strict, so
    they also catch a zero), then min of the interior magnitudes.  Faults
    are reported zero first, then sign, then interior, as a per-entry scan
    would find them; the zero membership test runs only once the
    alternation has failed.
    """
    n = len(entries)
    if n == 1:
        ok = entries[0] != 0
    elif n == 2:
        ok = entries[0] * entries[1] < 0
    elif n:
        if entries[0] > 0:
            ok = min(entries[::2]) > 0 > max(entries[1::2])
        else:
            ok = max(entries[::2]) < 0 < min(entries[1::2])
    else:
        raise WordError("empty word")
    if not ok:
        if 0 in entries:
            raise WordError("zero entry in word")
        raise WordError("adjacent entries share a sign: %r" % (tuple(entries),))
    if n > 2 and min(map(abs, entries[1:-1])) < 2:
        raise WordError("interior entry of absolute value 1: %r" % (tuple(entries),))
    return _trusted(entries)


def _trusted(entries) -> "Word":
    """Wrap an int sequence that is reduced by construction, unchecked.

    The only place a Word is made without :func:`_checked`; the module
    docstring lists every caller and the test that holds it.
    """
    return tuple.__new__(Word, entries)


class Word(tuple):
    """An immutable reduced word.

    Construction validates the normal-form invariants; use
    :func:`reduce_word` to normalize an arbitrary nonzero-integer sequence.

    >>> Word((-2, 3)) * Word((-3, 4))
    Word((-2,3,-3,4))
    >>> reduce_word((1, -1, 1))
    Word((1))
    >>> Word((1,)).star
    Word((-1))
    """

    __slots__ = ()

    def __new__(cls, entries):
        return _checked(tuple(map(int, entries)))

    def __repr__(self):
        return "Word((%s))" % ",".join(str(e) for e in self)

    def __str__(self):
        return format_word(self)

    def __mul__(self, other):
        if type(other) is not Word:
            return reduce_word(tuple(self) + tuple(other))
        # the junction in closed form; the module docstring has the proof
        x, y = self[-1], other[0]
        if (x > 0) == (y > 0):
            return _trusted(self[:-1] + (x + y,) + other[1:])
        if abs(x) == 1 and len(self) > 1:
            return _trusted(self[:-2] + (self[-2] + x + y,) + other[1:])
        if abs(y) == 1 and len(other) > 1:
            return _trusted(self[:-1] + (x + y + other[1],) + other[2:])
        return _trusted(self + other)

    @property
    def star(self) -> "Word":
        """Reverse and negate; the involution of the *-semigroup."""
        return _trusted([-e for e in self[::-1]])

    @property
    def weight(self) -> int:
        """Sum of absolute values; the termination measure for reduction."""
        return sum(map(abs, self))

    @property
    def tau(self) -> int:
        """Total exponent sum; additive under products, negated by star."""
        return sum(self)

    def sigma(self, r: int) -> int:
        """Prefix sum of the first r+1 entries, saturating to tau."""
        if r < 0:
            raise WordError("sigma index must be nonnegative")
        return sum(self[: r + 1])

    def tau_plus(self) -> int:
        """Sum of the positive entries; the grading used for irreducibles."""
        pos = [e for e in self if e > 0]
        if not pos:
            raise DomainError("word has no positive entry: %s" % _echo(self))
        return sum(pos)

    def is_selfadjoint(self) -> bool:
        """Equal to its star: the second half is the negated reverse of the
        first, so the ends are negatives of each other.  An odd length never
        is, as the halves then differ in length; and since the entries of a
        word alternate in sign, its ends then share one, so the ends check
        already refuses it.

        Only the entries are read, so ``Word.is_selfadjoint(t)`` also
        decides a plain tuple t, such as a slice of a word."""
        if self[0] != -self[-1]:
            return False
        h = len(self) // 2
        return self[h:] == tuple([-e for e in self[h - 1 :: -1]])


def reduce_word(raw) -> Word:
    """Normal form of an arbitrary nonzero-integer sequence.

    One stack pass: each push settles in one step by the junction lemma
    (module docstring), so the stack is reduced after every push.  The
    result still goes through :func:`_checked`, the check on outside input.
    """
    out: list[int] = []
    for v in raw:
        v = int(v)
        if v == 0:
            raise WordError("zero entry in word")
        if out and (out[-1] > 0) == (v > 0):
            out[-1] += v
        elif len(out) > 1 and abs(out[-1]) == 1:
            e = out.pop()
            out[-1] += e + v
        else:
            out.append(v)
    return _checked(out)


def parse_word(text: str) -> Word:
    """Parse a word literal and reduce it.

    Grammar: ``'(' int (',' int)* ')'`` with ints free of leading zeros
    and of at most 4,000 digits (``_INT_RE``); whitespace around tokens
    is tolerated.  Unreduced literals are accepted and normalized.  A
    refusal quotes the text, or the bad entry, as :func:`_echo` cuts it.

    >>> parse_word("(-2,3,-3,2)")
    Word((-2,3,-3,2))
    >>> parse_word("(1, -1, 1)")
    Word((1))
    """
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise WordError("word literal must be parenthesized: %r" % _echo(text))
    body = s[1:-1]
    parts = [p.strip() for p in body.split(",")]
    if any(p == "" for p in parts):
        raise WordError("malformed word literal: %r" % _echo(text))
    for p in parts:
        if not _INT_RE.fullmatch(p):
            if len(p.lstrip("-")) > 4000:  # echo its head only
                raise WordError("bad integer %r in word literal: an entry has at most 4,000 digits" % (p[:20] + "..."))
            raise WordError("bad integer %r in word literal" % _echo(p))
    return reduce_word(int(p) for p in parts)


def _echo(value) -> str:
    """A user's text or integer as a refusal echoes it: whole up to 80
    characters, else its first 20 and '...', so that no refusal line grows
    with its input."""
    text = str(value)
    return text if len(text) <= 80 else text[:20] + "..."


def format_word(w) -> str:
    """Literal form, no spaces; round-trips through :func:`parse_word`."""
    return "(%s)" % ",".join(str(e) for e in w)


def iter_words(max_weight: int):
    """All reduced words of weight up to max_weight, depth first."""

    def extend(seq, used):
        yield Word(seq)
        if len(seq) > 1 and abs(seq[-1]) < 2:
            return
        sign = -1 if seq[-1] > 0 else 1
        for mag in range(1, max_weight - used + 1):
            yield from extend(seq + (sign * mag,), used + mag)

    for first in range(1, max_weight + 1):
        yield from extend((first,), first)
        yield from extend((-first,), first)


def member(w: Word, tag: str) -> bool:
    """Membership in the named subsemigroup.

    A0 is the kernel of tau; Aplus/Aminus are the sign-bracketed words;
    D0 demands all prefix sums <= 0, D1 all prefix sums <= 1 (both inside
    A0).
    """
    if tag == "A0":
        return w.tau == 0
    if tag == "Aplus":
        return len(w) >= 2 and w[0] < 0 and w[-1] > 0
    if tag == "Aminus":
        return len(w) >= 2 and w[0] > 0 and w[-1] < 0
    if tag == "Aplus0":
        return member(w, "Aplus") and w.tau == 0
    if tag == "D0":
        return w.tau == 0 and max(accumulate(w)) <= 0
    if tag == "D1":
        return w.tau == 0 and max(accumulate(w)) <= 1
    raise WordError("unknown membership tag %r (expected one of %s)" % (tag, ", ".join(TAGS)))


UNIT_PLUS = Word((-1, 1))   # unit of the plus-bracketed subsemigroups
UNIT_MINUS = Word((1, -1))  # the other idempotent
GEN = Word((1,))
GEN_STAR = Word((-1,))


def unit_strip(u: Word) -> Word:
    """The hollowing choice: remove one unit from the front of u.

    For u = (-1) this is forced to (1,-1), mirrored for (1).
    """
    e0 = u[0]
    if e0 < 0:
        if e0 == -1:
            return UNIT_MINUS if len(u) == 1 else _trusted(u[1:])
        return _trusted((e0 + 1,) + u[1:])
    if e0 == 1:
        return UNIT_PLUS if len(u) == 1 else _trusted(u[1:])
    return _trusted((e0 - 1,) + u[1:])


def unit_shift(u: Word) -> Word:
    """The inert choice: prepend the opposite unit (same recomposition)."""
    return (GEN if u[0] < 0 else GEN_STAR) * u
