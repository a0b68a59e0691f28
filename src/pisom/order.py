"""The partial order on selfadjoint words: hollowing and reachability.

A selfadjoint word n factors as w* w; stripping one unit off the front of
w and recomposing yields the element one step above ("hollowing out" the
middle).  By definition a step may start from either reduced factorization
and either way of splitting a unit off it, but every choice other than
stripping the minimal factor recomposes to n itself.  So each element has
at most one strict successor, computed directly, and the elements above n
form a chain.  The tests keep the generate-and-filter definition and
compare it with the direct step.

The step is read off the middle pair (-p, p) of n, p = n[h] the first
entry of w and h = len(n)/2, with no star and no product: it moves both
entries one step toward zero, and drops the pair when |p| = 2 and n has
more entries.  The two units (1,-1) and (-1,1) are the maximal elements
(proof at :func:`hollow_successors`).

The chain is read off the minimal factor w of n: a step takes one unit off
w[0], and once that entry is a unit the recomposition absorbs it, so the
next minimal factor is w[1:].  Hence, with u the minimal factor of m and
j = len(w) - len(u), n <= m exactly when j >= 0, u[1:] == w[j+1:], u[0]
has the sign of w[j] and |u[0]| <= |w[j]|; and the number of steps up to
a unit, ``hollow_depth``, is the sum of |e| - 1 over the entries e of w.
Hollowing keeps D0 and D1, so no function here takes a tag to stay within.

Selfadjointness is read off the halves of n (``Word.is_selfadjoint``), and
membership of a selfadjoint n in D1 off the prefix sums of its first half
alone: its tau is 0 already, since tau(n*) = -tau(n), and its prefix sums
mirror about the middle.  That one scan ends at tau(w*) for the minimal
factor w, which the case analysis of ``structure`` reads.  (-1,1) fixes a
word on the left exactly when the word starts negative: with w[0] < 0 the
junction folds (-1,1,w[0]) into w[0], and with w[0] > 0 the product
(-1, 1 + w[0], ...) is one entry longer than w.  So ``upper_idempotent`` reads its answer off n[0].
"""

from itertools import accumulate

from .words import UNIT_MINUS, UNIT_PLUS, DomainError, Word, _echo, _trusted, unit_shift


def _sa_half(n: Word) -> int:
    """len(n) / 2 for a selfadjoint n; any other word is a DomainError."""
    if not n.is_selfadjoint():
        raise DomainError("not selfadjoint: %s" % _echo(n))
    return len(n) // 2


def sa_factor_min(n: Word) -> Word:
    """The unique minimal-length w with w* w == n."""
    # is_selfadjoint found this half equal to the star of the first
    return _trusted(n[_sa_half(n) :])


def sa_factorizations(n: Word) -> tuple[Word, Word]:
    """Both reduced factorizations w* w == n, negative-start first."""
    w = sa_factor_min(n)
    other = unit_shift(w)
    return (w, other) if w[0] < 0 else (other, w)


def _check_sa_d1(n: Word) -> tuple[int, int]:
    """Refuse n unless it is selfadjoint (checked first) and in D1; return
    h = len(n)/2 and t = sig[h-1] = tau(w*) for w = n[h:], the last prefix
    sum of the first half, read off one scan of that half.

    The half suffices.  With L = len(n), selfadjointness gives
    n[L-1-j] = -n[j], so tau(n) = 0 = sig[L-1], and for 0 <= j <= L-2,
    sig[L-2-j] = tau(n) - (n[L-1-j] + ... + n[L-1]) = n[0] + ... + n[j] =
    sig[j].  Each index h <= r <= L-2 mirrors to L-2-r <= h-2, so
    max(sig) = max(max(sig[:h]), 0), and as 0 <= 1 that is at most 1
    exactly when max(sig[:h]) is.
    """
    h = _sa_half(n)
    sig = list(accumulate(n[:h]))
    if max(sig) > 1:
        raise DomainError("not in D1: %s" % _echo(n))
    return h, sig[-1]


def hollow_successors(n: Word) -> set[Word]:
    """The element one basic step above n, or none when n is maximal, which
    it is exactly at the two units (1,-1) and (-1,1).

    The step recomposes c* c for c = unit_strip(w), w = n[h:] the minimal
    factor and h = len(n)/2, and the junction lemma of ``words`` reads it
    off the middle of n with no star and no product.  Let p = w[0] = n[h],
    so n[h-1] = -p, and let p' be p moved one step toward zero.

    - |p| = 1: p is an interior entry unless len(n) = 2, so n is (1,-1) or
      (-1,1).  c is (1,-1) or (-1,1) itself, an idempotent, and c* c = n.
    - |p| >= 3, or len(n) = 2 (so |p| >= 2): c = (p',) + w[1:] and
      c* = n[:h-1] + (-p',).  At the junction -p' and p' have opposite
      signs, and no rule (b) step applies: for |p| >= 3 neither is a unit,
      and for len(n) = 2 both c and c* have one entry.  So c* c is the
      plain concatenation n[:h-1] + (-p', p') + n[h+1:]: the middle pair
      moves one step toward zero.
    - |p| = 2 and len(n) > 2: p' is a unit and c* has more than one entry,
      so the lemma's first case folds (c*[-2], -p', p') into c*[-2] =
      n[h-2]: c* c = n[:h-1] + n[h+1:], the middle pair drops out.

    In the last two cases c* c is lighter (a step) or shorter (a drop) than
    n, so it is not n; and the lemma leaves it reduced, so it is built
    unchecked.
    """
    h = _sa_half(n)
    p = n[h]
    if p == 1 or p == -1:
        return set()
    if p > 2 or p < -2 or h == 1:
        e = 1 if p > 0 else -1
        return {_trusted(n[: h - 1] + (e - p, p - e) + n[h + 1 :])}
    return {_trusted(n[: h - 1] + n[h + 1 :])}


def leq(n: Word, m: Word) -> bool:
    """n <= m along hollowing steps: the minimal factor of m is the suffix
    of that of n with its first entry shrunk toward zero (module docstring).
    Both minimal factors are compared as the plain slices n[h:] and m[h':].
    """
    w = n[_sa_half(n) :]
    u = m[_sa_half(m) :]
    j = len(w) - len(u)
    return j >= 0 and u[1:] == w[j + 1 :] and (u[0] < 0) == (w[j] < 0) and abs(u[0]) <= abs(w[j])


def hollow_depth(n: Word) -> int:
    """Number of hollowing steps from a selfadjoint word to the unit that
    ends its chain: the sum of |e| - 1 over the entries e of its minimal
    factor.  Defined on every selfadjoint word, (1,-1) and its chain
    included; any other word is a DomainError."""
    w = sa_factor_min(n)
    return w.weight - len(w)


def square_hollow(s: Word) -> Word:
    """The single element one step above s* s (strip one unit off s)."""
    (out,) = hollow_successors(s.star * s)
    return out


def upper_idempotent(n: Word) -> Word:
    """The idempotent above n; (-1,1) exactly when it fixes n on the left,
    that is when n starts negative (module docstring)."""
    _check_sa_d1(n)
    return UNIT_PLUS if n[0] < 0 else UNIT_MINUS
