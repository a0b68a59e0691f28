"""Structural *-maps: generator conjugation and its one-sided inverses.

``alpha`` conjugates by the generator, ``omega`` by its adjoint; on the
prefix-sum-bounded subsemigroups they are mutually inverse in one
direction (alpha o omega = id on D0).  ``beta_omega`` shifts the two
endpoint exponents of a non-unit plus-irreducible toward zero and is the
left inverse of alpha on D0.

Both conjugations are one bracket (-e) n (e), e = +-1, built by
:func:`_bracket` in closed form: each end of n settles by itself, by the
junction lemma of ``words``, and only words of at most two entries take
the product path.
"""

from itertools import accumulate

from .words import GEN, GEN_STAR, UNIT_PLUS, DomainError, Word, _echo, _trusted


def _bracket(n: Word, e: int) -> Word:
    """(-e) n (e) for e = +-1, with each end of n settled on its own.

    The left product (-e) n is the junction lemma (``words``) with a = (-e):
    a first entry of sign -e merges into n[0] - e; a first entry equal to e
    folds away, (-e, e, n[1]) giving n[1], when len(n) > 1; otherwise
    (-e) is prepended.  The right product with (e) is the mirror image: a
    last entry of sign e merges into n[-1] + e, a last entry equal to -e
    folds away, and otherwise (e) is appended.  With at least three entries
    the two ends cannot interact: the left step changes or removes n[0]
    only, so the word it leaves still ends in n[-2], n[-1] with at least
    two entries, which is all the right step reads, and the right step
    touches only n[-1].  So the result is the settled head, n[1:-1] and the
    settled tail in one concatenation; (e, x, -e) gives (x,), where
    |x| >= 2 as x was interior.  Every entry keeps its sign, a merged end
    grows, and the one entry that can become interior, n[0] after a
    prepend, has the sign of e without being e, so |n[0]| >= 2: the result
    is reduced.  Words of at most two entries take the product path, as
    their ends do interact: alpha((1,-1)) == (-1,1).
    """
    if len(n) <= 2:
        return GEN_STAR * n * GEN if e == 1 else GEN * n * GEN_STAR
    a, z = n[0], n[-1]
    if a == e:
        head = ()
    elif (a > 0) == (e > 0):
        head = (-e, a)
    else:
        head = (a - e,)
    if z == -e:
        tail = ()
    elif (z > 0) == (e > 0):
        tail = (z + e,)
    else:
        tail = (z, e)
    return _trusted(head + n[1:-1] + tail)


def alpha(n: Word) -> Word:
    """(-1) n (1); defined on every word."""
    return _bracket(n, 1)


def omega(n: Word) -> Word:
    """(1) n (-1); a *-homomorphism on the plus-bracketed words."""
    return _bracket(n, -1)


def conj(a: Word, s: Word) -> Word:
    """a* s a; generic conjugation, so conj((1), .) == alpha."""
    return a.star * s * a


def is_irr_plus(n: Word) -> bool:
    """Irreducible and plus-bracketed: tau 0 and all interior prefix sums
    < 0 (n has at least two entries once tau is 0)."""
    return n.tau == 0 and max(accumulate(n[:-1])) < 0


def beta_omega(n: Word) -> Word:
    """Endpoint shift (n0+1, ..., nk-1) on non-unit plus-irreducibles.

    Left inverse of alpha on D0; its image is all of D0.
    """
    if n == UNIT_PLUS or not is_irr_plus(n):
        raise DomainError("beta_omega needs a non-unit plus-irreducible, got %s" % _echo(n))
    # n starts at most -2 and ends at least 2, since only the unit has a
    # unit endpoint, so the shifted endpoints stay nonzero
    return _trusted((n[0] + 1,) + n[1:-1] + (n[-1] - 1,))
