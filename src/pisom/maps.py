"""Structural *-maps: generator conjugation and its one-sided inverses.

``alpha`` conjugates by the generator, ``omega`` by its adjoint; on the
prefix-sum-bounded subsemigroups they are mutually inverse in one
direction (alpha o omega = id on D0).  ``beta_omega`` shifts the two
endpoint exponents of a non-unit plus-irreducible toward zero and is the
left inverse of alpha on D0.
"""

from itertools import accumulate

from .words import GEN, GEN_STAR, UNIT_PLUS, DomainError, Word, _trusted


def alpha(n: Word) -> Word:
    """(-1) n (1); defined on every word."""
    return GEN_STAR * n * GEN


def omega(n: Word) -> Word:
    """(1) n (-1); a *-homomorphism on the plus-bracketed words."""
    return GEN * n * GEN_STAR


def conj(a: Word, s: Word) -> Word:
    """a* s a; generic conjugation, so conj((1), .) == alpha."""
    return a.star * s * a


def is_irr_plus(n: Word) -> bool:
    """Irreducible and plus-bracketed: all interior prefix sums < 0."""
    if n.tau != 0:
        return False
    return all(s < 0 for s in accumulate(n[:-1]))


def beta_omega(n: Word) -> Word:
    """Endpoint shift (n0+1, ..., nk-1) on non-unit plus-irreducibles.

    Left inverse of alpha on D0; its image is all of D0.
    """
    if n == UNIT_PLUS or not is_irr_plus(n):
        raise DomainError("beta_omega needs a non-unit plus-irreducible, got %s" % (n,))
    # n starts at most -2 and ends at least 2, since only the unit has a
    # unit endpoint, so the shifted endpoints stay nonzero
    return _trusted((n[0] + 1,) + n[1:-1] + (n[-1] - 1,))
