"""The partial order on selfadjoint words: hollowing and reachability.

A selfadjoint word n factors as w* w; stripping one unit off the front of
w and recomposing yields the element one step above ("hollowing out" the
middle).  By definition a step may start from either reduced factorization
and either way of splitting a unit off it, but every choice other than
stripping the minimal factor recomposes to n itself.  So each element has
at most one strict successor, computed directly, and reachability is a
walk along a chain.  ``leq`` checks its two arguments once and walks
without re-checking: every step c* c is selfadjoint by construction, and
its minimal factor is its second half.  The tests keep the
generate-and-filter definition and compare it with the direct step.
Hollowing keeps D0 and D1, so no function here takes a tag to stay within.
"""

from __future__ import annotations

from .words import GEN, GEN_STAR, UNIT_MINUS, UNIT_PLUS, DomainError, Word, _trusted, member


def sa_factor_min(n: Word) -> Word:
    """The unique minimal-length w with w* w == n."""
    if not n.is_selfadjoint():
        raise DomainError("not selfadjoint: %s" % (n,))
    # n has even length (a middle entry would equal its own negative), and
    # its second half is the star of its first
    return _trusted(n[len(n) // 2 :])


def sa_factorizations(n: Word) -> tuple[Word, Word]:
    """Both reduced factorizations w* w == n, negative-start first."""
    w = sa_factor_min(n)
    other = unit_shift(w)
    return (w, other) if w[0] < 0 else (other, w)


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


def hollow_choices(u: Word) -> tuple[Word, ...]:
    """Distinct candidates c with u = (unit) c; one or two of them."""
    a, b = unit_strip(u), unit_shift(u)
    return (a,) if a == b else (a, b)


def _check_sa_d1(n: Word) -> None:
    if not n.is_selfadjoint():
        raise DomainError("not selfadjoint: %s" % (n,))
    if not member(n, "D1"):
        raise DomainError("not in D1: %s" % (n,))


def hollow_successors(n: Word) -> set[Word]:
    """Elements one basic step above n: the hollowed minimal factor's
    recomposition, or none when that is n itself (n is maximal)."""
    c = unit_strip(sa_factor_min(n))  # checks that n is selfadjoint
    m = c.star * c
    return set() if m == n else {m}


def leq(n: Word, m: Word) -> bool:
    """Reachability n <= m along hollowing steps (a walk up the chain).

    Each step strictly lowers the weight, so the walk stops once it is no
    heavier than m.  Only the two units are maximal, and no selfadjoint
    word is lighter, so every element the walk steps from has a successor.
    n and m are checked once; each step c* c of a hollowed minimal factor
    is selfadjoint, so the walk takes its minimal factor unchecked.
    """
    for x in (n, m):
        if not x.is_selfadjoint():
            raise DomainError("not selfadjoint: %s" % (x,))
    top = m.weight
    while n != m and n.weight > top:
        c = unit_strip(_trusted(n[len(n) // 2 :]))
        n = c.star * c
    return n == m


def upper_idempotent(n: Word) -> Word:
    """The idempotent above n; (-1,1) exactly when it fixes n on the left."""
    _check_sa_d1(n)
    return UNIT_PLUS if UNIT_PLUS * n == n else UNIT_MINUS
