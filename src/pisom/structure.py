"""Irreducibility, unique minimal factorization, graded enumeration.

The factorization follows the least-bad-prefix split: cut at the first
interior prefix sum that is zero or disagrees in sign with the leading
entry, and go on with the remainder.  The remainder after a cut at r starts
with the entry sig[r] (a crossing cut, where the entry p[r] is split as
-sig[r-1] + sig[r]) or sig[r+1] (a zero cut), and the rest of its entries
are those of p.  Its prefix sums are therefore p's own from that index on,
so one scan over the prefix sums of p, computed once, finds every cut: each
factor is (sig[i],) + p[i+1:r+1] or (sig[i],) + p[i+1:r] + (-sig[r-1],)
for a remainder starting at i.  The cut prefix is always irreducible, and
for reduced input the produced sequence is already the unique minimal
decomposition, so it is returned as it stands: no minimality pass and no
recomposition check follow, and the factors, reduced by construction, are
built without the checked constructor.  The same prefix sums give tau, as
their last entry.  Inside D0 every cut is a zero cut, so the factors of a
D0 word are its slices between zero prefix sums (proof at
:func:`factor_d0`).  The canonical form and the case tag of a selfadjoint
element are read off its prefix sums, with no factor built: the tag off
the first half, whose sum the D1 check returns from its one scan, and the
center and flank off the cuts nearest the middle (proof at
:func:`sa_canonical_d1`).  The theorems they rest on (recomposition,
minimality, plus-irreducible factors in D0, the star-palindromic factor
sequence) are checked exhaustively on short words in the tests, against
the cut-and-recurse form of the split.

Plus-irreducibles are graded by the positive-entry sum.  A grade is
enumerated directly from the definition: the reduced words that start
negative, end positive, have every interior prefix sum < 0, have tau = 0
and positive-entry sum k.  A prefix that ends in a negative entry is
summed up by its state, the prefix sum s and the budget b of the grade
still to spend, and its completions depend on (s, b) alone, so each
state's completions are listed once per call, in sorted order, and
shared by every prefix that reaches it (proof at
:func:`_plus_irreducibles`).  The words are reduced by construction and
so built unchecked; nothing is kept between calls.  The paper's
generation theorem (each grade from conjugated products of lower ones)
and the depth-first search that lists each prefix's completions afresh
are checked against it in the tests.
"""

import json
from itertools import accumulate

from .order import _check_sa_d1
from .words import UNIT_MINUS, DomainError, Word, _echo, _trusted, format_word


def is_irreducible(p: Word) -> bool:
    """No nontrivial two-factor splitting inside the tau-kernel.

    For reduced p this is exactly: no interior prefix sum is zero or
    crosses the sign of the leading entry.
    """
    if p.tau != 0:
        raise DomainError("irreducibility is decided inside A0, got %s" % _echo(p))
    s0 = p[0]
    return all(s0 * s > 0 for s in accumulate(p[:-1]))


def factor_a0(p: Word) -> list[Word]:
    """Unique minimal decomposition into irreducibles of the tau-kernel."""
    sig = list(accumulate(p))
    if sig[-1] != 0:  # tau
        raise DomainError("factorization lives in A0, got %s" % _echo(p))
    factors: list[Word] = []
    # the remainder starts at index i with the entry lead = sig[i]; a cut is
    # the first interior r with sig[r] zero or of the other sign than lead
    i, lead = 0, p[0]
    for r in range(1, len(p) - 1):
        s = sig[r]
        if lead * s > 0:
            continue
        if s:
            factors.append(_trusted((lead,) + p[i + 1 : r] + (-sig[r - 1],)))
            i, lead = r, s
        else:
            factors.append(_trusted((lead,) + p[i + 1 : r + 1]))
            i, lead = r + 1, sig[r + 1]
    factors.append(_trusted((lead,) + p[i + 1 :]) if i else p)
    return factors


def factor_d0(d: Word) -> list[Word]:
    """Factor inside D0; every factor is a plus-irreducible.

    The factors are the slices of d between its zero prefix sums, the same
    as :func:`factor_a0`'s.  Proof: in D0 every prefix sum is <= 0, so no
    prefix sum has the other sign than a negative lead, and factor_a0's
    scan cuts only at zero cuts.  Its lead stays negative: it starts as
    d[0] = sig[0] < 0, and after a zero cut at r it is sig[r+1] = d[r+1],
    which is <= 0 and nonzero.  A factor that starts at i = 0 or after a
    zero cut has lead sig[i] = d[i], so the factor (sig[i],) + d[i+1:r+1]
    is the slice d[i:r+1], with r the first index >= i where sig is 0.
    sig[i] itself is not 0, so each factor has at least two entries, and
    the last zero is sig[-1] = tau.  A slice of a reduced word is reduced,
    so the factors are built unchecked.
    """
    sig = list(accumulate(d))
    if sig[-1] != 0 or max(sig) > 0:
        raise DomainError("not in D0: %s" % _echo(d))
    factors, i = [], 0
    while i < len(d):
        r = sig.index(0, i)
        factors.append(_trusted(d[i : r + 1]))
        i = r + 1
    return factors


# -- graded enumeration ------------------------------------------------------

#: most elements one grade may hold, and the last grade within it.  Grade
#: k >= 2 holds a(k-2) of the Stein-Waterman sequence a(0) = 1,
#: a(n) = a(n-1) + sum_{j=1}^{n-2} a(j) a(n-2-j), which never decreases;
#: a(18) = 424,748 <= IRR_CAP < a(19) = 1,032,004
IRR_CAP = 10**6
MAX_GRADE = 20


class IrrTable:
    """One grade of the plus-irreducibles, sorted by entries."""

    __slots__ = ("k", "elements")

    def __init__(self, k: int, elements: tuple[Word, ...]):
        self.k = k
        self.elements = elements

    def to_json(self) -> str:
        return json.dumps({"k": self.k, "elements": [format_word(w) for w in self.elements]})


def _completions(s: int, b: int, memo: dict) -> list[tuple]:
    """C(s, b) of :func:`_plus_irreducibles`, through the call's memo."""
    got = memo.get((s, b))
    if got is None:
        top = b + s
        got = []
        for x in range(2, -s):
            got.append((x, -top, b - x))
            for m in range(top - 2, 1, -1):
                head = (x, -m)
                got += [head + t for t in _completions(s + x - m, b - x, memo)]
        memo[s, b] = got
    return got


def _plus_irreducibles(k: int) -> list[Word]:
    """Every plus-irreducible of grade k, in sorted order, by dynamic
    programming over the states of a depth-first search.

    Besides (-k, k), each word grows from prefixes that end in a negative
    entry, have sum s < 0 and leave b of the grade for the positive
    entries still to come.  Such a prefix can be completed when
    top = b + s >= 2 (by 2 and -top, say) and cannot when top = 1.  The
    next entry is an interior positive x with 2 <= x < -s, which keeps the
    prefix sum negative.  After it comes either -top, and then the last
    entry b - x, which brings the sum to 0 and spends the budget, or an
    interior -m with 2 <= m <= top - 2, which leaves a completable prefix
    with state (s + x - m, b - x).

    The lemma: every condition above reads only s and b, never the entries
    before them, so the completions of a prefix depend only on its state
    (s, b).  The list C(s, b) of completions is therefore built once per
    call and shared by every prefix that reaches (s, b): for x upward, the
    closing (x, -top, b - x), then (x, -m) + t for m downward and each t in
    C(s + x - m, b - x).  The memo holds the inner states only; each first
    entry -a is tried once, so its state (-a, k) is expanded in place and
    each of its words is one concatenation.  The memo is local to the call,
    and :func:`_completions` is a module function, not a closure over it,
    so no reference cycle keeps the memo past the return.

    The emitted order is the sorted order.  Two words first differ at the
    entry where their branches part, and every branch point tries that
    entry upward: the first entry as -k, then -a for a downward; x upward;
    after x, the closing -top before -(top - 2) < ... < -2.  Both words
    have that entry (each branch goes on past it), so neither is a prefix
    of the other, and tuple order puts them as their branches are tried.
    So each list, and the output, is the concatenation of sorted blocks in
    increasing order of the entry they part at: it is sorted.
    """
    memo = {}
    out = [_trusted((-k, k))]
    # a first entry -(k-1), -2 or -1 leaves no closable branch
    for a in range(k - 2, 2, -1):
        top = k - a
        for x in range(2, a):
            out.append(_trusted((-a, x, -top, k - x)))
            for m in range(top - 2, 1, -1):
                head = (-a, x, -m)
                out += [_trusted(head + t) for t in _completions(x - a - m, k - x, memo)]
    return out


def enum_irr(k: int) -> IrrTable:
    """All plus-irreducibles of grade k (positive-entry sum k).

    A grade past MAX_GRADE, the last of at most IRR_CAP elements, is
    refused before any element is made.
    """
    if k < 1:
        raise DomainError("grades start at 1")
    if k > MAX_GRADE:
        raise DomainError("plus-irreducibles of grade %s exceed the cap of %d elements" % (_echo(k), IRR_CAP))
    return IrrTable(k, tuple(_plus_irreducibles(k)))


# -- selfadjoint canonical form ----------------------------------------------


def sa_canonical_d1(n: Word):
    """Split a selfadjoint element of D1 as flank* . center . flank.

    Returns (center, flank); the center is absent (None) when the minimal
    factor sequence has even length, the flank is absent when the element
    is a single irreducible.  The factor sequence of a selfadjoint element
    is star-palindromic, so the flank is the product of its second half.

    Both are read off the prefix sums sig of n, with no factor built.
    factor_a0 cuts at an interior r exactly when sig[r] is 0 (a zero cut)
    or has the other sign than sig[r-1] (a crossing cut): a remainder's
    lead is the prefix sum at its start, and the prefix sums up to the next
    cut share its sign.  With L = len(n) and h = L/2, selfadjointness gives
    n[L-1-j] = -n[j] and tau 0, so sig[L-2-j] = sig[j]: the zero cut at r
    mirrors to one at L-2-r, and the crossing cut at r, which splits entry
    r, to one at L-1-r.  The cuts are symmetric about the middle, and the
    factors after the middle multiply to the remainder there, whose scan is
    the tail of n's scan.  The case is read off t = sig[h-1] = tau(w*) for
    w = n[h:], as in :func:`classify_sa`; ``order._check_sa_d1`` returns it
    with h, from the one scan of the first half that bounds it by 1.

    - t = 0: the middle is a zero cut, so the factors split evenly and the
      flank is w.
    - t = 1: for L > 2, entry h-1 is interior, so p = n[h-1] = -n[h] >= 2
      and sig[h-2] = sig[h] = 1 - p < 0.  Entries h-1 and h are crossing
      cuts, the center between them is (1, -1), and the remainder after it
      is (1-p,) + n[h+1:], which is unit_strip(w).  For L = 2, n = (1,-1)
      is its own center.
    - t < 0: the center is the factor over the middle.  Its right end is
      the first interior r >= h with sig[r] >= 0, as sig[h-1..r-1] < 0.  A
      zero cut there mirrors to one at L-2-r, so the center is
      n[L-1-r : r+1] and the remainder n[r+1:].  A crossing at r mirrors to
      one at L-1-r, where the center starts with p = sig[L-1-r] = sig[r-1];
      it is (p,) + n[L-r : r] + (-p,), and the remainder (sig[r],) + n[r+1:].
      With no such r, every interior prefix sum is negative and n is
      irreducible.

    Every piece is a slice of n or one with its cut ends replaced by prefix
    sums of their sign, as in factor_a0, so it is built unchecked.
    """
    h, t = _check_sa_d1(n)
    L = len(n)
    if t == 0:
        return None, _trusted(n[h:])
    if t == 1:
        return UNIT_MINUS, (_trusted((n[h] + 1,) + n[h + 1 :]) if L > 2 else None)
    prev = t
    for r in range(h, L - 1):
        s = prev + n[r]
        if s >= 0:
            if s:
                return _trusted((prev,) + n[L - r : r] + (-prev,)), _trusted((s,) + n[r + 1 :])
            return _trusted(n[L - 1 - r : r + 1]), _trusted(n[r + 1 :])
        prev = s
    return n, None


def classify_sa(n: Word) -> str:
    """Case tag of a selfadjoint D1 element, from its minimal factor w.

    CenterUnitPos: the hollowed idempotent (1,-1) sits at the center;
    Boundary: plain m*m with m fixed by the plus unit;
    CenterIrrNeg: an irreducible of D0 sits at the center.
    The tag is read off tau(w*), the sum of the first half of n = w* w,
    which the D1 check returns.
    """
    _, t = _check_sa_d1(n)
    if t == 1:
        return "CenterUnitPos"
    if t == 0:
        return "Boundary"
    return "CenterIrrNeg"
