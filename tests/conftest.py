"""Shared enumerators and independent oracles.

The independent references the tests check against live in
``perfbench/reference.py``: the fixpoint reducer, minimal factor sequences,
the grade tables and their Stein-Waterman counts, the hollowing choices,
truncated-shift evaluation, exact integer PSD and the minimum eigenvalue.
The benchmark's output checks share that module, and it imports nothing
from pisom.  It is loaded here once, by file path, as ``ref``, so no other
perfbench module lands on ``sys.path``.

The all-rewrite-orders oracle stays here: it re-derives normal forms from
the raw congruence by exploring every rewrite order, which checks
confluence, where the fixpoint reducer follows one order only.  It must
stay independent of the package's reduction strategy.
"""

import importlib.util
import pathlib
import random
from functools import reduce as fold

import pytest

from pisom.structure import enum_irr
from pisom.words import Word, iter_words as words_upto  # noqa: F401  (words_upto is shared)


def _load_reference():
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ref = _load_reference()


# -- independent rewrite oracle -----------------------------------------------


def oracle_rewrites(seq):
    """All single-step rewrites of a raw nonzero-integer sequence."""
    outs = []
    for i in range(len(seq) - 1):
        if (seq[i] > 0) == (seq[i + 1] > 0):
            outs.append(seq[:i] + (seq[i] + seq[i + 1],) + seq[i + 2 :])
    for i in range(1, len(seq) - 1):
        if (
            abs(seq[i]) == 1
            and (seq[i - 1] > 0) != (seq[i] > 0)
            and (seq[i + 1] > 0) != (seq[i] > 0)
        ):
            outs.append(seq[: i - 1] + (seq[i - 1] + seq[i] + seq[i + 1],) + seq[i + 2 :])
    return outs


def oracle_normal_forms(seq, memo=None):
    """The set of normal forms reachable by any rewrite order."""
    if memo is None:
        memo = {}
    known = memo.get(seq)
    if known is not None:
        return known
    steps = oracle_rewrites(seq)
    if not steps:
        result = frozenset({seq})
    else:
        result = frozenset().union(*(oracle_normal_forms(t, memo) for t in steps))
    memo[seq] = result
    return result


def raw_sequences(max_weight):
    """Every nonzero-integer sequence of total absolute value <= max_weight."""

    def rec(remaining):
        yield ()
        for mag in range(1, remaining + 1):
            for sign in (1, -1):
                for rest in rec(remaining - mag):
                    yield (sign * mag,) + rest

    for seq in rec(max_weight):
        if seq:
            yield seq


# -- reduced-word enumeration --------------------------------------------------


def sa_words_upto(max_weight, tag=None):
    """The selfadjoint words of weight <= max_weight, in D0 or D1 if tagged;
    selected by the reference, not by the predicates under test."""
    return [
        w for w in words_upto(max_weight) if tuple(w) == ref.star(w) and (tag is None or ref.member(w, tag))
    ]


def product(ws):
    return fold(lambda a, b: a * b, ws)


def hollow_choices(u):
    """The distinct hollowing choices of u: the reference's, as Words."""
    return tuple(dict.fromkeys(map(Word, ref.hollow_choices(u))))


def passes_the_check(w):
    """A word the package built without the checked constructor is a Word
    that the checked constructor accepts and leaves unchanged."""
    return type(w) is Word and Word(tuple(w)) == w


def random_word(rng, max_len, max_mag):
    """A reduced word with up to max_len entries; interior magnitudes up to
    max_mag, and ends that are units about half the time."""
    n = rng.randint(1, max_len)
    sign = rng.choice((1, -1))
    out = []
    for i in range(n):
        if i in (0, n - 1):
            mag = rng.choice((1, rng.randint(1, max_mag)))
        else:
            mag = rng.randint(2, max_mag)
        out.append(sign * mag)
        sign = -sign
    return Word(out)


# -- irreducible pools ---------------------------------------------------------


@pytest.fixture(scope="session")
def irr_pool():
    """Irreducibles of the tau-kernel with grades <= 4: the plus-bracketed
    ones (star-closed) together with their entrywise-negated mirrors, which
    make up the minus-bracketed family."""
    pool = set()
    for k in range(1, 5):
        for w in enum_irr(k).elements:
            pool.add(w)
            pool.add(w.star)
            pool.add(Word(tuple(-e for e in w)))
            pool.add(Word(tuple(-e for e in w.star)))
    return sorted(pool)


def random_minimal_sequences(pool, count, seed, max_len=5):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        seq = [rng.choice(pool) for _ in range(rng.randint(1, max_len))]
        if ref.is_minimal_sequence(seq):
            out.append(seq)
    return out
