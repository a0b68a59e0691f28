"""Matricial order: word vectors, their Gram matrices, and the order they
generate.

A Gram matrix stores the cells w_i* w_j of a word vector and the vector
itself, its witness.  Every matrix has one: the builders make the cells
from it, and a matrix that comes in as cells alone gets it at the way in
(``GramMatrix.from_cells``, which ``from_json`` calls for JSON without a
witness).  Recovery reads each entry off tau: the two factorizations of a
selfadjoint cell differ in tau by one, the negative-start one being lower,
and tau(w_i) = tau(w_0) + tau(w_0* w_i), so the choice of w_0 fixes every
other entry.  A vector whose entries all start with one sign stays a
factorization when the unit of the other sign is prepended to each entry
((-1,1) fixes negative-start words, (1,-1) positive-start ones).  So a
matrix has one factorization, with mixed first signs, or two: the
all-negative one and the all-positive one, and ``factor_gram`` reads them
off the witness.  Successor generation lifts the scalar hollowing
coordinatewise: each word w_i of a factorization w has one or two
hollowing choices, its strip s_i and its shift, and cell (i, j) of a
successor depends on the choices at i and j only.  Every cell that
involves a shift is the cell of g (see ``matrix_successors``), and an entry
whose strip is its shift has one choice, so only the m entries with two
choices are multiplied: the m(m+1)/2 products of their strips' Gram
matrix, and each of the 2^m choice vectors is assembled from that block
and the rows of g by lookup; a fixed cap, k <= K_CAP, bounds that
enumeration.  Membership of a Gram matrix in D0 or D1 is read off the
witness's prefix sums (``GramMatrix.tagged``).
The order the steps generate needs no enumeration, at any rank: a chain
of steps takes one word off the front of every entry (``matrix_leq``).
"""

import json
from functools import reduce as _fold
from itertools import accumulate, combinations, islice
from itertools import product as _cartesian
from operator import getitem

from .order import sa_factorizations, unit_strip
from .structure import factor_a0, sa_canonical_d1
from .words import (
    GEN,
    GEN_STAR,
    UNIT_MINUS,
    UNIT_PLUS,
    DomainError,
    Word,
    WordError,
    format_word,
    member,
    parse_word,
)

K_CAP = 8  # rank of the largest Gram matrix whose successors are enumerated
PARTITION_CAP = 10**6  # integers in one partitions() result
EXPANSION_CAP = 10**6  # cells in one iota_tau() result
#: words times entries in all of a vector read from JSON: its Gram matrix has
#: k^2 cells holding at most 2 k n entries, so 500 one-entry words at most
VECTOR_CAP = 500**2


class GramMatrix:
    """k x k array of cells w_i* w_j and their witness vector w.

    Equality and hashing use the cells only.  The witness is a
    factorization of the cells, gram(witness).cells == cells, so every
    matrix is selfadjoint and :func:`factor_gram` reads its answer off the
    witness.  The builders of this module keep that promise,
    :meth:`from_json` checks a given witness and :meth:`from_cells` recovers
    one; a direct ``GramMatrix(cells, witness)`` is a promise, as
    ``_trusted`` is for words.
    """

    __slots__ = ("cells", "witness")

    def __init__(self, cells: tuple[tuple[Word, ...], ...], witness: tuple[Word, ...]):
        self.cells = cells
        self.witness = witness

    @property
    def k(self) -> int:
        return len(self.cells)

    def __eq__(self, other):
        return isinstance(other, GramMatrix) and self.cells == other.cells

    def __hash__(self):
        return hash(self.cells)

    def __repr__(self):
        rows = "; ".join(",".join(format_word(c) for c in row) for row in self.cells)
        return "GramMatrix[%s]" % rows

    def tagged(self, tag: str) -> bool:
        """Every cell lies in the tag's subsemigroup.

        D0 and D1, the words D_T (T = 0 or 1) of tau 0 with every prefix sum
        at most T, are read off the witness w in time linear in its length:
        gram(w) lies in D_T iff every tau(w_i) equals t = tau(w_0) and 0 and
        every prefix sum of every w_i are at most T + t.  Cell (i, j) has tau
        tau(w_j) - tau(w_i).  Before reduction, w_i* w_j has the prefix sums
        sigma_m(w_i) - t for m < len(w_i) - 1, then -t, then sigma_r(w_j) - t
        for every r; sigma of the last entry of w_i is t, at most T + t.  A
        rule (a) merge drops a prefix sum that lies between its neighbours,
        and a rule (b) step drops two that are at most a kept one or at most
        0 (the empty prefix), so the maximum of 0 and the prefix sums
        survives reduction, and as T >= 0 it is at most T exactly when every
        prefix sum is.

        The other tags scan the cells with i <= j: each tag is closed under
        star and cell (j, i) is the star of cell (i, j).
        """
        if tag == "D0" or tag == "D1":
            w = self.witness
            bound = sum(w[0]) + (tag == "D1")
            return bound >= 0 and len(set(map(sum, w))) == 1 and max(map(max, map(accumulate, w))) <= bound
        return all(member(c, tag) for i, row in enumerate(self.cells) for c in row[i:])

    def to_json(self) -> str:
        return json.dumps(
            {
                "k": self.k,
                "cells": [[format_word(c) for c in row] for row in self.cells],
                "witness": [format_word(w) for w in self.witness],
            }
        )

    @classmethod
    def from_cells(cls, cells: tuple[tuple[Word, ...], ...]) -> "GramMatrix":
        """The matrix of a square array of cells, its witness recovered from
        them: the one factorization, or the all-negative one of two.

        For each factorization w_0 of cell (0, 0), negative-start first,
        entry i is the factorization of cell (i, i) whose tau is
        tau(w_0) + tau(cell (0, i)); the other one is off by one.  A vector
        matches the diagonal by construction and the cells below it by
        selfadjointness, so it is kept when it matches the cells above the
        diagonal.  The first vector kept is mixed or all negative: an
        all-positive one has the all-negative mirror, which starts with the
        negative-start w_0.
        """
        k = len(cells)
        if not all(cells[j][i] == cells[i][j].star for i in range(k) for j in range(i, k)):
            raise DomainError("gram matrix is not selfadjoint")
        diag = [sa_factorizations(cells[i][i]) for i in range(k)]
        for first in diag[0]:
            t = first.tau
            vec = tuple(a if a.tau == t + c.tau else b for (a, b), c in zip(diag, cells[0]))
            stars = (w.star for w in vec[:-1])
            if all(s * vec[j] == cells[i][j] for i, s in enumerate(stars) for j in range(i + 1, k)):
                return cls(cells, vec)
        raise DomainError("inconsistent gram matrix: no factorization")

    @classmethod
    def from_json(cls, text: str) -> "GramMatrix":
        """Parse the :meth:`to_json` shape; any other shape is a DomainError.
        Without a witness (no key, or null) the cells go to :meth:`from_cells`."""
        obj = json.loads(text)
        if not isinstance(obj, dict) or not isinstance(obj.get("cells"), list) or not obj["cells"]:
            raise DomainError("a gram matrix must be a JSON object with a non-empty 'cells' list")
        cells = tuple(_word_list(row, "a gram matrix row") for row in obj["cells"])
        wit = obj.get("witness")
        witness = None if wit is None else _word_list(wit, "a gram matrix witness")
        k = obj.get("k")
        if type(k) is not int:
            raise DomainError("a gram matrix needs an integer 'k'")
        if len(cells) != k or any(len(row) != k for row in cells) or (witness is not None and len(witness) != k):
            raise DomainError("ragged or mislabelled gram matrix")
        if witness is None:
            return cls.from_cells(cells)
        g = gram(witness)
        if g.cells != cells:
            raise DomainError("the gram matrix of the witness differs from the cells")
        return g


def _word_list(obj, what: str) -> tuple[Word, ...]:
    if not isinstance(obj, list) or not all(isinstance(t, str) for t in obj):
        raise DomainError("%s must be a JSON list of word literals" % what)
    return tuple(parse_word(t) for t in obj)


def vector_from_json(text: str) -> tuple[Word, ...]:
    """A word vector from a JSON list of word literals, refused when its
    Gram matrix would exceed VECTOR_CAP."""
    v = _word_list(json.loads(text), "a word vector")
    entries = sum(map(len, v))
    if len(v) * entries > VECTOR_CAP:
        raise DomainError(
            "a vector of %d words with %d entries in all exceeds the cap of %d on words times entries"
            % (len(v), entries, VECTOR_CAP)
        )
    return v


def gram(v) -> GramMatrix:
    """Gram matrix of a word vector.

    Only the cells with i <= j are multiplied; cell (j, i) is the star of
    cell (i, j), since (v_i* v_j)* = v_j* v_i and normal forms are unique.
    """
    v = tuple(v)
    if not v:
        raise DomainError("empty word vector")
    k = len(v)
    rows = [[None] * k for _ in range(k)]
    for i, w in enumerate(v):
        s, row = w.star, rows[i]
        row[i] = s * w
        for j in range(i + 1, k):
            row[j] = c = s * v[j]
            rows[j][i] = c.star
    return GramMatrix(tuple(map(tuple, rows)), v)


def _require_tag(g: GramMatrix, tag: str) -> None:
    if not g.tagged(tag):
        raise DomainError("gram matrix has a cell outside %s" % tag)


def factor_gram(g: GramMatrix) -> tuple[tuple[Word, ...], ...]:
    """All word vectors whose Gram matrix equals g, negative-start first,
    read off the witness w with no product checked.

    A w with mixed first signs is the only one: the choice of entry 0 fixes
    every other entry by tau, so any other factorization is one higher in
    tau in every entry, or one lower in every entry, and the lower of the
    two factorizations of a cell is the negative-start one; every entry of
    w would start with one sign.  An all-negative w comes with (1) w, entry
    by entry, and an all-positive one with (-1) w: ((1) w_i)* (1) w_j =
    w_i* (-1,1) w_j = w_i* w_j, as (-1,1) fixes a negative-start word, and
    (1,-1) a positive-start one.
    """
    w = g.witness
    if len({e[0] > 0 for e in w}) == 2:
        return (w,)
    if w[0][0] < 0:
        return w, tuple(GEN * e for e in w)
    return tuple(GEN_STAR * e for e in w), w


def matrix_successors(g: GramMatrix, require: str | None = "D1") -> set[GramMatrix]:
    """Gram matrices one basic step above g; empty iff g is maximal.

    ``require`` pins the subsemigroup the cells must lie in; pass None to
    work at the ambient level (immediate predecessors of a D1 matrix may
    fall outside it).  Ranks above K_CAP are refused.

    Take the all-negative factorization w (the all-positive one is the
    mirror).  The choices of w_i are its strip s_i, with (-1) s_i = w_i,
    and its shift (1) w_i, which is the entry i of the other factorization;
    they coincide when w_i starts with -1.  A shift leaves its row and its
    column as they are in g: ((1) w_i)* c_j = w_i* (-1) c_j is w_i* w_j for
    c_j = s_j, and w_i* (-1,1) w_j = w_i* w_j for c_j = (1) w_j; and
    s_i* (1) w_j = ((-1) s_i)* w_j = w_i* w_j.  So cell (i, j) of a choice
    vector is cell (i, j) of gram(s) when both i and j strip, and that of g
    otherwise.  An entry whose strip is its shift has one choice and takes
    g's cells, so only the m entries with two choices are multiplied: the
    block gram of their strips, m(m+1)/2 products, and none when m = 0, as
    the one choice vector is then the other factorization.  Each choice
    vector is a flag per entry, 0 to strip and 1 to shift, and each of its
    cells is looked up in a (block cell, g cell) pair.  The choice vectors
    run in cartesian order, strip first, so a successor reached twice keeps
    its first witness.  The last one shifts every entry and is g; it is the
    only one that is: an entry with two choices starts with e, |e| >= 2, so
    w_i* w_i is a plain concatenation of weight 2 weight(w_i), while
    s_i* s_i weighs at most 2 weight(w_i) - 2.
    """
    if require:
        _require_tag(g, require)
    if g.k > K_CAP:
        raise DomainError("successor enumeration capped at k = %d" % K_CAP)
    facts = factor_gram(g)
    out: set[GramMatrix] = set()
    if len(facts) == 1:  # mixed first signs: no unit comes off every entry
        return out
    rows = g.cells
    for vec, other in (facts, facts[::-1]):  # the shifts of vec are the entries of other
        choices = tuple((unit_strip(w), o) for w, o in zip(vec, other))
        two = [i for i, (s, o) in enumerate(choices) if s != o]
        if not two:
            continue
        block = gram(tuple(choices[i][0] for i in two)).cells
        opts = [(1,)] * g.k
        pairs = [None] * g.k  # pairs[i][j][f]: cell (i, j) when entry i strips and entry j takes flag f
        for i, brow in zip(two, block):
            opts[i] = (0, 1)
            row = rows[i]
            p = pairs[i] = list(zip(row, row))
            for j, b in zip(two, brow):
                p[j] = (b, row[j])
        for flags in islice(_cartesian(*opts), (1 << len(two)) - 1):
            cells = tuple(row if f else tuple(map(getitem, p, flags)) for row, p, f in zip(rows, pairs, flags))
            out.add(GramMatrix(cells, tuple(map(getitem, choices, flags))))
    return out


def _left_quotients(w: Word, c: Word):
    """The words q with q * c == w.  A product settles only at its junction,
    so q is a prefix of w cut near len(w) - len(c), then one entry (fixed by
    tau, which is additive), perhaps a unit; each candidate is checked."""
    p, unit = len(w) - len(c), (-1 if c[0] > 0 else 1)
    for j, tail in ((p - 1, ()), (p, ()), (p, (unit,)), (p + 1, ())):
        head = w[: max(j, 0)]
        try:
            q = Word(head + (w.tau - c.tau - sum(head) - sum(tail),) + tail)
        except WordError:
            continue
        if q * c == w:
            yield q


def matrix_leq(g1: GramMatrix, g2: GramMatrix) -> bool:
    """Reachability of D1 Gram matrices along basic steps, in closed form.

    A step goes from gram(w), w of uniform first sign with u the unit of that
    sign, to gram(c) with u c_i == w_i: the hollowing choices of w_i are
    exactly those c_i.  So g1 <= g2 exactly when g1 == g2 or a factorization
    w of g1 is (E c_0, ..., E c_{k-1}) for a factorization c of g2 and a word
    E, which is then a left quotient of w_0 by c_0.  Only the first
    factorizations need trying: a second one is (1) times the first entry
    by entry, and E (1) c_i = (E (1)) c_i, while (1) w_i = E c_i gives
    w_i = (-1,1) w_i = ((-1) E) c_i, as every w_i starts negative.
    """
    if g1.k != g2.k:
        raise DomainError("rank mismatch: %d vs %d" % (g1.k, g2.k))
    _require_tag(g1, "D1")
    _require_tag(g2, "D1")
    w, c = factor_gram(g1)[0], factor_gram(g2)[0]
    return g1 == g2 or any(all(e * ci == wi for ci, wi in zip(c, w)) for e in _left_quotients(w[0], c[0]))


def immediate_predecessors(g: GramMatrix) -> tuple[GramMatrix, GramMatrix]:
    """The exactly-two elements immediately below g.

    They are the Gram matrices of (-1) times every entry of the first
    factorization and of (1) times every entry of the last.  Neither is g.
    The first entries of the factorizations have tau t, or t and t + 1 (the
    last is then (1) times the first, entry by entry), and tau is additive,
    so the two vectors start with tau t - 1 and one more than the last: no
    factorization of g starts so.  With two factorizations w, (1) w the
    second matrix is gram((2) w).
    """
    _require_tag(g, "D1")
    facts = factor_gram(g)
    return gram(tuple(GEN_STAR * w for w in facts[0])), gram(tuple(GEN * w for w in facts[-1]))


# -- case analysis -----------------------------------------------------------


class MatrixClassification:
    """A case tag, whether the matrix is maximal, and the decomposition
    vectors of its case; equal when every field is."""

    __slots__ = ("case", "maximal", "m", "a", "lam")

    def __init__(self, case: str, maximal: bool, m=None, a=None, lam=None):
        self.case = case  # "Case1" | "Case2" | "Case3"
        self.maximal = maximal
        self.m = m
        self.a = a
        self.lam = lam

    def _fields(self):
        return (self.case, self.maximal, self.m, self.a, self.lam)

    def __eq__(self, other):
        return isinstance(other, MatrixClassification) and self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def to_json(self) -> str:
        def vec(v):
            return [format_word(w) for w in v] if v else None

        return json.dumps(
            {
                "case": self.case,
                "maximal": self.maximal,
                "m": vec(self.m),
                "a": vec(self.a),
                "lambda": vec(self.lam),
            }
        )


def classify_matrix(g: GramMatrix) -> MatrixClassification:
    """Case analysis of a D1 Gram matrix by the middle exponent sum.

    A matrix with one factorization has mixed first signs and is Case3
    maximal.  Otherwise the first factorization w, the all-negative one,
    has the larger tau of w*, and that picks the case:
    Case1: a hollowed idempotent threads the matrix (tau of w* is 1);
    Case2: a D0 Gram core conjugated into D1 (tau of w* is 0);
    Case3: an irreducible D0 core.

    Every case reads its decomposition off w or the diagonal; the tests
    check that it recomposes to g.  Case3 splits each diagonal cell as
    m_i* center_i m_i (its minimal factor) and takes lam_i as the
    negative-start factor of the center.  Every diagonal cell has a
    center: each w_i has tau -top (the cells of D1 have tau 0), so the
    minimal factor, w_i or (1) w_i, has tau -top or 1 - top, never 0.  The
    prefix sum at the middle of g_ii is minus that tau, so the middle is
    not a zero cut, and the star-palindromic factor sequence has odd length.
    """
    _require_tag(g, "D1")
    facts = factor_gram(g)
    if len(facts) == 1:
        return MatrixClassification("Case3", True)
    vec = facts[0]
    top = -vec[0].tau  # tau of w* is -tau of w

    if top == 1:
        return MatrixClassification("Case1", False, m=tuple(unit_strip(w) for w in vec))

    if top == 0:
        a, m = [], []
        for w in vec:
            factors = factor_a0(w)
            cut = next((i for i, f in enumerate(factors) if f == UNIT_MINUS), len(factors))
            head, tail = factors[:cut], factors[cut:]
            a.append(_fold(lambda x, y: x * y, head) if head else UNIT_PLUS)
            m.append(_fold(lambda x, y: x * y, tail) if tail else UNIT_PLUS)
        return MatrixClassification("Case2", False, a=tuple(a), m=tuple(m))

    m, lam = [], []
    for i in range(g.k):
        center, flank = sa_canonical_d1(g.cells[i][i])
        m.append(flank if flank is not None else UNIT_PLUS)
        lam.append(sa_factorizations(center)[0])
    return MatrixClassification("Case3", False, m=tuple(m), lam=tuple(lam))


# -- partitions and the block calculus ---------------------------------------


def partitions(d: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All ordered d-tuples of nonnegative integers summing to k.

    There are C(d+k-1, k) of them; the binomial is built factor by factor
    and the call refused as soon as the result would exceed PARTITION_CAP
    integers, before anything is enumerated.
    """
    if d < 1 or k < 1:
        raise DomainError("partitions need d, k >= 1")
    if d == 1:  # not via combinations(), which copies range(k) into a tuple of k ints
        return ((k,),)
    count, r = 1, min(k, d - 1)
    for i in range(1, r + 1):
        count = count * (d + k - 1 - r + i) // i
        if count * d > PARTITION_CAP:
            raise DomainError("partitions of %d into %d parts exceed the cap of %d entries" % (k, d, PARTITION_CAP))
    # stars and bars: d - 1 bar positions among k + d - 1 slots (at most
    # the cap, by the check above), in lexicographic order, which is the
    # lexicographic order of the tuples
    n = k + d - 1
    return tuple(tuple(b - a - 1 for a, b in zip((-1,) + c, c + (n,))) for c in combinations(range(n), d - 1))


def compose_partitions(sigma, tau):
    """sigma o tau: sum sigma's parts over tau's blocks."""
    out, pos = [], 0
    for t in tau:
        out.append(sum(sigma[pos : pos + t]))
        pos += t
    if pos != len(sigma):
        raise DomainError("partition composition mismatch")
    return tuple(out)


def iota_tau(g: GramMatrix, tau) -> GramMatrix:
    """Block-expand a d x d Gram matrix along a partition of k.

    Each index j is repeated tau_j times; the result is again a Gram
    matrix, of the vector repeating each witness word accordingly.
    """
    tau = tuple(int(t) for t in tau)
    if len(tau) != g.k or any(t < 0 for t in tau):
        raise DomainError("partition has %d parts for a rank-%d matrix" % (len(tau), g.k))
    rank = sum(tau)
    if rank < 1:
        raise DomainError("empty expansion")
    if rank * rank > EXPANSION_CAP:
        raise DomainError("expansion to rank %d exceeds the cap of %d cells" % (rank, EXPANSION_CAP))
    idx = [j for j, t in enumerate(tau) for _ in range(t)]
    cells = tuple(tuple(g.cells[idx[i]][idx[j]] for j in range(len(idx))) for i in range(len(idx)))
    return GramMatrix(cells, tuple(g.witness[j] for j in idx))


def conj_delta(v, g: GramMatrix) -> GramMatrix:
    """Diagonal conjugation: cells become n_i* c_ij n_j."""
    v = tuple(v)
    if len(v) != g.k:
        raise DomainError("vector length %d does not match rank %d" % (len(v), g.k))
    stars = [w.star for w in v]
    cells = tuple(
        tuple(stars[i] * g.cells[i][j] * v[j] for j in range(g.k)) for i in range(g.k)
    )
    return GramMatrix(cells, tuple(g.witness[i] * v[i] for i in range(g.k)))
