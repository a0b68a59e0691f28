"""Matricial order: word vectors, their Gram matrices, and the order they
generate.

A Gram matrix stores the cells w_i* w_j of a word vector.  Factorization
recovery reads each entry off tau: the two factorizations of a selfadjoint
cell differ in tau by one, the negative-start one being lower, and
tau(w_i) = tau(w_0) + tau(w_0* w_i), so the choice of w_0 fixes every
other entry.  A vector whose entries all start with one sign stays a
factorization when the unit of the other sign is prepended to each entry
((-1,1) fixes negative-start words, (1,-1) positive-start ones).  So a
matrix has one factorization, with mixed first signs, or two: the
all-negative one and the all-positive one.  Successor generation lifts the
scalar hollowing coordinatewise: each word has one or two hollowing
choices, and cell (i, j) of a successor depends on the choices at i and j
only.  So the at most 4k^2 cells c_a(w_i)* c_b(w_j) are multiplied once,
and each of the up to 2^k choice vectors is assembled from them by
lookup; a fixed cap, k <= K_CAP, bounds that enumeration.
The order the steps generate needs no enumeration, at any rank: a chain
of steps takes one word off the front of every entry (``matrix_leq``).
"""

import json
from functools import reduce as _fold
from itertools import combinations
from itertools import product as _cartesian

from .order import hollow_choices, sa_factorizations, unit_strip
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
    """k x k array of cells w_i* w_j, with an optional witness vector.

    Equality and hashing use the cells only; the witness is bookkeeping
    (:meth:`from_json` checks that its Gram matrix is the cells).
    """

    __slots__ = ("cells", "witness")

    def __init__(self, cells: tuple[tuple[Word, ...], ...], witness: tuple[Word, ...] | None = None):
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

    def is_selfadjoint(self) -> bool:
        cells, k = self.cells, self.k
        return all(cells[j][i] == cells[i][j].star for i in range(k) for j in range(i, k))

    def tagged(self, tag: str) -> bool:
        return all(member(c, tag) for row in self.cells for c in row)

    def to_json(self) -> str:
        return json.dumps(
            {
                "k": self.k,
                "cells": [[format_word(c) for c in row] for row in self.cells],
                "witness": [format_word(w) for w in self.witness] if self.witness else None,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "GramMatrix":
        """Parse the :meth:`to_json` shape; any other shape is a DomainError."""
        obj = json.loads(text)
        if not isinstance(obj, dict) or not isinstance(obj.get("cells"), list) or not obj["cells"]:
            raise DomainError("a gram matrix must be a JSON object with a non-empty 'cells' list")
        cells = tuple(_word_list(row, "a gram matrix row") for row in obj["cells"])
        wit = obj.get("witness")
        witness = _word_list(wit, "a gram matrix witness") if wit else None
        k = obj.get("k")
        if type(k) is not int:
            raise DomainError("a gram matrix needs an integer 'k'")
        g = cls(cells, witness)
        if g.k != k or any(len(row) != k for row in cells) or (witness and len(witness) != k):
            raise DomainError("ragged or mislabelled gram matrix")
        if witness and gram(witness).cells != cells:
            raise DomainError("the gram matrix of the witness differs from the cells")
        if not witness and not g.is_selfadjoint():  # a witness's Gram matrix is selfadjoint
            raise DomainError("gram matrix is not selfadjoint")
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
    """Gram matrix of a word vector."""
    v = tuple(v)
    if not v:
        raise DomainError("empty word vector")
    stars = [w.star for w in v]
    cells = tuple(tuple(stars[i] * v[j] for j in range(len(v))) for i in range(len(v)))
    return GramMatrix(cells, v)


def _require_tag(g: GramMatrix, tag: str) -> None:
    if not g.tagged(tag):
        raise DomainError("gram matrix has a cell outside %s" % tag)


def factor_gram(g: GramMatrix) -> tuple[tuple[Word, ...], ...]:
    """All word vectors whose Gram matrix equals g, negative-start first.

    For each factorization w_0 of cell (0, 0), entry i is the factorization
    of cell (i, i) whose tau is tau(w_0) + tau(cell (0, i)); the other one
    is off by one.  A vector matches the diagonal by construction and the
    cells below it by selfadjointness, so it is kept when it matches the
    cells above the diagonal.  So there is one vector, with mixed first
    signs, or the all-negative one and then the all-positive one.
    """
    if not g.is_selfadjoint():
        raise DomainError("gram matrix is not selfadjoint")
    cells, k = g.cells, g.k
    diag = [sa_factorizations(cells[i][i]) for i in range(k)]
    out = []
    for first in diag[0]:
        t = first.tau
        vec = tuple(a if a.tau == t + c.tau else b for (a, b), c in zip(diag, cells[0]))
        stars = (w.star for w in vec[:-1])
        if all(s * vec[j] == cells[i][j] for i, s in enumerate(stars) for j in range(i + 1, k)):
            out.append(vec)
    if not out:
        raise DomainError("inconsistent gram matrix: no factorization")
    return tuple(out)


def matrix_successors(g: GramMatrix, require: str | None = "D1") -> set[GramMatrix]:
    """Gram matrices one basic step above g; empty iff g is maximal.

    ``require`` pins the subsemigroup the cells must lie in; pass None to
    work at the ambient level (immediate predecessors of a D1 matrix may
    fall outside it).  Ranks above K_CAP are refused.
    """
    if require:
        _require_tag(g, require)
    if g.k > K_CAP:
        raise DomainError("successor enumeration capped at k = %d" % K_CAP)
    facts = factor_gram(g)
    out: set[GramMatrix] = set()
    if len(facts) == 1:  # mixed first signs: no unit comes off every entry
        return out
    for vec in facts:
        opts = [hollow_choices(w) for w in vec]
        # table[i][a][j][b] = (choice a of w_i)* (choice b of w_j): the cell
        # (i, j) of every choice vector that picks a at i and b at j
        stars = [[c.star for c in o] for o in opts]
        table = [[[[s * c for c in o] for o in opts] for s in row] for row in stars]
        for pick in _cartesian(*(range(len(o)) for o in opts)):
            cells = tuple(tuple(row[b] for row, b in zip(table[i][a], pick)) for i, a in enumerate(pick))
            if cells != g.cells:
                out.add(GramMatrix(cells, tuple(o[a] for o, a in zip(opts, pick))))
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
    """The exactly-two elements immediately below g."""
    _require_tag(g, "D1")
    vec = factor_gram(g)[0]

    def push(unit_word, double):
        shifted = tuple(unit_word * w for w in vec)
        cand = gram(shifted)
        if cand != g:
            return cand
        return gram(tuple(double * w for w in vec))

    lower_neg = push(GEN_STAR, Word((-2,)))
    lower_pos = push(GEN, Word((2,)))
    return lower_neg, lower_pos


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
    negative-start factor of the center.
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
        if center is None:
            raise DomainError("no case-3 decomposition found")
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
    if d == 1:
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


def identity_partition(k: int) -> tuple[int, ...]:
    return (1,) * k


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
    witness = tuple(g.witness[j] for j in idx) if g.witness else None
    return GramMatrix(cells, witness)


def conj_delta(v, g: GramMatrix) -> GramMatrix:
    """Diagonal conjugation: cells become n_i* c_ij n_j."""
    v = tuple(v)
    if len(v) != g.k:
        raise DomainError("vector length %d does not match rank %d" % (len(v), g.k))
    stars = [w.star for w in v]
    cells = tuple(
        tuple(stars[i] * g.cells[i][j] * v[j] for j in range(g.k)) for i in range(g.k)
    )
    witness = tuple(g.witness[i] * v[i] for i in range(g.k)) if g.witness else None
    return GramMatrix(cells, witness)
