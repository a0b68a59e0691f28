"""matrix-exact: Gram matrices, their recovery, successors and case analysis.

Every round draws fresh seeded word vectors:
  * 400 vectors from the exhaustive space of criterion 6 (k <= 3, every
    entry a reduced word of weight <= 5), each through ``gram`` and
    ``factor_gram``;
  * D1 vectors (every Gram cell in D1) for k = 1..6: 8 with first entries
    of one sign and, for k >= 2, 6 with mixed signs.  Each goes through
    ``gram``, ``factor_gram``, ``matrix_successors`` and
    ``immediate_predecessors``; the uniform ones also through
    ``classify_matrix``.
  * a fixed list, the same for every seed: every distinct k = 2 D1 Gram
    matrix of the criterion-6 space whose factorization has mixed signs,
    through ``classify_matrix``.  Some of these raise ``DomainError:
    case-2 recomposition failed``; those calls count as failed.

Wide operations are those on D1 vectors with k >= 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as cartesian

import pisom.matrix as M
import pisom.words as W
import calib
import reference as ref
from harness import Op

NAME = "matrix-exact"
PROBE = True
CALIBRATION = calib.LOOP
LONG_OPS = False
TAIL_PERCENTILE = 98
SPACE_WEIGHT = 5
SPACE_DRAWS = 400
D1_UNIFORM = 8
D1_MIXED = 6
D1_MAX_K = 6
WIDE_K = 4
CASE2_FAULT = "case-2 recomposition failed"


@dataclass
class State:
    words: list
    ok_words: list
    compat: dict
    fixed: list = field(default_factory=list)


def _d1_pair(a, b) -> bool:
    return ref.in_d1(ref.prod(ref.star(a), b))


def setup(seed: int) -> State:
    words = ref.reduced_words(SPACE_WEIGHT)
    ok = [w for w in words if _d1_pair(w, w)]
    compat = {a: frozenset(b for b in ok if _d1_pair(a, b) and _d1_pair(b, a)) for a in ok}
    fixed, seen = [], set()
    for vec in cartesian(words, repeat=2):
        cells = ref.gram_cells(vec)
        if ref.uniform_sign(vec) or cells in seen or not all(ref.in_d1(c) for row in cells for c in row):
            continue
        seen.add(cells)
        fixed.append(M.gram(tuple(W.Word(w) for w in vec)))
    return State(words, ok, compat, fixed)


def draw_d1(state: State, rng, k: int, uniform: bool):
    """A seeded vector of k words whose Gram cells all lie in D1."""
    while True:
        if uniform:
            sign = rng.random() < 0.5
            pool = [w for w in state.ok_words if (w[0] > 0) == sign]
        else:
            pool = state.ok_words
        vec = [rng.choice(pool)]
        while len(vec) < k:
            cands = [w for w in pool if all(w in state.compat[u] for u in vec)]
            vec.append(rng.choice(cands))
        if ref.uniform_sign(vec) == uniform:
            return tuple(vec)


def space_vector(state: State, index: int):
    n = len(state.words)
    for k in (1, 2, 3):
        if index < n**k:
            return tuple(state.words[(index // n**i) % n] for i in range(k))
        index -= n**k
    raise IndexError(index)


# -- checks ----------------------------------------------------------------------------


def check_gram(vec):
    cells = ref.gram_cells(vec)

    def check(g):
        if g.cells != cells:
            return "gram cells of %r differ from the reference" % (vec,)
        if tuple(g.witness) != tuple(vec):
            return "gram witness differs from the input"
        return None

    return check


def check_factor_gram(vec):
    cells = ref.gram_cells(vec)
    expect = 2 if ref.uniform_sign(vec) else 1

    def check(found):
        if tuple(vec) not in found:
            return "recovery of %r misses the input vector" % (vec,)
        if len(found) != expect:
            return "recovery of %r gave %d solutions, expected %d" % (vec, len(found), expect)
        for r in found:
            if ref.gram_cells(r) != cells:
                return "recovered vector %r does not recompose" % (r,)
        return None

    return check


def check_successors(vec):
    cells = ref.gram_cells(vec)
    weight = ref.diag_weight(cells)
    uniform = ref.uniform_sign(vec)

    def check(succ):
        if not uniform and succ:
            return "mixed-sign matrix %r has successors" % (vec,)
        for h in succ:
            if h.cells == cells:
                return "a successor of %r equals it" % (vec,)
            if ref.diag_weight(h.cells) >= weight:
                return "successor of %r does not lower the diagonal weight" % (vec,)
            if ref.gram_cells(h.witness) != h.cells:
                return "successor witness does not recompose"
        return None

    return check


def check_predecessors(vec):
    cells = ref.gram_cells(vec)

    def check(preds):
        if len(preds) != 2 or preds[0] == preds[1]:
            return "expected two distinct predecessors of %r" % (vec,)
        for p in preds:
            if ref.gram_cells(p.witness) != p.cells:
                return "predecessor witness does not recompose"
            if not ref.is_successor(p.witness, cells):
                return "a predecessor of %r does not have it among its successors" % (vec,)
        if any(ref.diag_weight(p.cells) <= ref.diag_weight(cells) for p in preds):
            return "predecessor of %r is not heavier" % (vec,)
        return None

    return check


def check_classification(cells, uniform: bool):
    k = len(cells)

    def recomposes(parts):
        return all(ref.prod(*parts(i, j)) == cells[i][j] for i in range(k) for j in range(k))

    def check(c):
        if not uniform:
            return None if (c.case, c.maximal) == ("Case3", True) else "mixed-sign matrix not Case3 maximal"
        if c.maximal:
            return None if c.case == "Case3" else "maximal matrix outside Case3"
        if c.case == "Case1":
            ok = recomposes(lambda i, j: (ref.star(c.m[i]), ref.UNIT_MINUS, c.m[j]))
        elif c.case == "Case2":
            ok = recomposes(lambda i, j: (ref.star(c.m[i]), ref.star(c.a[i]), c.a[j], c.m[j]))
        elif c.case == "Case3":
            cores = [ref.prod(ref.star(a), b) for a in c.lam for b in c.lam]
            ok = recomposes(lambda i, j: (ref.star(c.m[i]), ref.star(c.lam[i]), c.lam[j], c.m[j])) and all(
                core != ref.UNIT_PLUS and ref.in_d0(core) and ref.is_irreducible(core) for core in cores
            )
        else:
            return "unknown case %r" % (c.case,)
        return None if ok else "%s decomposition does not recompose" % c.case

    return check


def is_case2_fault(out, err) -> bool:
    return isinstance(err, W.DomainError) and CASE2_FAULT in str(err)


# -- rounds ------------------------------------------------------------------------------


def _vector_ops(vec, d1: bool, uniform: bool):
    wvec = tuple(W.Word(w) for w in vec)
    g = M.gram(wvec)
    wide = d1 and len(vec) >= WIDE_K
    ops = [
        Op(lambda: M.gram(wvec), check_gram(vec), wide=wide, label="gram"),
        Op(lambda: M.factor_gram(g), check_factor_gram(vec), wide=wide, label="factor_gram"),
    ]
    if d1:
        ops.append(Op(lambda: M.matrix_successors(g), check_successors(vec), wide=wide, label="matrix_successors"))
        ops.append(Op(lambda: M.immediate_predecessors(g), check_predecessors(vec), wide=wide, label="immediate_predecessors"))
        if uniform:
            ops.append(Op(lambda: M.classify_matrix(g), check_classification(g.cells, True), wide=wide, label="classify_matrix"))
    return ops


def make_round(state: State, rng):
    ops = []
    size = sum(len(state.words) ** k for k in (1, 2, 3))
    for _ in range(SPACE_DRAWS):
        ops += _vector_ops(space_vector(state, rng.randrange(size)), d1=False, uniform=False)
    for k in range(1, D1_MAX_K + 1):
        for _ in range(D1_UNIFORM):
            ops += _vector_ops(draw_d1(state, rng, k, True), d1=True, uniform=True)
        if k >= 2:
            for _ in range(D1_MIXED):
                ops += _vector_ops(draw_d1(state, rng, k, False), d1=True, uniform=False)
    for g in state.fixed:
        ops.append(Op(lambda g=g: M.classify_matrix(g), check_classification(g.cells, False), fault=is_case2_fault,
                      label="classify_matrix (mixed signs)"))
    return ops


def self_test(state: State):
    vec = state.ok_words[:2]
    g = M.gram(tuple(W.Word(w) for w in vec))
    cells = [list(row) for row in g.cells]
    cells[0][1] = W.Word(tuple(cells[0][1]) + (1 if cells[0][1][-1] < 0 else -1,))
    corrupted = M.GramMatrix(tuple(tuple(r) for r in cells), g.witness)
    if check_gram(vec)(corrupted) is None:
        yield "a corrupted Gram cell passed the check"
