"""Independent oracles for the benchmark's output checks.

Nothing here imports pisom.  Words are plain tuples of nonzero ints.  The
reducer rewrites to a fixpoint (leftmost applicable rule, then rescan),
which is a different strategy from the program's single stack pass; by
confluence both must give the same normal form.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import numpy as np
from numpy.linalg import eigvalsh as _eigvalsh

UNIT_PLUS = (-1, 1)
UNIT_MINUS = (1, -1)


# -- word arithmetic -----------------------------------------------------------


def reduce(seq) -> tuple:
    """Normal form by rewriting to a fixpoint."""
    s = [int(e) for e in seq]
    if not s or 0 in s:
        raise ValueError("not a nonzero-integer sequence: %r" % (seq,))
    while True:
        for i in range(len(s) - 1):
            if (s[i] > 0) == (s[i + 1] > 0):
                s[i : i + 2] = [s[i] + s[i + 1]]
                break
        else:
            for i in range(1, len(s) - 1):
                if abs(s[i]) == 1 and (s[i - 1] > 0) != (s[i] > 0) and (s[i + 1] > 0) != (s[i] > 0):
                    s[i - 1 : i + 2] = [s[i - 1] + s[i] + s[i + 1]]
                    break
            else:
                return tuple(s)


def star(w) -> tuple:
    return tuple(-e for e in reversed(w))


def prod(*words) -> tuple:
    seq = []
    for w in words:
        if w is not None:
            seq.extend(w)
    return reduce(seq)


def is_reduced(w) -> bool:
    w = tuple(w)
    if not w or 0 in w:
        return False
    if any((a > 0) == (b > 0) for a, b in zip(w, w[1:])):
        return False
    return all(abs(e) >= 2 for e in w[1:-1])


def weight(w) -> int:
    return sum(abs(e) for e in w)


def prefix_sums(w):
    total, out = 0, []
    for e in w:
        total += e
        out.append(total)
    return out


def in_d0(w) -> bool:
    return sum(w) == 0 and all(s <= 0 for s in prefix_sums(w))


def in_d1(w) -> bool:
    return sum(w) == 0 and all(s <= 1 for s in prefix_sums(w))


def member(w, tag: str) -> bool:
    w = tuple(w)
    plus = len(w) >= 2 and w[0] < 0 and w[-1] > 0
    return {
        "A0": sum(w) == 0,
        "Aplus": plus,
        "Aminus": len(w) >= 2 and w[0] > 0 and w[-1] < 0,
        "Aplus0": plus and sum(w) == 0,
        "D0": in_d0(w),
        "D1": in_d1(w),
    }[tag]


def is_irreducible(w) -> bool:
    """Inside the tau-kernel: every interior prefix sum has the first entry's sign."""
    sig = prefix_sums(w)
    return sig[-1] == 0 and all(w[0] * s > 0 for s in sig[:-1])


def is_plus_irreducible(w, grade: int) -> bool:
    """From the definition: reduced, starts negative, ends positive,
    tau = 0, interior prefix sums < 0, positive entries sum to the grade."""
    w = tuple(w)
    if not is_reduced(w) or len(w) < 2 or w[0] > 0 or w[-1] < 0:
        return False
    sig = prefix_sums(w)
    return sig[-1] == 0 and all(s < 0 for s in sig[:-1]) and sum(e for e in w if e > 0) == grade


def is_minimal_sequence(factors) -> bool:
    """No idempotent factor repeats or acts as a one-sided unit on a neighbour."""
    for i, f in enumerate(factors):
        if f not in (UNIT_PLUS, UNIT_MINUS):
            continue
        if i > 0 and (factors[i - 1] == f or prod(factors[i - 1], f) == factors[i - 1]):
            return False
        if i + 1 < len(factors) and (factors[i + 1] == f or prod(f, factors[i + 1]) == factors[i + 1]):
            return False
    return True


def reduced_words(max_weight: int) -> list:
    """Every reduced word of weight <= max_weight, sorted by (weight, entries)."""
    out = []

    def extend(seq, used):
        out.append(seq)
        if len(seq) > 1 and abs(seq[-1]) < 2:
            return
        sign = -1 if seq[-1] > 0 else 1
        for mag in range(1, max_weight - used + 1):
            extend(seq + (sign * mag,), used + mag)

    for first in range(1, max_weight + 1):
        extend((first,), first)
        extend((-first,), first)
    return sorted(out, key=lambda w: (weight(w), w))


@lru_cache(maxsize=1 << 14)  # Gram checks meet the same pairs of short words again and again
def cell(a: tuple, b: tuple) -> tuple:
    """The Gram cell a* b."""
    return prod(star(a), b)


def gram_cells(vec) -> tuple:
    return tuple(tuple(cell(tuple(a), tuple(b)) for b in vec) for a in vec)


def unit_strip(u) -> tuple:
    """The hollowing choice: u with one unit taken off its front
    (u = (+-1) c, c returned); a lone (-1) or (1) leaves (1,-1) or (-1,1)."""
    u = tuple(u)
    e0 = u[0]
    if abs(e0) > 1:
        return (e0 - (1 if e0 > 0 else -1),) + u[1:]
    if len(u) == 1:
        return (-e0, e0)
    return u[1:]


def hollow_choices(u) -> tuple:
    """The vectors c with u = (unit) c: one unit stripped, or the opposite
    unit prepended (which recomposes to the same element)."""
    return unit_strip(u), prod((1,) if u[0] < 0 else (-1,), u)


def is_successor(lower_witness, upper_cells) -> bool:
    """Whether some choice vector of a uniform-sign witness of the lower
    matrix (one hollowing choice per entry) has Gram matrix upper_cells."""
    if not uniform_sign(lower_witness):
        return False
    return any(gram_cells(c) == upper_cells for c in product(*(hollow_choices(u) for u in lower_witness)))


def diag_weight(cells) -> int:
    return sum(weight(cells[i][i]) for i in range(len(cells)))


def uniform_sign(vec) -> bool:
    return len({w[0] > 0 for w in vec}) == 1


# -- graded counts -------------------------------------------------------------


def stein_waterman(n_max: int) -> list:
    """a(0)=1, a(n) = a(n-1) + sum_{k=1}^{n-2} a(k) a(n-2-k)  (OEIS A004148)."""
    a = [1]
    for n in range(1, n_max + 1):
        a.append(a[n - 1] + sum(a[k] * a[n - 2 - k] for k in range(1, n - 1)))
    return a


def grade_count(g: int) -> int:
    """Number of plus-irreducibles of grade g: one at grade 1, a(g-2) above."""
    return 1 if g == 1 else stein_waterman(g - 2)[g - 2]


def check_grade_table(g: int, elements) -> str | None:
    """None when the table is exactly the grade-g plus-irreducibles."""
    elems = [tuple(w) for w in elements]
    if len(set(elems)) != len(elems):
        return "grade %d: duplicate elements" % g
    if elems != sorted(elems):
        return "grade %d: table not sorted" % g
    bad = next((w for w in elems if not is_plus_irreducible(w, g)), None)
    if bad is not None:
        return "grade %d: %r is not a plus-irreducible of that grade" % (g, bad)
    if len(elems) != grade_count(g):
        return "grade %d: %d elements, the recurrence gives %d" % (g, len(elems), grade_count(g))
    return None


# -- exact evaluation at truncated shifts ----------------------------------------


def shift_map(w, n: int) -> list:
    """Image index of each basis vector e_j under the word evaluated at the
    n x n truncated shift (S e_i = e_{i+1}, S e_{n-1} = 0); None is zero.

    The product applies its last entry first; v^k moves an index up by k,
    (v*)^k down by k, and leaving [0, n) kills the vector.
    """
    out = []
    for j in range(n):
        i = j
        for e in reversed(w):
            i += e
            if not 0 <= i < n:
                i = None
                break
        out.append(i)
    return out


def shift_matrix(w, n: int) -> np.ndarray:
    m = np.zeros((n, n))
    for j, i in enumerate(shift_map(w, n)):
        if i is not None:
            m[i, j] = 1.0
    return m


def truncated_shift(n: int) -> np.ndarray:
    return shift_matrix((1,), n)


def shift_support(w, n: int) -> frozenset:
    """Basis indices fixed by a tau-zero word at the shift (its 0/1 diagonal)."""
    if sum(w) != 0:
        raise ValueError("support is defined for tau-zero words")
    return frozenset(j for j, i in enumerate(shift_map(w, n)) if i is not None)


def _int_det(rows) -> Fraction:
    m = [[Fraction(x) for x in r] for r in rows]
    size, det = len(m), Fraction(1)
    for c in range(size):
        piv = next((r for r in range(c, size) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, size):
            f = m[r][c] / m[c][c]
            for cc in range(c, size):
                m[r][cc] -= f * m[c][cc]
    return det


def psd_exact(rows) -> bool:
    """A symmetric rational matrix is PSD iff every principal minor is >= 0."""
    k = len(rows)
    for size in range(1, k + 1):
        for idx in combinations(range(k), size):
            if _int_det([[rows[i][j] for j in idx] for i in idx]) < 0:
                return False
    return True


def shift_relation_psd(lower_cells, upper_cells, n: int) -> bool:
    """Exact verdict on eval(upper) - eval(lower) >= 0 at the n x n shift,
    for k x k arrays of tau-zero cells.  Every cell evaluates to a 0/1
    diagonal, so the block difference splits into one k x k integer matrix
    per basis index.  For k = 1 this is support inclusion."""
    k = len(lower_cells)
    if k == 1:
        return shift_support(lower_cells[0][0], n) <= shift_support(upper_cells[0][0], n)
    sup_lo = [[shift_support(c, n) for c in row] for row in lower_cells]
    sup_up = [[shift_support(c, n) for c in row] for row in upper_cells]
    for t in range(n):
        d = [[int(t in sup_up[i][j]) - int(t in sup_lo[i][j]) for j in range(k)] for i in range(k)]
        if any(any(row) for row in d) and not psd_exact(d):
            return False
    return True


def shift_block(cells, n: int) -> np.ndarray:
    return np.block([[shift_matrix(c, n) for c in row] for row in cells])


# -- numpy evaluation from power tables ------------------------------------------


class PowerTables:
    """v^j and (v*)^j by repeated multiplication, independent of eval_word."""

    def __init__(self, v):
        v = np.asarray(v, dtype=complex)
        self.up = [np.eye(v.shape[0], dtype=complex), v]
        self.down = [self.up[0], v.conj().T]

    def _power(self, table, j):
        while len(table) <= j:
            table.append(table[-1] @ table[1])
        return table[j]

    def word(self, w):
        out = None
        for e in w:
            m = self._power(self.up if e > 0 else self.down, abs(e))
            out = m if out is None else out @ m
        return out

    def block(self, cells):
        return np.block([[self.word(c) for c in row] for row in cells])


def min_eig(m) -> float:
    h = np.asarray(m, dtype=complex)
    return float(_eigvalsh((h + h.conj().T) / 2)[0])
