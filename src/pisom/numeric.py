"""Numeric verification at concrete matrix partial isometries.

Words evaluate to products of powers of a matrix v and its adjoint;
order relations then turn into positive-semidefiniteness of differences.
Default tolerances: 1e-9 for PSD acceptance, 1e-10 for the conjugation
identity, and 1e-12 for the defect ||v v* v - v||_2 of a given v, which is
a check on input, not a certificate.

Rounding.  u = 2^-53 is the unit roundoff and d <= DIM_CAP = 64 the
order of a certified matrix.  A complex inner product of length d is
computed with an error of at most g(d) = sqrt(2) gamma_{d+2} times the
sum of the absolute values of its terms, gamma_m = m u / (1 - m u)
(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
section 3.6); here g(d) <= 4 (d + 1) u.

- ``eval_word``.  A computed product of d x d matrices has
  |fl(AB) - AB| <= g(d) |A| |B| entrywise, so an error of at most
  g(d) ||A||_F ||B||_F <= d g(d) in the Frobenius norm when A and B are
  contractions.  The images of words at a partial isometry are
  contractions.  A power v^j takes j - 1 products, and (v*)^j is its
  conjugate transpose, which is exact.  A word of more entries takes one
  product more: the power of its first entry times the image of the
  rest, or X* X for the image X of its half, whose error enters twice.
  So, counting X twice, a word whose exponents have absolute sum W takes
  W - 1 products, and to first order in u its image is within
  (W - 1) d g(d) of the exact one: 6.6e-13 a product at d = 64.  The
  Hermitian part of a k x k block difference of order k n <= 64 is then
  within 2 k (W - 1) n g(n) <= (W - 1) 1.4e-12 of the exact one in the
  spectral norm, so PSD_TOL absorbs W up to about 700.  At a truncated
  shift every product is one of 0/1 partial permutations, and exact.
  The defect check is two products, bounded by 2 d g(d), which exceeds
  1e-12 from d = 56 on; observed defects stay near 4e-15.
- Cholesky.  If the Cholesky factorization of a Hermitian A of order d
  runs to completion, the computed R satisfies R* R = A + E with
  |E| <= g(d) |R*| |R| (Higham, chapter 10: the proof uses only that
  the factorization completes, and holds for every order of the inner
  products, so for LAPACK's blocked factorization).
  Then ||E||_2 <= ||E||_F <= g ||R||_F^2, and the diagonal gives
  ||R||_F^2 = tr(A + E) <= tr A + g ||R||_F^2, so
  ||E||_2 <= g / (1 - g) tr A.  As R* R is PSD, lambda_min(A) >= -||E||_2.
- Eigensolve.  ``np.linalg.eigvalsh`` (LAPACK's Hermitian divide and
  conquer) is backward stable: its eigenvalues are those of H + F with
  ||F||_2 <= p(d) u ||H||_2 (LAPACK Users' Guide, section 4.7), p a
  modestly growing function.  Wilkinson's worst case for the Householder
  reduction has p(d) of order d^2; the bound here takes
  p(d) = 3 d (d + 1).  By Weyl's inequality no eigenvalue moves by more
  than ||F||_2.

Certification.  All four verify calls run through one loop,
``_certified``: it refuses a call whose matrix order exceeds DIM_CAP, the
bound the rounding analysis above assumes, before any word is evaluated,
and certifies the whole batch at once, in one stack per matrix order that
occurs in it.  It cuts those stacks itself: the items of one order, in
input order, in runs of at most 2^18 entries a stack, each difference
written by the verify call straight into its slot.  Finite inputs make a
value that is not finite only by an overflow, and the loop runs under
numpy's errstate with overflow and invalid operations raised, so such a
value is a DomainError, not a warning: a generator assignment, or a v
that is no partial isometry, may have images large enough for it.
``psd_check`` certifies its one matrix, and ``eval_word`` evaluates its
one word, under the same errstate (``_in_double``), so a finite matrix
whose Hermitian or skew part overflows, and a word whose image does, is
a DomainError there too.  The order and Schwarz relations and the
k-order relations are PSD tests; the conjugation identity bounds the
spectral norm of each residual v* eval(n) v - eval(alpha(n)), with v and
v* the images of the words (1) and (-1).  A call's words are evaluated
against one memo, dropped when the call returns: the powers v^j, grown
by repeated multiplication below j = 64 and by repeated squaring from
there on, and their conjugate transposes (v*)^j, each
kept as the image of the one-entry word (j) or (-j), and the image of
every word, suffix and half met in the call; a word or slice goes to its
half exactly when ``Word.is_selfadjoint`` holds.  A word already in the
memo is returned as it is.  So the two sides of a basic step,
w* w <= c* c with c = w less one unit at the front, share the image of
w[1:] and take about len(w) + 2 products between them.  Each word the
call reads is evaluated once.  A difference m passes when its skew part
has spectral norm ||m - m*||_2 <= tol and the Hermitian part
H = (m + m*)/2 has minimum eigenvalue >= -tol, as the eigensolve reports
it.

Support.  A k-order relation G <= G' is certified on its support S, the
block rows i where the cells of G and G' differ as words.  Both matrices
are selfadjoint, so row i differs exactly when column i does, and every
n x n block of the difference outside S x S is ev(w) - ev(w) for one
memoized array w: exactly 0.0, not a difference that rounding made
small.  Up to a permutation of the block rows and columns, the
difference is then the direct sum of m_S, its S x S principal block
submatrix, and a zero matrix.  So H has the spectrum of the Hermitian
part of m_S plus (k - |S|) n zeros, and the skew part has the spectral
norm of that of m_S.  As tol >= 0, the zeros pass both tests, and the
verdict is that of m_S, a matrix of order |S| n.  A failure reports the
minimum eigenvalue of the whole difference: that of m_S, or 0 when that
is larger and S is not every row (which only a failure of the skew test
alone can show).  An empty support means G = G', which passes with no
work.  Cells outside S x S are not evaluated at all.

The eigenvalue test first tries one Cholesky factorization of
A = fl(H + (tol/2) I) over the whole stack; A differs from H + (tol/2) I
by a diagonal D with ||D||_2 <= u max_i |a_ii|.  If the factorization
completes, a_ii >= (1 - g) sum_k |r_ki|^2 >= 0, so ||D||_2 <= u tr A and,
by the Cholesky bound, ||E||_2 <= g / (1 - g) tr A with g <= 4 (d + 1) u.
Then lambda_min(H) >= -tol/2 - ||E||_2 - ||D||_2, and
||H||_2 <= 1.0001 (tr A + tol), as lambda_max(H) is at most
lambda_max(A + E) + ||E||_2 + ||D||_2 <= tr(A + E) + ||E||_2 + ||D||_2.
So the eigensolve reports at least

    -tol/2 - (4.0001 (d + 1) + 1 + 3.0003 d (d + 1)) u (tr A + tol)
        >= -tol/2 - 8 d (d + 1) u (tr A + tol).

When _CHOLESKY_GUARD d (d + 1) u (tr A + tol) < tol/2 for every matrix of
the stack, with _CHOLESKY_GUARD = 8, a completed factorization therefore
means that the eigensolve accepts every one of them, and no eigensolve
runs.  Here d is the order of the stacked matrices: n for a scalar
relation, |S| n for a k-order relation.  The guard reads the trace, d
additions a matrix, because for a matrix that factors it bounds the
norm.  At d = 64 and tol = PSD_TOL it admits tr A up to about 135, while
the diagonal entries of a difference of two contractions (or of two
blocks of them) lie in [-2, 2], so tr A <= 2 d + d tol <= 129 at every
partial isometry.  A stack that the guard or the factorization refuses
goes to one eigensolve, which gives the verdicts and every minimum
eigenvalue that a report prints; so does a matrix that fails only the
skew test.  So, within the stated bounds, verdicts and reports are
exactly those of the eigensolve alone on the certified matrices; on the
whole k n x k n difference, whose eigensolve has its own rounding, a
reported minimum eigenvalue agrees to within the two eigensolve bounds.

The skew test first takes the Frobenius norm, which is never below the
spectral norm: a skew part whose Frobenius norm is within tol (less a
relative 1e-12, far above the rounding of either norm, so that near-ties
go to the SVD) has spectral norm within tol, and every other one gets the
exact SVD norm.  The prefilter compares squared norms, so it takes no
square root: the sum of squares against the square of tol less the slack.
Squaring moves the threshold by a few ulps, far inside the relative
1e-12, so the argument holds as it stands.  So acceptance is exactly the
per-matrix SVD-and-eigensolve check; the conjugation identity uses the
same prefilter for its residuals.

The rep check.  ``PartialIsometryRep.checked`` refuses a v that is not
finite, then runs the same prefilter on the residual v v* v - v against
IDENTITY_TOL: a residual it settles is accepted with no SVD, and any
other one is accepted or refused by its exact spectral norm, which a
refusal prints.  By Cauchy-Schwarz the absolute terms of an entry of
v v* sum to at most ||v||^2, and those of v v* v to at most ||v||^3, so
a finite v whose residual overflows has ||v||^3 past the largest double;
as ||v v* v - v||_2 >= ||v||^3 - ||v||, its defect is reported as inf.

Also houses generator assignments: multiplicative *-maps on the
prefix-sum-nonpositive subsemigroup given by images of its free
generators, the plus-irreducibles; ``structure.factor_d0`` cuts a word
into them and refuses a word outside D0.  The committed counterexample
fixture (an order-preserving scalar assignment whose 2-amplification
fails) lives here as a rule, because any truly finite-support
order-preserving assignment with a nonzero image of (-4,4) provably
cannot exist; see scripts/find_order_fixture.py.
"""

import json
import random
from contextlib import contextmanager
from functools import cache, reduce as _fold

import numpy as np

from .matrix import K_CAP, GramMatrix, _json_int, gram, matrix_successors
from .maps import alpha, is_irr_plus
from .order import hollow_depth, hollow_successors, square_hollow
from .structure import factor_d0
from .words import (
    GEN,
    GEN_STAR,
    UNIT_MINUS,
    UNIT_PLUS,
    DomainError,
    Word,
    _echo,
    format_word,
    iter_words,
    member,
    parse_word,
)

PSD_TOL = 1e-9
IDENTITY_TOL = 1e-12
CONJUGATION_TOL = 1e-10
DIM_CAP = 64
RELATION_CAP = 10**5  # pairs in one scalar_relations() or matrix_relations() sample


class InvalidRepError(DomainError):
    """The supplied matrix is not a partial isometry within tolerance: an
    input outside the domain."""


def matrix_to_json(m) -> str:
    m = np.asarray(m, dtype=complex)
    return json.dumps({"n": m.shape[0], "re": m.real.tolist(), "im": m.imag.tolist()})


def opnorm(m) -> float:
    """||m||_2, inf when m is not finite."""
    m = np.asarray(m, dtype=complex)
    return float(np.linalg.norm(m, 2)) if np.isfinite(m).all() else float("inf")


class PartialIsometryRep:
    """A matrix v meant to satisfy v v* v = v up to IDENTITY_TOL.

    Construction does not validate (negative controls need broken reps);
    use :meth:`checked` when validity is required.
    """

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    @property
    def n(self) -> int:
        return self.v.shape[0]

    def _residual(self):
        """v v* v - v; an overflow leaves inf or nan in it, with no warning."""
        v = np.asarray(self.v, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            return v @ v.conj().T @ v - v

    @classmethod
    def checked(cls, v) -> "PartialIsometryRep":
        """The rep of v, refused unless v is finite and its defect
        ||v v* v - v||_2 is at most IDENTITY_TOL.  The Frobenius norm of the
        residual settles most verdicts; the SVD runs only when it does not,
        and reads inf for a residual that overflowed."""
        rep = cls(np.asarray(v, dtype=complex))
        if not np.isfinite(rep.v).all():
            raise InvalidRepError("a partial isometry needs a finite matrix")
        over = _norms_over(rep._residual()[None], IDENTITY_TOL)
        if over:
            raise InvalidRepError("||v v* v - v|| = %.3e exceeds %.1e" % (over[0][1], IDENTITY_TOL))
        return rep


def random_partial_isometry(n: int, seed: int) -> PartialIsometryRep:
    """Deterministic random partial isometry: unitary factors of a random
    complex matrix glued across a random-rank cut (rank 0 gives the zero
    matrix)."""
    if n < 1:
        raise DomainError("dimension must be positive")
    if n > DIM_CAP:
        raise DomainError("dimension %s exceeds cap %d" % (_echo(n), DIM_CAP))
    if seed < 0:
        raise DomainError("seed must be nonnegative, got %s" % _echo(seed))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u, _, vh = np.linalg.svd(z)
    r = int(rng.integers(0, n + 1))
    return PartialIsometryRep.checked(u[:, :r] @ vh[:r, :])


class _Images:
    """The images of words at v within one call: the powers v^j below 64,
    grown by repeated multiplication, and a memo of the images of words,
    their suffixes and their halves.  Products are ndarray.dot: the BLAS
    product of @, with less overhead per call on small matrices."""

    def __init__(self, v):
        v = np.asarray(v, dtype=complex)
        if not np.isfinite(v).all():
            raise DomainError("the matrix v has an entry that is not finite")
        self.up = [None, v]
        self.memo = {}

    def power(self, e: int):
        """v^e, or for e < 0 the conjugate transpose of v^-e; memoized, both
        signs, as the image of the one-entry word (e,).  From e = 64 on, v^e
        is taken by repeated squaring, with no power but v^e kept, so a huge
        exponent costs about log2(e) products and no table."""
        memo = self.memo
        out = memo.get((e,))
        if out is None:
            if e < 0:
                out = self.power(-e).conj().T
            elif e < 64:
                table = self.up
                while len(table) <= e:
                    table.append(table[-1].dot(table[1]))
                out = table[e]
            else:
                square, rest = self.up[1], e
                while rest:
                    if rest & 1:
                        out = square if out is None else out.dot(square)
                    rest >>= 1
                    if rest:
                        square = square.dot(square)
            memo[(e,)] = out
        return out

    def image(self, w):
        """X* X, X the image of x, for a selfadjoint w = star(x) x; for any
        other word of more than one entry, P(w[0]) times the image of w[1:].

        The chain runs from w down to the first half or suffix in the memo,
        or to a single entry; the images are then built back up it."""
        memo = self.memo
        out = memo.get(w)
        if out is not None:
            return out
        chain = []
        while out is None and len(w) > 1:
            half = Word.is_selfadjoint(w)  # w may be a plain tuple slice
            chain.append((w, half))
            w = w[len(w) // 2 :] if half else w[1:]
            out = memo.get(w)
        if out is None:
            out = self.power(w[0])
        for w, half in reversed(chain):
            out = memo[w] = out.conj().T.dot(out) if half else self.power(w[0]).dot(out)
        return out


def eval_word(rep, w: Word):
    """Product of powers: entry k > 0 contributes v^k, k < 0 gives (v*)^-k.

    A selfadjoint word star(x) x evaluates as X* X from the image X of its
    half x, and any other word as the power of its first entry times the
    image of the rest; (v*)^j is the conjugate transpose of v^j.  Each image
    is a function of the word alone, so it does not depend on what else the
    memo holds: a verify call, which shares one memo across its words, gets
    the images this returns.  A generator assignment evaluates w as the
    verify calls evaluate it, multiplicatively over the factors of a D0
    word.  A v with an entry that is not finite, a word whose image
    overflows, or anything but a rep or an assignment, is a DomainError.
    """
    with _in_double("eval_word: the word does not evaluate in double precision: %s"):
        return _evaluator(rep)(w)


# Relative slack on the Frobenius prefilter; see the module docstring.
_FRO_SLACK = 1 - 1e-12
# Constant of the rounding bound that lets a Cholesky factorization stand
# for the eigensolve; see the module docstring.
_CHOLESKY_GUARD = 8
_BATCH_ENTRIES = 1 << 18


@contextmanager
def _in_double(refusal: str):
    """Run the block under numpy's errstate with overflow and invalid
    operations raised, and refuse such an operation with the DomainError
    refusal % numpy's message; see the module docstring."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise DomainError(refusal % exc) from None


def _frobenius_within(stack, tol: float):
    """Per matrix of the stack, whether its Frobenius norm shows its spectral
    norm to be within tol; see the module docstring."""
    parts = stack.reshape(len(stack), -1).view(float)
    bound = tol * _FRO_SLACK
    # squared norms against the signed square of the bound: a negative tol
    # still settles nothing
    return np.einsum("ki,ki->k", parts, parts) <= bound * abs(bound)


def _norms_over(stack, tol: float):
    """(i, ||stack[i]||_2) for every i whose spectral norm exceeds tol; the
    SVD runs only where the Frobenius norm does not already settle it, and
    not at all when it settles every matrix."""
    unsettled = np.flatnonzero(~_frobenius_within(stack, tol))
    if not unsettled.size:
        return []
    out = []
    for i in unsettled:
        norm = opnorm(stack[i])
        if norm > tol:
            out.append((i, norm))
    return out


def _cholesky_certifies(herm, tol: float) -> bool:
    """Whether every Hermitian matrix of the stack has minimum eigenvalue
    >= -tol as the eigensolve would report it, shown by one factorization
    of herm + (tol/2) I within the rounding bound.  The shift is made in
    place, and undone exactly."""
    d = herm.shape[1]
    diagonal = herm.reshape(len(herm), -1)[:, :: d + 1]  # a view: writing it writes herm
    saved = diagonal.copy()
    diagonal += tol / 2
    try:
        with np.errstate(over="ignore"):  # a bound that overflows fails the guard
            trace = diagonal.real.sum(axis=1).max()
            if not _CHOLESKY_GUARD * d * (d + 1) * 2.0**-53 * (trace + tol) < tol / 2:
                return False
        np.linalg.cholesky(herm)
    except np.linalg.LinAlgError:
        return False
    finally:
        diagonal[...] = saved
    return True


def _certify(diffs, tol: float):
    """PSD verdicts of a stack of square differences m: skew part m - m*
    within tol in spectral norm, and the minimum eigenvalue of
    (m + m*)/2 at least -tol.  Also the minimum eigenvalues, computed for
    every matrix that fails and nan where a Cholesky factorization stood
    in for the eigensolve."""
    adj = np.conjugate(diffs.transpose(0, 2, 1), order="C")
    herm = diffs + adj
    herm *= 0.5
    adj -= diffs  # the skew part, negated
    skewed = [i for i, _ in _norms_over(adj, tol)]
    if _cholesky_certifies(herm, tol):
        ok = np.ones(len(herm), dtype=bool)
        eigs = np.full(len(herm), np.nan)
        if skewed:
            eigs[skewed] = np.linalg.eigvalsh(herm[skewed])[:, 0]
    else:
        eigs = np.linalg.eigvalsh(herm)[:, 0]
        ok = eigs >= -tol
    ok[skewed] = False
    return ok, eigs


def _psd_failures(stack, tol: float):
    """(i, min_eig) for every matrix of the stack that _certify refuses."""
    ok, eigs = _certify(stack, tol)
    return [(i, float(eigs[i])) for i in np.flatnonzero(~ok)]


def _certified(items, dim: int, diff, describe, tol: float, check=_psd_failures, key="min_eig", orders=None):
    """Certify the dim x dim difference of every item, one stack per order
    and batch, and report the failures in input order.  A batch is the
    next run of at most _BATCH_ENTRIES / order^2 (at least one) of the
    items of one order, in input order, written straight into its stack.

    diff(item, out) writes an orders[i] x orders[i] principal submatrix
    outside of which the difference of items[i] is 0 (every order is dim
    when ``orders`` is not given), and check(stack, tol) gives (i, value)
    for every matrix of a stack that fails; a failure's record holds the
    value under ``key``.  The verdict is then the submatrix's, a failure's
    value is at most 0 (the eigenvalue of the zeros) when the submatrix is
    smaller than dim, and an order 0 submatrix passes.  A dim above DIM_CAP
    is refused before any item is evaluated.
    """
    if dim > DIM_CAP:
        raise DomainError("block dimension %s exceeds cap %d" % (_echo(dim), DIM_CAP))
    items = list(items)
    orders = [dim] * len(items) if orders is None else orders
    failed = {}
    with _in_double("the relations do not evaluate in double precision: %s"):
        for order in dict.fromkeys(filter(None, orders)):
            wheres = [j for j, o in enumerate(orders) if o == order]
            size = max(1, _BATCH_ENTRIES // (order * order))
            for start in range(0, len(wheres), size):
                batch = wheres[start : start + size]
                stack = np.empty((len(batch), order, order), dtype=complex)
                for j, out in zip(batch, stack):
                    diff(items[j], out)
                for i, value in check(stack, tol):
                    failed[batch[i]] = value if order == dim else min(value, 0.0)
    return Report(len(items), [{"relation": describe(x), key: failed[j]} for j, x in enumerate(items) if j in failed])


def psd_check(m, tol: float = PSD_TOL) -> bool:
    """Hermitian within tol and minimum eigenvalue >= -tol.  A finite m
    whose Hermitian or skew part overflows is a DomainError, as in the
    verify calls."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError("psd_check needs a square matrix")
    if not np.isfinite(m).all():
        raise DomainError("psd_check needs a finite matrix")
    with _in_double("psd_check: the matrix does not evaluate in double precision: %s"):
        return bool(_certify(m[None], tol)[0][0])


# -- reports ------------------------------------------------------------------


class Report:
    """Relations checked, and one record per relation that failed."""

    __slots__ = ("total", "failures")

    def __init__(self, total: int = 0, failures: list | None = None):
        self.total = total
        self.failures = [] if failures is None else failures

    def __eq__(self, other):
        return isinstance(other, Report) and (self.total, self.failures) == (other.total, other.failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def merge(self, other: "Report") -> "Report":
        return Report(self.total + other.total, self.failures + other.failures)

    def to_json(self) -> str:
        return json.dumps({"total": self.total, "failures": self.failures})


def verify_order_rep(rep_or_assign, pairs, tol: float = PSD_TOL) -> Report:
    """PSD-check eval(upper) - eval(lower) for validated order pairs."""
    ev = _evaluator(rep_or_assign)
    return _certified(
        pairs,
        rep_or_assign.n,
        lambda p, out: np.subtract(ev(p[1]), ev(p[0]), out=out),
        lambda p: "%s <= %s" % (format_word(p[0]), format_word(p[1])),
        tol,
    )


def verify_k_order(rep_or_assign, k: int, relations, tol: float = PSD_TOL) -> Report:
    """PSD-check the k n x k n block differences of basic matrix relations.

    Each is certified on its support S, the block rows where its two Gram
    matrices differ, as the |S| n x |S| n principal submatrix that holds
    every nonzero block (see the module docstring): only the cells in
    S x S are evaluated, relations of one support size share a stack, and
    failures are reported in input order.
    """
    ev = _evaluator(rep_or_assign)
    n = rep_or_assign.n
    items = []
    for lower, upper in relations:
        if lower.k != k or upper.k != k:
            raise DomainError("relation rank differs from k = %d" % k)
        support = [i for i, (lo, up) in enumerate(zip(lower.cells, upper.cells)) if lo != up]
        items.append((lower, upper, support))

    def diff(r, out):  # the S x S block submatrix, in n x n blocks
        for a, i in enumerate(r[2]):
            lo, up, rows = r[0].cells[i], r[1].cells[i], out[a * n : (a + 1) * n]
            for b, j in enumerate(r[2]):
                np.subtract(ev(up[j]), ev(lo[j]), out=rows[:, b * n : (b + 1) * n])

    return _certified(
        items,
        k * n,
        diff,
        lambda r: {"lower": json.loads(r[0].to_json()), "upper": json.loads(r[1].to_json())},
        tol,
        orders=[len(r[2]) * n for r in items],
    )


def verify_schwarz(rep: PartialIsometryRep, samples, tol: float = PSD_TOL) -> Report:
    """Check eval(alpha(a* a)) - eval(alpha(a))* eval(alpha(a)) is PSD."""
    ev = _evaluator(rep)

    def diff(a, out):
        img = ev(alpha(a))
        np.subtract(ev(alpha(a.star * a)), img.conj().T.dot(img), out=out)

    return _certified(samples, rep.n, diff, lambda a: "schwarz at %s" % format_word(a), tol)


def verify_conjugation(rep: PartialIsometryRep, samples) -> Report:
    """Check v* eval(n) v agrees with eval of the conjugated word, to
    CONJUGATION_TOL in spectral norm."""
    if not isinstance(rep, PartialIsometryRep):
        raise DomainError("verify_conjugation needs a partial isometry rep")
    ev = _evaluator(rep)
    return _certified(
        samples,
        rep.n,
        lambda n_word, out: np.subtract(ev(GEN_STAR).dot(ev(n_word)).dot(ev(GEN)), ev(alpha(n_word)), out=out),
        lambda n_word: "conjugation at %s" % format_word(n_word),
        CONJUGATION_TOL,
        _norms_over,
        "residual",
    )


# -- generator assignments ----------------------------------------------------


class GeneratorAssignment:
    """Images of the free generators of the prefix-sum-nonpositive words.

    ``images`` is a finite table; ``rule`` (optional) computes images for
    generators outside it; anything else maps to zero.  The unit (-1,1)
    always maps to the identity.  For every g in the table the image of g*
    (from the table, the rule or zero) must be the adjoint of g's, so a
    table without a rule that gives a nonzero image but not its star's is
    refused.
    """

    __slots__ = ("n", "images", "rule")

    def __init__(self, n: int, images: dict | None = None, rule=None):
        self.n = n
        self.images = {} if images is None else images
        self.rule = rule
        for g, m in self.images.items():
            m = np.asarray(m, dtype=complex)
            if m.shape != (self.n, self.n):
                raise DomainError("image of %s has wrong shape" % _echo(g))
            self.images[g] = m
            if not is_irr_plus(g) or g == UNIT_PLUS:
                raise DomainError("%s is not a non-unit plus-irreducible" % _echo(g))
        for g, m in self.images.items():
            other = self.image(g.star)
            # an overflowed gap (inf) and a non-finite image's (inf - inf is nan) have norm inf, so are refused
            with np.errstate(over="ignore", invalid="ignore"):
                gap = other - m.conj().T
            if _norms_over(gap[None], IDENTITY_TOL):
                raise DomainError("star-incompatible images at %s" % _echo(g))

    def image(self, g: Word):
        if g == UNIT_PLUS:
            return np.eye(self.n, dtype=complex)
        if g in self.images:
            return self.images[g]
        if self.rule is not None:
            return np.asarray(self.rule(g), dtype=complex)
        return np.zeros((self.n, self.n), dtype=complex)

    def __call__(self, d: Word):
        """Evaluate a word of D0 multiplicatively over its plus-irreducible
        factors; ``factor_d0`` refuses any other word."""
        return _fold(lambda a, b: a @ b, (self.image(f) for f in factor_d0(d)))


def _evaluator(rep_or_assign):
    """Per-call memoized evaluation; relation batches reuse many cells.  At
    a partial isometry all words share the one memo of powers, suffixes and
    halves of an _Images; a generator assignment gets a cache of its own.
    Anything else is refused."""
    if isinstance(rep_or_assign, GeneratorAssignment):
        return cache(rep_or_assign)
    if not isinstance(rep_or_assign, PartialIsometryRep):
        raise DomainError("expected a partial isometry rep or a generator assignment")
    return _Images(rep_or_assign.v).image


# -- the order-but-not-2-order fixture ----------------------------------------

OVERRIDE_ROOT = Word((-4, 3, -3, 4))


def sa_depth_fixture(c: float = 0.5) -> GeneratorAssignment:
    """Scalar order representation that is not a 2-order map.

    Selfadjoint generators map to c**depth, except along the
    square-hollow orbit of (-4,3,-3,4) where the exponent doubles from 4,
    pinning the images of (-4,3,-3,4) and (-4,2,-2,4) to the same value.
    Non-selfadjoint generators map to zero, which kills the off-diagonal
    witnesses needed for 2-positivity while every scalar hollowing step
    stays monotone.
    """
    if not 0 < c < 1:
        raise DomainError("fixture parameter must be in (0, 1)")

    def rule(g: Word):
        if not g.is_selfadjoint():
            return np.zeros((1, 1))
        t, j = OVERRIDE_ROOT, 0
        while t.weight <= g.weight:
            if t == g:
                return np.array([[c ** (4 * 2**j)]])
            t = square_hollow(t)
            j += 1
        return np.array([[c ** hollow_depth(g)]])

    return GeneratorAssignment(n=1, rule=rule)


def _distinct_keys(pairs) -> dict:
    """A fixture's JSON object.  A key given twice is refused: json.load
    would keep only the last of its values."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            what = "the image of " + _echo(key) if key.startswith("(") else repr(_echo(key))
            raise DomainError("the fixture gives %s twice" % what)
        obj[key] = value
    return obj


def load_assignment(path) -> GeneratorAssignment:
    """Read an assignment file; an unreadable or malformed one is a DomainError."""
    try:
        with open(path) as fh:
            obj = json.load(fh, object_pairs_hook=_distinct_keys, parse_int=_json_int)
    except OSError as exc:
        raise DomainError("cannot read fixture %s: %s" % (_echo(path), exc.strerror or exc)) from None
    except DomainError:
        raise
    except (ValueError, RecursionError) as exc:  # malformed, undecodable or nested too deep
        raise DomainError("fixture %s is not JSON: %s" % (_echo(path), exc)) from None
    if not isinstance(obj, dict):
        raise DomainError("a fixture must be a JSON object")
    if obj.get("kind") == "sa_depth_rule":
        c = obj.get("c")
        if type(c) not in (int, float):
            raise DomainError("the sa_depth_rule fixture needs a number 'c'")
        return sa_depth_fixture(float(c))
    images, n = obj.get("images"), obj.get("n")
    if not isinstance(images, dict) or type(n) is not int or n < 1:
        raise DomainError("a fixture needs an 'images' object and a positive integer 'n'")
    out = {}
    for lit, m in images.items():
        w = parse_word(lit)
        if w in out:
            raise DomainError("the fixture gives the image of %s twice" % _echo(w))
        out[w] = _image_from_json(lit, m)
    return GeneratorAssignment(n=n, images=out)


def _image_from_json(lit: str, m):
    if not isinstance(m, dict) or "re" not in m or "im" not in m:
        raise DomainError("the image of %s needs 're' and 'im'" % _echo(lit))
    try:
        re, im = np.asarray(m["re"], dtype=float), np.asarray(m["im"], dtype=float)
    except (TypeError, ValueError):
        raise DomainError("the image of %s is not a numeric matrix" % _echo(lit)) from None
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise DomainError("the image of %s has an entry that is not finite" % _echo(lit))
    return re + 1j * im


def displayed_block_relation() -> tuple[GramMatrix, GramMatrix]:
    """The 2 x 2 basic relation on which the fixture fails."""
    lower = gram((parse_word("(-2,3)"), parse_word("(-3,4)")))
    upper = gram((parse_word("(-1,3)"), parse_word("(-2,4)")))
    return lower, upper


# -- deterministic relation pools ---------------------------------------------


def sa_pool(within: str):
    """Selfadjoint elements of the tagged semigroup, from small factors."""
    out = set()
    for u in iter_words(7):
        for n in (u.star * u, u.star * UNIT_MINUS * u, u.star * UNIT_PLUS * u):
            if member(n, within):
                out.add(n)
    return sorted(out)


def _check_count(count: int) -> None:
    if not 0 <= count <= RELATION_CAP:
        raise DomainError(
            "a sample of %s relations is negative or exceeds the cap of %d" % (_echo(count), RELATION_CAP)
        )


def scalar_relations(count: int, seed: int, within: str = "D1"):
    """Deterministic sample of basic order pairs (n, successor)."""
    _check_count(count)
    pool = [(n, m) for n in sa_pool(within) for m in sorted(hollow_successors(n))]
    rng = random.Random(seed)
    if count <= len(pool):
        return rng.sample(pool, count)
    return [rng.choice(pool) for _ in range(count)]


def matrix_relations(count: int, seed: int, ks=(2, 3), entry_weight: int = 4):
    """Deterministic sample of basic matrix relations (G, successor).

    At every k the first word is drawn uniformly among the words whose own
    cell w* w lies in D1, and each later word uniformly among those with
    the first word's tau: the words whose cells with themselves and with
    every word drawn so far lie in D1.  For two words whose own cells are in
    D1, u* v is in D1 exactly when tau(u) = tau(v), since by
    ``GramMatrix.tagged`` gram((u, v)) is in D1 iff tau(u) = tau(v) = t and
    the bounds on 1 + t that gram((u,)) and gram((v,)) in D1 give hold.  So
    each word, not the whole vector, is uniform.  A vector with no successor
    is drawn again, up to 100 draws a relation (at least 100,000 in all).

    Draws repeat: at entry weight 4 the 15 diagonal words fall into classes
    of at most 3 words per tau and first sign.  So a dict local to the call
    maps each drawn vector whose entries all start with one sign to its
    Gram matrix and sorted successors, or to None when it has none, and
    each such vector is built once a call.  A vector whose entries start
    with both signs is the only factorization of its Gram matrix (see
    ``factor_gram``), so it has no successor (see ``matrix_successors``):
    it is drawn again with no Gram matrix built and nothing stored.  Past
    ``matrix.K_CAP`` it is built all the same, so that
    ``matrix_successors`` refuses its rank as it refuses every draw of it.
    The table changes no call of the random stream, so the relations and
    their witnesses are those of building every draw afresh.

    Memory.  A stored vector with successors was accepted when it was first
    drawn, so the dict holds at most ``count`` successor lists, each of at
    most 2 (2^k - 1) matrices, the successors of its two factorizations.
    Every other entry is a key of k words of the diagonal and None.  The
    CLI caps count times 2^k at ``cli.KORDER_WORK_CAP`` = 5,120, so there
    the lists hold at most 10,240 successors.
    """
    _check_count(count)
    if not ks:
        raise DomainError("matrix relations need at least one rank k")
    if min(ks) < 1:
        raise DomainError("a rank k must be at least 1, got k = %d" % min(ks))
    if entry_weight < 1:
        raise DomainError("the entry weight must be at least 1, got %d" % entry_weight)
    diagonal = [w for w in iter_words(entry_weight) if member(w.star * w, "D1")]
    classes = {t: [w for w in diagonal if w.tau == t] for t in {w.tau for w in diagonal}}
    rng = random.Random(seed)
    drawn = {}  # vector -> (gram, sorted successors), or None when it has none
    out = []
    attempts, draws = 0, max(100000, 100 * count)
    while len(out) < count and attempts < draws:
        attempts += 1
        k = rng.choice(ks)
        u = rng.choice(diagonal)
        vec = (u, *[rng.choice(classes[u.tau]) for _ in range(k - 1)])
        if vec not in drawn:
            if k <= K_CAP and len({w[0] > 0 for w in vec}) == 2:
                continue  # mixed first signs: no successor
            g = gram(vec)
            succ = sorted(matrix_successors(g), key=lambda x: x.cells)
            drawn[vec] = (g, succ) if succ else None
        if drawn[vec]:
            g, succ = drawn[vec]
            out.append((g, rng.choice(succ)))
    if len(out) < count:
        raise DomainError("could not sample enough matrix relations")
    return out
