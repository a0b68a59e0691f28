"""Numeric verification at concrete matrix partial isometries.

Words evaluate to products of powers of a matrix v and its adjoint;
order relations then turn into positive-semidefiniteness of differences,
checked with a Hermitian eigensolver.  Default tolerances: 1e-9 for PSD
acceptance, 1e-12 for algebraic identities (double precision eigensolves
on matrices up to 64 x 64 resolve Hermitian spectra well below 1e-11 of
the norm).

Each verify call certifies its whole batch at once.  Its words are
evaluated from one set of power tables v^j, (v*)^j, grown by repeated
multiplication and dropped when the call returns.  The differences are
stacked, and one eigensolve on their Hermitian parts (m + m*)/2 gives
every minimum eigenvalue.  A difference passes when its skew part has
spectral norm ||m - m*||_2 <= tol and its minimum eigenvalue is >= -tol.
The skew check first takes the Frobenius norm, which is never below the
spectral norm: a skew part whose Frobenius norm is within tol (less a
relative 1e-12, far above the rounding of either norm, so that near-ties
go to the SVD) has spectral norm within tol, and every other one gets the
exact SVD norm.  So acceptance is exactly the per-matrix SVD-and-eigensolve
check; the conjugation identity uses the same prefilter for its residuals.
Batches are cut so that one stack holds at most 2^18 entries.

Also houses generator assignments: multiplicative *-maps on the
prefix-sum-nonpositive subsemigroup given by images of its free
generators.  The committed counterexample fixture (an order-preserving
scalar assignment whose 2-amplification fails) lives here as a rule,
because any truly finite-support order-preserving assignment with a
nonzero image of (-4,4) provably cannot exist; see
scripts/find_order_fixture.py.
"""

import json
import random
from functools import reduce as _fold

import numpy as np

from .matrix import GramMatrix, gram, matrix_successors
from .maps import alpha, is_irr_plus
from .order import hollow_depth, hollow_successors, square_hollow
from .structure import factor_a0
from .words import (
    UNIT_MINUS,
    UNIT_PLUS,
    DomainError,
    Word,
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


class InvalidRepError(ValueError):
    """The supplied matrix is not a partial isometry within tolerance."""


def matrix_to_json(m) -> str:
    m = np.asarray(m, dtype=complex)
    return json.dumps({"n": m.shape[0], "re": m.real.tolist(), "im": m.imag.tolist()})


def matrix_from_json(text: str):
    obj = json.loads(text)
    m = np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)
    if m.shape != (obj["n"], obj["n"]):
        raise DomainError("matrix JSON shape mismatch")
    return m


def opnorm(m) -> float:
    return float(np.linalg.norm(np.asarray(m, dtype=complex), 2))


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

    def defect(self) -> float:
        v = np.asarray(self.v, dtype=complex)
        return opnorm(v @ v.conj().T @ v - v)

    def is_valid(self) -> bool:
        return self.defect() <= IDENTITY_TOL

    @classmethod
    def checked(cls, v) -> "PartialIsometryRep":
        rep = cls(np.asarray(v, dtype=complex))
        if not rep.is_valid():
            raise InvalidRepError("||v v* v - v|| = %.3e exceeds %.1e" % (rep.defect(), IDENTITY_TOL))
        return rep


def random_partial_isometry(n: int, seed: int) -> PartialIsometryRep:
    """Deterministic random partial isometry: unitary factors of a random
    complex matrix glued across a random-rank cut."""
    if n < 1:
        raise DomainError("dimension must be positive")
    if n > DIM_CAP:
        raise DomainError("dimension %d exceeds cap %d" % (n, DIM_CAP))
    if seed < 0:
        raise DomainError("seed must be nonnegative, got %d" % seed)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u, _, vh = np.linalg.svd(z)
    r = int(rng.integers(0, n + 1))
    v = u[:, :r] @ vh[:r, :] if r else np.zeros((n, n), dtype=complex)
    return PartialIsometryRep.checked(v)


class _Powers:
    """Power tables v^j and (v*)^j, grown by repeated multiplication up to
    the largest exponent asked for."""

    def __init__(self, v):
        v = np.asarray(v, dtype=complex)
        self.up = [None, v]
        self.down = [None, v.conj().T]

    def power(self, e: int):
        table = self.up if e > 0 else self.down
        j = abs(e)
        while len(table) <= j:
            table.append(table[-1] @ table[1])
        return table[j]


def eval_word(rep, w: Word):
    """Product of powers: entry k > 0 contributes v^k, k < 0 gives (v*)^-k.

    ``rep`` is a PartialIsometryRep, or the power tables that a verify call
    shares across its words.
    """
    power = (rep if isinstance(rep, _Powers) else _Powers(rep.v)).power
    out = power(w[0])
    for e in w[1:]:
        out = out @ power(e)
    return out


def min_eig(m) -> float:
    h = np.asarray(m, dtype=complex)
    h = (h + h.conj().T) / 2
    return float(np.linalg.eigvalsh(h)[0])


# Relative slack on the Frobenius prefilter; see the module docstring.
_FRO_SLACK = 1 - 1e-12
_BATCH_ENTRIES = 1 << 18


def _norms_over(stack, tol: float):
    """(i, ||stack[i]||_2) for every i whose spectral norm exceeds tol; the
    SVD runs only where the Frobenius norm does not already settle it."""
    re, im = stack.real, stack.imag
    fro = np.sqrt(np.einsum("kij,kij->k", re, re) + np.einsum("kij,kij->k", im, im))
    out = []
    for i in np.flatnonzero(~(fro <= tol * _FRO_SLACK)):
        norm = opnorm(stack[i])
        if norm > tol:
            out.append((i, norm))
    return out


def _certify(diffs, tol: float):
    """PSD verdicts and minimum eigenvalues of a stack of square differences
    m: skew part m - m* within tol in spectral norm, and the minimum
    eigenvalue of (m + m*)/2 at least -tol."""
    adj = np.conjugate(diffs.transpose(0, 2, 1))
    herm = diffs + adj
    herm *= 0.5
    eigs = np.linalg.eigvalsh(herm)[:, 0]
    ok = eigs >= -tol
    adj -= diffs  # the skew part, negated
    for i, _ in _norms_over(adj, tol):
        ok[i] = False
    return ok, eigs


def _batches(items, dim: int, diff):
    """(batch, stack of diff(item) over the batch), the items in order, cut
    so that a stack of dim x dim matrices stays within _BATCH_ENTRIES."""
    size = max(1, _BATCH_ENTRIES // (dim * dim))
    for start in range(0, len(items), size):
        batch = items[start : start + size]
        stack = np.empty((len(batch), dim, dim), dtype=complex)
        for r, item in enumerate(batch):
            stack[r] = diff(item)
        yield batch, stack


def _certified(items, dim: int, diff, describe, tol: float) -> "Report":
    """Certify diff(item) >= 0 for every item, one eigensolve per batch.

    Finite inputs make a value that is not finite only by an overflow,
    which is a DomainError here rather than a numpy warning: a generator
    assignment may have images large enough for it.
    """
    items = list(items)
    rpt = Report(len(items))
    try:
        with np.errstate(over="raise", invalid="raise"):
            for batch, diffs in _batches(items, dim, diff):
                ok, eigs = _certify(diffs, tol)
                for i in np.flatnonzero(~ok):
                    rpt.failures.append({"relation": describe(batch[i]), "min_eig": float(eigs[i])})
    except FloatingPointError as exc:
        raise DomainError("the relations do not evaluate in double precision: %s" % exc) from None
    return rpt


def psd_check(m, tol: float = PSD_TOL) -> bool:
    """Hermitian within tol and minimum eigenvalue >= -tol."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError("psd_check needs a square matrix")
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
        lambda p: ev(p[1]) - ev(p[0]),
        lambda p: "%s <= %s" % (format_word(p[0]), format_word(p[1])),
        tol,
    )


def _block_eval(ev, g: GramMatrix, n: int):
    out = np.empty((g.k * n, g.k * n), dtype=complex)
    for i, row in enumerate(g.cells):
        for j, w in enumerate(row):
            out[i * n : (i + 1) * n, j * n : (j + 1) * n] = ev(w)
    return out


def verify_k_order(rep_or_assign, k: int, relations, tol: float = PSD_TOL) -> Report:
    """PSD-check the k n x k n block differences of basic matrix relations."""
    ev = _evaluator(rep_or_assign)
    n = rep_or_assign.n
    if k * n > DIM_CAP:
        raise DomainError("block dimension %d exceeds cap %d" % (k * n, DIM_CAP))
    relations = list(relations)
    for lower, upper in relations:
        if lower.k != k or upper.k != k:
            raise DomainError("relation rank differs from k = %d" % k)
    return _certified(
        relations,
        k * n,
        lambda r: _block_eval(ev, r[1], n) - _block_eval(ev, r[0], n),
        lambda r: {"lower": json.loads(r[0].to_json()), "upper": json.loads(r[1].to_json())},
        tol,
    )


def verify_schwarz(rep: PartialIsometryRep, samples, tol: float = PSD_TOL) -> Report:
    """Check eval(alpha(a* a)) - eval(alpha(a))* eval(alpha(a)) is PSD."""
    ev = _evaluator(rep)

    def diff(a):
        img = ev(alpha(a))
        return ev(alpha(a.star * a)) - img.conj().T @ img

    return _certified(samples, rep.n, diff, lambda a: "schwarz at %s" % format_word(a), tol)


def verify_conjugation(rep: PartialIsometryRep, samples) -> Report:
    """Check v* eval(n) v agrees with eval of the conjugated word, to
    CONJUGATION_TOL in spectral norm."""
    ev = _evaluator(rep)
    v = np.asarray(rep.v, dtype=complex)
    vs = v.conj().T
    samples = list(samples)
    rpt = Report(len(samples))
    for batch, residuals in _batches(samples, rep.n, lambda n_word: vs @ ev(n_word) @ v - ev(alpha(n_word))):
        for i, residual in _norms_over(residuals, CONJUGATION_TOL):
            rpt.failures.append({"relation": "conjugation at %s" % format_word(batch[i]), "residual": residual})
    return rpt


# -- generator assignments ----------------------------------------------------


class GeneratorAssignment:
    """Images of the free generators of the prefix-sum-nonpositive words.

    ``images`` is a finite table; ``rule`` (optional) computes images for
    generators outside it; anything else maps to zero.  The unit (-1,1)
    always maps to the identity.
    """

    __slots__ = ("n", "images", "rule")

    def __init__(self, n: int, images: dict | None = None, rule=None):
        self.n = n
        self.images = {} if images is None else images
        self.rule = rule
        for g, m in self.images.items():
            m = np.asarray(m, dtype=complex)
            if m.shape != (self.n, self.n):
                raise DomainError("image of %s has wrong shape" % format_word(g))
            self.images[g] = m
            if not is_irr_plus(g) or g == UNIT_PLUS:
                raise DomainError("%s is not a non-unit plus-irreducible" % format_word(g))
        for g, m in self.images.items():
            other = self.images.get(g.star)
            if other is None:
                continue
            with np.errstate(over="ignore"):  # an overflowed gap is not finite, so refused
                gap = other - m.conj().T
            if not (np.isfinite(gap).all() and opnorm(gap) <= IDENTITY_TOL):
                raise DomainError("star-incompatible images at %s" % format_word(g))

    def image(self, g: Word):
        if g == UNIT_PLUS:
            return np.eye(self.n, dtype=complex)
        if g in self.images:
            return self.images[g]
        if self.rule is not None:
            return np.asarray(self.rule(g), dtype=complex)
        return np.zeros((self.n, self.n), dtype=complex)

    def __call__(self, d: Word):
        """Evaluate a word of the generated subsemigroup multiplicatively."""
        if not member(d, "D0"):
            raise DomainError("assignments evaluate D0 words only, got %s" % format_word(d))
        return _fold(lambda a, b: a @ b, (self.image(f) for f in factor_a0(d)))


def _evaluator(rep_or_assign):
    """Per-call memoized evaluation; relation batches reuse many cells, and
    at a partial isometry all words share one set of power tables."""
    if isinstance(rep_or_assign, PartialIsometryRep):
        powers = _Powers(rep_or_assign.v)
        base = lambda w: eval_word(powers, w)
    elif isinstance(rep_or_assign, GeneratorAssignment):
        base = rep_or_assign
    else:
        raise DomainError("expected a partial isometry rep or a generator assignment")
    cache: dict[Word, np.ndarray] = {}

    def ev(w):
        out = cache.get(w)
        if out is None:
            out = cache[w] = base(w)
        return out

    return ev


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
            what = "the image of " + key if key.startswith("(") else repr(key)
            raise DomainError("the fixture gives %s twice" % what)
        obj[key] = value
    return obj


def load_assignment(path) -> GeneratorAssignment:
    """Read an assignment file; an unreadable or malformed one is a DomainError."""
    try:
        with open(path) as fh:
            obj = json.load(fh, object_pairs_hook=_distinct_keys)
    except OSError as exc:
        raise DomainError("cannot read fixture %s: %s" % (path, exc.strerror or exc)) from None
    except DomainError:
        raise
    except ValueError as exc:
        raise DomainError("fixture %s is not JSON: %s" % (path, exc)) from None
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
            raise DomainError("the fixture gives the image of %s twice" % format_word(w))
        out[w] = _image_from_json(lit, m)
    return GeneratorAssignment(n=n, images=out)


def _image_from_json(lit: str, m):
    if not isinstance(m, dict) or "re" not in m or "im" not in m:
        raise DomainError("the image of %s needs 're' and 'im'" % lit)
    try:
        re, im = np.asarray(m["re"], dtype=float), np.asarray(m["im"], dtype=float)
    except (TypeError, ValueError):
        raise DomainError("the image of %s is not a numeric matrix" % lit) from None
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise DomainError("the image of %s has an entry that is not finite" % lit)
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
        raise DomainError("a sample of %d relations is negative or exceeds the cap of %d" % (count, RELATION_CAP))


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

    At every k the words are drawn one at a time, each uniformly among those
    whose cells with itself and with every word drawn so far lie in D1 (one
    cell of each pair suffices: v* u is the star of u* v, and D1 is closed
    under star).  So each word, not the whole vector, is uniform.
    """
    _check_count(count)
    words = list(iter_words(entry_weight))
    # D1 membership of every Gram cell u* v, so that a draw is made by
    # lookups and only a complete vector builds its matrix
    in_d1 = {(u, v): member(u.star * v, "D1") for u in words for v in words}
    diagonal = [w for w in words if in_d1[w, w]]
    rng = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < count and attempts < 100000:
        attempts += 1
        k = rng.choice(ks)
        vec, cands = [], diagonal
        while len(vec) < k:  # each drawn word stays in cands: its own cell is in D1
            u = rng.choice(cands)
            vec.append(u)
            cands = [v for v in cands if in_d1[u, v]]
        g = gram(vec)
        succ = sorted(matrix_successors(g), key=lambda x: x.cells)
        if not succ:
            continue
        out.append((g, rng.choice(succ)))
    if len(out) < count:
        raise DomainError("could not sample enough matrix relations")
    return out
