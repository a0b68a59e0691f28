import json
import random
import time
import tracemalloc
import types
import warnings

import numpy as np
import pytest

import pisom.numeric as numeric
from pisom.maps import alpha
from pisom.matrix import GramMatrix, gram, matrix_successors
from pisom.numeric import (
    IDENTITY_TOL,
    PSD_TOL,
    RELATION_CAP,
    _certify,
    GeneratorAssignment,
    InvalidRepError,
    PartialIsometryRep,
    Report,
    displayed_block_relation,
    eval_word,
    load_assignment,
    matrix_relations,
    matrix_to_json,
    opnorm,
    psd_check,
    random_partial_isometry,
    sa_depth_fixture,
    sa_pool,
    scalar_relations,
    verify_conjugation,
    verify_k_order,
    verify_order_rep,
    verify_schwarz,
)
from pisom.order import hollow_successors, leq, square_hollow
from pisom.structure import enum_irr
from pisom.words import UNIT_MINUS, UNIT_PLUS, DomainError, Word, iter_words, member, parse_word, reduce_word

from conftest import ref

W = parse_word

E12 = np.array([[0, 1], [0, 0]], dtype=complex)


@pytest.fixture(scope="module")
def rep():
    return random_partial_isometry(4, 7)


# -- evaluation -----------------------------------------------------------------


def test_eval_matrix_unit():
    r = PartialIsometryRep.checked(E12)
    assert np.allclose(eval_word(r, UNIT_MINUS), np.diag([1, 0]))
    assert np.allclose(eval_word(r, UNIT_PLUS), np.diag([0, 1]))


def test_eval_congruence_invariance(rep):
    raw_cases = [(1, -1, 1), (2, -1, 2, -1), (-3, 3, 2, -2), (1, -1, 1, -1)]
    for raw in raw_cases:
        v = np.asarray(rep.v)
        vs = v.conj().T
        direct = None
        for e in raw:
            m = np.linalg.matrix_power(v if e > 0 else vs, abs(e))
            direct = m if direct is None else direct @ m
        assert opnorm(direct - eval_word(rep, reduce_word(raw))) <= 1e-12


def test_eval_contractive():
    for seed in range(20):
        r = random_partial_isometry(1 + seed % 6, seed)
        for w in list(iter_words(5))[::7]:
            assert opnorm(eval_word(r, w)) <= 1 + 1e-12


@pytest.mark.parametrize("seed", [0, 3, 4])
def test_a_huge_exponent_keeps_no_table_of_powers(seed):
    # rank 1 at seed 0 and 2 at seeds 3 and 4: a power from 64 on is taken by
    # repeated squaring, so it returns or is refused at once and keeps no
    # power but itself; at rank 2, v^(10^4000) overflows at seed 3 and
    # underflows to 0 at seed 4
    rep = random_partial_isometry(2, seed)
    for e in (64, 100, 1000):
        assert opnorm(eval_word(rep, Word((e,))) - np.linalg.matrix_power(rep.v, e)) <= 1e-12
    for e in (10**5, -(10**5), 10**4000):
        w = Word((e,))
        tracemalloc.start()
        start = time.perf_counter()
        try:
            assert np.isfinite(eval_word(rep, w)).all()
        except DomainError as exc:
            assert str(exc).startswith("eval_word: the word does not evaluate in double precision")
        finally:
            seconds = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert seconds < 1 and peak < 2**14, (seed, len(str(e)), seconds, peak)


def test_eval_representation_laws(rep):
    ws = list(iter_words(4))[::5]
    for a in ws[:8]:
        for b in ws[8:16]:
            assert opnorm(eval_word(rep, a * b) - eval_word(rep, a) @ eval_word(rep, b)) <= 1e-12
        assert opnorm(eval_word(rep, a.star) - eval_word(rep, a).conj().T) <= 1e-12


def _reference_words():
    """Selfadjoint D1 words, their alpha images and the cells of sampled
    k = 2, 3 relations: long halves, shared suffixes and short cells."""
    sa = sa_pool("D1")
    cells = [c for lo, up in matrix_relations(20, 3, ks=(2, 3)) for g in (lo, up) for row in g.cells for c in row]
    return list(dict.fromkeys(sa + [alpha(w) for w in sa] + cells))


@pytest.mark.parametrize("n", [1, 2, 5, 16, 21, 64])
def test_images_agree_with_the_left_to_right_reference(n):
    """Each image is within the module docstring's (W - 1) d g(d) of the
    exact one, and so is the reference's: they differ by at most twice it."""
    rep = random_partial_isometry(n, 100 + n)
    tables = ref.PowerTables(rep.v)
    for w in _reference_words():
        weight = sum(abs(e) for e in w)
        error = np.linalg.norm(eval_word(rep, w) - tables.word(w))
        assert error <= 2 * (weight - 1) * n * _g(n)


@pytest.mark.parametrize("n", [4, 7, 20])
def test_images_at_truncated_shifts_are_exact(n):
    shift = PartialIsometryRep.checked(ref.shift_matrix((1,), n))
    tables = ref.PowerTables(shift.v)
    for w in _reference_words():
        assert np.array_equal(eval_word(shift, w), tables.word(w))


def test_a_verify_call_certifies_the_images_of_eval_word(monkeypatch):
    """Within a call the images share suffixes and halves; each is still
    bit for bit the image a fresh eval_word gives."""
    seen = []
    inner = numeric._Images.image

    def recorded(images, w):
        out = inner(images, w)
        seen.append((w, out))
        return out

    monkeypatch.setattr(numeric._Images, "image", recorded)
    pairs = scalar_relations(40, 11)
    samples = [n for n, _ in pairs]
    for rep in (random_partial_isometry(5, 4), random_partial_isometry(16, 9)):
        seen.clear()
        verify_order_rep(rep, pairs)
        verify_schwarz(rep, samples)
        verify_conjugation(rep, samples)
        for k in (2, 3):
            verify_k_order(rep, k, matrix_relations(8, 20 + k, ks=(k,)))
        assert len(seen) > 100
        for w, image in seen[:]:
            assert np.array_equal(image, eval_word(rep, w))


_CALLS_AT_A_REP = {
    "order": lambda rep: verify_order_rep(rep, scalar_relations(3, 1)),
    "schwarz": lambda rep: verify_schwarz(rep, [UNIT_MINUS]),
    "conjugation": lambda rep: verify_conjugation(rep, [UNIT_MINUS]),
    "k_order": lambda rep: verify_k_order(rep, 1, matrix_relations(2, 1, ks=(1,))),
    "eval_word": lambda rep: eval_word(rep, UNIT_MINUS),
}


@pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0, -np.inf)])
@pytest.mark.parametrize("call", _CALLS_AT_A_REP)
def test_a_v_that_is_not_finite_is_refused(call, entry):
    rep = PartialIsometryRep(np.array([[0.5, entry], [0.0, 0.5]]))
    with pytest.raises(DomainError, match=r"^the matrix v has an entry that is not finite$"):
        _CALLS_AT_A_REP[call](rep)


@pytest.mark.parametrize("call", _CALLS_AT_A_REP)
def test_images_that_overflow_are_refused(call):
    rep = PartialIsometryRep(np.array([[1e200]]))
    what = "eval_word: the word does" if call == "eval_word" else "the relations do"
    with pytest.raises(DomainError, match=r"^%s not evaluate in double precision: overflow" % what):
        _CALLS_AT_A_REP[call](rep)


# -- psd ------------------------------------------------------------------------------


def test_psd_examples():
    assert psd_check(np.diag([1.0, 0.0]))
    assert not psd_check(np.diag([1.0, -1.0]))
    block = np.array([[1.0, 0.5], [0.5, 0.0]])
    assert not psd_check(block)
    assert not psd_check(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not Hermitian


# -- partial isometries ---------------------------------------------------------------


def test_random_partial_isometry_deterministic():
    a = random_partial_isometry(2, 7)
    b = random_partial_isometry(2, 7)
    assert np.array_equal(a.v, b.v)


def test_random_partial_isometry_validity():
    for seed in range(1000):
        r = random_partial_isometry(1 + seed % 8, seed)
        assert opnorm(r._residual()) <= 1e-12


def test_rank_zero_accepted():
    seeds = [s for s in range(100) if not np.any(random_partial_isometry(2, s).v)]
    assert seeds, "no rank-zero draw in 100 seeds"


def test_invalid_rep_rejected():
    with pytest.raises(InvalidRepError):
        PartialIsometryRep.checked(1.3 * E12)


# -- verification ----------------------------------------------------------------------


def test_verify_order_rep_chain():
    r = PartialIsometryRep.checked(E12)
    pairs = [(Word((-k, k)), Word((-k + 1, k - 1))) for k in range(2, 7)]
    for a, b in pairs:
        assert leq(a, b)
    assert verify_order_rep(r, pairs).ok


def test_verify_order_rep_random():
    pairs = scalar_relations(50, 2)
    for seed in range(30):
        r = random_partial_isometry(1 + seed % 6, seed)
        assert verify_order_rep(r, pairs).ok


def test_verify_order_rep_sabotage():
    bad = PartialIsometryRep(np.array([[1.3]], dtype=complex))
    assert opnorm(bad._residual()) > IDENTITY_TOL
    pairs = [(Word((-2, 2)), Word((-1, 1)))]
    rpt = verify_order_rep(bad, pairs)
    assert rpt.failures and rpt.failures[0]["min_eig"] < -1e-9


# -- separation and faithfulness ------------------------------------------------------


def test_scalar_order_is_the_operator_order_at_partial_isometries():
    # on the 82 selfadjoint D1 words of weight <= 18 (each is w* w for its
    # minimal factor w, of weight <= 9), leq is exactly the operator order
    # at seeded partial isometries of dimension 2..4: every pair below
    # stays PSD at all 30 of them, and every other pair is refuted, its
    # difference having an eigenvalue below -PSD_TOL at one of them.  A
    # refuted pair is not evaluated again; eigensolves run one batch a rep.
    sa = sorted(n for n in {w.star * w for w in iter_words(9)} if member(n, "D1"))
    assert len(sa) == 82
    lo, hi = np.nonzero(~np.eye(len(sa), dtype=bool))
    below = np.array([leq(sa[i], sa[j]) for i, j in zip(lo, hi)])
    assert (below.sum(), (~below).sum()) == (371, 6271)
    worst = np.zeros(len(lo))
    pending = np.ones(len(lo), dtype=bool)
    for seed in range(30):
        rep = random_partial_isometry(2 + seed % 3, seed)
        ev = np.array([eval_word(rep, w) for w in sa])
        idx = np.flatnonzero(pending)
        worst[idx] = np.minimum(worst[idx], np.linalg.eigvalsh(ev[hi[idx]] - ev[lo[idx]])[:, 0])
        pending &= below | (worst >= -PSD_TOL)
    assert worst[below].min() >= -PSD_TOL
    assert worst[~below].max() < -PSD_TOL


def test_reduced_words_evaluate_apart():
    # evaluation is faithful on the 462 reduced words of weight <= 10: one
    # seeded partial isometry of dimension 6 tells every two apart, by an
    # entry that differs by more than 0.009 (0.0099 at the closest pair)
    words = list(iter_words(10))
    assert len(words) == 462
    rep = random_partial_isometry(6, 1)
    x = np.array([eval_word(rep, w).ravel() for w in words])
    gap = min(np.abs(x[i + 1 :] - x[i]).max(axis=1).min() for i in range(len(words) - 1))
    assert gap > 0.009


def test_verify_k_order_basic(rep):
    rels2 = [r for r in matrix_relations(12, 5, ks=(2,))]
    assert verify_k_order(rep, 2, rels2).ok
    lower, upper = displayed_block_relation()
    assert verify_k_order(rep, 2, [(lower, upper)]).ok


def test_verify_k_order_matches_scalar(rep):
    pairs = scalar_relations(30, 4)
    from pisom.order import sa_factor_min

    rels = [
        (gram((sa_factor_min(a),)), gram((sa_factor_min(b),)))
        for a, b in pairs
    ]
    assert verify_k_order(rep, 1, rels).ok == verify_order_rep(rep, pairs).ok


def sequential_matrix_relations(count, seed, ks, entry_weight=4):
    """The sampler's contract with Gram matrices in place of the lookup
    table: each word uniformly among those that keep the Gram matrix of the
    vector so far in D1."""
    words = list(iter_words(entry_weight))
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        k = rng.choice(ks)
        vec = ()
        while len(vec) < k:
            cands = [w for w in words if gram(vec + (w,)).tagged("D1")]
            if not cands:
                break
            vec += (rng.choice(cands),)
        if len(vec) < k:
            continue
        g = gram(vec)
        succ = sorted(matrix_successors(g), key=lambda x: x.cells)
        if succ:
            out.append((g, rng.choice(succ)))
    return out


# the wide ranks come first, so that ks0..ks3 keep naming them
@pytest.mark.parametrize("ks", [(4,), (5,), (8,), (3, 6), (1,), (2,), (3,), (2, 3)])
def test_matrix_relations_draw_wide_vectors_compatibly(ks):
    for entry_weight in (4, 3, 6) if ks in [(1,), (3,), (2, 3)] else (4,):
        for seed in range(2):
            got = matrix_relations(4, seed, ks=ks, entry_weight=entry_weight)
            want = sequential_matrix_relations(4, seed, ks, entry_weight)
            assert got == want
            assert [(lo.witness, hi.witness) for lo, hi in got] == [(lo.witness, hi.witness) for lo, hi in want]
            for lo, hi in got:
                assert lo.k in ks and lo.tagged("D1") and hi in matrix_successors(lo)


def test_d1_cells_of_d1_diagonal_words_are_the_tau_classes():
    # the rule matrix_relations draws by, over the whole space and against
    # the independent reducer: for two words whose own cells are in D1,
    # the cell u* v is in D1 exactly when u and v have the same tau
    diagonal = [w for w in ref.reduced_words(6) if ref.in_d1(ref.prod(ref.star(w), w))]
    in_d1 = [(u, v) for u in diagonal for v in diagonal if ref.in_d1(ref.prod(ref.star(u), v))]
    assert in_d1 == [(u, v) for u in diagonal for v in diagonal if sum(u) == sum(v)]
    assert (len(diagonal), len(in_d1)) == (37, 249)


def test_relation_pools_stay_in_their_tag():
    # scalar_relations pairs each pool element with all its successors:
    # hollowing leaves neither D0 nor D1
    for within, size in (("D0", 25), ("D1", 52)):
        pool = sa_pool(within)
        assert len(pool) == size
        for n in pool:
            for m in hollow_successors(n):
                assert member(m, within), (n, m)


@pytest.mark.parametrize("count", [-1, RELATION_CAP + 1])
def test_relation_samples_refuse_bad_counts(count):
    for sample in (scalar_relations, matrix_relations):
        with pytest.raises(DomainError, match="negative or exceeds the cap"):
            sample(count, 0)


def test_matrix_relations_draw_in_proportion_to_the_count(monkeypatch):
    # with four diagonal words of fifteen having a successor, 30,000
    # relations take more than a fixed 100,000 draws, within 100 a
    # relation, and the sampler stops at the draw of the 30,000th; with no
    # draw having one it gives up after exactly 100,000.  At k = 1 a draw
    # is the choice of its rank, then of its word, then, when the word has
    # a successor, of that successor
    ks = (1,)
    drawn, picks = [], []

    class Counted(random.Random):
        def choice(self, seq):
            pick = super().choice(seq)
            if seq is not ks:
                (picks if isinstance(pick, GramMatrix) else drawn).append(pick)
            return pick

    monkeypatch.setattr(numeric, "random", types.SimpleNamespace(Random=Counted))
    diagonal = [w for w in iter_words(4) if member(w.star * w, "D1")]
    assert len(diagonal) == 15
    upward = set(diagonal[:4])
    monkeypatch.setattr(numeric, "matrix_successors", lambda g: {g} if g.witness[0] in upward else set())
    got = matrix_relations(30000, 0, ks=ks)
    assert [lo.witness for lo, _ in got] == [(w,) for w in drawn if w in upward]
    assert all(lo == hi for lo, hi in got) and [hi for _, hi in got] == picks
    assert len(got) == 30000 and drawn[-1] in upward and 100000 < len(drawn) <= 100 * 30000
    drawn.clear()
    monkeypatch.setattr(numeric, "matrix_successors", lambda g: set())
    with pytest.raises(DomainError, match="^could not sample enough matrix relations$"):
        matrix_relations(1, 0, ks=ks)
    assert len(drawn) == 100000


def sampled_afresh(count, seed, ks, entry_weight=4, drawn=None):
    """The sampling loop of matrix_relations with every draw built afresh,
    its Gram matrix and sorted successors, mixed first signs included; each
    drawn vector is appended to ``drawn``."""
    diagonal = [w for w in iter_words(entry_weight) if member(w.star * w, "D1")]
    classes = {t: [w for w in diagonal if w.tau == t] for t in {w.tau for w in diagonal}}
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        k = rng.choice(ks)
        u = rng.choice(diagonal)
        vec = (u, *[rng.choice(classes[u.tau]) for _ in range(k - 1)])
        if drawn is not None:
            drawn.append(vec)
        g = gram(vec)
        succ = sorted(matrix_successors(g), key=lambda x: x.cells)
        if succ:
            out.append((g, rng.choice(succ)))
    return out


@pytest.mark.parametrize("ks", [(1,), (2,), (3,), (2, 3), (4,), (1, 2, 3)])
def test_matrix_relations_draw_as_if_afresh(ks):
    # the table of the call changes no draw: equal relations and witnesses
    for entry_weight in (3, 4, 5):
        for seed in range(60):
            got = matrix_relations(6, seed, ks=ks, entry_weight=entry_weight)
            want = sampled_afresh(6, seed, ks, entry_weight)
            assert got == want
            assert [(lo.witness, hi.witness) for lo, hi in got] == [(lo.witness, hi.witness) for lo, hi in want]


def test_matrix_relations_refuse_a_rank_past_the_cap():
    # the first draw of a rank past K_CAP is refused, whatever the signs of
    # its entries, as when every draw is built afresh
    refused = 0
    for seed in range(40):
        try:
            want = sampled_afresh(1, seed, (1, 9))
        except DomainError as exc:
            assert str(exc) == "successor enumeration capped at k = 8"
            refused += 1
            with pytest.raises(DomainError, match="^successor enumeration capped at k = 8$"):
                matrix_relations(1, seed, ks=(1, 9))
        else:
            assert matrix_relations(1, seed, ks=(1, 9)) == want
    assert 0 < refused < 40


def test_matrix_relations_build_each_uniform_sign_draw_once(monkeypatch):
    # a vector whose entries start with one sign gets its Gram matrix once
    # a call, however often it is drawn; a mixed-sign one never gets one
    built = []
    monkeypatch.setattr(numeric, "gram", lambda v: built.append(tuple(v)) or gram(v))
    repeats = mixed = 0
    for ks in ((1,), (2,), (3,), (1, 2, 3)):
        for seed in range(10):
            built.clear()
            drawn = []
            assert matrix_relations(48, seed, ks=ks) == sampled_afresh(48, seed, ks, drawn=drawn)
            uniform = [v for v in drawn if len({w[0] > 0 for w in v}) == 1]
            assert sorted(built) == sorted(set(uniform))
            repeats += len(uniform) - len(built)
            mixed += len(drawn) - len(uniform)
    assert repeats > 0 and mixed > 0


def test_verify_k_order_dim_cap():
    # k n = 66 exceeds DIM_CAP = 64 although n alone is within it
    lower, upper = displayed_block_relation()
    with pytest.raises(DomainError, match="block dimension 66 exceeds cap 64"):
        verify_k_order(random_partial_isometry(33, 0), 2, [(lower, upper)])


def test_verify_schwarz(rep):
    assert verify_schwarz(rep, [UNIT_MINUS]).ok
    samples = [p[0] for p in scalar_relations(40, 6)]
    assert verify_schwarz(rep, samples).ok
    bad = PartialIsometryRep(np.array([[1.5]], dtype=complex))
    assert not verify_schwarz(bad, [Word((-1, 1))]).ok


def test_verify_conjugation(rep):
    assert verify_conjugation(rep, [UNIT_MINUS]).ok
    samples = [p[0] for p in scalar_relations(40, 8)]
    for seed in range(10):
        r = random_partial_isometry(1 + seed % 5, seed)
        assert verify_conjugation(r, samples).ok
    # unreduced input evaluates like the normal form
    assert opnorm(
        eval_word(rep, reduce_word((1, -1, 1))) - eval_word(rep, Word((1,)))
    ) <= 1e-12


def test_verify_conjugation_reports_the_residual():
    # v = 1.5 is no partial isometry, so v* eval(n) v and eval(alpha(n))
    # part, and the failure record carries the spectral norm of the gap
    bad = PartialIsometryRep(np.array([[1.5]], dtype=complex))
    gap = 1.5 * eval_word(bad, UNIT_MINUS)[0, 0] * 1.5 - eval_word(bad, alpha(UNIT_MINUS))[0, 0]
    assert abs(gap) > 1e-3
    rpt = verify_conjugation(bad, [UNIT_MINUS])
    assert rpt.total == 1
    assert rpt.failures == [{"relation": "conjugation at (1,-1)", "residual": pytest.approx(abs(gap))}]


def test_report_merge():
    a = Report(2, [{"relation": "x", "min_eig": -1.0}])
    b = Report(3, [])
    c = a.merge(b)
    assert c.total == 5 and len(c.failures) == 1
    assert json.loads(c.to_json())["total"] == 5


def test_reports_share_no_failure_list():
    a, b = Report(), Report()
    a.failures.append({"relation": "x", "min_eig": -1.0})
    assert b.failures == [] and b == Report(0, [])
    assert a != b and a == Report(0, [{"relation": "x", "min_eig": -1.0}])


def test_matrix_json_roundtrip():
    m = np.array([[1 + 2j, 0], [0.5, -1j]])
    obj = json.loads(matrix_to_json(m))
    assert obj["n"] == 2
    assert np.allclose(m, np.asarray(obj["re"]) + 1j * np.asarray(obj["im"]))


# -- generator assignments ---------------------------------------------------------------


def test_assignment_star_compat_enforced():
    g = W("(-3,2,-3,4)")
    with pytest.raises(DomainError):
        GeneratorAssignment(
            n=1, images={g: np.array([[1.0]]), g.star: np.array([[2.0]])}
        )
    ga = GeneratorAssignment(n=1, images={g: np.array([[1.0]]), g.star: np.array([[1.0]])})
    assert ga(g * g.star)[0, 0] == 1.0
    # an image given without its star's maps the star to zero, not to the
    # adjoint, unless it is zero itself
    with pytest.raises(DomainError, match=r"^star-incompatible images at \(-3,2,-3,4\)$"):
        GeneratorAssignment(n=1, images={g: np.array([[0.5]])})
    ga = GeneratorAssignment(n=1, images={g: np.zeros((1, 1))})
    assert ga(g * g.star)[0, 0] == 0.0


def test_star_check_refuses_a_non_finite_image_without_a_warning():
    # the gap of an infinite selfadjoint image to its adjoint is inf - inf,
    # nan; NUMERIC_REFUSALS cannot hold these, as it fails any call that
    # looks up a generator's image, and the star check looks up g*'s
    g = W("(-2,2)")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for entry in (np.inf, -np.inf, np.nan, complex(0, np.inf)):
            with pytest.raises(DomainError, match=r"^star-incompatible images at \(-2,2\)$"):
                GeneratorAssignment(n=1, images={g: np.array([[entry]])})
        # a finite image whose gap squared overflows is still accepted
        GeneratorAssignment(n=1, images={g: np.array([[1e308]])})


def test_assignment_rejects_non_generators():
    with pytest.raises(DomainError):
        GeneratorAssignment(n=1, images={W("(-2,3,-3,2)"): np.array([[1.0]])})
    with pytest.raises(DomainError):
        GeneratorAssignment(n=1, images={UNIT_PLUS: np.array([[1.0]])})


def test_assignment_requires_d0():
    ga = GeneratorAssignment(n=1)
    with pytest.raises(DomainError):
        ga(UNIT_MINUS)


def test_assignments_share_no_image_table():
    a, b = GeneratorAssignment(n=1), GeneratorAssignment(n=1)
    g = W("(-3,2,-3,4)")
    a.images[g] = np.array([[1.0]])
    assert b.images == {} and b(g * g.star)[0, 0] == 0.0


def _fixture_file(tmp_path, text):
    path = tmp_path / "fixture.json"
    path.write_text(text)
    return path


_ONE_CELL = gram((W("(-1,2)"),))
# unchecked, and past DIM_CAP: no call may evaluate a word at it
_REP_65 = PartialIsometryRep(np.zeros((65, 65)))


NUMERIC_REFUSALS = {
    "negative_seed": (lambda tmp: random_partial_isometry(2, -1), "seed must be nonnegative, got -1"),
    "dimension_zero": (lambda tmp: random_partial_isometry(0, 0), "dimension must be positive"),
    "psd_check_not_square": (lambda tmp: psd_check(np.zeros((2, 3))), "psd_check needs a square matrix"),
    "psd_check_not_a_matrix": (lambda tmp: psd_check(np.zeros(3)), "psd_check needs a square matrix"),
    "psd_check_nan": (lambda tmp: psd_check(np.array([[np.nan]])), "psd_check needs a finite matrix"),
    "psd_check_inf": (lambda tmp: psd_check(np.array([[1.0, np.inf], [0.0, 1.0]])), "psd_check needs a finite matrix"),
    # finite, but its skew part overflows
    "psd_check_overflow": (
        lambda tmp: psd_check(np.array([[1.0, 1.7e308], [-1.7e308, 1.0]])),
        "psd_check: the matrix does not evaluate in double precision: overflow encountered in subtract",
    ),
    "rep_nan": (lambda tmp: PartialIsometryRep.checked([[np.nan]]), "a partial isometry needs a finite matrix"),
    "rep_inf": (lambda tmp: PartialIsometryRep.checked([[np.inf]]), "a partial isometry needs a finite matrix"),
    # finite, but v v* v overflows
    "rep_overflow": (
        lambda tmp: PartialIsometryRep.checked([[1e200, 0], [0, 0]]),
        "||v v* v - v|| = inf exceeds 1.0e-12",
    ),
    "relation_rank": (
        lambda tmp: verify_k_order(random_partial_isometry(2, 0), 2, [(_ONE_CELL, _ONE_CELL)]),
        "relation rank differs from k = 2",
    ),
    "evaluator_type": (
        lambda tmp: verify_order_rep(np.eye(2), []),
        "expected a partial isometry rep or a generator assignment",
    ),
    "eval_word_of_a_matrix": (
        lambda tmp: eval_word(np.eye(2), W("(-2,2)")),
        "expected a partial isometry rep or a generator assignment",
    ),
    "conjugation_of_an_assignment": (
        lambda tmp: verify_conjugation(GeneratorAssignment(n=1), [UNIT_MINUS]),
        "verify_conjugation needs a partial isometry rep",
    ),
    "order_rep_past_the_cap": (
        lambda tmp: verify_order_rep(_REP_65, scalar_relations(3, 1)),
        "block dimension 65 exceeds cap 64",
    ),
    "assignment_past_the_cap": (
        lambda tmp: verify_order_rep(GeneratorAssignment(n=65), scalar_relations(3, 1, within="D0")),
        "block dimension 65 exceeds cap 64",
    ),
    "k_order_past_the_cap": (
        lambda tmp: verify_k_order(_REP_65, 1, matrix_relations(2, 1, ks=(1,))),
        "block dimension 65 exceeds cap 64",
    ),
    "schwarz_past_the_cap": (lambda tmp: verify_schwarz(_REP_65, [UNIT_MINUS]), "block dimension 65 exceeds cap 64"),
    "conjugation_past_the_cap": (
        lambda tmp: verify_conjugation(_REP_65, [UNIT_MINUS]),
        "block dimension 65 exceeds cap 64",
    ),
    "image_shape": (
        lambda tmp: GeneratorAssignment(n=2, images={W("(-2,2)"): np.eye(1)}),
        "image of (-2,2) has wrong shape",
    ),
    "assignment_outside_d0": (lambda tmp: GeneratorAssignment(n=1)(W("(2,-2)")), "not in D0: (2,-2)"),
    "image_without_im": (
        lambda tmp: load_assignment(_fixture_file(tmp, '{"n": 1, "images": {"(-2,2)": {"re": [[1]]}}}')),
        "the image of (-2,2) needs 're' and 'im'",
    ),
    "no_rank": (lambda tmp: matrix_relations(1, 0, ks=()), "matrix relations need at least one rank k"),
    "rank_zero": (lambda tmp: matrix_relations(1, 0, ks=(0,)), "a rank k must be at least 1, got k = 0"),
    "rank_negative": (lambda tmp: matrix_relations(1, 0, ks=(2, -1)), "a rank k must be at least 1, got k = -1"),
    "entry_weight_zero": (
        lambda tmp: matrix_relations(3, 0, entry_weight=0),
        "the entry weight must be at least 1, got 0",
    ),
}


@pytest.mark.parametrize("name", NUMERIC_REFUSALS)
def test_numeric_refusals(monkeypatch, tmp_path, name):
    # a refusal comes before any image of a word or a generator is made
    def evaluated(*args):
        raise AssertionError("an image was made")

    monkeypatch.setattr(numeric._Images, "image", evaluated)
    monkeypatch.setattr(GeneratorAssignment, "image", evaluated)
    call, message = NUMERIC_REFUSALS[name]
    # and with no warning on the way
    with warnings.catch_warnings(), pytest.raises(DomainError) as exc:
        warnings.simplefilter("error")
        call(tmp_path)
    assert str(exc.value) == message


def test_orders_up_to_the_cap_are_certified():
    rep = random_partial_isometry(64, 3)
    pairs = scalar_relations(4, 2)
    assert verify_order_rep(rep, pairs).ok
    assert verify_schwarz(rep, [p[0] for p in pairs]).ok
    assert verify_conjugation(rep, [p[0] for p in pairs]).ok
    assert verify_k_order(rep, 1, matrix_relations(2, 1, ks=(1,))).ok


# -- the committed fixture ----------------------------------------------------------------


@pytest.fixture(scope="module")
def fixture_assignment():
    return sa_depth_fixture(0.5)


def test_fixture_key_values(fixture_assignment):
    fx = fixture_assignment
    val = lambda lit: float(fx(W(lit))[0, 0].real)
    assert val("(-4,3,-3,4)") == val("(-4,2,-2,4)") > 0
    assert val("(-4,4)") > 0
    assert val("(-3,3)") > val("(-3,2,-2,3)") > 0
    assert val("(-3,2,-3,4)") == 0.0
    assert fx.image(W("(-4,3,-2,3)"))[0, 0] == 0.0


def test_eval_word_at_an_assignment_is_the_assignment(fixture_assignment):
    for pair in scalar_relations(20, 5, within="D0"):
        for d in pair:
            assert np.array_equal(eval_word(fixture_assignment, d), fixture_assignment(d))


def test_fixture_is_order_rep_on_samples(fixture_assignment):
    pairs = scalar_relations(200, 31, within="D0")
    assert verify_order_rep(fixture_assignment, pairs).ok


def test_fixture_constraint_families(fixture_assignment):
    """(A) hollowing steps and (B) square hollowing, across whole grades."""
    fx = fixture_assignment

    def val(w):
        return 1.0 if w == UNIT_PLUS else float(fx.image(w)[0, 0].real)

    for k in range(1, 9):
        for s in enum_irr(k).elements:
            if s != UNIT_PLUS and s.is_selfadjoint():
                (succ,) = hollow_successors(s)
                assert val(s) <= val(succ) + 1e-15
            if s != UNIT_PLUS:
                assert val(s.star) * val(s) <= val(square_hollow(s)) + 1e-15


def test_fixture_fails_at_k2(fixture_assignment):
    lower, upper = displayed_block_relation()
    rpt = verify_k_order(fixture_assignment, 2, [(lower, upper)])
    assert not rpt.ok
    assert rpt.failures[0]["min_eig"] < -1e-3


def test_fixture_asset_loads(tmp_path):
    import pathlib

    asset = pathlib.Path(__file__).parent / "assets" / "order_fixture.json"
    fx = load_assignment(asset)
    lower, upper = displayed_block_relation()
    assert not verify_k_order(fx, 2, [(lower, upper)]).ok


def test_fixture_refuses_two_images_of_one_word(tmp_path):
    # (-2,1,-1,2) reduces to (-2,2): the second image would replace the first
    one = {"re": [[1]], "im": [[0]]}
    path = tmp_path / "duplicate.json"
    path.write_text(json.dumps({"n": 1, "images": {"(-2,2)": one, "(-2,1,-1,2)": one}}))
    with pytest.raises(DomainError, match=r"^the fixture gives the image of \(-2,2\) twice$"):
        load_assignment(path)


def test_fixture_refuses_a_repeated_key(tmp_path):
    # json.load alone keeps the last value given under a key, so a literal
    # given twice would pass with its second image
    one = '{"re": [[1]], "im": [[0]]}'
    path = tmp_path / "repeated.json"
    path.write_text('{"n": 1, "images": {"(-2,2)": %s, "(-2,2)": %s}}' % (one, one))
    with pytest.raises(DomainError, match=r"^the fixture gives the image of \(-2,2\) twice$"):
        load_assignment(path)
    path.write_text('{"n": 1, "n": 2, "images": {}}')
    with pytest.raises(DomainError, match=r"^the fixture gives 'n' twice$"):
        load_assignment(path)


# -- batched certification against the per-matrix check ---------------------------------


def _per_matrix_verdict(m, tol):
    """The certification as a single-matrix definition: SVD norm of the skew
    part within tol and min eigenvalue of the Hermitian part >= -tol."""
    return opnorm(m - m.conj().T) <= tol and ref.min_eig(m) >= -tol


def _mixed_stack(n, seed, tol=PSD_TOL):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    herm = (z + z.conj().T) / 2
    psd = z @ z.conj().T
    unit = np.eye(n, dtype=complex)
    e = np.zeros((n, n), dtype=complex)
    e[0, 0] = 1.0
    out = [psd, herm, -psd, np.zeros((n, n), dtype=complex)]
    # skew parts m - m* = 2i s E with ||E||_2 = 1: spectral norm 2s
    for s in (0.999, 1.001, 0.5, 2.0):
        out.append(psd + 1j * (s * tol / 2) * e)
        out.append(psd + 1j * (s * tol / 2) * unit)  # Frobenius sqrt(n) times larger
    out.append(unit - (tol / 2) * e)  # min eigenvalue just above -tol
    out.append(unit - (3 * tol) * unit)
    out.append(-(2 * tol) * e)  # min eigenvalue -2 tol
    return np.stack(out)


@pytest.mark.parametrize("n", [1, 3, 6, 18])
def test_batched_certify_matches_per_matrix(n):
    tol = PSD_TOL
    for seed in range(5):
        stack = _mixed_stack(n, seed, tol)
        ok, eigs = _certify(stack, tol)
        for m, verdict, eig in zip(stack, ok, eigs):
            assert bool(verdict) == _per_matrix_verdict(m, tol) == psd_check(m, tol)
            assert abs(eig - ref.min_eig(m)) <= 1e-12


def test_frobenius_prefilter_leaves_near_ties_to_the_svd(monkeypatch):
    tol = PSD_TOL
    # Frobenius norm above tol, spectral norm below: the SVD accepts
    m = np.eye(3, dtype=complex) + 1j * (0.999 * tol / 2) * np.eye(3)
    assert opnorm(m - m.conj().T) <= tol < np.linalg.norm(m - m.conj().T)
    assert psd_check(m, tol)
    assert not psd_check(np.eye(3, dtype=complex) + 1j * (1.001 * tol / 2) * np.eye(3), tol)
    # a 1 x 1 skew part has equal Frobenius and spectral norms
    for s in (1 - 1e-13, 1 + 1e-13):
        m = np.array([[1.0 + 1j * s * tol / 2]])
        assert psd_check(m, tol) == _per_matrix_verdict(m, tol)
    # the prefilter settles a skew part just within tol less the relative
    # slack, and leaves one just beyond it to the SVD, which accepts it
    svd = _calls(monkeypatch, numeric, "opnorm")
    for s, norms in ((1 - 1e-14, 0), (1 + 1e-14, 1)):
        m = np.array([[1.0 + 1j * s * tol * numeric._FRO_SLACK / 2]])
        svd.clear()
        assert psd_check(m, tol) == _per_matrix_verdict(m, tol) is True
        assert len(svd) == norms
    # under a negative tol the prefilter settles nothing, not even a zero
    # skew part, so the SVD refuses it
    svd.clear()
    assert psd_check(np.eye(2), -tol) == _per_matrix_verdict(np.eye(2), -tol) is False
    assert len(svd) == 1
    # the rep check's prefilter: at (1 + e) I_4 the residual v v* v - v has
    # Frobenius norm 4 e (1 + O(e)) and spectral norm half that, so at
    # e = 4.5e-13 the Frobenius norm 1.8e-12 settles nothing and one SVD
    # accepts the 9.0e-13; at e = 5.2e-13 one SVD refuses the 1.040e-12
    svd.clear()
    assert isinstance(PartialIsometryRep.checked((1 + 4.5e-13) * np.eye(4)), PartialIsometryRep)
    assert len(svd) == 1
    svd.clear()
    with pytest.raises(InvalidRepError, match=r"^\|\|v v\* v - v\|\| = 1\.040e-12 exceeds 1\.0e-12$"):
        PartialIsometryRep.checked((1 + 5.2e-13) * np.eye(4))
    assert len(svd) == 1


def test_verify_reports_the_per_matrix_min_eig(fixture_assignment):
    bad = PartialIsometryRep(np.array([[1.3]], dtype=complex))
    pairs = [(Word((-2, 2)), Word((-1, 1))), (Word((-3, 3)), Word((-2, 2))), (Word((-1, 1)), Word((-2, 2)))]
    rpt = verify_order_rep(bad, pairs)
    expected = [(lo, up) for lo, up in pairs if not psd_check(eval_word(bad, up) - eval_word(bad, lo))]
    assert len(rpt.failures) == len(expected) >= 1
    for failure, (lo, up) in zip(rpt.failures, expected):
        assert failure["min_eig"] == pytest.approx(ref.min_eig(eval_word(bad, up) - eval_word(bad, lo)), abs=1e-12)
    # the fixture's 1 x 1 images, as one stack and one at a time
    lower, upper = displayed_block_relation()
    pairs = scalar_relations(40, 3, within="D0")
    stack = np.stack([fixture_assignment(up) - fixture_assignment(lo) for lo, up in pairs])
    ok, _ = _certify(stack, PSD_TOL)
    assert ok.all()
    assert [_per_matrix_verdict(m, PSD_TOL) for m in stack] == list(ok)
    (failure,) = verify_k_order(fixture_assignment, 2, [(lower, upper)]).failures
    blocks = [
        np.array([[fixture_assignment(c)[0, 0] for c in row] for row in g.cells]) for g in (upper, lower)
    ]
    assert failure["min_eig"] == pytest.approx(ref.min_eig(blocks[0] - blocks[1]), abs=1e-12)


def test_certification_splits_large_batches(monkeypatch):
    bad = PartialIsometryRep(np.array([[1.3]], dtype=complex))
    pairs = scalar_relations(40, 2)
    whole = verify_order_rep(bad, pairs)
    monkeypatch.setattr(numeric, "_BATCH_ENTRIES", 3)
    assert verify_order_rep(bad, pairs) == whole
    assert whole.total == 40 and whole.failures


U = 2.0**-53  # the unit roundoff


def _certify_by_eigensolve(diffs, tol):
    """The certification without the Cholesky prefilter: one eigensolve
    gives every minimum eigenvalue, and the skew test takes every SVD norm."""
    adj = np.conjugate(diffs.transpose(0, 2, 1))
    eigs = np.linalg.eigvalsh((diffs + adj) * 0.5)[:, 0]
    ok = (eigs >= -tol) & np.array([opnorm(m) <= tol for m in diffs - adj])
    return ok, eigs


def _reports(monkeypatch, verify, *args):
    """verify(*args) as certified, and with the eigensolve-only reference."""
    got = verify(*args)
    with monkeypatch.context() as patch:
        patch.setattr(numeric, "_certify", _certify_by_eigensolve)
        return got, verify(*args)


def _calls(monkeypatch, owner, attr):
    """Count the calls made to owner.attr from here on."""
    calls = []
    inner = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return calls


def _with_spectrum(spectrum, seed):
    """A Hermitian matrix with the given eigenvalues in a random basis."""
    n = len(spectrum)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return (q * np.asarray(spectrum)) @ q.conj().T


@pytest.mark.parametrize("n", [1, 3, 18])
def test_cholesky_prefilter_near_ties(n):
    """At lambda_min = -tol +- 1e-12 and -tol/2 +- 1e-12 the batched
    verdict and a failure's min_eig are the per-matrix ones, alone or
    stacked with matrices that pass."""
    tol = PSD_TOL
    psd = _with_spectrum(np.linspace(0.0, 1.0, n), n + 100)
    for edge in (-tol, -tol / 2):
        for delta in (-1e-12, 1e-12):
            m = _with_spectrum(np.linspace(edge + delta, 1.0, n), n)
            assert ref.min_eig(m) == pytest.approx(edge + delta, abs=1e-14)
            for stack in (m[None], np.stack([psd, m, psd])):
                ok, eigs = _certify(stack, tol)
                assert [bool(v) for v in ok] == [_per_matrix_verdict(x, tol) for x in stack]
                for x, eig in zip(stack[~ok], eigs[~ok]):
                    assert eig == ref.min_eig(x)
            assert psd_check(m, tol) == (edge + delta >= -tol)


def test_cholesky_prefilter_leaves_skew_failures_their_min_eig(monkeypatch):
    # Hermitian parts that factor, skew parts 2 tol and 0.5 tol in spectral norm
    tol = PSD_TOL
    psd = _with_spectrum(np.linspace(0.5, 1.0, 6), 1)
    e = np.zeros((6, 6), dtype=complex)
    e[0, 0] = 1.0
    stack = np.stack([psd + 1j * s * (tol / 2) * e for s in (2.0, 0.5, 2.0)])
    eigvalsh = _calls(monkeypatch, np.linalg, "eigvalsh")
    ok, eigs = _certify(stack, tol)
    assert len(eigvalsh) == 1  # the two skew failures, in one eigensolve
    assert list(ok) == [False, True, False] == [_per_matrix_verdict(m, tol) for m in stack]
    assert [eigs[0], eigs[2]] == [ref.min_eig(stack[0]), ref.min_eig(stack[2])]


def test_norm_guard_skips_the_prefilter(monkeypatch, fixture_assignment):
    """1 x 1 images scaled by 1e8 are beyond the rounding bound's reach:
    no factorization is tried, and the reports are the eigensolve's."""
    scaled = GeneratorAssignment(n=1, rule=lambda g: 1e8 * fixture_assignment.image(g))
    pairs = scalar_relations(40, 3, within="D0")
    cholesky = _calls(monkeypatch, np.linalg, "cholesky")
    got, want = _reports(monkeypatch, verify_order_rep, scaled, pairs)
    assert got == want
    assert cholesky == []
    assert psd_check(np.array([[1e8]])) and cholesky == []
    # a small trace admits a large indefinite matrix, which then fails to factor
    big = np.diag([1e8, -1e8]).astype(complex)
    ok, eigs = _certify(big[None], PSD_TOL)
    assert not ok[0] and eigs[0] == ref.min_eig(big) == -1e8 and len(cholesky) == 1
    # at d = 64 the guard admits a trace up to about 135
    limit = PSD_TOL / (2 * numeric._CHOLESKY_GUARD * 64 * 65 * U) - PSD_TOL
    for scale, tried in ((0.99, 1), (1.01, 0)):
        cholesky.clear()
        assert psd_check(np.eye(64) * scale * limit / 64)
        assert len(cholesky) == tried
    # a bound that overflows fails the guard: the Hermitian part is finite,
    # its trace is not, and no overflow is raised, warned or reported
    huge = np.diag([0.8e308] * 3).astype(complex)
    cholesky.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert psd_check(huge)
        ok, eigs = _certify(huge[None], PSD_TOL)
        assert ok[0] and eigs[0] == np.linalg.eigvalsh(huge)[0] == pytest.approx(0.8e308)
        images = GeneratorAssignment(n=3, images={W("(-2,2)"): huge})
        assert verify_order_rep(images, [(W("(-3,3)"), W("(-2,2)"))]) == Report(1, [])
    assert cholesky == []


def test_passing_batch_runs_no_eigensolve(monkeypatch):
    rep21 = random_partial_isometry(21, 5)
    rels = matrix_relations(12, 9, ks=(3,))
    eigvalsh = _calls(monkeypatch, np.linalg, "eigvalsh")
    cholesky = _calls(monkeypatch, np.linalg, "cholesky")
    rpt = verify_k_order(rep21, 3, rels)
    assert rpt.ok and rpt.total == 12
    # one factorization per order |S| n of the supports S that occur
    sizes = {sum(lo != up for lo, up in zip(lower.cells, upper.cells)) for lower, upper in rels}
    assert eigvalsh == [] and len(cholesky) == len(sizes - {0})


def test_prefilter_reports_match_the_eigensolve_at_a_random_partial_isometry(monkeypatch):
    rep16 = random_partial_isometry(16, 3)
    pairs = scalar_relations(80, 12)
    rels = {k: matrix_relations(8, 60 + k, ks=(k,)) for k in (2, 3)}
    calls = [(verify_order_rep, rep16, pairs), (verify_order_rep, rep16, [(b, a) for a, b in pairs])]
    calls += [(verify_k_order, rep16, k, r) for k, r in rels.items()]
    calls += [(verify_k_order, rep16, k, r + [(b, a) for a, b in r]) for k, r in rels.items()]
    calls += [(verify_schwarz, rep16, [a for a, _ in pairs])]
    failed = 0
    for verify, *args in calls:
        got, want = _reports(monkeypatch, verify, *args)
        assert got == want
        failed += len(got.failures)
    assert failed


# -- exact control at truncated shifts -----------------------------------------------------


def _exact_difference(lower_cells, upper_cells, n):
    """eval(upper) - eval(lower) at the shift, one k x k integer matrix per
    basis index: tau-zero cells evaluate to 0/1 diagonals."""
    k = len(lower_cells)
    lo = [[ref.shift_support(c, n) for c in row] for row in lower_cells]
    up = [[ref.shift_support(c, n) for c in row] for row in upper_cells]
    return [[[int(t in up[i][j]) - int(t in lo[i][j]) for j in range(k)] for i in range(k)] for t in range(n)]


@pytest.mark.parametrize("n", [4, 7, 20])
def test_exact_control_at_truncated_shifts(n):
    shift = PartialIsometryRep.checked(ref.shift_matrix((1,), n))
    scalar = scalar_relations(60, 5)
    blocks = {k: matrix_relations(10, 50 + k, ks=(k,)) for k in (2, 3) if k * n <= 64}
    cases = [(((lo,),), ((up,),)) for lo, up in scalar]
    cases += [(lo.cells, up.cells) for rels in blocks.values() for lo, up in rels]
    for lower_cells, upper_cells in cases:
        for c in (c for cells in (lower_cells, upper_cells) for row in cells for c in row):
            assert np.array_equal(eval_word(shift, c), ref.shift_matrix(c, n))
        assert ref.shift_relation_psd(lower_cells, upper_cells, n)
    assert verify_order_rep(shift, scalar).ok
    for k, rels in blocks.items():
        assert verify_k_order(shift, k, rels).ok
    # reversed, a nonzero 0/1 difference is exactly not PSD and must fail
    reversed_cases = [
        (up, lo)
        for lo, up in cases
        if any(any(any(row) for row in d) for d in _exact_difference(lo, up, n))
    ]
    assert reversed_cases
    for lower_cells, upper_cells in reversed_cases:
        assert not ref.shift_relation_psd(lower_cells, upper_cells, n)
        if len(lower_cells) == 1:
            rpt = verify_order_rep(shift, [(lower_cells[0][0], upper_cells[0][0])])
        else:
            rpt = verify_k_order(
                shift, len(lower_cells), [(GramMatrix.from_cells(lower_cells), GramMatrix.from_cells(upper_cells))]
            )
        assert not rpt.ok


@pytest.mark.parametrize("n", [4, 7, 20])
def test_prefilter_reports_match_the_eigensolve_at_truncated_shifts(n, monkeypatch):
    shift = PartialIsometryRep.checked(ref.shift_matrix((1,), n))
    scalar = scalar_relations(60, 5)
    blocks = {k: matrix_relations(10, 50 + k, ks=(k,)) for k in (2, 3) if k * n <= 64}
    calls = [(verify_order_rep, shift, scalar), (verify_order_rep, shift, scalar + [(b, a) for a, b in scalar])]
    calls += [(verify_k_order, shift, k, rels) for k, rels in blocks.items()]
    calls += [(verify_k_order, shift, k, [(b, a) for a, b in rels]) for k, rels in blocks.items()]
    failed = 0
    for verify, *args in calls:
        got, want = _reports(monkeypatch, verify, *args)
        assert got == want
        failed += len(got.failures)
    assert failed


# -- the stated rounding bounds ---------------------------------------------------------


def _g(d):
    """The complex inner-product constant sqrt(2) gamma_{d+2} of the module docstring."""
    return np.sqrt(2) * (d + 2) * U / (1 - (d + 2) * U)


def _eigensolve_bound(h):
    d = len(h)
    return 3 * d * (d + 1) * U * np.linalg.norm(h)


@pytest.mark.parametrize("n", [4, 7, 20])
def test_rounding_bounds_hold_at_truncated_shifts(n):
    """Observed errors of eval_word, the eigensolve and the shifted Cholesky
    factorization against the bounds of the module docstring, where the
    exact images are 0/1 matrices and the exact spectra are those of small
    integer blocks."""
    shift = PartialIsometryRep.checked(ref.shift_matrix((1,), n))
    cases = [(((lo,),), ((up,),)) for lo, up in scalar_relations(60, 5)]
    cases += [
        (lo.cells, up.cells) for k in (2, 3) if k * n <= 64 for lo, up in matrix_relations(10, 50 + k, ks=(k,))
    ]
    for lower_cells, upper_cells in cases:
        k = len(lower_cells)
        d = k * n
        cells = [c for grid in (lower_cells, upper_cells) for row in grid for c in row]
        products = max(sum(abs(e) for e in c) for c in cells) - 1
        for c in cells:
            error = np.linalg.norm(eval_word(shift, c) - ref.shift_matrix(c, n))
            assert error <= products * n * _g(n)
        block = lambda grid: np.block([[eval_word(shift, c) for c in row] for row in grid])
        diff = block(upper_cells) - block(lower_cells)
        h = (diff + diff.conj().T) / 2
        # permuted, h is the direct sum of one k x k integer block per basis index
        ints = [np.array(b, dtype=float) for b in _exact_difference(lower_cells, upper_cells, n)]
        reference = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in ints]))
        slack = _eigensolve_bound(h) + max(_eigensolve_bound(b) for b in ints)
        assert np.abs(np.linalg.eigvalsh(h) - reference).max() <= slack
        a = h + (PSD_TOL / 2) * np.eye(d)
        r = np.linalg.cholesky(a)
        g = _g(d)
        assert opnorm(r @ r.conj().T - a) <= g / (1 - g) * np.trace(a).real
        assert numeric._CHOLESKY_GUARD * d * (d + 1) * U * (np.trace(a).real + PSD_TOL) < PSD_TOL / 2


def test_fixture_failure_is_far_outside_the_rounding_bound(fixture_assignment):
    # the difference is [[1/8, 1/8], [1/8, 0]], with eigenvalues (1 +- sqrt 5) / 16
    lower, upper = displayed_block_relation()
    (failure,) = verify_k_order(fixture_assignment, 2, [(lower, upper)]).failures
    exact = (1 - np.sqrt(5)) / 16
    assert failure["min_eig"] == pytest.approx(exact, abs=_eigensolve_bound(np.full((2, 2), 1 / 8)) + 1e-16)
    assert failure["min_eig"] < -0.077 < -1e7 * PSD_TOL


# -- certification on the support -------------------------------------------------------


def _support(lower, upper):
    """The block rows where two Gram matrices differ."""
    return [i for i, (lo, up) in enumerate(zip(lower.cells, upper.cells)) if lo != up]


def _full_block_difference(rep, lower, upper):
    block = lambda g: np.block([[eval_word(rep, c) for c in row] for row in g.cells])
    return block(upper) - block(lower)


@pytest.mark.parametrize("k", [2, 3])
def test_k_order_is_certified_on_the_support(k, monkeypatch):
    """Each relation goes into a stack of order |S| n, S its support, and
    gets the verdict of its whole k n x k n block difference; a failure's
    min_eig is that difference's, and failures come in input order."""
    orders = []
    inner = numeric._certify

    def recorded(diffs, tol):
        orders.extend([diffs.shape[1]] * len(diffs))
        return inner(diffs, tol)

    monkeypatch.setattr(numeric, "_certify", recorded)
    rels = matrix_relations(10, 70 + k, ks=(k,))
    assert any(len(_support(lo, up)) < k for lo, up in rels)
    g = rels[0][0]
    reps = [random_partial_isometry(16, 3), PartialIsometryRep.checked(ref.shift_matrix((1,), 20))]
    failed = 0
    for rep in reps:
        for relations in (rels[:5] + [(g, g)] + rels[5:], [(up, lo) for lo, up in rels]):
            orders.clear()
            rpt = verify_k_order(rep, k, relations)
            assert sorted(orders) == sorted(len(_support(lo, up)) * rep.n for lo, up in relations if lo != up)
            want = []
            for lower, upper in relations:
                diff = _full_block_difference(rep, lower, upper)
                if not _per_matrix_verdict(diff, PSD_TOL):
                    want.append((lower, upper, diff))
            assert rpt.total == len(relations)
            assert [f["relation"] for f in rpt.failures] == [
                {"lower": json.loads(lo.to_json()), "upper": json.loads(up.to_json())} for lo, up, _ in want
            ]
            for failure, (_, _, diff) in zip(rpt.failures, want):
                # two eigensolves, of the support block and of the whole
                # difference, each within _eigensolve_bound of the exact value
                slack = 2 * _eigensolve_bound((diff + diff.conj().T) / 2)
                assert abs(failure["min_eig"] - ref.min_eig(diff)) <= slack
            failed += len(want)
        orders.clear()
        assert verify_k_order(rep, k, [(g, g)]).ok and orders == []
    assert failed


def _one_row_relation():
    """The displayed lower matrix and its D0 successor that differs from it
    in block row 1 only."""
    lower, _ = displayed_block_relation()
    (upper,) = [g for g in matrix_successors(lower, require="D0") if _support(lower, g) == [1]]
    return lower, upper


def test_cells_off_the_support_are_not_evaluated(fixture_assignment):
    """An image that overflows in a cell off the support leaves a relation
    certified both ways (the fixture pins the images of (-4,3,-3,4) and
    (-4,2,-2,4) to one value), and one inside it is refused."""
    lower, upper = _one_row_relation()

    def overflowing_at(bad):
        rule = lambda g: np.array([[1e200]]) * 1e200 if g == bad else fixture_assignment.image(g)
        return GeneratorAssignment(n=1, rule=rule)

    assert lower.cells[0][0] == upper.cells[0][0] == W("(-3,2,-2,3)")
    assert verify_k_order(overflowing_at(W("(-3,2,-2,3)")), 2, [(lower, upper), (upper, lower)]).ok
    assert upper.cells[1][1] == W("(-4,2,-2,4)")
    with pytest.raises(DomainError, match=r"^the relations do not evaluate in double precision: overflow"):
        verify_k_order(overflowing_at(W("(-4,2,-2,4)")), 2, [(lower, upper)])


def test_a_skew_failure_reports_the_min_eig_of_the_whole_difference(fixture_assignment):
    """A non-Hermitian image at the one cell of the support fails the skew
    test with a positive support block; the whole difference, zero in the
    other block row, has minimum eigenvalue 0, and that is reported."""
    lower, upper = _one_row_relation()
    tilted = fixture_assignment.image(W("(-4,2,-2,4)")) + 0.25 + 1e-6j
    assign = GeneratorAssignment(n=1, rule=lambda g: tilted if g == W("(-4,2,-2,4)") else fixture_assignment.image(g))
    (failure,) = verify_k_order(assign, 2, [(lower, upper)]).failures
    block = lambda g: np.array([[assign(c)[0, 0] for c in row] for row in g.cells])
    assert failure["min_eig"] == ref.min_eig(block(upper) - block(lower)) == 0.0
