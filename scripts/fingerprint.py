#!/usr/bin/env python3
"""Fingerprint every layer of pisom: one digest of its outputs over a fixed
input set, per layer.

Each layer is one generator of lines, hashed in order: a ``str`` line with
a newline after it, a ``bytes`` chunk as it is.  A call that refuses
gives the type and text of its refusal in place of its result.

- ``words``: over the words of weight <= 8, the star, ``reduce_word`` of
  the word followed by its star, ``parse_word`` of its literal, and its
  product with every word of the set; then the refusals of a fixed list of
  bad words, literals, tags and ``sigma``/``tau_plus`` arguments.
- ``maps``: ``alpha``, ``omega``, ``beta_omega`` and ``is_irr_plus`` over
  the words of weight <= 10.
- ``structure``: ``is_irreducible``, ``factor_a0``, ``factor_d0``,
  ``classify_sa`` and ``sa_canonical_d1`` over the same words; then
  ``enum_irr`` at grades 1..14 in order, and its refusals at 0 and 21.
- ``order``: over the selfadjoint words of weight <= 12, both
  factorizations, the successors, the depth and the upper idempotent, then
  ``leq`` on every pair.
- ``matrix``: the JSON of ``gram(v)`` for every vector v of rank 1..3 over
  the 12 words of weight <= 3; for each of those matrices in D1, and for
  seeded D1 vectors of rank 4..8 over the words of weight <= 5,
  ``factor_gram``, the successors sorted by cells, the predecessors,
  ``classify_matrix`` and recovery from the JSON without the witness; six
  refusals; then ``matrix_leq`` on every pair of the small D1 matrices of
  one rank, and its refusal of two ranks.
- ``numeric``: at ``random_partial_isometry(n, 100 + n)`` for each n, the
  JSON report of every verify call on seeded scalar and matrix relations,
  each list followed by its reversal (so that relations fail too), and on
  the order-but-not-2-order fixture; then the ``eval_word`` images of both
  words of every scalar pair, byte for byte, with the ``psd_check``
  verdict of their difference; then the JSON of every relation
  ``matrix_relations`` samples at entry weights 3..5 and ranks 1..8; then
  the ``PartialIsometryRep.checked`` verdict of each rep's v scaled by 1,
  1 + 2^-42, 1 + 2^-40 and 1.3.

Two trees whose layers agree on all of it, down to the order of a result,
the witness returned and the text of a refusal, print the same lines, so a
change meant to keep every layer's output can be checked against its
parent:

    python3 scripts/fingerprint.py

prints ``<layer> <sha256> <lines hashed>`` for each layer, in the order
above.  The size of each input set is a keyword argument of its layer.
"""

import hashlib
import json
import pathlib
import random
import sys
from itertools import product

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from pisom.maps import alpha, beta_omega, is_irr_plus, omega  # noqa: E402
from pisom.matrix import (  # noqa: E402
    K_CAP, GramMatrix, classify_matrix, factor_gram, gram, immediate_predecessors, matrix_leq, matrix_successors,
)
from pisom.numeric import (  # noqa: E402
    DIM_CAP, InvalidRepError, PartialIsometryRep, displayed_block_relation, eval_word, matrix_relations, psd_check,
    random_partial_isometry, sa_depth_fixture, scalar_relations, verify_conjugation, verify_k_order,
    verify_order_rep, verify_schwarz,
)
from pisom.order import hollow_depth, hollow_successors, leq, sa_factorizations, upper_idempotent  # noqa: E402
from pisom.structure import classify_sa, enum_irr, factor_a0, factor_d0, is_irreducible, sa_canonical_d1  # noqa: E402
from pisom.words import Word, format_word, iter_words, member, parse_word, reduce_word  # noqa: E402

#: (call, arguments) of each refusal of the words layer
BAD_WORDS = (
    (Word, ()), (Word, (0,)), (Word, (2, 3)), (Word, (1, -1, 1)), (Word, (-2, 1, -2)), (Word, ("x",)),
    (reduce_word, (1, 0, 2)), (reduce_word, ()),
    (parse_word, ""), (parse_word, "1,2"), (parse_word, "()"), (parse_word, "(1,,2)"), (parse_word, "(x)"),
    (parse_word, "(01)"), (parse_word, "(+1)"), (parse_word, "(1,0)"), (parse_word, "(%s)" % ("9" * 4001)),
    (parse_word, "(%s,)" % ",".join(["2", "-2"] * 30)),
    (member, Word((1,)), "XX"), (member, Word((1,)), ""),
    (Word.sigma, Word((1,)), -1), (Word.tau_plus, Word((-3,))),
)


def _outcome(call, *args) -> str:
    """The repr of call(*args), or the type and text of its refusal."""
    try:
        return repr(call(*args))
    except (TypeError, ValueError) as exc:
        return "%s: %s" % (type(exc).__name__, exc)


def words(max_weight=8):
    pool = list(iter_words(max_weight))
    for w in pool:
        yield "%s %s %s %s" % (w, w.star, reduce_word(w + w.star), parse_word(format_word(w)))
        yield " ".join(format_word(w * u) for u in pool)
    for call, *args in BAD_WORDS:
        yield "%s%r %s" % (call.__name__, tuple(args), _outcome(call, *args))


def maps(max_weight=10):
    for w in iter_words(max_weight):
        yield " ".join(_outcome(f, w) for f in (alpha, omega, beta_omega, is_irr_plus))


def structure(max_weight=10, max_grade=14):
    for w in iter_words(max_weight):
        yield " ".join(_outcome(f, w) for f in (is_irreducible, factor_a0, factor_d0, classify_sa, sa_canonical_d1))
    for k in range(1, max_grade + 1):
        yield enum_irr(k).to_json()
    yield _outcome(enum_irr, 0) + " " + _outcome(enum_irr, 21)


def order(max_weight=12):
    pool = [w for w in iter_words(max_weight) if w.is_selfadjoint()]
    for n in pool:
        yield " ".join(_outcome(f, n) for f in (sa_factorizations, hollow_successors, hollow_depth, upper_idempotent))
        yield "".join("1" if leq(n, m) else "0" for m in pool)


def _without_witness(g: GramMatrix) -> str:
    obj = json.loads(g.to_json())
    del obj["witness"]
    return json.dumps(obj)


def _wide_vectors(ranks, count, seed):
    """Seeded D1 vectors: a first word u with u* u in D1, then k - 1 words
    of its tau with the same property, so every cell lies in D1; mixed and
    uniform first signs both occur."""
    diagonal = [w for w in iter_words(5) if gram((w,)).tagged("D1")]
    classes = {}
    for w in diagonal:
        classes.setdefault(w.tau, []).append(w)
    rng = random.Random(seed)
    for k in ranks:
        for _ in range(count):
            u = rng.choice(diagonal)
            yield (u, *[rng.choice(classes[u.tau]) for _ in range(k - 1)])


def matrix(max_rank=3, ranks=(4, 5, 6, 7, 8), count=20, seed=41):
    pool = list(iter_words(3))
    small = [gram(v) for k in range(1, max_rank + 1) for v in product(pool, repeat=k)]
    yield from (g.to_json() for g in small)
    d1 = [g for g in small if g.tagged("D1")]
    for g in (*d1, *map(gram, _wide_vectors(ranks, count, seed))):
        yield "factor " + " ".join(",".join(map(format_word, v)) for v in factor_gram(g))
        yield from ("succ " + s.to_json() for s in sorted(matrix_successors(g), key=lambda x: x.cells))
        yield from ("pred " + p.to_json() for p in immediate_predecessors(g))
        yield "class " + classify_matrix(g).to_json()
        yield "recovered " + GramMatrix.from_json(_without_witness(g)).to_json()
    wide = gram((Word((-1, 1)),) * (K_CAP + 1))
    outside = gram((Word((-2,)), Word((-1,))))  # cells of tau -1 and 1, and (2,-2)
    calls = (
        ("empty", gram, ()),
        ("tuple entry", gram, [(2, 2)]),
        ("rank past K_CAP", matrix_successors, wide),
        ("successors outside D1", matrix_successors, outside),
        ("predecessors outside D1", immediate_predecessors, outside),
        ("classify outside D1", classify_matrix, outside),
    )
    yield from ("%s: %s" % (name, _outcome(call, arg)) for name, call, arg in calls)
    for g in d1:
        yield "".join("1" if matrix_leq(g, h) else "0" for h in d1 if h.k == g.k)
    yield "matrix_leq: " + _outcome(matrix_leq, d1[0], d1[-1])


def _and_reversed(pairs):
    return pairs + [(b, a) for a, b in pairs]


def numeric(dims=(1, 2, 3, 4, 6, 16, 21), ks=(1, 2, 3), scalar_count=100, matrix_count=24, seed=38):
    pairs = _and_reversed(scalar_relations(scalar_count, seed))
    samples = [lower for lower, _ in pairs]
    relations = {k: _and_reversed(matrix_relations(matrix_count, seed + k, ks=(k,))) for k in ks}
    reps = [random_partial_isometry(n, 100 + n) for n in dims]
    for rep in reps:
        yield verify_order_rep(rep, pairs).to_json()
        yield verify_schwarz(rep, samples).to_json()
        yield verify_conjugation(rep, samples).to_json()
        yield from (verify_k_order(rep, k, relations[k]).to_json() for k in ks if k * rep.n <= DIM_CAP)
    fixture = sa_depth_fixture()
    yield verify_order_rep(fixture, _and_reversed(scalar_relations(scalar_count, seed, within="D0"))).to_json()
    yield verify_k_order(fixture, 2, [displayed_block_relation()]).to_json()
    for rep in reps:
        for lower, upper in pairs:
            low, up = eval_word(rep, lower), eval_word(rep, upper)
            yield low.tobytes() + up.tobytes() + (b"1" if psd_check(up - low) else b"0")
    for weight in (3, 4, 5):
        for k in (1, 2, 3, 4, 6, 8):
            for lower, upper in matrix_relations(matrix_count, seed + k, ks=(k,), entry_weight=weight):
                yield lower.to_json() + " " + upper.to_json()
    for rep in reps:
        for scale in (1.0, 1 + 2.0**-42, 1 + 2.0**-40, 1.3):
            try:
                PartialIsometryRep.checked(scale * rep.v)
                yield "ok"
            except InvalidRepError as exc:
                yield str(exc)


LAYERS = (words, maps, structure, order, matrix, numeric)


def digest(lines) -> tuple[str, int]:
    """The SHA-256 of the lines, each str with a newline after it and each
    bytes chunk as it is, and their number."""
    sha, count = hashlib.sha256(), 0
    for line in lines:
        sha.update(line if isinstance(line, bytes) else line.encode() + b"\n")
        count += 1
    return sha.hexdigest(), count


def main() -> int:
    for layer in LAYERS:
        print("%s %s %d" % (layer.__name__, *digest(layer())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
