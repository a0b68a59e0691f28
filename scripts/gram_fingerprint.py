#!/usr/bin/env python3
"""Fingerprint the Gram layer: the matrices, orders and refusals of
``pisom.matrix``.

Over a fixed input set, every output below is hashed in order, one line
each:

- the JSON of ``gram(v)``, cells and witness, for every vector v of rank
  1..3 over the 12 reduced words of weight <= 3 (1,884 vectors);
- for each of those matrices that lies in D1, and for seeded D1 vectors
  of rank 4..8 over the words of weight <= 5: ``factor_gram``,
  ``matrix_successors`` sorted by cells, each with its witness,
  ``immediate_predecessors``, ``classify_matrix``, and
  ``GramMatrix.from_json`` of the matrix's JSON without its witness;
- the exception type and text of each refusal in a fixed list of bad
  inputs: an empty vector, a plain tuple entry, a rank past ``K_CAP`` and
  a matrix outside D1.

Two trees whose Gram layers agree on all of it, down to the order of a
result, the witness returned and the text of a refusal, print the same
digest, so a change meant to keep that layer's output can be checked
against its parent:

    python3 scripts/gram_fingerprint.py

prints ``<sha256> <D1 matrices>``.
"""

import hashlib
import json
import pathlib
import random
import sys
from itertools import product

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from pisom.matrix import (  # noqa: E402
    K_CAP,
    GramMatrix,
    classify_matrix,
    factor_gram,
    gram,
    immediate_predecessors,
    matrix_successors,
)
from pisom.words import Word, format_word, iter_words  # noqa: E402

MAX_RANK = 3
ENTRY_WEIGHT = 3
WIDE_RANKS = (4, 5, 6, 7, 8)
WIDE_WEIGHT = 5
WIDE_COUNT = 20
SEED = 41


def _without_witness(g: GramMatrix) -> str:
    obj = json.loads(g.to_json())
    del obj["witness"]
    return json.dumps(obj)


def order_lines(g: GramMatrix):
    """The order data of a D1 matrix, one line each."""
    yield "factor " + " ".join(",".join(map(format_word, v)) for v in factor_gram(g))
    for s in sorted(matrix_successors(g), key=lambda x: x.cells):
        yield "succ " + s.to_json()
    for p in immediate_predecessors(g):
        yield "pred " + p.to_json()
    yield "class " + classify_matrix(g).to_json()
    yield "recovered " + GramMatrix.from_json(_without_witness(g)).to_json()


def wide_vectors(ranks=WIDE_RANKS, count=WIDE_COUNT, seed=SEED):
    """Seeded D1 vectors: a first word u with u* u in D1, then k - 1 words
    of its tau with the same property, so every cell lies in D1; mixed and
    uniform first signs both occur."""
    diagonal = [w for w in iter_words(WIDE_WEIGHT) if gram((w,)).tagged("D1")]
    classes = {}
    for w in diagonal:
        classes.setdefault(w.tau, []).append(w)
    rng = random.Random(seed)
    for k in ranks:
        for _ in range(count):
            u = rng.choice(diagonal)
            yield (u, *[rng.choice(classes[u.tau]) for _ in range(k - 1)])


def refusals():
    """The type and text of each refusal of the fixed list, in order."""
    wide = gram((Word((-1, 1)),) * (K_CAP + 1))
    outside = gram((Word((-2,)), Word((-1,))))  # cells of tau -1 and 1, and (2,-2)
    calls = (
        ("empty", lambda: gram(())),
        ("tuple entry", lambda: gram([(2, 2)])),
        ("rank past K_CAP", lambda: matrix_successors(wide)),
        ("successors outside D1", lambda: matrix_successors(outside)),
        ("predecessors outside D1", lambda: immediate_predecessors(outside)),
        ("classify outside D1", lambda: classify_matrix(outside)),
    )
    for name, call in calls:
        try:
            call()
            yield "%s: no refusal" % name
        except (TypeError, ValueError) as exc:
            yield "%s: %s: %s" % (name, type(exc).__name__, exc)


def fingerprint(max_rank=MAX_RANK, ranks=WIDE_RANKS, count=WIDE_COUNT, seed=SEED) -> tuple[str, int]:
    """The SHA-256 of every line above, in order, and the number of D1
    matrices whose order data were hashed."""
    digest, d1 = hashlib.sha256(), 0

    def add(line):
        digest.update(line.encode() + b"\n")

    pool = list(iter_words(ENTRY_WEIGHT))
    small = [gram(v) for k in range(1, max_rank + 1) for v in product(pool, repeat=k)]
    for g in small:
        add(g.to_json())
    for g in (*[g for g in small if g.tagged("D1")], *map(gram, wide_vectors(ranks, count, seed))):
        d1 += 1
        for line in order_lines(g):
            add(line)
    for line in refusals():
        add(line)
    return digest.hexdigest(), d1


def main() -> int:
    print("%s %d" % fingerprint())
    return 0


if __name__ == "__main__":
    sys.exit(main())
