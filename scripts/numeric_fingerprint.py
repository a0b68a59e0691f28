#!/usr/bin/env python3
"""Fingerprint the reports of the numeric layer's four verify calls.

Over a fixed input set, every verify call's JSON report is hashed in
order, and the failures are counted:

- at ``random_partial_isometry(n, 100 + n)`` for each dimension n, the
  order pairs of ``scalar_relations`` and the basic relations of
  ``matrix_relations`` at every rank k with k n <= 64, each list followed
  by its reversal (so that relations fail too), and the lower words of
  the scalar pairs as Schwarz and conjugation samples;
- at the order-but-not-2-order fixture, its D0 order pairs and its
  displayed 2 x 2 block relation.

Then the ``eval_word`` image of both words of each of those scalar pairs
at each ``random_partial_isometry`` is hashed, byte for byte, with the
``psd_check`` verdict of their difference.  Then the JSON of every relation
``matrix_relations`` samples, witnesses included, at entry weights 3, 4
and 5 and ranks 1, 2, 3, 4, 6 and 8 (seed + k at rank k); then the
``PartialIsometryRep.checked`` verdict, "ok" or the refusal's text, of
each rep's matrix v and of (1 + e) v for e = 2^-42, 2^-40 and 0.3, whose
defects lie below, just above and far above the tolerance.  Two trees
whose verdicts, reported ``min_eig``/``residual``, images, relations and
rep checks agree bit for bit print the same digest, so a change meant to
keep the numeric layer's output can be checked against its parent:

    python3 scripts/numeric_fingerprint.py

prints ``<sha256> <failures>``.
"""

import hashlib
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from pisom.numeric import (  # noqa: E402
    DIM_CAP,
    InvalidRepError,
    PartialIsometryRep,
    displayed_block_relation,
    eval_word,
    matrix_relations,
    psd_check,
    random_partial_isometry,
    sa_depth_fixture,
    scalar_relations,
    verify_conjugation,
    verify_k_order,
    verify_order_rep,
    verify_schwarz,
)

DIMS = (1, 2, 3, 4, 6, 16, 21)
KS = (1, 2, 3)
SCALAR_COUNT = 100
MATRIX_COUNT = 24
SEED = 38
RELATION_KS = (1, 2, 3, 4, 6, 8)
ENTRY_WEIGHTS = (3, 4, 5)
SCALES = (1.0, 1 + 2.0**-42, 1 + 2.0**-40, 1.3)


def _and_reversed(pairs):
    return pairs + [(b, a) for a, b in pairs]


def reports(dims=DIMS, ks=KS, scalar_count=SCALAR_COUNT, matrix_count=MATRIX_COUNT, seed=SEED):
    """The reports of every verify call over the input set, in order."""
    pairs = _and_reversed(scalar_relations(scalar_count, seed))
    samples = [lower for lower, _ in pairs]
    relations = {k: _and_reversed(matrix_relations(matrix_count, seed + k, ks=(k,))) for k in ks}
    for n in dims:
        rep = random_partial_isometry(n, 100 + n)
        yield verify_order_rep(rep, pairs)
        yield verify_schwarz(rep, samples)
        yield verify_conjugation(rep, samples)
        for k in ks:
            if k * n <= DIM_CAP:
                yield verify_k_order(rep, k, relations[k])
    fixture = sa_depth_fixture()
    yield verify_order_rep(fixture, _and_reversed(scalar_relations(scalar_count, seed, within="D0")))
    yield verify_k_order(fixture, 2, [displayed_block_relation()])


def images(dims=DIMS, scalar_count=SCALAR_COUNT, seed=SEED):
    """The images of both words of every scalar pair at every rep, and the
    psd_check verdict of their difference, as bytes, in order."""
    pairs = _and_reversed(scalar_relations(scalar_count, seed))
    for n in dims:
        rep = random_partial_isometry(n, 100 + n)
        for lower, upper in pairs:
            low, up = eval_word(rep, lower), eval_word(rep, upper)
            yield low.tobytes() + up.tobytes() + (b"1" if psd_check(up - low) else b"0")


def relations(matrix_count=MATRIX_COUNT, seed=SEED):
    """The JSON of every sampled matrix relation, both matrices with their
    witnesses, one line each, in order."""
    for weight in ENTRY_WEIGHTS:
        for k in RELATION_KS:
            for lower, upper in matrix_relations(matrix_count, seed + k, ks=(k,), entry_weight=weight):
                yield lower.to_json() + " " + upper.to_json()


def rep_checks(dims=DIMS):
    """The ``PartialIsometryRep.checked`` verdict of every scaled rep matrix,
    in order."""
    for n in dims:
        v = random_partial_isometry(n, 100 + n).v
        for scale in SCALES:
            try:
                PartialIsometryRep.checked(scale * v)
                yield "ok"
            except InvalidRepError as exc:
                yield str(exc)


def fingerprint(dims=DIMS, ks=KS, scalar_count=SCALAR_COUNT, matrix_count=MATRIX_COUNT, seed=SEED) -> tuple[str, int]:
    """The SHA-256 of the reports' JSON, one line each, then of the images,
    the sampled relations and the rep checks, and the failures of the
    verify calls."""
    digest, failures = hashlib.sha256(), 0
    for report in reports(dims, ks, scalar_count, matrix_count, seed):
        digest.update(report.to_json().encode() + b"\n")
        failures += len(report.failures)
    for chunk in images(dims, scalar_count, seed):
        digest.update(chunk)
    for line in (*relations(matrix_count, seed), *rep_checks(dims)):
        digest.update(line.encode() + b"\n")
    return digest.hexdigest(), failures


def main() -> int:
    print("%s %d" % fingerprint())
    return 0


if __name__ == "__main__":
    sys.exit(main())
