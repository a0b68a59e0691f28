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
``psd_check`` verdict of their difference.  Two trees whose verdicts,
reported ``min_eig``/``residual`` and images agree bit for bit print the
same digest, so a change meant to keep the numeric layer's output can be
checked against its parent:

    python3 scripts/numeric_fingerprint.py

prints ``<sha256> <failures>``.
"""

import hashlib
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from pisom.numeric import (  # noqa: E402
    DIM_CAP,
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


def fingerprint(dims=DIMS, ks=KS, scalar_count=SCALAR_COUNT, matrix_count=MATRIX_COUNT, seed=SEED) -> tuple[str, int]:
    """The SHA-256 of the reports' JSON, one line each, then of the images,
    and the failures of the verify calls."""
    digest, failures = hashlib.sha256(), 0
    for report in reports(dims, ks, scalar_count, matrix_count, seed):
        digest.update(report.to_json().encode() + b"\n")
        failures += len(report.failures)
    for chunk in images(dims, scalar_count, seed):
        digest.update(chunk)
    return digest.hexdigest(), failures


def main() -> int:
    print("%s %d" % fingerprint())
    return 0


if __name__ == "__main__":
    sys.exit(main())
