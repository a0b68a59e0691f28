"""numeric-certify: PSD certification of order relations at partial isometries.

The set-up samples the relation pools with ``scalar_relations`` (D1 and D0)
and ``matrix_relations`` (k = 1, 2, 3), and builds the representations:
six seeded random partial isometries of dimension 1..6, three of
dimension 16, 18 and 21 ("wide": k n from 32 up to the 64 cap at k = 2, 3), and
the truncated shifts of dimension 4, 7 and 20, which are power partial
isometries.

Every round, twice at every representation, certifies fresh seeded batches:
16 scalar relations (``verify_order_rep``), 6 relations of each rank k with
k n <= 64 (``verify_k_order``), 8 Schwarz and 8 conjugation samples; and at
the order-but-not-2-order fixture, 16 D0 relations at k = 1 and the
displayed 2 x 2 block relation, which must fail.  An operation is one
relation certified; wide operations are those with k n >= 32.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

import pisom.numeric as N
import calib
import reference as ref
from harness import Op

NAME = "numeric-certify"
PROBE = True
CALIBRATION = calib.MIXED
LONG_OPS = False
TAIL_PERCENTILE = 90
SMALL_DIMS = (1, 2, 3, 4, 5, 6)
WIDE_DIMS = (16, 18, 21)
SHIFT_DIMS = (4, 7, 20)
WIDE_BLOCK = 32
SCALAR_BATCH = 16
MATRIX_BATCH = 6
SAMPLE_BATCH = 8
REFERENCE_SHARE = 0.125
CALLS_PER_REP = 2
TOL = N.PSD_TOL


@dataclass
class Rep:
    rep: object
    n: int
    shift: bool
    tables: object = None


@dataclass
class State:
    scalar: list
    d0: list
    matrix: dict
    reps: list
    fixture: object
    displayed: tuple
    rng: random.Random


def sample_pools(seed: int):
    scalar = N.scalar_relations(200, seed)
    d0 = N.scalar_relations(60, seed + 1, within="D0")
    matrix = {k: N.matrix_relations(48, 10 * seed + k, ks=(k,), entry_weight=4) for k in (1, 2, 3)}
    return scalar, d0, matrix


def setup(seed: int) -> State:
    scalar, d0, matrix = sample_pools(seed)
    reps = [Rep(N.random_partial_isometry(n, 1000 * seed + n), n, False) for n in SMALL_DIMS]
    for n in WIDE_DIMS:
        reps.append(Rep(N.random_partial_isometry(n, 1000 * seed + n), n, False))
    for n in SHIFT_DIMS:
        reps.append(Rep(N.PartialIsometryRep.checked(ref.truncated_shift(n)), n, True))
    for r in reps:
        r.tables = ref.PowerTables(r.rep.v)
    return State(scalar, d0, matrix, reps, N.sa_depth_fixture(0.5), N.displayed_block_relation(),
                 random.Random(seed + 7))


# -- independent evaluation --------------------------------------------------------------


def _cells(x):
    return x.cells if hasattr(x, "cells") else ((tuple(x),),)


def _exact_problem(r: Rep, lower, upper):
    """At a truncated shift: the exact verdict, psd_check on the exact
    difference, and eval_word against the exact 0/1 matrices."""
    lo, up = _cells(lower), _cells(upper)
    if not ref.shift_relation_psd(lo, up, r.n):
        return "exact evaluation at the %d-shift rejects %r <= %r" % (r.n, lower, upper)
    diff = ref.shift_block(up, r.n) - ref.shift_block(lo, r.n)
    if not N.psd_check(diff):
        return "psd_check disagrees with the exact verdict at the %d-shift" % r.n
    for w in (lo[0][0], up[0][0]):
        if not np.allclose(N.eval_word(r.rep, w), ref.shift_matrix(w, r.n), atol=1e-12):
            return "eval_word(%r) at the %d-shift is not the exact partial permutation" % (w, r.n)
    return None


def _numpy_problem(r: Rep, upper_cells, lower_cells):
    """Power-table evaluation, apart from eval_word."""
    diff = r.tables.block(upper_cells) - r.tables.block(lower_cells)
    scale = max(1.0, float(np.abs(diff).max()))
    if ref.min_eig(diff) < -TOL * scale:
        return "power-table evaluation finds a negative eigenvalue at dimension %d" % r.n
    return None


def check_report(n, r: Rep = None, relations=(), sampled=None):
    def check(rpt):
        if rpt.total != n or not rpt.ok:
            return "%d of %d relations failed at dimension %s: %r" % (len(rpt.failures), n, r and r.n, rpt.failures[:1])
        if r is not None and r.shift:
            for lower, upper in relations:
                msg = _exact_problem(r, lower, upper)
                if msg:
                    return msg
        if sampled is not None:
            return sampled()
        return None

    return check


def check_displayed(rpt):
    if rpt.total != 1 or len(rpt.failures) != 1 or not rpt.failures[0]["min_eig"] < -TOL:
        return "the fixture should fail the displayed 2 x 2 block relation, got %s" % rpt.to_json()
    return None


# -- rounds ------------------------------------------------------------------------------


def _sampled(state, r: Rep, kind, items):
    """One seeded relation of this call, re-evaluated from power tables."""
    if r.shift or state.rng.random() >= REFERENCE_SHARE:
        return None
    item = state.rng.choice(items)
    if kind == "order":
        lower, upper = item
        return lambda: _numpy_problem(r, _cells(upper), _cells(lower))
    a = tuple(item)
    if kind == "schwarz":
        return lambda: _schwarz_problem(r, a)
    return lambda: _conjugation_problem(r, a)


def _schwarz_problem(r: Rep, a):
    img = r.tables.word(ref.prod((-1,), a, (1,)))
    diff = r.tables.word(ref.prod((-1,), ref.star(a), a, (1,))) - img.conj().T @ img
    if ref.min_eig(diff) < -TOL * max(1.0, float(np.abs(diff).max())):
        return "power-table Schwarz check fails at dimension %d" % r.n
    return None


def _conjugation_problem(r: Rep, a):
    v = r.tables.up[1]
    resid = v.conj().T @ r.tables.word(a) @ v - r.tables.word(ref.prod((-1,), a, (1,)))
    if np.abs(resid).max() > N.CONJUGATION_TOL:
        return "power-table conjugation identity fails at dimension %d" % r.n
    return None


def make_round(state: State, rng):
    ops = []
    for r in [r for r in state.reps for _ in range(CALLS_PER_REP)]:
        pairs = rng.sample(state.scalar, SCALAR_BATCH)
        ops.append(Op(lambda r=r, p=pairs: N.verify_order_rep(r.rep, p),
                      check_report(len(pairs), r, pairs, _sampled(state, r, "order", pairs)),
                      n=len(pairs), label="verify_order_rep"))
        for k in (1, 2, 3):
            if k * r.n > N.DIM_CAP:
                continue
            rels = rng.sample(state.matrix[k], MATRIX_BATCH)
            ops.append(Op(lambda r=r, k=k, rels=rels: N.verify_k_order(r.rep, k, rels),
                          check_report(len(rels), r, rels, _sampled(state, r, "order", rels)),
                          n=len(rels), wide=k * r.n >= WIDE_BLOCK, label="verify_k_order"))
        samples = [lower for lower, _ in rng.sample(state.scalar, SAMPLE_BATCH)]
        ops.append(Op(lambda r=r, s=samples: N.verify_schwarz(r.rep, s),
                      check_report(len(samples), sampled=_sampled(state, r, "schwarz", samples)),
                      n=len(samples), label="verify_schwarz"))
        samples = [lower for lower, _ in rng.sample(state.scalar, SAMPLE_BATCH)]
        ops.append(Op(lambda r=r, s=samples: N.verify_conjugation(r.rep, s),
                      check_report(len(samples), sampled=_sampled(state, r, "conjugation", samples)),
                      n=len(samples), label="verify_conjugation"))
    pairs = rng.sample(state.d0, SCALAR_BATCH)
    ops.append(Op(lambda p=pairs: N.verify_order_rep(state.fixture, p), check_report(len(pairs)),
                  n=len(pairs), label="verify_order_rep (fixture)"))
    ops.append(Op(lambda: N.verify_k_order(state.fixture, 2, [state.displayed]), check_displayed,
                  label="verify_k_order (fixture, displayed block)"))
    return ops


def self_test(state: State):
    """A relation reversed at a nonzero difference must be caught."""
    r = next(r for r in state.reps if r.shift and r.n == max(SHIFT_DIMS))
    lower, upper = next(
        (lo, up) for lo, up in state.scalar if ref.shift_support(lo, r.n) != ref.shift_support(up, r.n)
    )
    if ref.shift_relation_psd(((upper,),), ((lower,),), r.n):
        yield "the exact verdict accepts a reversed relation"
    if check_report(1, r, [(upper, lower)])(N.verify_order_rep(r.rep, [(upper, lower)])) is None:
        yield "a reversed relation passed the certification check"
