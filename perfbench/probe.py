"""A fixed set of calls that reaches every traced entry point once.

Traced rounds end with this probe, so each per-layer figure is measured on
every workload; on a workload that does not use a layer, that layer's
figures come from the probe alone.  Inputs are built untraced, once.
"""

from __future__ import annotations

import pisom.maps as maps
import pisom.matrix as M
import pisom.numeric as N
import pisom.order as order
import pisom.structure as S
from pisom.words import parse_word


class Probe:
    def __init__(self):
        p = parse_word
        self.d0 = p("(-2,2,-3,3)")
        self.irr = p("(-4,2,-2,4)")
        self.sa = p("(-3,2,-2,3)")
        self.low, self.high = p("(-5,5)"), p("(-1,1)")
        self.g = M.gram((p("(-2,3)"), p("(-3,4)")))
        self.rep = N.random_partial_isometry(3, 0)
        self.pair = (self.sa, sorted(order.hollow_successors(self.sa))[0])
        self.diff = N.eval_word(self.rep, self.pair[1]) - N.eval_word(self.rep, self.pair[0])

    def __call__(self):
        S.factor_a0(self.d0)
        S.factor_d0(self.d0)
        S.sa_canonical_d1(self.sa)
        maps.alpha(self.d0)
        maps.omega(self.d0)
        maps.beta_omega(self.irr)
        order.sa_factorizations(self.sa)
        order.hollow_successors(self.sa)
        order.leq(self.low, self.high)
        M.gram(self.g.witness)
        M.factor_gram(self.g)
        M.matrix_successors(self.g)
        M.immediate_predecessors(self.g)
        M.classify_matrix(self.g)
        N.eval_word(self.rep, self.d0)
        N.psd_check(self.diff)
        N.verify_order_rep(self.rep, [self.pair, self.pair])
