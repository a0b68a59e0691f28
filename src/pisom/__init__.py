"""Exact word calculus for the *-semigroups generated by a partial
isometry, with a numeric harness certifying their order properties at
concrete matrix partial isometries."""

from .words import (
    DomainError,
    Word,
    WordError,
    format_word,
    member,
    mul,
    parse_word,
    reduce_word,
    star,
)
from .maps import alpha, beta_omega, conj, is_irr_plus, omega
from .structure import (
    IrrTable,
    classify_sa,
    enum_irr,
    factor_a0,
    factor_d0,
    is_irreducible,
    sa_canonical_d1,
)
from .order import (
    hollow_successors,
    leq,
    sa_factor_min,
    sa_factorizations,
    upper_idempotent,
)
from .matrix import (
    GramMatrix,
    classify_matrix,
    compose_partitions,
    conj_delta,
    factor_gram,
    gram,
    immediate_predecessors,
    iota_tau,
    matrix_leq,
    matrix_successors,
    partitions,
)

# The numeric layer imports numpy; its names resolve on first access, so
# that ``import pisom`` stays free of numpy.
_NUMERIC_NAMES = (
    "GeneratorAssignment", "PartialIsometryRep", "Report", "eval_word", "psd_check",
    "random_partial_isometry", "sa_depth_fixture", "verify_conjugation", "verify_k_order",
    "verify_order_rep", "verify_schwarz",
)

__all__ = [
    "DomainError", "Word", "WordError", "format_word", "member", "mul", "parse_word", "reduce_word", "star",
    "alpha", "beta_omega", "conj", "is_irr_plus", "omega",
    "IrrTable", "classify_sa", "enum_irr", "factor_a0", "factor_d0", "is_irreducible", "sa_canonical_d1",
    "hollow_successors", "leq", "sa_factor_min", "sa_factorizations", "upper_idempotent",
    "GramMatrix", "classify_matrix", "compose_partitions", "conj_delta", "factor_gram", "gram",
    "immediate_predecessors", "iota_tau", "matrix_leq", "matrix_successors", "partitions",
    *_NUMERIC_NAMES,
]


def __getattr__(name):
    if name in _NUMERIC_NAMES:
        from . import numeric

        return getattr(numeric, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
