"""Exact word calculus for the *-semigroups generated by a partial
isometry, with a numeric harness certifying their order properties at
concrete matrix partial isometries.

Importing the package loads none of its layers.  Each exported name is
resolved on first access by importing the layer that defines it, so a
caller, the command line in particular, compiles only the layers it uses,
and numpy is loaded only with ``numeric``.
"""

from importlib import import_module

#: (layer, the names the package exports from it)
_EXPORTS = (
    ("words", ("DomainError", "Word", "WordError", "format_word", "member", "parse_word", "reduce_word")),
    ("maps", ("alpha", "beta_omega", "conj", "is_irr_plus", "omega")),
    ("structure", ("IrrTable", "classify_sa", "enum_irr", "factor_a0", "factor_d0", "is_irreducible",
                   "sa_canonical_d1")),
    ("order", ("hollow_successors", "leq", "sa_factor_min", "sa_factorizations", "upper_idempotent")),
    ("matrix", ("GramMatrix", "classify_matrix", "compose_partitions", "conj_delta", "factor_gram", "gram",
                "immediate_predecessors", "iota_tau", "matrix_leq", "matrix_successors", "partitions")),
    ("numeric", ("GeneratorAssignment", "PartialIsometryRep", "Report", "eval_word", "psd_check",
                 "random_partial_isometry", "sa_depth_fixture", "verify_conjugation", "verify_k_order",
                 "verify_order_rep", "verify_schwarz")),
)

__all__ = [name for _, names in _EXPORTS for name in names]


def __getattr__(name):
    for layer, names in _EXPORTS:
        if name in names:
            return getattr(import_module("." + layer, __name__), name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
