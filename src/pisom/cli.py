"""Command line surface: one subcommand per library operation.

Exit codes: 0 on success, 1 on domain errors, 2 on usage errors.  All
outputs are deterministic for fixed inputs and seeds; ``--json`` switches
from plain literals to JSON.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import maps, matrix, order, structure
from .words import DomainError, WordError, format_word, member, parse_word


def _emit(args, plain, obj=None):
    if args.json:
        print(json.dumps(obj if obj is not None else plain))
    else:
        print(plain)


def _bool_out(args, value: bool):
    _emit(args, "true" if value else "false", value)


def _gram_arg(text: str) -> matrix.GramMatrix:
    return matrix.GramMatrix.from_json(text)


def _partition_arg(text: str) -> tuple[int, ...]:
    parts = json.loads(text)
    if not isinstance(parts, list) or not all(type(t) is int for t in parts):
        raise DomainError("a partition must be a JSON list of integers")
    return tuple(parts)


def _cmd_reduce(args):
    seq = parse_word(args.word)
    _emit(args, format_word(seq), format_word(seq))


def _cmd_mul(args):
    w = parse_word(args.left) * parse_word(args.right)
    _emit(args, format_word(w), format_word(w))


def _cmd_star(args):
    w = parse_word(args.word).star
    _emit(args, format_word(w), format_word(w))


def _cmd_tau(args):
    _emit(args, parse_word(args.word).tau)


def _cmd_sigma(args):
    _emit(args, parse_word(args.word).sigma(args.r))


def _cmd_tau_plus(args):
    _emit(args, parse_word(args.word).tau_plus())


def _cmd_member(args):
    _bool_out(args, member(parse_word(args.word), args.tag))


def _cmd_irr(args):
    _bool_out(args, structure.is_irreducible(parse_word(args.word)))


def _cmd_factor(args):
    w = parse_word(args.word)
    factors = structure.factor_d0(w) if args.in_d0 else structure.factor_a0(w)
    _emit(args, " ".join(format_word(f) for f in factors), [format_word(f) for f in factors])


def _cmd_enum_irr(args):
    table = structure.enum_irr(args.k)
    if args.json:
        print(table.to_json())
    else:
        print(" ".join(format_word(w) for w in table.elements))


def _cmd_alpha(args):
    w = maps.alpha(parse_word(args.word))
    _emit(args, format_word(w), format_word(w))


def _cmd_omega(args):
    w = maps.omega(parse_word(args.word))
    _emit(args, format_word(w), format_word(w))


def _cmd_beta_omega(args):
    w = maps.beta_omega(parse_word(args.word))
    _emit(args, format_word(w), format_word(w))


def _cmd_sa_factor(args):
    n = parse_word(args.word)
    if args.all:
        ws = order.sa_factorizations(n)
        _emit(args, " ".join(format_word(w) for w in ws), [format_word(w) for w in ws])
    else:
        w = order.sa_factor_min(n)
        _emit(args, format_word(w), format_word(w))


def _cmd_order_leq(args):
    _bool_out(args, order.leq(parse_word(args.lower), parse_word(args.upper)))


def _cmd_order_succ(args):
    succ = sorted(order.hollow_successors(parse_word(args.word)))
    _emit(args, " ".join(format_word(w) for w in succ), [format_word(w) for w in succ])


def _cmd_gram(args):
    g = matrix.gram(matrix.vector_from_json(args.vector))
    print(g.to_json())


def _cmd_factor_gram(args):
    vecs = matrix.factor_gram(_gram_arg(args.gram))
    print(json.dumps([[format_word(w) for w in v] for v in vecs]))


def _cmd_matrix_leq(args):
    _bool_out(args, matrix.matrix_leq(_gram_arg(args.lower), _gram_arg(args.upper)))


def _cmd_matrix_succ(args):
    succ = sorted(matrix.matrix_successors(_gram_arg(args.gram)), key=matrix.GramMatrix.sort_key)
    print(json.dumps([json.loads(g.to_json()) for g in succ]))


def _cmd_matrix_pred(args):
    lo_neg, lo_pos = matrix.immediate_predecessors(_gram_arg(args.gram))
    print(json.dumps([json.loads(lo_neg.to_json()), json.loads(lo_pos.to_json())]))


def _cmd_classify(args):
    text = args.target.strip()
    if text.startswith("("):
        g = matrix.gram((order.sa_factor_min(parse_word(text)),))
    else:
        g = _gram_arg(text)
    print(matrix.classify_matrix(g).to_json())


def _cmd_partitions(args):
    parts = matrix.partitions(args.d, args.k)
    print(json.dumps([list(p) for p in parts]))


def _cmd_iota_tau(args):
    g = matrix.iota_tau(_gram_arg(args.gram), _partition_arg(args.partition))
    print(g.to_json())


def _cmd_random_pi(args):
    from . import numeric

    rep = numeric.random_partial_isometry(args.n, args.seed)
    print(numeric.matrix_to_json(rep.v))


def _cmd_verify_rep(args):
    from . import numeric

    tol = numeric.PSD_TOL if args.tol is None else args.tol
    rep = numeric.random_partial_isometry(args.dim, args.seed)
    pairs = numeric.scalar_relations(args.count, args.seed)
    rpt = numeric.verify_order_rep(rep, pairs, tol)
    rpt = rpt.merge(numeric.verify_schwarz(rep, [p[0] for p in pairs[: args.count // 2]], tol))
    rpt = rpt.merge(numeric.verify_conjugation(rep, [p[0] for p in pairs[: args.count // 2]]))
    print(rpt.to_json())


def _cmd_verify_korder(args):
    from . import numeric

    k, count = args.k, args.count
    # sampled matrix relations need a successor, which is enumerated up to
    # the k cap only
    if not 1 <= k <= matrix.K_CAP:
        raise DomainError("--k must be between 1 and %d, got %d" % (matrix.K_CAP, k))
    if count is not None and count < 0:
        raise DomainError("--count must be nonnegative, got %d" % count)
    if args.fixture and k > 2:
        raise DomainError("--fixture takes --k 1 or --k 2, got %d" % k)
    if args.fixture and k == 2 and count is not None:
        raise DomainError("--fixture at --k 2 certifies its one displayed relation; --count does not apply")
    count = 20 if count is None else count
    tol = numeric.PSD_TOL if args.tol is None else args.tol
    if args.fixture:
        assign = numeric.load_assignment(args.fixture)
        if k == 1:
            pairs = numeric.scalar_relations(count, args.seed, within="D0")
            rpt = numeric.verify_order_rep(assign, pairs, tol)
        else:
            lower, upper = numeric.displayed_block_relation()
            rpt = numeric.verify_k_order(assign, 2, [(lower, upper)], tol)
    else:
        rep = numeric.random_partial_isometry(args.dim, args.seed)
        relations = numeric.matrix_relations(count, args.seed, ks=(k,))
        rpt = numeric.verify_k_order(rep, k, relations, tol)
    print(rpt.to_json())


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pisom", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, configure):
        sp = sub.add_parser(name)
        sp.add_argument("--json", action="store_true")
        configure(sp)
        sp.set_defaults(fn=fn)
        return sp

    add("reduce", _cmd_reduce, lambda sp: sp.add_argument("word"))
    add("mul", _cmd_mul, lambda sp: (sp.add_argument("left"), sp.add_argument("right")))
    add("star", _cmd_star, lambda sp: sp.add_argument("word"))
    add("tau", _cmd_tau, lambda sp: sp.add_argument("word"))
    add("sigma", _cmd_sigma, lambda sp: (sp.add_argument("word"), sp.add_argument("r", type=int)))
    add("tau-plus", _cmd_tau_plus, lambda sp: sp.add_argument("word"))
    add("member", _cmd_member, lambda sp: (sp.add_argument("word"), sp.add_argument("tag")))
    add("irr", _cmd_irr, lambda sp: sp.add_argument("word"))
    add("factor", _cmd_factor, lambda sp: (sp.add_argument("word"), sp.add_argument("--in-d0", action="store_true")))
    add("enum-irr", _cmd_enum_irr, lambda sp: sp.add_argument("k", type=int))
    add("alpha", _cmd_alpha, lambda sp: sp.add_argument("word"))
    add("omega", _cmd_omega, lambda sp: sp.add_argument("word"))
    add("beta-omega", _cmd_beta_omega, lambda sp: sp.add_argument("word"))
    add("sa-factor", _cmd_sa_factor, lambda sp: (sp.add_argument("word"), sp.add_argument("--all", action="store_true")))
    add("order-leq", _cmd_order_leq, lambda sp: (sp.add_argument("lower"), sp.add_argument("upper")))
    add("order-succ", _cmd_order_succ, lambda sp: sp.add_argument("word"))
    add("gram", _cmd_gram, lambda sp: sp.add_argument("vector"))
    add("factor-gram", _cmd_factor_gram, lambda sp: sp.add_argument("gram"))
    add("matrix-leq", _cmd_matrix_leq, lambda sp: (sp.add_argument("lower"), sp.add_argument("upper")))
    add("matrix-succ", _cmd_matrix_succ, lambda sp: sp.add_argument("gram"))
    add("matrix-pred", _cmd_matrix_pred, lambda sp: sp.add_argument("gram"))
    add("classify", _cmd_classify, lambda sp: sp.add_argument("target"))
    add("partitions", _cmd_partitions, lambda sp: (sp.add_argument("d", type=int), sp.add_argument("k", type=int)))
    add("iota-tau", _cmd_iota_tau, lambda sp: (sp.add_argument("gram"), sp.add_argument("partition")))
    add(
        "random-pi",
        _cmd_random_pi,
        lambda sp: (sp.add_argument("n", type=int), sp.add_argument("--seed", type=int, default=0)),
    )
    add(
        "verify-rep",
        _cmd_verify_rep,
        lambda sp: (
            sp.add_argument("--seed", type=int, default=0),
            sp.add_argument("--dim", type=int, default=4),
            sp.add_argument("--count", type=int, default=50),
            sp.add_argument("--tol", type=float),
        ),
    )
    add(
        "verify-korder",
        _cmd_verify_korder,
        lambda sp: (
            sp.add_argument("--k", type=int, default=2),
            sp.add_argument("--seed", type=int, default=0),
            sp.add_argument("--dim", type=int, default=4),
            sp.add_argument("--count", type=int),  # 20, or the one displayed relation at --fixture --k 2
            sp.add_argument("--tol", type=float),
            sp.add_argument("--fixture"),
        ),
    )
    return p


def _numeric_errors() -> tuple:
    """The numeric layer's input errors, once a command has imported it
    (and numpy with it); the except clause evaluates this when it matches."""
    numeric = sys.modules.get("pisom.numeric")
    return (numeric.InvalidRepError, sys.modules["numpy"].linalg.LinAlgError) if numeric else ()


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.fn(args)
    except (WordError, DomainError, json.JSONDecodeError, *_numeric_errors()) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
