"""Command line surface: one subcommand per library operation.

Exit codes: 0 on success, 1 on domain errors, 2 on usage errors.  A
closed stdout ends a call with 1 and nothing on stderr.  All outputs are
deterministic for fixed inputs and seeds.

Each subcommand prints its result by kind.  A word prints as its literal,
under --json as a JSON string; a list of words prints space-joined, under
--json as a JSON list; true/false and integers print the same either way.
enum-irr prints its words, or under --json the table as a JSON object.
gram, factor-gram, matrix-succ, matrix-pred, classify, partitions,
iota-tau, random-pi, verify-rep and verify-korder always print JSON.

A call loads only the layers its command uses: the handlers reach them
through the package's lazily resolved names, or import them when they run.
It imports json only when it reads or writes JSON, so a words, maps,
structure or order command without --json never does.

A call that names each option once, in full, with its value as the next
argument and not starting with "-", is read without argparse, and imports
none of it, even when it ends in a domain error.  Every other call, and
every request for help, goes to argparse, so help, usage and usage errors
are argparse's, unchanged.
"""

import math
import os
import re
import sys
import types

import pisom

from .words import DomainError, Word, WordError, _echo, format_word, member, parse_word

#: sampled relations times choice vectors per draw (2^k at rank k) in one
#: verify-korder call; 20 x 2^8 keeps the default --count at every --k
KORDER_WORK_CAP = 20 * 2**8
#: --count times --dim in one verify-rep call: a relation costs about 1 ms
#: at --dim 64, so the largest accepted call runs for about 3 s
REP_WORK_CAP = 2**17


def _partition_arg(text: str) -> tuple[int, ...]:
    from .matrix import read_json

    parts = read_json(text)
    if not isinstance(parts, list) or not all(type(t) is int for t in parts):
        raise DomainError("a partition must be a JSON list of integers")
    return tuple(parts)


def _gram_arg(text: str):
    return pisom.GramMatrix.from_json(text)


def _grams_json(grams) -> str:
    return "[%s]" % ", ".join(g.to_json() for g in grams)


def _dumps(obj) -> str:
    import json

    return json.dumps(obj)


def _show(args, result) -> None:
    """Print a command's result by its kind, as the module docstring states.
    A bool or an int prints as json.dumps writes it, in both forms."""
    if isinstance(result, Word):
        text = format_word(result)
        print(_dumps(text) if args.json else text)
    elif isinstance(result, (list, tuple)):
        texts = [format_word(w) for w in result]
        print(_dumps(texts) if args.json else " ".join(texts))
    elif isinstance(result, str):
        print(result)
    elif isinstance(result, bool):
        print("true" if result else "false")
    else:
        print(result)


def _enum_irr(args):
    table = pisom.enum_irr(args.k)
    return table.to_json() if args.json else table.elements


def _classify(args):
    text = args.target.strip()
    if text.startswith("("):
        g = pisom.gram((pisom.sa_factor_min(parse_word(text)),))
    else:
        g = _gram_arg(text)
    return pisom.classify_matrix(g).to_json()


def _gram(args):
    from . import matrix

    return matrix.gram(matrix.vector_from_json(args.vector)).to_json()


def _tol(args) -> float:
    """--tol, by default the numeric layer's PSD tolerance.  A nan or negative
    tolerance fails every relation and an infinite one certifies every one,
    so only a finite tolerance >= 0 is accepted."""
    from . import numeric

    tol = numeric.PSD_TOL if args.tol is None else args.tol
    if not (math.isfinite(tol) and tol >= 0):
        raise DomainError("--tol must be finite and >= 0, got %s" % tol)
    return tol


def _random_pi(args):
    from . import numeric

    rep = numeric.random_partial_isometry(args.n, args.seed)
    return numeric.matrix_to_json(rep.v)


def _verify_rep(args):
    from . import numeric

    tol = _tol(args)
    rep = numeric.random_partial_isometry(args.dim, args.seed)
    if args.count * args.dim > REP_WORK_CAP:
        raise DomainError(
            "--count %s at --dim %d exceeds the cap of %d on --count times --dim"
            % (_echo(args.count), args.dim, REP_WORK_CAP)
        )
    pairs = numeric.scalar_relations(args.count, args.seed)
    rpt = numeric.verify_order_rep(rep, pairs, tol)
    samples = [p[0] for p in pairs[: args.count // 2]]
    rpt = rpt.merge(numeric.verify_schwarz(rep, samples, tol))
    rpt = rpt.merge(numeric.verify_conjugation(rep, samples))
    return rpt.to_json()


def _verify_korder(args):
    from . import matrix, numeric

    k, count = args.k, args.count
    # sampled matrix relations need a successor, which is enumerated up to
    # the k cap only
    if not 1 <= k <= matrix.K_CAP:
        raise DomainError("--k must be between 1 and %d, got %s" % (matrix.K_CAP, _echo(k)))
    if count is not None and count < 0:
        raise DomainError("--count must be nonnegative, got %s" % _echo(count))
    if args.fixture and k > 2:
        raise DomainError("--fixture takes --k 1 or --k 2, got %d" % k)
    if args.fixture and k == 2 and count is not None:
        raise DomainError("--fixture at --k 2 certifies its one displayed relation; --count does not apply")
    count = 20 if count is None else count
    if count * 2**k > KORDER_WORK_CAP:
        # count * 2**k is not printed: it may pass Python's 4,300 digits
        raise DomainError(
            "--count %s at --k %d exceeds the cap of %d on --count times 2^k" % (_echo(count), k, KORDER_WORK_CAP)
        )
    tol = _tol(args)
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
    return rpt.to_json()


class _Digits(str):
    """An integer argument of more than 4,300 digits, as its text."""


def _int(text: str):
    """An integer argument as int reads it.  A decimal literal of more than
    4,300 digits, past Python's limit on int/str conversion, comes back as
    a _Digits, for run to refuse once parsing is done (exit 1), since
    argparse makes a refusal here a usage error (exit 2).  Any other text
    that int refuses is one, and argparse's echo of it is cut as
    words._echo cuts it."""
    try:
        return int(text)
    except ValueError:
        if re.fullmatch(r"\s*[+-]?\d{4301,}\s*", text):
            return _Digits(text)
        import argparse

        raise argparse.ArgumentTypeError("invalid int value: %r" % _echo(text)) from None


def _refuse_long_integers(args) -> None:
    """Refuse the first integer argument of more than 4,300 digits, named as
    argparse names it."""
    for arg in next(row for row in COMMANDS if row[0] == args.command)[2:]:
        if isinstance(arg, tuple) and type(getattr(args, arg[0].lstrip("-"))) is _Digits:
            raise DomainError("argument %s: an integer has more than 4,300 digits" % arg[0])


_SEED, _DIM, _TOL = ("--seed", _int, 0), ("--dim", _int, 4), ("--tol", float, None)

#: one row per subcommand, in the order the usage lists them: its name, the
#: function that returns the result _show prints, and its arguments.  An
#: argument is a positional name or (name, type) pair, a "--flag" switch, or
#: a (flag, type, default) option; the type is argparse's, _int for an
#: integer.  build_parser and _parse both read it.
COMMANDS = (
    ("reduce", lambda a: parse_word(a.word), "word"),
    ("mul", lambda a: parse_word(a.left) * parse_word(a.right), "left", "right"),
    ("star", lambda a: parse_word(a.word).star, "word"),
    ("tau", lambda a: parse_word(a.word).tau, "word"),
    ("sigma", lambda a: parse_word(a.word).sigma(a.r), "word", ("r", _int)),
    ("tau-plus", lambda a: parse_word(a.word).tau_plus(), "word"),
    ("member", lambda a: member(parse_word(a.word), a.tag), "word", "tag"),
    ("irr", lambda a: pisom.is_irreducible(parse_word(a.word)), "word"),
    (
        "factor",
        lambda a: (pisom.factor_d0 if a.in_d0 else pisom.factor_a0)(parse_word(a.word)),
        "word",
        "--in-d0",
    ),
    ("enum-irr", _enum_irr, ("k", _int)),
    ("alpha", lambda a: pisom.alpha(parse_word(a.word)), "word"),
    ("omega", lambda a: pisom.omega(parse_word(a.word)), "word"),
    ("beta-omega", lambda a: pisom.beta_omega(parse_word(a.word)), "word"),
    (
        "sa-factor",
        lambda a: (pisom.sa_factorizations if a.all else pisom.sa_factor_min)(parse_word(a.word)),
        "word",
        "--all",
    ),
    ("order-leq", lambda a: pisom.leq(parse_word(a.lower), parse_word(a.upper)), "lower", "upper"),
    ("order-succ", lambda a: sorted(pisom.hollow_successors(parse_word(a.word))), "word"),
    ("gram", _gram, "vector"),
    (
        "factor-gram",
        lambda a: _dumps([[format_word(w) for w in v] for v in pisom.factor_gram(_gram_arg(a.gram))]),
        "gram",
    ),
    ("matrix-leq", lambda a: pisom.matrix_leq(_gram_arg(a.lower), _gram_arg(a.upper)), "lower", "upper"),
    (
        "matrix-succ",
        lambda a: _grams_json(sorted(pisom.matrix_successors(_gram_arg(a.gram)), key=lambda g: g.cells)),
        "gram",
    ),
    ("matrix-pred", lambda a: _grams_json(pisom.immediate_predecessors(_gram_arg(a.gram))), "gram"),
    ("classify", _classify, "target"),
    ("partitions", lambda a: _dumps([list(p) for p in pisom.partitions(a.d, a.k)]), ("d", _int), ("k", _int)),
    (
        "iota-tau",
        lambda a: pisom.iota_tau(_gram_arg(a.gram), _partition_arg(a.partition)).to_json(),
        "gram",
        "partition",
    ),
    ("random-pi", _random_pi, ("n", _int), _SEED),
    ("verify-rep", _verify_rep, _SEED, _DIM, ("--count", _int, 50), _TOL),
    # --count defaults to 20, or to the one displayed relation at --fixture --k 2
    (
        "verify-korder",
        _verify_korder,
        ("--k", _int, 2),
        _SEED,
        _DIM,
        ("--count", _int, None),
        _TOL,
        ("--fixture", None, None),
    ),
)


def build_parser(command=None):
    """The pisom parser.  It holds only the named command's subparser when
    command names one, and every subparser otherwise; argparse matches
    subcommand names exactly, so both parse a call to that command alike."""
    import argparse

    rows = [row for row in COMMANDS if row[0] == command] or COMMANDS
    p = argparse.ArgumentParser(prog="pisom", description=__doc__)
    # the usage lists every command either way; given only when one is built,
    # since argparse names the argument by its metavar in its errors
    names = "{%s}" % ",".join(row[0] for row in COMMANDS)
    sub = p.add_subparsers(dest="command", required=True, metavar=names if len(rows) == 1 else None)
    for name, fn, *arguments in rows:
        sp = sub.add_parser(name)
        sp.add_argument("--json", action="store_true")
        for arg in arguments:
            if isinstance(arg, str) and arg.startswith("--"):
                sp.add_argument(arg, action="store_true")
            elif isinstance(arg, str):
                sp.add_argument(arg)
            elif len(arg) == 2:
                sp.add_argument(arg[0], type=arg[1])
            else:
                sp.add_argument(arg[0], type=arg[1], default=arg[2])
        sp.set_defaults(fn=fn)
    return p


def _parse(argv):
    """The attributes parse_args sets for argv, read off COMMANDS, when argv
    is a command's name and then its arguments in the one plain shape: each
    positional a token that does not start with "-", as many as the command
    takes, each option its exact name given at most once, a value option
    followed by a value that does not start with "-", and each value
    accepted by its type.  argparse reads that shape the same way.  None for
    any other argv, which goes to argparse."""
    row = next((row for row in COMMANDS if argv and row[0] == argv[0]), None)
    if row is None:
        return None
    args = types.SimpleNamespace(command=row[0], fn=row[1])
    # a flag's type is None for a switch; a value or positional without a
    # type is kept as its text
    flags, positionals, texts, values = {}, [], [], []
    for arg in ("--json", *row[2:]):
        if isinstance(arg, str) and arg.startswith("--"):
            flags[arg] = None
            setattr(args, arg[2:].replace("-", "_"), False)
        elif isinstance(arg, str) or len(arg) == 2:
            positionals.append((arg, str) if isinstance(arg, str) else arg)
        else:
            flags[arg[0]] = arg[1] or str
            setattr(args, arg[0][2:], arg[2])
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            texts.append(token)
        elif token not in flags:
            return None
        elif (kind := flags.pop(token)) is None:
            setattr(args, token[2:].replace("-", "_"), True)
        else:
            value = next(tokens, "-")
            if value.startswith("-"):
                return None
            values.append((token[2:], kind, value))
    if len(texts) != len(positionals):
        return None
    values += [(name, kind, text) for (name, kind), text in zip(positionals, texts)]
    try:
        for dest, kind, text in values:
            setattr(args, dest, kind(text))
    except Exception:  # float's ValueError or _int's ArgumentTypeError: argparse words it
        return None
    return args


def _numeric_errors() -> tuple:
    """numpy's LinAlgError, once a command has imported numpy; the except
    clause evaluates this when it matches."""
    numpy = sys.modules.get("numpy")
    return (numpy.linalg.LinAlgError,) if numpy else ()


def run(argv) -> int:
    args = _parse(argv)
    if args is None:
        try:
            args = build_parser(argv[0] if argv else None).parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        _refuse_long_integers(args)
        _show(args, args.fn(args))
    except (WordError, DomainError, *_numeric_errors()) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


def main() -> None:
    """Run the command line; a closed stdout ends it with exit code 1 and
    nothing on stderr.  Flushing inside the try makes a write to a closed
    pipe fail here, and stdout then points at os.devnull, so that the flush
    at exit cannot fail again (the Python documentation's note on SIGPIPE)."""
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
