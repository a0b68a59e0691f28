import ast
import importlib.util
import io
import json
import os
import pathlib
import signal
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import pisom.cli as cli
from pisom.cli import KORDER_WORK_CAP, REP_WORK_CAP, build_parser, run
from pisom.matrix import VECTOR_CAP, gram
from pisom.words import DomainError, Word, parse_word

REPO = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"
ORDER_FIXTURE = str(pathlib.Path(__file__).parent / "assets" / "order_fixture.json")

HMM_GRAM_JSON = (
    '{"k": 2, "cells": [["(-3,2,-2,3)", "(-3,2,-3,4)"], '
    '["(-4,3,-2,3)", "(-4,3,-3,4)"]], "witness": ["(-2,3)", "(-3,4)"]}'
)

GOLDEN_CASES = [
    ("reduce", ["reduce", "(2,-1,2,-1)"]),
    ("mul", ["mul", "(-3,3)", "(2,-2)"]),
    ("star", ["star", "(-3,2)"]),
    ("tau", ["tau", "(3,-1)"]),
    ("sigma", ["sigma", "(-2,3,-3,2)", "1"]),
    ("tau_plus", ["tau-plus", "(-4,2,-2,4)"]),
    ("member_d0", ["member", "(-2,3,-3,2)", "D0"]),
    ("member_aplus0", ["member", "(-2,3,-3,2)", "Aplus0"]),
    ("irr", ["irr", "(-3,2,-2,3)"]),
    ("factor", ["factor", "(-2,3,-3,2)"]),
    ("enum5", ["enum-irr", "5", "--json"]),
    ("enum6", ["enum-irr", "6", "--json"]),
    ("alpha", ["alpha", "(1,-1)"]),
    ("omega", ["omega", "(-2,2)"]),
    ("beta_omega", ["beta-omega", "(-4,2,-2,4)"]),
    ("sa_factor", ["sa-factor", "(-3,2,-2,3)"]),
    ("sa_factor_all", ["sa-factor", "(1,-1)", "--all"]),
    ("order_leq", ["order-leq", "(-5,5)", "(-1,1)"]),
    ("order_succ", ["order-succ", "(-3,2,-2,3)"]),
    ("gram", ["gram", '["(-2,3)","(-3,4)"]']),
    ("factor_gram", ["factor-gram", HMM_GRAM_JSON]),
    ("matrix_leq", ["matrix-leq", HMM_GRAM_JSON, HMM_GRAM_JSON]),
    ("matrix_succ", ["matrix-succ", HMM_GRAM_JSON]),
    (
        "matrix_pred",
        ["matrix-pred", '{"k": 2, "cells": [["(-6,5,-2,2,-5,6)", "(-6,5,-4,5)"], '
         '["(-5,4,-5,6)", "(-5,2,-2,5)"]], "witness": ["(2,-5,6)", "(-2,5)"]}'],
    ),
    ("classify_hmm", ["classify", HMM_GRAM_JSON]),
    ("classify_word", ["classify", "(-2,2,-2,2)"]),
    ("partitions", ["partitions", "2", "3"]),
    ("iota_tau", ["iota-tau", '{"k": 1, "cells": [["(-3,2,-2,3)"]], "witness": ["(-2,3)"]}', "[2]"]),
    ("verify_rep", ["verify-rep", "--seed", "0", "--dim", "3", "--count", "20"]),
]


ONE_CELL_GRAM_JSON = '{"k": 1, "cells": [["(-3,2,-2,3)"]], "witness": ["(-2,3)"]}'

MALFORMED_JSON_CASES = [
    ("vector_of_ints", ["gram", "[3]"]),
    ("gram_is_list_of_ints", ["factor-gram", "[1,2]"]),
    ("gram_is_list_of_rows", ["factor-gram", '[["(-1,1)"]]']),
    ("gram_without_cells", ["factor-gram", '{"k": 1, "witness": ["(1)"]}']),
    ("partition_string_part", ["iota-tau", ONE_CELL_GRAM_JSON, '["x"]']),
    ("partition_float_part", ["iota-tau", HMM_GRAM_JSON, "[1.5,1]"]),
    ("partition_bool_part", ["iota-tau", ONE_CELL_GRAM_JSON, "[true]"]),
    ("gram_with_foreign_witness", ["iota-tau", '{"k":1,"cells":[["(-1,1)"]],"witness":["(5)"]}', "[2]"]),
]


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden(name, argv):
    code, out, err = invoke(argv)
    assert code == 0, err
    expected = (GOLDEN_DIR / (name + ".txt")).read_bytes()
    assert out.encode() == expected


#: goldens whose plain form is a space-joined word list, not one word
WORD_LIST_GOLDENS = {"factor", "sa_factor_all", "order_succ"}


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_json(name, argv):
    # --json prints json.dumps of the value the plain golden shows: a word as
    # a string, a word list as a list, true/false and integers unchanged; the
    # commands that always print JSON print the golden itself
    code, out, err = invoke(argv + ["--json"])
    assert code == 0, err
    plain = (GOLDEN_DIR / (name + ".txt")).read_text()
    try:
        json.loads(plain)
        expected = plain
    except json.JSONDecodeError:
        text = plain.rstrip("\n")
        expected = json.dumps(text.split(" ") if name in WORD_LIST_GOLDENS else text) + "\n"
    assert out == expected


def test_exit_codes():
    code, _, err = invoke(["reduce", "(0)"])
    assert code == 1 and "zero entry" in err
    code, _, err = invoke(["factor", "(1,-2)"])
    assert code == 1
    code, _, _ = invoke(["bogus-subcommand"])
    assert code == 2
    code, _, _ = invoke(["mul", "(1)"])
    assert code == 2


def test_random_pi_deterministic():
    c1, out1, _ = invoke(["random-pi", "3", "--seed", "11"])
    c2, out2, _ = invoke(["random-pi", "3", "--seed", "11"])
    assert c1 == c2 == 0 and out1 == out2
    obj = json.loads(out1)
    assert obj["n"] == 3


def test_enum_irr_has_no_cache_option(tmp_path):
    code, out, _ = invoke(["enum-irr", "6", "--cache", str(tmp_path / "irr.json")])
    assert code == 2 and out == ""
    assert not (tmp_path / "irr.json").exists()


def test_verify_korder_fixture_fails_at_2(tmp_path):
    asset = pathlib.Path(__file__).parent / "assets" / "order_fixture.json"
    code, out, _ = invoke(["verify-korder", "--k", "2", "--fixture", str(asset)])
    assert code == 0
    rpt = json.loads(out)
    assert rpt["total"] == 1 and len(rpt["failures"]) == 1
    code, out, _ = invoke(
        ["verify-korder", "--k", "1", "--fixture", str(asset), "--count", "40"]
    )
    assert code == 0
    rpt = json.loads(out)
    assert rpt["total"] == 40 and rpt["failures"] == []


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["--k", "0"], "--k"),
        (["--k", "-1"], "--k"),
        (["--k", "9"], "--k"),
        (["--count", "-1"], "--count"),
        (["--fixture", ORDER_FIXTURE, "--k", "5"], "--k"),
        (["--fixture", ORDER_FIXTURE, "--k", "0"], "--k"),
        (["--fixture", ORDER_FIXTURE, "--k", "-3"], "--k"),
        (["--fixture", ORDER_FIXTURE, "--k", "1", "--count", "-1"], "--count"),
        (["--fixture", ORDER_FIXTURE, "--k", "2", "--count", "999"], "--count"),
        (["--fixture", ORDER_FIXTURE, "--k", "2", "--count", "20"], "--count"),
    ],
)
def test_verify_korder_refuses_arguments_it_cannot_honour(argv, flag):
    code, out, err = invoke(["verify-korder", *argv])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and flag in err and err.count("\n") == 1, err


@pytest.mark.parametrize("k", range(1, 9))
def test_verify_korder_work_cap_boundary(monkeypatch, k):
    # count x 2^k choice vectors may reach the cap and not pass it; the
    # sampler is stubbed, so the largest accepted call is not run here
    import pisom.numeric as numeric

    drawn = []

    def sample(count, seed, ks):
        drawn.append((count, ks))
        return []

    monkeypatch.setattr(numeric, "matrix_relations", sample)
    most = KORDER_WORK_CAP // 2**k
    assert most >= 20  # the default --count is accepted at every --k
    code, out, err = invoke(["verify-korder", "--k", str(k), "--count", str(most)])
    assert (code, json.loads(out), err) == (0, {"total": 0, "failures": []}, "")
    assert drawn == [(most, (k,))]
    code, out, err = invoke(["verify-korder", "--k", str(k), "--count", str(most + 1)])
    assert code == 1 and out == "" and drawn == [(most, (k,))]
    assert err.startswith("error: --count %d at --k %d" % (most + 1, k)) and "cap" in err and err.count("\n") == 1


def test_verify_korder_honours_count():
    for argv, total in ((["--k", "1", "--count", "0"], 0), (["--k", "2", "--count", "3"], 3)):
        code, out, err = invoke(["verify-korder", *argv])
        assert code == 0, err
        assert json.loads(out)["total"] == total


def test_verify_korder_samples_wide_vectors():
    # above k = 3 each word is drawn among those compatible with the words
    # drawn so far, so the documented top of the --k range is reachable
    for k in ("5", "8"):
        code, out, err = invoke(["verify-korder", "--k", k, "--dim", "2", "--count", "6"])
        assert code == 0, err
        assert json.loads(out) == {"total": 6, "failures": []}


def test_json_flag_variants():
    code, out, _ = invoke(["mul", "(-3,3)", "(2,-2)", "--json"])
    assert code == 0 and json.loads(out) == "(-3,5,-2)"
    code, out, _ = invoke(["order-leq", "(-5,5)", "(-1,1)", "--json"])
    assert json.loads(out) is True


@pytest.mark.parametrize("argv", [c[1] for c in MALFORMED_JSON_CASES], ids=[c[0] for c in MALFORMED_JSON_CASES])
def test_malformed_json_is_one_error_line(argv):
    code, out, err = invoke(argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_malformed_json_under_optimize():
    # python -O strips asserts; input checks must not depend on them
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    for name, argv in MALFORMED_JSON_CASES:
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "pisom.cli", *argv], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 1, name
        assert proc.stdout == "" and proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, name


def _src_env():
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))


def test_numpy_is_imported_only_by_numeric_commands():
    script = (
        "import io, sys, contextlib\n"
        "import pisom, pisom.cli\n"
        "assert 'numpy' not in sys.modules, 'import'\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert pisom.cli.run(['reduce', '(2,-1,2,-1)']) == 0\n"
        "    assert pisom.cli.run(['reduce', '(0)']) == 1\n"
        "assert 'numpy' not in sys.modules, 'reduce'\n"
        "pisom.eval_word\n"
        "assert 'numpy' in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_no_module_imports_dataclasses():
    modules = sorted(p.stem for p in (REPO / "src" / "pisom").glob("*.py") if p.stem != "__init__")
    assert "numeric" in modules
    script = (
        "import importlib, sys\n"
        "import pisom.cli\n"
        "for name in %r:\n"
        "    importlib.import_module('pisom.' + name)\n"
        "assert 'dataclasses' not in sys.modules\n" % (modules,)
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_a_words_command_loads_only_words():
    script = (
        "import io, sys, contextlib\n"
        "import pisom.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert pisom.cli.run(['reduce', '(2,-1,2,-1)']) == 0\n"
        "loaded = sorted(m for m in sys.modules if m.partition('.')[0] == 'pisom')\n"
        "assert loaded == ['pisom', 'pisom.cli', 'pisom.words'], loaded\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_every_exported_name_resolves():
    import pisom

    assert len(set(pisom.__all__)) == len(pisom.__all__)
    for name in pisom.__all__:
        obj = getattr(pisom, name)
        assert getattr(obj, "__name__", name) == name, name
    namespace = {}
    exec("from pisom import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(pisom.__all__)
    with pytest.raises(AttributeError, match="no attribute 'K_CAP'"):
        pisom.K_CAP


def test_numeric_errors_are_one_error_line(monkeypatch):
    import numpy as np

    import pisom.numeric as numeric

    for exc in (numeric.InvalidRepError("not a partial isometry"), np.linalg.LinAlgError("no convergence")):

        def boom(*args, exc=exc):
            raise exc

        monkeypatch.setattr(numeric, "random_partial_isometry", boom)
        code, out, err = invoke(["random-pi", "2"])
        assert code == 1 and out == "" and err == "error: %s\n" % exc


# file name -> contents; None leaves the file missing, "/" names a directory
FIXTURE_ERROR_CASES = {
    "missing": None,
    "directory": "/",
    "bad_json": "{not json",
    "no_images": '{"n": 1}',
    "no_n": '{"images": {}}',
    "not_an_object": "[1]",
    "rule_without_number": '{"kind": "sa_depth_rule", "c": "x"}',
    "non_numeric_image": '{"n": 1, "images": {"(-3,2,-3,4)": {"re": [["x"]], "im": [[0]]}}}',
    "duplicate_image": '{"n": 1, "images": {"(-2,2)": {"re": [[1]], "im": [[0]]}, '
    '"(-2,1,-1,2)": {"re": [[2]], "im": [[0]]}}}',
    "repeated_literal": '{"n": 1, "images": {"(-2,2)": {"re": [[1]], "im": [[0]]}, '
    '"(-2,2)": {"re": [[2]], "im": [[0]]}}}',
    "nan_image": '{"n": 1, "images": {"(-2,2)": {"re": [[NaN]], "im": [[0]]}}}',
    "infinite_image": '{"n": 1, "images": {"(-2,2)": {"re": [[Infinity]], "im": [[0]]}}}',
    "infinite_imaginary_part": '{"n": 1, "images": {"(-2,2)": {"re": [[0]], "im": [[-Infinity]]}}}',
    # finite, but its square overflows when a D0 relation is evaluated
    "overflowing_image": '{"n": 1, "images": {"(-2,2)": {"re": [[1e200]], "im": [[0]]}}}',
    # finite, but the gap between one image and the star of the other overflows
    "overflowing_star_gap": '{"n": 1, "images": {"(-3,2,-3,4)": {"re": [[1e308]], "im": [[0]]}, '
    '"(-4,3,-2,3)": {"re": [[-1e308]], "im": [[0]]}}}',
}


@pytest.mark.filterwarnings("error")  # a numpy warning on stderr breaks the one-line contract
@pytest.mark.parametrize("name", FIXTURE_ERROR_CASES)
def test_verify_korder_fixture_errors(tmp_path, name):
    # --k 1 evaluates the images on sampled D0 relations, so an image that
    # loads but overflows is refused too
    path, text = tmp_path / name, FIXTURE_ERROR_CASES[name]
    if text == "/":
        path.mkdir()
    elif text is not None:
        path.write_text(text)
    code, out, err = invoke(["verify-korder", "--k", "1", "--fixture", str(path)])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "argv",
    [
        ["random-pi", "65"],
        ["verify-rep", "--dim", "65"],
        ["verify-korder", "--dim", "65"],
        ["partitions", "30", "30"],
        ["enum-irr", "21"],
        ["iota-tau", ONE_CELL_GRAM_JSON, "[1001]"],
        ["iota-tau", ONE_CELL_GRAM_JSON, "[1000000000000]"],
        ["verify-rep", "--count", "100001"],
        ["verify-rep", "--count", "-1"],
        ["verify-korder", "--count", "100001"],
        ["verify-korder", "--fixture", ORDER_FIXTURE, "--k", "1", "--count", "1000000000000"],
        ["verify-rep", "--dim", "64", "--count", "100000"],
        ["gram", json.dumps(["(1)"] * 1000)],
    ],
)
def test_size_caps_refuse_before_allocating(argv):
    code, out, err = invoke(argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "cap" in err and err.count("\n") == 1, err


@pytest.mark.parametrize("dim", [2, 3, 4, 16, 64])
def test_verify_rep_work_cap_boundary(monkeypatch, dim):
    # count x dim may reach the cap and not pass it; the sampler is stubbed,
    # so the largest accepted call is not run here
    import pisom.numeric as numeric

    drawn = []

    def sample(count, seed):
        drawn.append(count)
        return []

    monkeypatch.setattr(numeric, "scalar_relations", sample)
    most = REP_WORK_CAP // dim
    assert most >= 50  # the default --count is accepted at every --dim
    code, out, err = invoke(["verify-rep", "--dim", str(dim), "--count", str(most)])
    assert (code, json.loads(out), err) == (0, {"total": 0, "failures": []}, "")
    assert drawn == [most]
    code, out, err = invoke(["verify-rep", "--dim", str(dim), "--count", str(most + 1)])
    assert code == 1 and out == "" and drawn == [most]
    assert err.startswith("error: --count %d at --dim %d" % (most + 1, dim)) and "cap" in err and err.count("\n") == 1


def _rising(n):
    """The reduced word (-1,2,-3,...) of n entries."""
    return "(%s)" % ",".join(str((-1) ** (i + 1) * (i + 1)) for i in range(n))


@pytest.mark.parametrize(
    "accepted,refused",
    [(["(1)"] * 500, ["(1)"] * 501), ([_rising(100)] * 50, [_rising(89)] * 53)],
    ids=["one-entry", "long"],
)
def test_gram_vector_cap_boundary(accepted, refused):
    # words times entries in all may reach the cap and not pass it; the
    # largest accepted vector, 500 one-entry words, is built in about 1 s
    def size(v):
        return len(v) * sum(len(parse_word(w)) for w in v)

    assert size(accepted) == VECTOR_CAP < size(refused) <= VECTOR_CAP + 1001
    code, out, err = invoke_within(10.0, ["gram", json.dumps(accepted)])
    assert code == 0 and err == "" and json.loads(out)["k"] == len(accepted)
    code, out, err = invoke_within(1.0, ["gram", json.dumps(refused)])
    assert code == 1 and out == ""
    assert err.startswith("error: a vector of %d words" % len(refused)) and "cap" in err and err.count("\n") == 1


@pytest.mark.parametrize("tol", ["nan", "inf", "1e400", "-1"])
@pytest.mark.parametrize("command", ["verify-rep", "verify-korder"])
def test_tol_must_be_finite_and_nonnegative(command, tol):
    # nan or a negative tolerance fails every relation, an infinite one
    # (1e400 reads as inf) certifies every one; both are refused
    code, out, err = invoke([command, "--tol", tol, "--count", "2"])
    assert code == 1 and out == ""
    assert err.startswith("error: --tol must be finite and >= 0, got ") and err.count("\n") == 1, err
    code, out, err = invoke([command, "--tol", "0", "--count", "2"])
    assert code == 0 and err == "" and json.loads(out)["total"] > 0


def _k9_gram_json(word):
    return gram((Word(word),) * 9).to_json()


@pytest.mark.parametrize("argv", [["matrix-succ", _k9_gram_json((-2, 2))]], ids=["matrix-succ"])
def test_matrix_enumeration_refuses_rank_nine(argv):
    # successor enumeration is capped at k = 8, and no option lifts the cap
    code, out, err = invoke(argv)
    assert code == 1 and out == ""
    assert err == "error: successor enumeration capped at k = 8\n"
    code, out, err = invoke(argv + ["--max-k", "64"])
    assert code == 2 and out == "" and "unrecognized arguments: --max-k" in err


@pytest.mark.parametrize(
    "lower, upper, answer",
    [((-2, 2), (-1, 1), "true"), ((-2, 2), (-2, 2), "true"), ((-1, 1), (-2, 2), "false")],
    ids=["matrix-leq", "matrix-leq-equal", "matrix-leq-reverse"],
)
def test_matrix_leq_answers_rank_nine(lower, upper, answer):
    # the order is decided without enumerating successors, so no rank cap applies
    argv = ["matrix-leq", _k9_gram_json(lower), _k9_gram_json(upper)]
    assert invoke_within(1.0, argv) == (0, answer + "\n", "")


OUTSIDE_D1_GRAM_JSON = '{"k": 1, "cells": [["(2,-2)"]]}'


@pytest.mark.parametrize(
    "argv",
    [
        ["matrix-succ", OUTSIDE_D1_GRAM_JSON],
        ["matrix-pred", OUTSIDE_D1_GRAM_JSON],
        ["classify", OUTSIDE_D1_GRAM_JSON],
        ["matrix-leq", OUTSIDE_D1_GRAM_JSON, ONE_CELL_GRAM_JSON],
        ["matrix-leq", ONE_CELL_GRAM_JSON, OUTSIDE_D1_GRAM_JSON],
    ],
    ids=["matrix-succ", "matrix-pred", "classify", "matrix-leq-lower", "matrix-leq-upper"],
)
def test_d1_commands_refuse_a_cell_outside_d1(argv):
    # (2,-2) is selfadjoint, so the matrix has Gram factorizations, but its
    # cell lies outside D1, where the matrix order lives
    assert invoke(argv) == (1, "", "error: gram matrix has a cell outside D1\n")


def test_factor_gram_answers_outside_d1():
    # recovery works at the ambient level: both factorizations of (2,-2)
    assert invoke(["factor-gram", OUTSIDE_D1_GRAM_JSON]) == (0, '[["(-2)"], ["(1,-2)"]]\n', "")


# -- the CLI contract as a property -----------------------------------------------

BAD_INTS = ["-1", "-%d" % 10**30, "%d" % 10**30, "x", "1.5", ""]
BAD_WORDS = ["", "(", ")", "()", "(0)", "(1,,2)", "(1.5)", "abc", "(-)", "(1 2)", "1,2", "(%d)" % 10**30,
             "(-%d,%d)" % (10**30, 10**30)]
BAD_JSON = ["", "{", "[", "null", "1", '"x"', "[1,2]", '[["(-1,1)"]]', '{"k": 1}', '{"k": 1, "cells": []}',
            '{"k": "1", "cells": [["(-1,1)"]]}', '{"k": 2, "cells": [["(-1,1)"]]}', '{"k": 1, "cells": [[1]]}',
            '{"k": 1, "cells": [["(0)"]]}', '{"k": 1, "cells": [["(-1,1)"]], "witness": ["(5)"]}',
            '{"k": 1, "cells": [["(-1,1)"]], "witness": ["(1)", "(1)"]}', '{"k": 1, "cells": [["(1,-2)"]]}']
BAD_JSON += [argv[-1] for _, argv in MALFORMED_JSON_CASES]
# valid, but with an entry of 10^30: its depth gap to any small cell is huge
HUGE_GRAM_JSON = '{"k": 1, "cells": [["(-%d,%d)"]]}' % (10**30, 10**30)
BAD_JSON.append(HUGE_GRAM_JSON)

# literals of nonzero entries, reduced or not: the CLI accepts both
valid_words = st.lists(st.integers(-6, 6).filter(bool), min_size=1, max_size=6).map(
    lambda es: "(%s)" % ",".join(map(str, es))
)
words = st.one_of(valid_words, st.sampled_from(BAD_WORDS))
vectors = st.lists(valid_words, min_size=1, max_size=3)
grams = st.one_of(
    vectors.map(lambda v: gram(tuple(parse_word(w) for w in v)).to_json()),
    st.sampled_from(BAD_JSON),
)


def small_ints(hi):
    """Integers 0..hi, which the command honours quickly, and values it refuses."""
    return st.one_of(st.integers(0, hi).map(str), st.sampled_from(BAD_INTS))


ARG_KINDS = {
    "word": words,
    "vector": st.one_of(vectors.map(json.dumps), st.sampled_from(BAD_JSON)),
    "gram": grams,
    "target": st.one_of(grams, words),
    "grade": small_ints(14),
    "dim": small_ints(8),
    "count": small_ints(50),
    "seed": st.one_of(st.integers(0, 10**6).map(str), st.sampled_from(BAD_INTS)),
    "tag": st.sampled_from(["D0", "D1", "A0", "Aplus0", "XX", ""]),
    "partition": st.one_of(st.lists(st.integers(0, 4), max_size=4).map(json.dumps), st.sampled_from(BAD_JSON)),
    "tol": st.sampled_from(["1e-9", "0", "-1", "nan", "inf", "1e400", "x"]),
    "fixture": st.sampled_from([ORDER_FIXTURE, ORDER_FIXTURE + ".missing", "/"]),
}

#: subcommand -> (positional argument kinds, {option: kind or None for a switch})
COMMANDS = {
    "reduce": (["word"], {}),
    "mul": (["word", "word"], {}),
    "star": (["word"], {}),
    "tau": (["word"], {}),
    "sigma": (["word", "grade"], {}),
    "tau-plus": (["word"], {}),
    "member": (["word", "tag"], {}),
    "irr": (["word"], {}),
    "factor": (["word"], {"--in-d0": None}),
    "enum-irr": (["grade"], {}),
    "alpha": (["word"], {}),
    "omega": (["word"], {}),
    "beta-omega": (["word"], {}),
    "sa-factor": (["word"], {"--all": None}),
    "order-leq": (["word", "word"], {}),
    "order-succ": (["word"], {}),
    "gram": (["vector"], {}),
    "factor-gram": (["gram"], {}),
    "matrix-leq": (["gram", "gram"], {}),
    "matrix-succ": (["gram"], {}),
    "matrix-pred": (["gram"], {}),
    "classify": (["target"], {}),
    "partitions": (["dim", "dim"], {}),
    "iota-tau": (["gram", "partition"], {}),
    "random-pi": (["dim"], {"--seed": "seed"}),
    "verify-rep": ([], {"--seed": "seed", "--dim": "dim", "--count": "count", "--tol": "tol"}),
    "verify-korder": ([], {"--k": "dim", "--seed": "seed", "--dim": "dim", "--count": "count", "--tol": "tol",
                           "--fixture": "fixture"}),
}


def test_property_covers_every_subcommand():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert set(sub.choices) == set(COMMANDS)


def _subparser_count(parser):
    return len(next(a for a in parser._actions if a.dest == "command").choices)


#: argvs that end in argparse's usage, help or errors, for each command and
#: at the top level, and the golden calls
PARSER_BATTERY = [["-h"], [], ["bogus"], ["verify-rep", "--bogus"], ["--json", "reduce", "(1)"], ["--js"], ["--seed=3"]]
PARSER_BATTERY += [[name, *tail] for name in COMMANDS for tail in (["-h"], [], ["--bogus"], ["--json"])]
PARSER_BATTERY += [argv for _, argv in GOLDEN_CASES]


def test_one_subparser_parses_as_the_full_parser(monkeypatch):
    # a call builds only its command's subparser; with every subparser built
    # it ends in the same exit code, stdout and stderr
    lazy = [invoke(argv) for argv in PARSER_BATTERY]
    assert "pisom: error: argument command: invalid choice: 'bogus'" in invoke(["bogus"])[2]
    assert invoke([])[2].endswith("pisom: error: the following arguments are required: command\n")
    full = build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    for argv, expected in zip(PARSER_BATTERY, lazy):
        assert invoke(argv) == expected, argv


def test_a_call_builds_only_its_own_subparser(monkeypatch):
    built = []
    full = build_parser

    def recording(command=None):
        parser = full(command)
        built.append(_subparser_count(parser))
        return parser

    monkeypatch.setattr(cli, "build_parser", recording)
    for argv in (["reduce", "(1)"], ["-h"], [], ["bogus"]):
        invoke(argv)
    assert built == [1] + [len(cli.COMMANDS)] * 3
    assert len(cli.COMMANDS) == 27 and _subparser_count(build_parser()) == 27


@st.composite
def argvs(draw):
    name = draw(st.sampled_from(sorted(COMMANDS) + ["bogus"]))
    positional, options = COMMANDS.get(name, (["word"], {}))
    args = [draw(ARG_KINDS[kind]) for kind in positional]
    if args and draw(st.integers(0, 3)) == 0:
        args = args[: draw(st.integers(0, len(args) - 1))]  # missing arguments
    for flag, kind in options.items():
        if draw(st.booleans()):
            args += [flag] if kind is None else [flag, draw(ARG_KINDS[kind])]
    if draw(st.booleans()):
        args.append("--json")
    return [name] + args


class CallTimedOut(Exception):
    """Raised by the alarm inside a CLI call; cli.run does not catch it."""


def invoke_within(seconds, argv):
    """invoke(argv), failing with the argv once it has run for `seconds`."""

    def alarm(signum, frame):
        raise CallTimedOut("no result after %g s: %r" % (seconds, argv))

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return invoke(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_order_leq_reads_huge_exponents_at_once():
    big, small = "(-%d,%d)" % (10**30, 10**30), "(-3,3)"
    assert invoke_within(1.0, ["order-leq", big, small]) == (0, "true\n", "")
    assert invoke_within(1.0, ["order-leq", small, big]) == (0, "false\n", "")


def test_matrix_leq_answers_a_huge_gap_at_once():
    # pairs whose diagonal cells are many hollowing steps apart: 10^30 and
    # 10^6 units at rank 1, and four units in each of six cells
    small = '{"k": 1, "cells": [["(-2,2)"]]}'
    million = '{"k": 1, "cells": [["(-1000000,1000000)"]]}'
    assert invoke_within(1.0, ["matrix-leq", HUGE_GRAM_JSON, small]) == (0, "true\n", "")
    assert invoke_within(1.0, ["matrix-leq", small, HUGE_GRAM_JSON]) == (0, "false\n", "")
    assert invoke_within(1.0, ["matrix-leq", HUGE_GRAM_JSON, HUGE_GRAM_JSON]) == (0, "true\n", "")
    assert invoke_within(1.0, ["matrix-leq", million, small]) == (0, "true\n", "")
    lower, upper = (gram(tuple(Word((-(6 + i) + d, 7 + i)) for i in range(6))).to_json() for d in (0, 4))
    assert invoke_within(1.0, ["matrix-leq", lower, upper]) == (0, "true\n", "")
    assert invoke_within(1.0, ["matrix-leq", upper, lower]) == (0, "false\n", "")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_cli_contract(argv):
    # every input ends in exit code 0, 1 or 2 within a time bound, with at
    # most one error line and never a traceback; a success under --json
    # prints exactly one JSON document
    code, out, err = invoke_within(5.0, argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err
    assert sum("error:" in line for line in err.splitlines()) <= 1, err
    if code == 0:
        assert err == ""
        if "--json" in argv:
            json.loads(out)
    if code == 1:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err


def test_package_has_no_assert_statements():
    # python -O strips asserts: input checks raise, and the self-checks of
    # the theorems the package relies on live in the tests; the scripts
    # check what they verify explicitly too
    modules = sorted((REPO / "src" / "pisom").glob("*.py")) + sorted((REPO / "scripts").glob("*.py"))
    assert len(modules) > 2
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


#: the only functions outside words.py that build a Word unchecked, each
#: with the exhaustive test that holds its output
TRUSTED_CALLERS = {
    "factor_a0": "test_structure.py::test_factor_exhaustive_small",
    "sa_factor_min": "test_order.py::test_trusted_slices_pass_the_check",
    "unit_strip": "test_order.py::test_trusted_slices_pass_the_check",
    "beta_omega": "test_maps.py::test_beta_omega_lands_in_d0",
    "_plus_irreducibles": "test_structure.py::test_enum_elements_meet_the_definition",
}


def _enclosing_functions(tree):
    """Map each node to the name of the outermost function around it, so
    that a nested helper counts as part of the function that defines it."""
    owner = {}

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            if name is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            else:
                inner = name
            owner[child] = inner
            visit(child, inner)

    visit(tree, None)
    return owner


def test_trusted_word_construction_stays_in_words():
    # tuple.__new__ makes a Word without the checked constructor; it occurs
    # once, in words._trusted, and outside words.py only the functions of
    # TRUSTED_CALLERS use _trusted (under its own name)
    new_sites, trusted_uses = [], []
    for path in sorted((REPO / "src" / "pisom").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = _enclosing_functions(tree)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "__new__"
                and isinstance(node.value, ast.Name)
                and node.value.id == "tuple"
            ):
                new_sites.append((path.name, owner[node]))
            if path.name == "words.py":
                continue
            if isinstance(node, ast.alias) and node.name == "_trusted":
                assert node.asname is None, "%s imports _trusted as %s" % (path.name, node.asname)
            elif (isinstance(node, ast.Name) and node.id == "_trusted") or (
                isinstance(node, ast.Attribute) and node.attr == "_trusted"
            ):
                trusted_uses.append((path.name, owner[node]))
    assert new_sites == [("words.py", "_trusted")]
    assert trusted_uses
    assert {fn for _, fn in trusted_uses} <= set(TRUSTED_CALLERS), trusted_uses
    for held_by in TRUSTED_CALLERS.values():
        module, test = held_by.split("::")
        assert "\ndef %s(" % test in (REPO / "tests" / module).read_text(), held_by


def test_no_module_level_containers():
    # nothing is kept from one call to the next: no module binds a dict,
    # set or list (a display or a comprehension), except __all__
    containers = (ast.Dict, ast.Set, ast.List, ast.DictComp, ast.SetComp, ast.ListComp)
    found = []
    for path in sorted((REPO / "src" / "pisom").glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if isinstance(node.value, containers) and names != ["__all__"]:
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


def test_no_unused_imports():
    # every name a module imports is used in it, so no import outlives the
    # code that needed it
    found = []
    for path in sorted((REPO / "src" / "pisom").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                found += ["%s:%d %s" % (path.name, node.lineno, name) for name in bound if name not in used]
    assert found == []


def load_script(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(name, REPO / "scripts" / (name + ".py"))
    script = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
    spec.loader.exec_module(script)
    return script


def test_print_irr_tables_refusal_is_one_error_line(monkeypatch, capsys):
    script = load_script(monkeypatch, "print_irr_tables")
    enum_irr = script.enum_irr

    def capped(k):
        if k > 2:
            raise DomainError("plus-irreducibles of grade %d exceed the cap" % k)
        return enum_irr(k)

    monkeypatch.setattr(script, "enum_irr", capped)
    monkeypatch.setattr(sys, "argv", ["print_irr_tables.py", "21"])
    assert script.main() == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == ["grade  1 (  1 elements): (-1,1)", "grade  2 (  1 elements): (-2,2)"]
    assert err == "error: plus-irreducibles of grade 3 exceed the cap\n"


@pytest.mark.parametrize(
    "args,error",
    [
        (["--c", "2"], "fixture parameter must be in (0, 1)"),
        (["--max-grade", "21"], "plus-irreducibles of grade 21 exceed the cap of 1000000 elements"),
    ],
)
def test_find_order_fixture_refusal_is_one_error_line(monkeypatch, capsys, tmp_path, args, error):
    # refused before any grade is enumerated and before anything is written
    script = load_script(monkeypatch, "find_order_fixture")
    grades, enum_irr = [], script.enum_irr
    monkeypatch.setattr(script, "enum_irr", lambda k: grades.append(k) or enum_irr(k))
    out = tmp_path / "fixture.json"
    monkeypatch.setattr(sys, "argv", ["find_order_fixture.py", *args, "--out", str(out)])
    assert script.main() == 1
    assert capsys.readouterr() == ("", "error: %s\n" % error)
    assert grades == ([21] if "--max-grade" in args else [])
    assert not out.exists()


@pytest.mark.parametrize("constraint", ["(A)", "(B)"])
def test_find_order_fixture_constraint_failure_is_one_error_line(monkeypatch, capsys, tmp_path, constraint):
    # a rule that breaks a constraint family is reported, not asserted, so
    # python -O does not skip the check: under (A) deeper words map higher,
    # so a hollowing step lowers pi; under (B) pi(s*) pi(s) = 4 > pi(X(s)) = 2
    from pisom.numeric import GeneratorAssignment
    from pisom.order import hollow_depth

    if constraint == "(A)":
        rule = lambda g: [[2.0 ** hollow_depth(g) if g.is_selfadjoint() else 0.0]]
    else:
        rule = lambda g: [[2.0]]
    script = load_script(monkeypatch, "find_order_fixture")
    monkeypatch.setattr(script, "sa_depth_fixture", lambda c: GeneratorAssignment(n=1, rule=rule))
    out = tmp_path / "fixture.json"
    monkeypatch.setattr(sys, "argv", ["find_order_fixture.py", "--max-grade", "6", "--out", str(out)])
    assert script.main() == 1
    stdout, stderr = capsys.readouterr()
    assert stdout == "" and stderr.startswith("error: %s fails: pi(" % constraint) and stderr.count("\n") == 1
    assert not out.exists()
