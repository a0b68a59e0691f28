import ast
import importlib.util
import io
import json
import math
import os
import pathlib
import random
import resource
import signal
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import pisom.cli as cli
from pisom.cli import KORDER_WORK_CAP, REP_WORK_CAP, build_parser, run
from pisom.matrix import VECTOR_CAP, gram
from pisom.words import Word, parse_word

REPO = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"
ORDER_FIXTURE = str(pathlib.Path(__file__).parent / "assets" / "order_fixture.json")

HMM_GRAM_JSON = (
    '{"k": 2, "cells": [["(-3,2,-2,3)", "(-3,2,-3,4)"], '
    '["(-4,3,-2,3)", "(-4,3,-3,4)"]], "witness": ["(-2,3)", "(-3,4)"]}'
)

#: pisom gram '["(-2,3,-1)", "(-3,2,-2,3)"]'
SPLIT_GRAM_JSON = (
    '{"k": 2, "cells": [["(1,-3,2,-2,3,-1)", "(1,-3,2,-3,2,-2,3)"], '
    '["(-3,2,-2,3,-2,3,-1)", "(-3,2,-2,3,-3,2,-2,3)"]], "witness": ["(-2,3,-1)", "(-3,2,-2,3)"]}'
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
    # Case2 with a (1,-1) factor: the entry (-2,3,-1) splits as (-2,2) (1,-1)
    ("classify_split", ["classify", SPLIT_GRAM_JSON]),
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
] + [
    # only a missing or null witness is absent; any other falsy one is refused
    ("gram_witness_" + name, ["factor-gram", '{"k":1,"cells":[["(-3,2,-2,3)"]],"witness":%s}' % text])
    for name, text in (("zero", "0"), ("empty_string", '""'), ("empty_list", "[]"), ("empty_object", "{}"),
                       ("false", "false"))
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


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["enum-irr", "8"], ["enum-irr", "8", "--json"], ["reduce", "(2,-1,2,-1)"]])
def test_closed_stdout_is_exit_1_without_a_traceback(argv, buffered):
    # the child's stdout is a pipe whose read end is already closed, so its
    # first write fails: in print when stdout is unbuffered, in the flush
    # that follows the command when it is buffered.  Either way the call
    # ends with exit code 1 and nothing on stderr
    env = _src_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pisom.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


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


#: runs one call in a fresh interpreter, its arguments on the command line,
#: and prints its exit code, whether json was imported, which of argparse,
#: gettext and locale were ("-" for none) and the layers loaded, then on the
#: next lines what the call printed to stdout and stderr
LOADS_SCRIPT = (
    "import contextlib, io, sys\n"
    "import pisom.cli\n"
    "out = io.StringIO()\n"
    "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):\n"
    "    code = pisom.cli.run(sys.argv[1:])\n"
    "layers = sorted(m for m in sys.modules if m.startswith('pisom.') and m != 'pisom.cli')\n"
    "parser = ','.join(m for m in ('argparse', 'gettext', 'locale') if m in sys.modules) or '-'\n"
    "print(code, 'json' in sys.modules, parser, *layers)\n"
    "print(out.getvalue(), end='')\n"
)
#: the malformed inputs the cli-session benchmark sends in every round
FIXED_GRAM_JSON = '{"k": 1, "cells": [["(-3,2,-2,3)"]], "witness": ["(-2,3)"]}'
_WORDS, _MATRIX = ["pisom.words"], ["pisom.matrix", "pisom.words"]
#: (argv, exit code, json imported, argparse imported, the layers loaded)
LOADS = [
    (["reduce", "(2,-1,2,-1)"], 0, False, False, _WORDS),
    (["mul", "(-3,3)", "(2,-2)"], 0, False, False, _WORDS),
    (["member", "(-2,3,-3,2)", "D0"], 0, False, False, _WORDS),
    (["alpha", "(1,-1)"], 0, False, False, ["pisom.maps", "pisom.words"]),
    (["order-leq", "(-5,5)", "(-1,1)"], 0, False, False, ["pisom.order", "pisom.words"]),
    (["reduce", "(1,0,2)"], 1, False, False, _WORDS),
    (["gram", '["(-2,3)","(-3,4)"]'], 0, True, False, _MATRIX),
    (["factor-gram", HMM_GRAM_JSON], 0, True, False, _MATRIX),
    (["matrix-succ", HMM_GRAM_JSON], 0, True, False, _MATRIX),
    (["matrix-pred", HMM_GRAM_JSON], 0, True, False, _MATRIX),
    (["iota-tau", HMM_GRAM_JSON, "[2,1]"], 0, True, False, _MATRIX),
    (["gram", "[3]"], 1, True, False, _MATRIX),
    (["factor-gram", "[1,2]"], 1, True, False, _MATRIX),
    (["iota-tau", FIXED_GRAM_JSON, '["x"]'], 1, True, False, _MATRIX),
    # Case3 with a core: the one branch of classify that reads order and structure
    (["classify", HMM_GRAM_JSON], 0, True, False, ["pisom.matrix", "pisom.order", "pisom.structure", "pisom.words"]),
    # a usage error and a help request: argparse and its gettext and locale
    (["reduce"], 2, False, True, _WORDS),
    (["reduce", "-h"], 0, False, True, _WORDS),
]


def test_a_call_loads_only_what_its_command_runs():
    # a words, maps or order command imports no json; a matrix command loads
    # neither order nor structure unless it classifies a Case3 core; only a
    # call that ends in argparse's help or usage imports argparse, and it
    # prints what the same call prints in this process
    classified = json.loads(invoke(["classify", HMM_GRAM_JSON])[1])
    assert (classified["case"], classified["maximal"]) == ("Case3", False)
    for argv, code, uses_json, uses_argparse, layers in LOADS:
        proc = subprocess.run(
            [sys.executable, "-c", LOADS_SCRIPT, *argv], capture_output=True, text=True, env=_src_env(), timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        first, printed = proc.stdout.split("\n", 1)
        parser = "argparse,gettext,locale" if uses_argparse else "-"
        assert first.split() == [str(code), str(uses_json), parser, *layers], argv
        assert printed == "".join(invoke(argv)[1:]), argv


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
    # the star of (-3,2,-3,4) is not given, so it would map to zero: not a *-map
    "half_given_star": '{"n": 1, "images": {"(-3,2,-3,4)": {"re": [[0.5]], "im": [[0]]}}}',
    # finite, but its square overflows when a D0 relation is evaluated
    "overflowing_image": '{"n": 1, "images": {"(-2,2)": {"re": [[1e200]], "im": [[0]]}}}',
    # finite, but the gap between one image and the star of the other overflows
    "overflowing_star_gap": '{"n": 1, "images": {"(-3,2,-3,4)": {"re": [[1e308]], "im": [[0]]}, '
    '"(-4,3,-2,3)": {"re": [[-1e308]], "im": [[0]]}}}',
    # Python converts no integer of more than 4,300 digits
    "integer_past_the_digit_limit": '{"n": %s, "images": {}}' % ("9" * 4301),
    # a 65 x 65 image is past the d <= 64 of the rounding analysis
    "order_past_the_cap": '{"n": 65, "images": {}}',
}
# every refusal that names a word or key of the file, with N and M standing
# for entries of 4,000 digits: each echoes its first 20 characters
FIXTURE_ERROR_CASES.update(
    ("long_literal_" + name, text.replace("N", "9" * 4000).replace("M", "8" * 4000))
    for name, text in (
        ("without_im", '{"n": 1, "images": {"(-N,N)": {"re": [[1]]}}}'),
        ("non_numeric", '{"n": 1, "images": {"(-N,N)": {"re": [["x"]], "im": [[0]]}}}'),
        ("not_finite", '{"n": 1, "images": {"(-N,N)": {"re": [[Infinity]], "im": [[0]]}}}'),
        ("wrong_shape", '{"n": 1, "images": {"(-N,N)": {"re": [[1, 2]], "im": [[0, 0]]}}}'),
        ("not_in_d0", '{"n": 1, "images": {"(N,-N)": {"re": [[1]], "im": [[0]]}}}'),
        # its star is not given, so it maps to zero
        ("half_given_star", '{"n": 1, "images": {"(-M,2,-3,%s9)": {"re": [[1]], "im": [[0]]}}}' % ("8" * 3999)),
        ("given_twice", '{"n": 1, "images": {"(-N,N)": {"re": [[1]], "im": [[0]]}, '
         '"(-N,1,-1,N)": {"re": [[1]], "im": [[0]]}}}'),
        ("repeated", '{"n": 1, "images": {"(-N,N)": {"re": [[1]], "im": [[0]]}, '
         '"(-N,N)": {"re": [[1]], "im": [[0]]}}}'),
        ("repeated_key", '{"n": 1, "images": {}, "N": 1, "N": 2}'),
    )
)


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
    assert len(err.replace(str(path), "")) <= 120, err


def test_fixture_orders_up_to_the_cap_are_certified(tmp_path):
    path = tmp_path / "order_at_the_cap.json"
    path.write_text('{"n": 64, "images": {}}')
    assert invoke(["verify-korder", "--k", "1", "--count", "3", "--fixture", str(path)]) == (
        0,
        '{"total": 3, "failures": []}\n',
        "",
    )


NINES = "9" * 4300
DEEP = "[" * 1500 + "]" * 1500

#: one reproducer of each path by which a call once ended in a traceback:
#: JSON nested too deep for the parser, integers past Python's 4,300
#: digits on int/str conversion, read or printed, and a fixture whose
#: images are too large to allocate; and of each refusal that once echoed
#: a long count, word literal or fixture path in full
TRACEBACK_CASES = {
    "vector_nested_too_deep": ["gram", DEEP],
    "gram_nested_too_deep": ["matrix-succ", DEEP],
    "target_nested_too_deep": ["classify", DEEP],
    "partition_nested_too_deep": ["iota-tau", ONE_CELL_GRAM_JSON, DEEP],
    "fixture_nested_too_deep": ["verify-korder", "--k", "1", "--fixture", "deep.json"],
    "entry_past_the_limit": ["reduce", "(%s9)" % NINES],
    "product_past_the_limit": ["mul", "(%s)" % NINES, "(%s)" % NINES],
    "json_integer_past_the_limit": ["iota-tau", ONE_CELL_GRAM_JSON, "[%s9]" % NINES],
    "work_past_the_limit": ["verify-korder", "--k", "8", "--count", NINES[1:]],
    "rank_past_the_limit": ["iota-tau", HMM_GRAM_JSON, "[%s,%s]" % (NINES, NINES)],
    # n x n images at n = 10^6 would take 16 TB a matrix
    "fixture_far_past_the_cap": ["verify-korder", "--k", "1", "--fixture", "huge.json"],
    "fixture_literal_past_the_limit": ["verify-korder", "--k", "1", "--fixture", "long_key.json"],
    "fixture_path_past_the_limit": ["verify-korder", "--k", "1", "--fixture", "m" * 200],
    "fixture_path_past_the_limit_not_json": ["verify-korder", "--k", "1", "--fixture", "j" * 200],
    "count_past_the_limit": ["verify-rep", "--count", NINES + "9"],
    "negative_count_past_the_limit": ["verify-rep", "--count", "-%s9" % NINES],
    "negative_korder_count_past_the_limit": ["verify-korder", "--count", "-%s9" % NINES],
    "literal_past_the_limit": ["reduce", NINES + "9"],
    "malformed_literal_past_the_limit": ["reduce", "(1,,%s9)" % NINES],
}

#: the whole refusal of the reproducers whose text was once unreadable or
#: absent: an echo of every digit, Python's own advice, or a traceback
TRACEBACK_TEXT = {
    "entry_past_the_limit": "bad integer '99999999999999999999...' in word literal: an entry has at most 4,000 digits",
    "product_past_the_limit": "bad integer '99999999999999999999...' in word literal: an entry has at most 4,000 digits",
    "json_integer_past_the_limit": "a JSON integer has more than 4,300 digits",
    "fixture_far_past_the_cap": "block dimension 1000000 exceeds cap 64",
    "fixture_literal_past_the_limit": "the image of (-999999999999999999... needs 're' and 'im'",
    "fixture_path_past_the_limit": "cannot read fixture %s...: No such file or directory" % ("m" * 20),
    "fixture_path_past_the_limit_not_json": (
        "fixture %s... is not JSON: Expecting value: line 1 column 1 (char 0)" % ("j" * 20)
    ),
    "work_past_the_limit": "--count 99999999999999999999... at --k 8 exceeds the cap of 5120 on --count times 2^k",
    "count_past_the_limit": "argument --count: an integer has more than 4,300 digits",
    "negative_count_past_the_limit": "argument --count: an integer has more than 4,300 digits",
    "negative_korder_count_past_the_limit": "argument --count: an integer has more than 4,300 digits",
    "literal_past_the_limit": "word literal must be parenthesized: '99999999999999999999...'",
    "malformed_literal_past_the_limit": "malformed word literal: '(1,,9999999999999999...'",
}

#: the address space of a reproducer's process: an allocation without a
#: bound then fails at once instead of swapping
CHILD_ADDRESS_SPACE = 1 << 30


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


@pytest.mark.parametrize("name", TRACEBACK_CASES)
def test_traceback_reproducers_are_one_error_line(monkeypatch, tmp_path, name):
    # in a fresh interpreter, whose stack is as shallow as the command line's,
    # and in this one
    (tmp_path / "deep.json").write_text(DEEP)
    (tmp_path / "huge.json").write_text('{"n": 1000000, "images": {}}')
    (tmp_path / "long_key.json").write_text(FIXTURE_ERROR_CASES["long_literal_without_im"])
    (tmp_path / ("j" * 200)).write_text("not json")
    monkeypatch.chdir(tmp_path)
    argv = TRACEBACK_CASES[name]
    proc = subprocess.run(
        [sys.executable, "-m", "pisom.cli", *argv],
        capture_output=True,
        text=True,
        env=_src_env(),
        timeout=60,
        preexec_fn=_limit_address_space,
    )
    code, out, err = invoke(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    if name in TRACEBACK_TEXT:
        assert err == "error: %s\n" % TRACEBACK_TEXT[name]


def test_integer_arguments_past_the_digit_limit():
    # every integer argument of more than 4,300 digits, past Python's limit
    # on int/str conversion, --seed and --count included, ends in exit 1
    # with one error line that names it, as a JSON integer does; 4,300
    # digits read as int reads them, leading zeros counted, and text that is
    # no integer stays a usage error whose echo is cut
    for argv, name in (
        (["random-pi", "9" * 4301], "n"),
        (["random-pi", "2", "--seed", "9" * 4301], "--seed"),
        (["sigma", "(1)", "-" + "9" * 4310], "r"),
        (["partitions", "2", " %s " % ("12" * 2200)], "k"),
        (["verify-rep", "--count", "9" * 4301], "--count"),
        (["verify-korder", "--k", "1", "--count", "0" * 4300 + "3"], "--count"),
        (["verify-korder", "--k", "+" + "0" * 4301, "--count", "x"], None),
    ):
        code, out, err = invoke(argv)
        if name is None:  # a usage error comes first
            assert code == 2 and err.endswith("error: argument --count: invalid int value: 'x'\n"), err
        else:
            assert (code, out, err) == (1, "", "error: argument %s: an integer has more than 4,300 digits\n" % name)
    code, out, err = invoke(["verify-korder", "--count", "0" * 4299 + "3"])
    assert code == 0 and json.loads(out)["total"] == 3 and err == ""
    code, out, err = invoke(["random-pi", "x" * 81])
    assert code == 2 and err.endswith("error: argument n: invalid int value: 'xxxxxxxxxxxxxxxxxxxx...'\n"), err
    code, out, err = invoke(["verify-rep", "--count", "x" * 80])
    assert code == 2 and err.endswith("error: argument --count: invalid int value: '%s'\n" % ("x" * 80)), err
    code, out, err = invoke(["verify-rep", "--count", "1" * 4301 + "x"])
    assert code == 2 and err.endswith("error: argument --count: invalid int value: '%s...'\n" % ("1" * 20)), err


@pytest.mark.parametrize("command", ["order-succ", "order-leq", "tau-plus", "irr", "beta-omega"])
def test_refusals_cut_a_long_word(command):
    # the literal reduces to the one entry -2 * 10^4000: not selfadjoint,
    # no positive entry, tau not 0; each refusal echoes the word's first
    # 20 characters only
    literal = "(-%s,-%s,-1,-1)" % ("9" * 4000, "9" * 4000)
    assert len(literal) == 8011
    argv = [command, literal] + (["(-1,1)"] if command == "order-leq" else [])
    code, out, err = invoke(argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) <= 121, err
    assert err.endswith(" (-2%s...\n" % ("0" * 17)), err


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
#: selfadjoint cells that no word vector has, in D1 and outside it
NO_FACTOR_D1_GRAM_JSON = '{"k":2,"cells":[["(-2,2)","(-2,2)"],["(-2,2)","(-3,3)"]]}'
NO_FACTOR_OUTSIDE_D1_GRAM_JSON = '{"k":2,"cells":[["(2,-2)","(2,-2)"],["(2,-2)","(3,-3)"]]}'
RANK_TWO_GRAM_JSON = gram((parse_word("(-1)"), parse_word("(-1)"))).to_json()
NO_FACTORIZATION = "error: inconsistent gram matrix: no factorization\n"


def _gram_command_argvs(text, partner):
    """(id, argv) for every command that takes a Gram matrix, on text, the
    five that need its cells in D1 first; partner is the other side of
    matrix-leq."""
    return [
        ("matrix-succ", ["matrix-succ", text]),
        ("matrix-pred", ["matrix-pred", text]),
        ("classify", ["classify", text]),
        ("matrix-leq-lower", ["matrix-leq", text, partner]),
        ("matrix-leq-upper", ["matrix-leq", partner, text]),
        ("factor-gram", ["factor-gram", text]),
        ("iota-tau", ["iota-tau", text, "[1,1]"]),
    ]


D1_REFUSAL_CASES = [
    (name, argv, "error: gram matrix has a cell outside D1\n")
    for name, argv in _gram_command_argvs(OUTSIDE_D1_GRAM_JSON, ONE_CELL_GRAM_JSON)[:5]
]
D1_REFUSAL_CASES += [
    ("%s-%s" % (name, where), argv, NO_FACTORIZATION)
    for where, text in (
        ("no-factorization", NO_FACTOR_D1_GRAM_JSON),
        ("no-factorization-outside-d1", NO_FACTOR_OUTSIDE_D1_GRAM_JSON),
    )
    for name, argv in _gram_command_argvs(text, RANK_TWO_GRAM_JSON)
]
D1_REFUSAL_CASES.append(
    ("matrix-leq-rank-mismatch", ["matrix-leq", NO_FACTOR_D1_GRAM_JSON, ONE_CELL_GRAM_JSON], NO_FACTORIZATION)
)


@pytest.mark.parametrize("argv, error", [c[1:] for c in D1_REFUSAL_CASES], ids=[c[0] for c in D1_REFUSAL_CASES])
def test_d1_commands_refuse_a_cell_outside_d1(argv, error):
    # (2,-2) is selfadjoint, so OUTSIDE_D1_GRAM_JSON has Gram
    # factorizations, but its cell lies outside D1, where the matrix order
    # lives.  Cells that no word vector has are refused when they are read,
    # by every command that takes a Gram matrix, before any cell is checked
    # against D1 and before matrix-leq compares the ranks
    assert invoke(argv) == (1, "", error)


def test_factor_gram_answers_outside_d1():
    # recovery works at the ambient level: both factorizations of (2,-2)
    assert invoke(["factor-gram", OUTSIDE_D1_GRAM_JSON]) == (0, '[["(-2)"], ["(1,-2)"]]\n', "")


MIXED_GRAM_JSON = gram((parse_word("(-1,3)"), parse_word("(1,-3,4)"))).to_json()


@pytest.mark.parametrize("text", [HMM_GRAM_JSON, MIXED_GRAM_JSON], ids=["hmm", "mixed"])
@pytest.mark.parametrize("command", ["factor-gram", "matrix-succ", "matrix-pred", "iota-tau"])
def test_gram_commands_answer_alike_with_and_without_the_witness(command, text):
    # without a witness one is recovered from the cells, the one
    # factorization or the all-negative one, as both witnesses here are: the
    # output is byte-identical, and iota-tau prints the recovered witness
    obj = json.loads(text)
    assert obj.pop("witness")
    rest = ["[2,1]"] if command == "iota-tau" else []
    code, out, err = invoke([command, text, *rest])
    assert (code, err) == (0, "") and out.startswith("[" if rest == [] else "{")
    assert invoke([command, json.dumps(obj), *rest]) == (code, out, err)


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
    # a call _parse reads builds no parser; a usage error of one command
    # builds that command's subparser
    for argv in (["reduce", "(1)"], ["reduce"], ["-h"], [], ["bogus"]):
        invoke(argv)
    assert built == [1] + [len(cli.COMMANDS)] * 3
    assert len(cli.COMMANDS) == 27 and _subparser_count(build_parser()) == 27


def _attrs(namespace):
    """The attributes of a namespace, a nan replaced by a marker equal to
    itself, since --tol reads "nan" as a nan."""
    return {k: ("nan",) if isinstance(v, float) and math.isnan(v) else v for k, v in vars(namespace).items()}


def parse_agrees(argv) -> bool:
    """Whether _parse reads argv; where it does, the full parser's
    parse_args must accept argv and set the same attributes."""
    ours = cli._parse(argv)
    if ours is not None:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            theirs = build_parser().parse_args(argv)
        assert _attrs(ours) == _attrs(theirs), argv
    return ours is not None


#: (argv, whether _parse reads it): every form it leaves to argparse, and
#: edges of the one shape it reads
PARSE_CASES = [
    (["sigma", "(1,2)", "--json", "1"], True),  # an option between positionals
    (["verify-rep", "--seed", "3", "--json", "--dim", "2"], True),
    (["verify-korder", "--tol", "nan", "--fixture", ORDER_FIXTURE, "--k", "1"], True),
    (["factor", "--in-d0", "(1)"], True),
    (["reduce", ""], True),  # an empty positional
    (["enum-irr", "9" * 4301], True),  # a _Digits, refused after parsing
    (["random-pi", "2", "--seed", "9" * 4301], True),
    (["random-pi", "2", "--seed=3"], False),
    (["random-pi", "2", "--se", "3"], False),  # an abbreviation
    (["random-pi", "2", "--seed", "-5"], False),  # a negative number
    (["sigma", "(1,2)", "-1"], False),
    (["random-pi", "2", "--seed", "1", "--seed", "2"], False),  # a repeated option
    (["sa-factor", "(1)", "--all", "--all"], False),
    (["reduce", "(1)", "--json", "--json"], False),
    (["reduce", "--", "(1)"], False),
    (["reduce", "-h"], False),
    (["reduce", "(1)", "-"], False),
    (["reduce", "(1)", "(2)"], False),  # too many positionals
    (["random-pi", "2", "--seed"], False),  # a value missing
    (["random-pi", "x"], False),  # refused by its type
    (["verify-rep", "--tol", "x"], False),
    (["verify-rep", "--dim", "1.5"], False),
    (["reduce", "--all", "(1)"], False),  # another command's option
]

#: the call shapes of the cli-session benchmark that LOADS does not run
SESSION_ARGVS = [
    ["factor", "(-2,3,-3,2)", "--in-d0"],
    ["beta-omega", "(-4,2,-2,4)"],
    ["order-succ", "(-3,2,-2,3)", "--json"],
    ["enum-irr", "7", "--json"],
    ["classify", "(-3,2,-2,3)"],
    ["verify-rep", "--seed", "123456", "--dim", "3", "--count", "20"],
]


def test_parse_reads_what_parse_args_reads():
    for argv, read in PARSE_CASES:
        assert parse_agrees(argv) is read, argv
    for argv in PARSER_BATTERY:
        parse_agrees(argv)
    # every golden call and every call shape of the cli-session benchmark
    # is read, so it imports no argparse
    plain = [argv for _, argv in GOLDEN_CASES] + [row[0] for row in LOADS if not row[3]] + SESSION_ARGVS
    assert all(parse_agrees(argv) for argv in plain)


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


def assert_contract(argv, code, out, err):
    """Exit code 0, 1 or 2, at most one error line and never a traceback; a
    success under --json prints exactly one JSON document."""
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err
    assert sum("error:" in line for line in err.splitlines()) <= 1, err
    if code == 0:
        assert err == ""
        if "--json" in argv:
            json.loads(out)
    if code == 1:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_cli_contract(argv):
    # every input ends within a time bound, as assert_contract states, and
    # _parse reads it as argparse does or leaves it to argparse
    assert_contract(argv, *invoke_within(5.0, argv))
    parse_agrees(argv)


# -- a seeded grammar fuzzer over cli.COMMANDS --------------------------------------


def _digits(rng, count):
    """A count-digit integer literal, often all nines so that sums carry."""
    return rng.choice("19") + rng.choice("09") * (count - 1)


def _huge_int(rng):
    """An integer of 4,290 to 4,310 digits, mostly at the 4,300 of the limit."""
    return rng.choice(("", "", "", "-")) + _digits(rng, rng.choice((4290, 4299, 4300, 4300, 4300, 4301, 4310)))


def _fuzz_int(rng):
    """An integer argument: small, huge or malformed."""
    roll = rng.random()
    if roll < 0.5:
        return str(rng.randrange(-2, 9))
    if roll < 0.85:
        return _huge_int(rng)
    return rng.choice(("", "x", "1.5", "0x10", "1e3", "--"))


def _int_list(rng):
    """A JSON list of small and huge integers, as a partition is."""
    parts = (str(rng.randrange(4)) if rng.random() < 0.3 else _huge_int(rng) for _ in range(rng.randrange(4)))
    return "[%s]" % ",".join(parts)


def _fuzz_entry(rng):
    """A word literal's entry: small, zero, huge or malformed."""
    roll = rng.random()
    if roll < 0.6:
        return str(rng.choice((-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6)))
    if roll < 0.7:
        return rng.choice(("0", "-0"))
    if roll < 0.85:
        return rng.choice(("", "-")) + _digits(rng, rng.choice((30, 3999, 4000, 4001, 4299, 4300, 4301)))
    return rng.choice(("", "x", "01", "1.5", "+1", "- 1", "(1)"))


def _bracket_run(rng, opening, closing):
    """Up to 1,500 nested brackets, closed or not."""
    depth = rng.choice((rng.randrange(1501), 990, 1000, 1500))
    return opening * depth + closing * depth * rng.randrange(2)


def _fuzz_word(rng):
    """A word literal, well formed or not, or a run of parentheses."""
    if rng.random() < 0.05:
        return _bracket_run(rng, "(", ")")
    body = rng.choice((",", ", ")).join(_fuzz_entry(rng) for _ in range(rng.randrange(1, 6)))
    return rng.choice(("(%s)", "(%s)", "(%s)", "(%s)", "(%s", "%s", " ( %s ) ")) % body


def _valid_word(rng):
    """A valid word literal, now and then with entries of 4,000 digits."""
    top = int(_digits(rng, 4000)) if rng.random() < 0.2 else 4
    entries = [rng.choice((1, 2, 3, top)) * (-1) ** i for i in range(rng.randrange(1, 5))]
    return "(%s)" % ",".join(map(str, entries))


def _valid_gram(rng):
    """The JSON of a Gram matrix of rank 1 to 3, with or without its witness."""
    obj = json.loads(gram(tuple(parse_word(_valid_word(rng)) for _ in range(rng.randrange(1, 4)))).to_json())
    if rng.random() < 0.3:
        del obj["witness"]
    return json.dumps(obj)


def _fuzz_json(rng, depth):
    """JSON text of depth at most `depth`: valid Gram matrices and vectors,
    atoms with huge integers, and lists and objects of those."""
    roll = rng.random()
    if roll < 0.25:
        return _valid_gram(rng)
    if roll < 0.35:
        return json.dumps([_valid_word(rng) for _ in range(rng.randrange(1, 4))])
    if roll < 0.4:
        return _bracket_run(rng, "[", "]")
    if roll < 0.5:
        return _int_list(rng)
    if depth == 0 or roll < 0.65:
        return rng.choice((json.dumps(_fuzz_word(rng)), str(rng.randrange(-2, 5)), _huge_int(rng), "1.5", "true",
                           "null", '"x"', ""))
    items = [_fuzz_json(rng, depth - 1) for _ in range(rng.randrange(4))]
    if rng.random() < 0.5:
        return "[%s]" % ",".join(items)
    return "{%s}" % ",".join('"%s": %s' % (rng.choice(("k", "cells", "witness", "x")), item) for item in items)


def _fuzz_arg(rng, name, kind, fixtures):
    """A value for the argument of this name and type: mostly of its own
    kind, sometimes of any."""
    if kind is cli._int:
        return _fuzz_int(rng)
    if kind is float:
        return rng.choice(("1e-9", "0", "-1", "nan", "inf", "1e400", "x", _digits(rng, 4301)))
    if name == "--fixture":
        return rng.choice(fixtures)
    if name == "tag":
        return rng.choice(("D0", "D1", "A0", "Aplus0", "XX", ""))
    if name == "partition" and rng.random() < 0.6:
        return _int_list(rng)
    if name == "gram" and rng.random() < 0.4:
        return _valid_gram(rng)
    roll = rng.random()
    if name in ("word", "left", "right") and roll < 0.9 or name in ("target", "lower", "upper") and roll < 0.45:
        return _fuzz_word(rng)
    return _fuzz_json(rng, rng.randrange(5))


def _fuzz_argv(rng, fixtures):
    """A call to a command of cli.COMMANDS, its arguments drawn by kind."""
    name, _, *arguments = rng.choice(cli.COMMANDS)
    positional, optional = [], []
    for arg in arguments:
        if isinstance(arg, str) and arg.startswith("--"):
            optional.append([arg])
        elif isinstance(arg, str):
            positional.append(_fuzz_arg(rng, arg, str, fixtures))
        elif len(arg) == 2:
            positional.append(_fuzz_arg(rng, arg[0], arg[1], fixtures))
        else:
            optional.append([arg[0], _fuzz_arg(rng, arg[0], arg[1], fixtures)])
    if positional and rng.random() < 0.05:
        positional.pop()  # a missing argument
    argv = [name, *positional]
    for option in optional:
        if rng.random() < 0.5:
            argv += option
    if rng.random() < 0.5:
        argv.append("--json")
    return argv


def _brief(argv):
    """argv with each long argument cut short, for a failure message."""
    return [a if len(a) <= 60 else "%s...(%d characters)" % (a[:40], len(a)) for a in argv]


def test_cli_contract_under_a_grammar_fuzzer(tmp_path):
    # 2,000 seeded argvs over every command of cli.COMMANDS, with word
    # literals, JSON of depth 0 to 4, bracket runs up to depth 1,500 and
    # integers around Python's 4,300-digit limit.  At seed 7 they reach
    # every path of TRACEBACK_CASES, and a printed tau past the limit, on
    # code that lacks their refusals
    deep, huge = tmp_path / "deep.json", tmp_path / "huge.json"
    deep.write_text(DEEP)
    huge.write_text('{"n": %s, "images": {}}' % ("9" * 4301))
    fixtures = (ORDER_FIXTURE, ORDER_FIXTURE + ".missing", "/", str(deep), str(huge))
    rng = random.Random(7)
    seen = set()
    for _ in range(2000):
        argv = _fuzz_argv(rng, fixtures)
        seen.add(argv[0])
        try:
            code, out, err = invoke_within(5.0, argv)
        except Exception as exc:
            pytest.fail("%r escapes run at %r" % (exc, _brief(argv)))
        assert_contract(_brief(argv), code, out, err)
    assert seen == {row[0] for row in cli.COMMANDS}


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
    "gram": "test_matrix.py::test_gram_cells_pass_the_check",
    "factor_a0": "test_structure.py::test_factor_exhaustive_small",
    "factor_d0": "test_structure.py::test_factor_d0_exhaustive_small",
    "sa_factor_min": "test_order.py::test_trusted_slices_pass_the_check",
    "hollow_successors": "test_order.py::test_hollow_step_matches_the_product",
    "beta_omega": "test_maps.py::test_beta_omega_lands_in_d0",
    "_bracket": "test_maps.py::test_bracket_matches_the_products",
    "sa_canonical_d1": "test_structure.py::test_sa_canonical_matches_factor_and_fold",
    "_plus_irreducibles": "test_structure.py::test_enum_elements_meet_the_definition",
    "classify_matrix": "test_matrix.py::test_case2_matches_factor_and_fold",
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


#: the functions of matrix.py that make a GramMatrix; each promises that
#: the witness is a factorization of the cells
GRAM_BUILDERS = ("gram", "matrix_successors", "iota_tau")
GRAM_PROMISE_TEST = "test_matrix.py::test_every_witness_factors_its_cells"


def test_gram_matrix_construction_stays_in_its_builders():
    # a GramMatrix is made, as GramMatrix(...) or as cls(...) in its class
    # methods, only by the GRAM_BUILDERS of matrix.py, and the promise test
    # calls every one of them (from_json reaches from_cells and gram)
    sites = []
    for path in sorted((REPO / "src" / "pisom").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = _enclosing_functions(tree)
        makers = {"GramMatrix", "cls"} if path.name == "matrix.py" else {"GramMatrix"}
        sites += [
            (path.name, owner[node])
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in makers
        ]
    assert sorted(set(sites)) == sorted(("matrix.py", fn) for fn in GRAM_BUILDERS), sites
    module, test = GRAM_PROMISE_TEST.split("::")
    tree = ast.parse((REPO / "tests" / module).read_text())
    body = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == test)
    called = {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for node in ast.walk(body)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    }
    assert set(GRAM_BUILDERS) | {"from_json"} <= called, called


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


def test_no_library_code_only_the_tests_call():
    # every module-level function and class of the package is exported or
    # named somewhere in the package, and every non-dunder method of such a
    # class is called or read as an attribute in the package or in its other
    # consumer, perfbench/, so no code lives on for the tests alone.  A
    # local variable of the method's name does not count.
    import pisom

    paths = sorted((REPO / "src" / "pisom").glob("*.py"))
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in paths}
    named = set(pisom.__all__) | {"__getattr__"}
    attributes = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
    for path in sorted((REPO / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        attributes.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    defs = [
        (name, node) for name, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    methods = [
        (name, node) for name, cls in defs if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")
    ]
    unused = ["%s:%s" % (name, node.name) for name, node in defs if node.name not in named]
    unused += ["%s:%s" % (name, node.name) for name, node in methods if node.name not in attributes]
    assert unused == []


def test_the_reference_imports_nothing_from_pisom():
    # the tests and the benchmark check the package against
    # perfbench/reference.py, which must stay independent of it
    path = REPO / "perfbench" / "reference.py"
    modules = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append(node.module or "")
    assert modules and not [m for m in modules if m.split(".")[0] == "pisom"], modules


def load_script(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(name, REPO / "scripts" / (name + ".py"))
    script = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
    spec.loader.exec_module(script)
    return script


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


def test_code_lines_per_module_sum_to_the_total(monkeypatch, capsys):
    script = load_script(monkeypatch, "code_lines")
    source = '"""Module doc."""\n\n# a comment\ndef f(x):\n    """Doc\n    string."""\n    return (x,\n            x)  # tail\n'
    assert script.code_lines(source) == 3
    monkeypatch.setattr(sys, "argv", ["code_lines.py"])
    assert script.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    counts = {name: int(n) for name, n in rows[:-1]}
    assert rows[-1][0] == "total" and int(rows[-1][1]) == sum(counts.values())
    assert set(counts) == {path.stem for path in (REPO / "src" / "pisom").glob("*.py")}
    assert all(n > 0 for n in counts.values())


#: a reduced input set per layer of scripts/fingerprint.py
FINGERPRINT_INPUTS = {
    "words": dict(max_weight=4),
    "maps": dict(max_weight=6),
    "structure": dict(max_weight=6, max_grade=6),
    "order": dict(max_weight=6),
    "matrix": dict(max_rank=2, ranks=(4, 8), count=3),
    "numeric": dict(dims=(1, 3), ks=(1, 2), scalar_count=12, matrix_count=4),
}


def test_fingerprint_is_reproducible(monkeypatch):
    # the matrix and numeric layers have a test each below
    script = load_script(monkeypatch, "fingerprint")
    assert [layer.__name__ for layer in script.LAYERS] == list(FINGERPRINT_INPUTS)
    for layer in script.LAYERS:
        if layer.__name__ not in ("matrix", "numeric"):
            assert_layer_is_reproducible(script, layer)


def assert_layer_is_reproducible(script, layer):
    inputs = FINGERPRINT_INPUTS[layer.__name__]
    digest, count = script.digest(layer(**inputs))
    assert script.digest(layer(**inputs)) == (digest, count)
    assert len(digest) == 64 and count > 0, layer.__name__


def test_gram_fingerprint_is_reproducible(monkeypatch):
    script = load_script(monkeypatch, "fingerprint")
    assert_layer_is_reproducible(script, script.matrix)
    # the reduced set still reaches the order data of a D1 matrix
    assert any(line.startswith("factor ") for line in script.matrix(**FINGERPRINT_INPUTS["matrix"]))


def test_numeric_fingerprint_is_reproducible(monkeypatch):
    script = load_script(monkeypatch, "fingerprint")
    assert_layer_is_reproducible(script, script.numeric)
    # the reduced set still reaches a failing verify call
    lines = script.numeric(**FINGERPRINT_INPUTS["numeric"])
    assert any(isinstance(line, str) and '"failures": [{' in line for line in lines)
