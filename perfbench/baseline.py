"""Re-measure the baseline table of ROADMAP.md, item 1.

Usage (from the checkout root, about a minute):
    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/baseline.py

Each micro timing is the median of five repeats of a timed loop; the two
slow acceptance workloads (criterion 6 and the criterion 9 verify loop,
with its relation sampling) are timed once each, as the acceptance tests
run them.  The CLI timing is the median of five fresh interpreters.
"""

from __future__ import annotations

import itertools
import os
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as ref  # noqa: E402


def per_call(fn, number):
    runs = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        runs.append((time.perf_counter() - t0) / number)
    return statistics.median(runs)


def cold(argv):
    runs = []
    for _ in range(5):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs)


def main():
    py = sys.executable
    rows = [("enum_irr(14), cold", cold([py, "-c", "import pisom.structure as S; [S.enum_irr(g) for g in range(1, 15)]"])
             - cold([py, "-c", "import pisom.structure"]), "s")]
    rows.append(("pisom reduce", cold([py, "-m", "pisom.cli", "reduce", "(2,-1,2,-1)"]), "s"))
    rows.append(("python -c pass", cold([py, "-c", "pass"]), "s"))

    import pisom.matrix as M
    import pisom.numeric as N
    from pisom.words import Word, parse_word

    a, b = parse_word("(-2,3,-3,4)"), parse_word("(-4,3,-2,2)")
    rows.append(("mul", per_call(lambda: a * b, 20000) * 1e6, "us"))
    rows.append(("Word()", per_call(lambda: Word((-2, 3, -3, 4)), 20000) * 1e6, "us"))
    vec3 = tuple(parse_word(t) for t in ("(-2,3)", "(-3,4)", "(2,-1,3)"))
    rows.append(("gram (k=3)", per_call(lambda: M.gram(vec3), 2000) * 1e6, "us"))
    g3 = M.gram(vec3)
    rows.append(("factor_gram (k=3)", per_call(lambda: M.factor_gram(g3), 500) * 1e6, "us"))
    g8 = M.gram(tuple(parse_word("(-2,3)") for _ in range(8)))
    n_succ = len(M.matrix_successors(g8))
    rows.append(("matrix_successors (k=8, %d results)" % n_succ, per_call(lambda: M.matrix_successors(g8), 2), "s"))
    rep6 = N.random_partial_isometry(6, 0)
    w = parse_word("(-2,3,-3,4,-2)")
    rows.append(("eval_word (6x6)", per_call(lambda: N.eval_word(rep6, w), 2000) * 1e6, "us"))
    m18 = N.random_partial_isometry(18, 0).v
    h18 = m18 @ m18.conj().T
    rows.append(("psd_check (18x18)", per_call(lambda: N.psd_check(h18), 2000) * 1e6, "us"))

    words = [Word(x) for x in ref.reduced_words(5)]
    t0 = time.perf_counter()
    for k in (1, 2, 3):
        for vec in itertools.product(words, repeat=k):
            found = M.factor_gram(M.gram(vec))
            assert vec in found
    rows.append(("criterion 6 (%d vectors)" % sum(len(words) ** k for k in (1, 2, 3)), time.perf_counter() - t0, "s"))

    t0 = time.perf_counter()
    scalar_pairs = N.scalar_relations(200, seed=9)
    rels = {k: N.matrix_relations(50, seed=90 + k, ks=(k,), entry_weight=4) for k in (1, 2, 3)}
    rows.append(("criterion 9, relation sampling", time.perf_counter() - t0, "s"))
    conj_samples = [p[0] for p in scalar_pairs[:50]]
    t0 = time.perf_counter()
    for seed in range(100):
        rep = N.random_partial_isometry(1 + seed % 6, seed)
        assert N.verify_order_rep(rep, scalar_pairs).ok
        for k in (1, 2, 3):
            assert N.verify_k_order(rep, k, rels[k]).ok
        assert N.verify_conjugation(rep, conj_samples).ok
        assert N.verify_schwarz(rep, conj_samples).ok
    rows.append(("criterion 9, verify loop", time.perf_counter() - t0, "s"))

    for name, value, unit in rows:
        print("| %s | %.3g %s |" % (name, value, unit))


if __name__ == "__main__":
    main()
