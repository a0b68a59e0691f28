"""The round engine shared by the workloads.

A workload builds its inputs in a set-up (run 3 to 7 times; the median is
``setup_s``), then runs whole rounds of operations until the run's seconds
are spent.  Every round has the same composition, so the share of failed
operations is the same in every run.  Each operation is timed on its own
and its time scaled to reference machine speed (calib.py); outputs are
checked after the round, outside the timed calls.  The cold-enumeration
probes behind ``enum_s`` run between rounds, spread over the run, and
do not count against its seconds.

With tracing on, each round runs twice on the same inputs, untraced and
then traced; the end-to-end figures are not printed in that mode.
"""

from __future__ import annotations

import json
import os
import resource
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")

ENUM_TOP_GRADE = 15
ENUM_PROBES = 7
SETUP_REPEATS = 7
SETUP_BUDGET_S = 3.0
CLI_PROBES = 3
CLI_RUN_PROBES = (
    ["reduce", "(2,-1,2,-1)"],
    ["enum-irr", "8"],
    ["gram", '["(-2,3)","(-3,4)"]'],
    ["order-succ", "(-3,2,-2,3)"],
    ["verify-rep", "--seed", "0", "--dim", "3", "--count", "10"],
)


# Per-layer metrics read off the traced rounds: "<span>.calls" or "<span>.self_s", per operation.
PER_OP_METRICS = (
    "words.mul.calls", "words.mul.self_s", "words.reduce_word.calls", "words.reduce_word.self_s",
    "words.Word.calls", "words.Word.self_s", "words.star.calls",
    "structure.factor_a0.calls", "structure.factor_a0.self_s", "structure.sa_canonical_d1.self_s",
    "maps.alpha.calls", "maps.alpha.self_s", "maps.beta_omega.self_s",
    "order.hollow_successors.calls", "order.hollow_successors.self_s", "order.sa_factorizations.self_s",
    "order.leq.self_s",
    "matrix.gram.calls", "matrix.gram.self_s", "matrix.factor_gram.calls", "matrix.factor_gram.self_s",
    "matrix.matrix_successors.self_s", "matrix.immediate_predecessors.self_s", "matrix.classify_matrix.self_s",
    "numeric.eval_word.calls", "numeric.eval_word.self_s", "numeric.psd_check.calls", "numeric.psd_check.self_s",
    "numeric.eigvalsh.calls", "numeric.norm2.calls",
)


@dataclass
class Op:
    """One call into the library (or one CLI call).

    ``check(out)`` returns None or a description of a wrong output.
    ``failed(out, err)`` decides whether the call failed; by default a
    call fails when it raised.  ``fault(err)`` recognizes a known program
    fault; other failures are reported on stderr.  ``n`` is how many
    operations the call performs (relations in one verify call).
    """

    call: object
    check: object
    n: int = 1
    wide: bool = False
    traced: object = None
    fault: object = None
    failed: object = None
    label: str = ""


class Round:
    """Timings of one untraced round (or of a whole run, pooled)."""

    def __init__(self):
        self.n = 0
        self.time_s = 0.0
        self.wide_n = 0
        self.wide_time_s = 0.0
        self.lat_ms: list[float] = []

    def add(self, op: Op, dt: float) -> None:
        self.n += op.n
        self.time_s += dt
        self.lat_ms.append(dt * 1e3 / op.n)
        if op.wide:
            self.wide_n += op.n
            self.wide_time_s += dt

    def summarize(self, tail_percentile: float, keep_latencies: bool) -> None:
        """Reduce the latencies to the two percentiles.  Dropping the list
        keeps the worker's memory, and so peak_rss_mb, independent of how
        many rounds fit in the run."""
        self.p50_ms = percentile(self.lat_ms, 50)
        self.tail_ms = percentile(self.lat_ms, tail_percentile)
        if not keep_latencies:
            self.lat_ms = []

    @classmethod
    def pooled(cls, rounds, tail_percentile: float) -> "Round":
        out = cls()
        for r in rounds:
            out.n += r.n
            out.time_s += r.time_s
            out.wide_n += r.wide_n
            out.wide_time_s += r.wide_time_s
            out.lat_ms += r.lat_ms
        out.summarize(tail_percentile, True)
        return out


# -- statistics ------------------------------------------------------------------


def percentile(xs, p: float) -> float:
    xs = sorted(xs)
    pos = p / 100.0 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# -- child processes -------------------------------------------------------------


def spawn(argv, timeout: float = 60.0, env=None, report: bool = False):
    """Run a child to completion: (exit code, stdout, stderr, seconds, peak
    RSS kB, report).  With report=True the child inherits the write end of
    a pipe, named in PERFBENCH_FD, and what it writes there is returned.

    The child is reaped with wait4 so its own peak RSS is known.
    """
    env = dict(os.environ if env is None else env)
    fds = ()
    if report:
        r, w = os.pipe()
        env["PERFBENCH_FD"] = str(w)
        fds = (w,)
    t0 = time.perf_counter()
    try:
        p = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, pass_fds=fds)
    finally:
        for fd in fds:
            os.close(fd)
    streams = {p.stdout.fileno(): [], p.stderr.fileno(): []}
    if report:
        streams[r] = []
    deadline = t0 + timeout
    with selectors.DefaultSelector() as sel:
        for fd in streams:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            left = deadline - time.perf_counter()
            if left <= 0:
                p.send_signal(signal.SIGKILL)
                break
            for key, _ in sel.select(left):
                data = os.read(key.fd, 65536)
                if data:
                    streams[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
    _, status, usage = os.wait4(p.pid, 0)
    dt = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    texts = [b"".join(chunks).decode() for chunks in streams.values()]
    p.stdout.close()
    p.stderr.close()
    if report:
        os.close(r)
    return p.returncode, texts[0], texts[1], dt, usage.ru_maxrss, (texts[2] if report else None)


def cli_call(argv, trace: bool = False):
    """One CLI call through cli_child.py: the spawn result and its report."""
    env = dict(os.environ)
    if trace:
        env["PERFBENCH_TRACE"] = "1"
    out = spawn([sys.executable, os.path.join(HERE, "cli_child.py")] + list(argv), env=env, report=True)
    return out[:5], json.loads(out[5]) if out[5] else None


def enum_probe(trace: bool = False):
    """Cold enumeration through the top grade in a fresh interpreter."""
    argv = [sys.executable, os.path.join(HERE, "enum_child.py"), str(ENUM_TOP_GRADE)]
    code, out, err, _, _, _ = spawn(argv + (["--trace"] if trace else []), timeout=120)
    if code != 0:
        raise RuntimeError("enumeration child failed:\n" + err)
    return json.loads(out.strip().splitlines()[-1])


def cli_probes():
    """Median ms of a bare interpreter start, of an interpreter importing
    pisom.cli, and of pisom.cli.run itself over a fixed set of calls."""
    py = sys.executable

    def median_ms(argv):
        times = []
        for _ in range(CLI_PROBES):
            code, _, err, dt, _, _ = spawn(argv)
            if code != 0:
                raise RuntimeError("probe %r failed:\n%s" % (argv, err))
            times.append(dt * 1e3)
        return statistics.median(times)

    runs = []
    for _ in range(CLI_PROBES):
        for argv in CLI_RUN_PROBES:
            (code, _, err, _, _), rep = cli_call(argv)
            if code != 0:
                raise RuntimeError("probe %r failed:\n%s" % (argv, err))
            runs.append(rep["run_s"] * 1e3)
    return {
        "cli.interp_ms": median_ms([py, "-c", "pass"]),
        "cli.import_ms": median_ms([py, "-c", "import pisom.cli"]),
        "cli.run_ms": statistics.median(runs),
    }


def traced_sampling(seed: int) -> float:
    """Seconds inside scalar_relations and matrix_relations while sampling
    the numeric-certify relation pools once, traced."""
    import wl_numeric
    from tracer import Tracer

    tracer = Tracer().install()
    try:
        wl_numeric.sample_pools(seed)
    finally:
        tracer.uninstall()
    spans = tracer.summary()["spans"]
    return sum(spans[name]["incl_s"] for name in ("numeric.scalar_relations", "numeric.matrix_relations"))


# -- the run -------------------------------------------------------------------


class Run:
    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rounds: list[Round] = []
        self.traced_time_s = 0.0
        self.traced_ops = 0
        self.factors: list[float] = []

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            print("perfbench: %s: %s" % (self.wl.NAME, text), file=sys.stderr)
        self.problems.append(text)

    def execute(self, ops, traced: bool):
        """Run the ops; each time is scaled to reference machine speed by
        calibration samples taken around the round, or around each op
        when ops are processes of their own."""
        results = []
        clock = time.perf_counter
        per_op = self.wl.LONG_OPS
        cal = self.wl.CALIBRATION
        before = cal.sample()
        for op in ops:
            call = op.traced if (traced and op.traced is not None) else op.call
            err = out = None
            t0 = clock()
            try:
                out = call()
            except Exception as exc:  # a failed operation, counted below
                err = exc
            dt = clock() - t0
            if per_op:
                after = cal.sample()
                dt *= cal.scale(before, after)
                before = after
            results.append((out, err, dt))
        if not per_op:
            factor = cal.scale(before, cal.sample())
            results = [(out, err, dt * factor) for out, err, dt in results]
            self.factors.append(factor)
        return results

    def account(self, ops, results, traced: bool) -> None:
        rnd = Round()
        for op, (out, err, dt) in zip(ops, results):
            self.attempted += op.n
            rnd.add(op, dt)
            if op.failed(out, err) if op.failed is not None else err is not None:
                self.failed += op.n
                if op.fault is None or not op.fault(out, err):
                    self.problem("unexpected failure in %s: %r" % (op.label, err if err is not None else out))
                continue
            try:
                msg = op.check(out)
            except Exception as exc:  # a check that cannot read the output
                msg = "unreadable output (%r)" % (exc,)
            if msg:
                self.problem("wrong output from %s: %s" % (op.label, msg))
        if traced:
            self.traced_time_s += rnd.time_s
            self.traced_ops += rnd.n
        else:
            rnd.summarize(self.wl.TAIL_PERCENTILE, keep_latencies=self.wl.LONG_OPS)
            self.rounds.append(rnd)

    def main(self) -> dict:
        import random

        for msg in self.wl.prepare() if hasattr(self.wl, "prepare") else ():
            self.problem(msg)
        setups = []
        state = None
        while len(setups) < SETUP_REPEATS and (len(setups) < 3 or sum(setups) < SETUP_BUDGET_S):
            before = calib.LOOP.sample()
            t0 = time.perf_counter()
            state = self.wl.setup(self.seed)
            dt = time.perf_counter() - t0
            setups.append(dt * calib.LOOP.scale(before, calib.LOOP.sample()))
        for msg in self.wl.self_test(state):
            self.problem("self-test: " + msg)

        tracer = probe = None
        if self.trace:
            from tracer import Tracer

            tracer = Tracer()
            if self.wl.PROBE:
                from probe import Probe

                probe = Probe()
        rng = random.Random(self.seed)
        start = time.perf_counter()
        deadline = start + self.seconds
        enum_due = [] if self.trace else [start + i * self.seconds / ENUM_PROBES for i in range(ENUM_PROBES)]
        enum_runs = []
        rounds = 0
        while rounds == 0 or time.perf_counter() < deadline:
            while enum_due and time.perf_counter() >= enum_due[0]:
                t0 = time.perf_counter()
                enum_due.pop(0)
                enum_runs.append(enum_probe())
                pause = time.perf_counter() - t0
                deadline += pause
                enum_due = [t + pause for t in enum_due]
            ops = self.wl.make_round(state, rng)
            self.account(ops, self.execute(ops, traced=False), traced=False)
            if tracer is not None:
                tracer.install()
                try:
                    results = self.execute(ops, traced=True)
                    if probe is not None:
                        probe()
                finally:
                    tracer.uninstall()
                self.account(ops, results, traced=True)
            rounds += 1
        enum_runs += [enum_probe() for _ in enum_due]
        for r in enum_runs:
            if r["elements"] != r["expected"]:
                self.problem("cold enumeration returned %d elements, expected %d" % (r["elements"], r["expected"]))
        print("perfbench: %s: %d rounds, %d operations, cold enumerations %s s" % (
            self.wl.NAME, rounds, self.attempted, " ".join("%.3f" % r["enum_s"] for r in enum_runs)), file=sys.stderr)

        metrics = self.end_to_end(setups, enum_runs, state) if tracer is None else self.per_layer(state, tracer)
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }

    # -- metrics -------------------------------------------------------------------

    def end_to_end(self, setups, enum_runs, state) -> dict:
        # With a process per operation a run holds too few operations for
        # per-round figures, so it is taken as one pooled round.
        rounds = [Round.pooled(self.rounds, self.wl.TAIL_PERCENTILE)] if self.wl.LONG_OPS else self.rounds
        # On cli-session the workload runs in the CLI processes, elsewhere here.
        peak_kb = getattr(state, "child_peak_kb", 0) or peak_rss_kb()
        return {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": statistics.median(r.n / r.time_s for r in rounds), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(r.p50_ms for r in rounds), "unit": "ms"},
            "op_tail_ms": {"value": statistics.median(r.tail_ms for r in rounds), "unit": "ms"},
            "enum_s": {"value": statistics.median(r["enum_s"] for r in enum_runs), "unit": "s"},
            "wide_ops_per_s": {"value": statistics.median(r.wide_n / r.wide_time_s for r in rounds), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }

    def per_layer(self, state, tracer) -> dict:
        from tracer import merge_summaries

        rounds = merge_summaries([tracer.summary()] + list(getattr(state, "child_summaries", [])))
        enum = enum_probe(trace=True)
        before = calib.LOOP.sample()
        sampling = traced_sampling(self.seed)
        sampling *= calib.LOOP.scale(before, calib.LOOP.sample())
        cli = cli_probes()
        # Per-op self times are scaled by the run's median round factor.
        factor = statistics.median(self.factors) if self.factors else calib.LOOP.scale(calib.LOOP.sample(), calib.LOOP.sample())
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.save(os.path.join(OUT_DIR, "trace-%s.npz" % self.wl.NAME))

        ops = self.traced_ops
        spans = rounds["spans"]

        def calls(name):
            return spans.get(name, {}).get("calls", 0) / ops

        def self_s(name):
            return spans.get(name, {}).get("self_s", 0.0) * factor / ops

        meters, derived = rounds["meters"], rounds["derived"]
        cells = sum(meters.get(v + ":arg", 0) for v in (
            "numeric.verify_order_rep", "numeric.verify_k_order", "numeric.verify_schwarz", "numeric.verify_conjugation"))
        m = {}

        def put(name, value, unit):
            m[name] = {"value": value, "unit": unit}

        for metric in PER_OP_METRICS:
            span, kind = metric.rsplit(".", 1)
            if kind == "calls":
                put(metric, calls(span), "calls/op")
            else:
                put(metric, self_s(span), "s/op")
        enum_spans = enum["summary"]["spans"]
        put("structure.enum_irr.self_s", enum_spans["structure.enum_irr"]["self_s"] * enum["enum_s"] / enum["raw_s"], "s")
        put("structure.enum_irr.products_per_element",
            enum["summary"]["derived"]["enum_products"] / enum["elements"], "products/element")
        put("matrix.successor_yield",
            meters.get("matrix.matrix_successors:result", 0) / max(derived["choice_vectors"], 1), "succ/choice")
        put("numeric.eval_reuse", 1.0 - derived["verify_eval_words"] / max(cells, 1), "share")
        put("numeric.sample_relations_s", sampling, "s")
        for name, value in cli.items():
            put(name, value, "ms")
        put("trace.overhead_ratio", self.traced_time_s / sum(r.time_s for r in self.rounds) - 1.0, "ratio")
        return m
