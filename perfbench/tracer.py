"""Outside-in tracing of the pisom layers.

The tracer wraps each layer module's public functions from the outside and
rebinds every name under which a pisom module imported them, plus
``Word.__new__``, ``Word.__mul__`` and the ``Word.star`` property on the
class.  In ``numeric`` the module's own ``np`` name is rebound to a copy of
numpy whose ``linalg.eigvalsh`` and ``linalg.norm`` are wrapped, so only
pisom's numpy calls are counted.

Each call records a span (name, start, end, parent) in flat arrays.  Counts
and self times are derived from the spans after the traced work; self time
is a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import importlib
import time
import types
from array import array

import numpy as np

LAYERS = ("words", "maps", "structure", "order", "matrix", "numeric")
PISOM_MODULES = ("pisom",) + tuple("pisom." + m for m in LAYERS) + ("pisom.cli",)

# Module functions that only forward to a traced method of Word.
_FORWARDERS = {("words", "mul"), ("words", "star")}


def _cells_at_rep(numeric, rep, count):
    return count if isinstance(rep, numeric.PartialIsometryRep) else 0


def _arg_meters(numeric):
    """Cell evaluations each verify_* call asks for at a partial isometry."""
    return {
        "numeric.verify_order_rep": lambda rep, pairs, *a, **kw: _cells_at_rep(numeric, rep, 2 * len(pairs)),
        "numeric.verify_k_order": lambda rep, k, rels, *a, **kw: _cells_at_rep(numeric, rep, 2 * k * k * len(rels)),
        "numeric.verify_schwarz": lambda rep, samples, *a, **kw: _cells_at_rep(numeric, rep, 2 * len(samples)),
        "numeric.verify_conjugation": lambda rep, samples, *a, **kw: _cells_at_rep(numeric, rep, 2 * len(samples)),
    }


_RESULT_METERS = {"matrix.matrix_successors": len}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.meters: dict[str, float] = {}
        self._undo: list = []

    # -- recording ---------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, arg_meter=None, result_meter=None):
        nid = self._id(name)
        stack, ids, parents, starts, ends = self._stack, self.name_id, self.parent, self.start, self.end
        meters, clock = self.meters, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            if arg_meter is not None:
                meters[name + ":arg"] = meters.get(name + ":arg", 0) + arg_meter(*args, **kwargs)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if result_meter is not None:
                meters[name + ":result"] = meters.get(name + ":result", 0) + result_meter(out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- installing --------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        mods = {name: importlib.import_module(name) for name in PISOM_MODULES}
        numeric = mods["pisom.numeric"]
        arg_meters = _arg_meters(numeric)
        wrapped = {}
        for layer in LAYERS:
            mod = mods["pisom." + layer]
            for attr, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and (layer, attr) not in _FORWARDERS
                ):
                    name = "%s.%s" % (layer, attr)
                    wrapped[id(obj)] = self.wrap(name, obj, arg_meters.get(name), _RESULT_METERS.get(name))
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])

        word = mods["pisom.words"].Word
        self._set(word, "__new__", staticmethod(self.wrap("words.Word", word.__dict__["__new__"].__func__)))
        self._set(word, "__mul__", self.wrap("words.mul", word.__dict__["__mul__"]))
        self._set(word, "star", property(self.wrap("words.star", word.__dict__["star"].fget)))

        linalg = types.ModuleType("numpy.linalg")
        linalg.__dict__.update(np.linalg.__dict__)
        linalg.eigvalsh = self.wrap("numeric.eigvalsh", np.linalg.eigvalsh)
        linalg.norm = self.wrap("numeric.norm2", np.linalg.norm)
        traced_np = types.ModuleType("numpy")
        traced_np.__dict__.update(np.__dict__)
        traced_np.linalg = linalg
        self._set(numeric, "np", traced_np)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- analysis ----------------------------------------------------------------

    def spans(self):
        """(name ids, parent indices, starts, ends) as numpy arrays."""
        return (
            np.frombuffer(self.name_id, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def summary(self) -> dict:
        """Per span name: calls, self seconds, inclusive seconds; plus meters
        and the derived counts the per-layer metrics need."""
        nid, parent, start, end = self.spans()
        n_names = len(self.names)
        dur = end - start
        has_parent = parent >= 0
        child = np.zeros(len(dur))
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        calls = np.bincount(nid, minlength=n_names)
        self_s = np.bincount(nid, weights=self_time, minlength=n_names)
        incl_s = np.bincount(nid, weights=dur, minlength=n_names)
        out = {
            "spans": {
                name: {"calls": int(calls[i]), "self_s": float(self_s[i]), "incl_s": float(incl_s[i])}
                for i, name in enumerate(self.names)
                if calls[i]
            },
            "meters": dict(self.meters),
            "derived": {
                "choice_vectors": self._children_named(nid, parent, "matrix.matrix_successors", "matrix.gram"),
                "enum_products": self._descendants_named(nid, start, "structure.enum_irr", "words.mul"),
                "verify_eval_words": sum(
                    self._descendants_named(nid, start, v, "numeric.eval_word")
                    for v in ("numeric.verify_order_rep", "numeric.verify_k_order", "numeric.verify_schwarz", "numeric.verify_conjugation")
                ),
            },
        }
        return out

    def _children_named(self, nid, parent, parent_name, child_name) -> int:
        if parent_name not in self._ids or child_name not in self._ids:
            return 0
        par = parent[(nid == self._ids[child_name]) & (parent >= 0)]
        return int(np.count_nonzero(nid[par] == self._ids[parent_name]))

    def _descendants_named(self, nid, start, root_name, name) -> int:
        """Spans called `name` inside an outermost `root_name` span.  Spans are
        stored in start order, so a span's descendants are the indices after
        it that started before it ended."""
        if root_name not in self._ids or name not in self._ids:
            return 0
        roots = np.flatnonzero(nid == self._ids[root_name])
        target = np.cumsum(nid == self._ids[name])
        total, covered_to = 0, -1
        ends = np.frombuffer(self.end, dtype=np.float64)
        for r in roots:
            if r < covered_to:
                continue
            stop = int(np.searchsorted(start, ends[r], side="left"))
            total += int(target[stop - 1] - target[r])
            covered_to = stop
        return total

    def save(self, path) -> None:
        nid, parent, start, end = self.spans()
        np.savez(path, names=np.array(self.names), name_id=nid, parent=parent, start=start, end=end)


def merge_summaries(summaries) -> dict:
    """Add up summaries from several tracers (or traced child processes)."""
    out = {"spans": {}, "meters": {}, "derived": {}}
    for s in summaries:
        for name, rec in s["spans"].items():
            acc = out["spans"].setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
            for key in acc:
                acc[key] += rec[key]
        for section in ("meters", "derived"):
            for key, value in s[section].items():
                out[section][key] = out[section].get(key, 0) + value
    return out
