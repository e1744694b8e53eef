"""Span recorder for the traced run.

Spans are recorded from the benchmark's side of each layer boundary:
``Tracer.install`` rebinds every traced public name in each loaded
``entwine.*`` namespace that holds it (module attributes and the
module-level tables of function references, such as the CLI's checker
list), and wraps methods of the ``exactlin`` classes.  ``uninstall``
puts every original object back.  Spans (name, start, end, parent) are
kept in flat arrays in memory and written out by ``dump``; per-layer
metrics are derived from them afterwards.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from array import array
from collections import Counter

# (module, attribute or Class.attribute, span name, hook); several
# attributes may share a span name, which then counts as one layer op.
SPANS = [
    ("exactlin", "compose", "exactlin.compose", "entries"),
    ("exactlin", "kron", "exactlin.kron", "entries"),
    ("exactlin", "Matrix.__sub__", "exactlin.sub", "entries"),
    ("exactlin", "Matrix.__hash__", "exactlin.hash", None),
    ("exactlin", "Matrix.identity", "exactlin.identity", "identity"),
    ("exactlin", "rref", "exactlin.rref", "shape"),
    ("exactlin", "rank", "exactlin.rref", "shape"),
    ("exactlin", "kernel_basis", "exactlin.rref", "shape"),
    ("exactlin", "solve", "exactlin.rref", "shape"),
    ("exactlin", "inverse", "exactlin.rref", "shape"),
    ("qtensor", "tensor_over", "qtensor.tensor_over", "ambient"),
    ("qtensor", "presentation_from_relations", "qtensor.presentation", None),
    ("qtensor", "induced_map", "qtensor.induced_map", "ambient"),
    ("corcat", "wtensor", "corcat.wtensor", None),
    ("corcat", "word_iso", "corcat.word_iso", None),
    ("corcat", "check_coring", "corcat.check_coring", None),
    ("corcat", "check_cor_one_cell", "corcat.check_cor_one_cell", None),
    ("corcat", "check_cor_two_cell", "corcat.check_cor_two_cell", None),
    ("corcat", "compose_cor_one_cells", "corcat.compose_cor_one_cells", None),
    ("entwcat", "check_obj", "entwcat.check_obj", None),
    ("entwcat", "check_one_cell", "entwcat.check_one_cell", None),
    ("comc", "comc_obj", "comc.comc_obj", "unique"),
    ("comc", "comc_one_cell", "comc.comc_one_cell", "unique"),
    ("comc", "compositor", "comc.compositor", None),
    ("comc", "hom_dimension_report", "comc.hom_dimension_report", None),
    ("cli", "deserialize", "cli.deserialize", None),
    ("cli", "serialize", "cli.serialize", None),
    ("cli", "laws_cells", "cli.laws_cells", None),
    ("cli", "laws_bicategory", "cli.laws_bicategory", None),
    ("cli", "laws_pseudofunctor", "cli.laws_pseudofunctor", None),
]
# every public function defined in this module is one span, "algstruct"
WHOLE_MODULE = "algstruct"
# scalar arithmetic is counted, not spanned: a span per op would swamp it
FIELD_OPS = ("add", "sub", "mul", "neg", "inv")
# span name -> the lru cache whose hit ratio it reports
CACHES = {"qtensor.tensor_over": "qtensor.tensor_over.hit_ratio",
          "qtensor.presentation": "qtensor.presentation.hit_ratio",
          "corcat.wtensor": "corcat.wtensor.hit_ratio"}

PER_LAYER = {
    "exactlin.field_ops": "count",
    "exactlin.compose.calls": "count",
    "exactlin.compose.self_s": "s",
    "exactlin.kron.calls": "count",
    "exactlin.kron.self_s": "s",
    "exactlin.sub.self_s": "s",
    "exactlin.hash.self_s": "s",
    "exactlin.identity.calls": "count",
    "exactlin.identity.entries": "count",
    "exactlin.entries_out": "count",
    "exactlin.rref.calls": "count",
    "exactlin.rref.self_s": "s",
    "exactlin.rref.max_rows": "count",
    "exactlin.rref.max_cols": "count",
    "qtensor.tensor_over.calls": "count",
    "qtensor.tensor_over.self_s": "s",
    "qtensor.tensor_over.hit_ratio": "ratio",
    "qtensor.presentation.hit_ratio": "ratio",
    "qtensor.induced_map.calls": "count",
    "qtensor.induced_map.self_s": "s",
    "qtensor.max_ambient": "count",
    "qtensor.does_not_factor": "count",
    "corcat.wtensor.calls": "count",
    "corcat.wtensor.hit_ratio": "ratio",
    "corcat.word_iso.calls": "count",
    "corcat.word_iso.self_s": "s",
    "corcat.check_coring.self_s": "s",
    "corcat.check_cor_one_cell.self_s": "s",
    "corcat.check_cor_two_cell.self_s": "s",
    "corcat.compose_cor_one_cells.self_s": "s",
    "entwcat.check_obj.calls": "count",
    "entwcat.check_obj.self_s": "s",
    "entwcat.check_one_cell.self_s": "s",
    "algstruct.self_s": "s",
    "comc.comc_obj.calls": "count",
    "comc.comc_obj.unique_ratio": "ratio",
    "comc.comc_one_cell.calls": "count",
    "comc.comc_one_cell.unique_ratio": "ratio",
    "comc.comc_one_cell.self_s": "s",
    "comc.compositor.self_s": "s",
    "comc.hom_dimension_report.self_s": "s",
    "cli.deserialize.self_s": "s",
    "cli.serialize.self_s": "s",
    "cli.laws_cells.s": "s",
    "cli.laws_bicategory.s": "s",
    "cli.laws_pseudofunctor.s": "s",
    "cli.report_lines": "count",
    "trace.overhead_s": "s",
}


def self_times(starts, ends, parents):
    """Each span's duration minus the part of it that its children cover.

    Spans are listed in start order, so a parent precedes its children
    and the children of one parent appear in start order; ``parents[i]``
    is the index of the enclosing span or -1.  Overlapping children are
    merged and clipped to the parent before they are subtracted.
    """
    n = len(starts)
    covered = [0.0] * n
    open_start = [0.0] * n
    open_end = [None] * n
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        s, e = max(starts[i], starts[p]), min(ends[i], ends[p])
        if e <= s:
            continue
        oe = open_end[p]
        if oe is None or s > oe:
            if oe is not None:
                covered[p] += oe - open_start[p]
            open_start[p], open_end[p] = s, e
        elif e > oe:
            open_end[p] = e
    return [ends[i] - starts[i] - covered[i]
            - (open_end[i] - open_start[i] if open_end[i] is not None
               else 0.0)
            for i in range(n)]


def _entwine_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "entwine" or name.startswith("entwine.")]


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self._stack = [-1]
        self._paused = False
        self._undo = []
        self.field_ops = [0]
        self.raised = Counter()
        self.entries = Counter()
        self.maxima = Counter()
        self.unique = {}
        self.caches = {}

    # -- wrappers -----------------------------------------------------------

    def _hook(self, kind, name, args, result):
        if kind == "entries":
            self.entries["out"] += result.rows * result.cols
        elif kind == "identity":
            self.entries["out"] += result.rows * result.cols
            self.entries["identity"] += result.rows * result.cols
        elif kind == "shape":
            self.maxima["rref.rows"] = max(self.maxima["rref.rows"],
                                           args[0].rows)
            self.maxima["rref.cols"] = max(self.maxima["rref.cols"],
                                           args[0].cols)
        elif kind == "ambient":
            amb = (args[2] * args[4] if name == "qtensor.tensor_over"
                   else args[1].ambient_dim)
            self.maxima["ambient"] = max(self.maxima["ambient"], amb)
        elif kind == "unique":
            self.unique.setdefault(name, set()).add(args[0])

    def _span(self, fn, name, hook):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, stack, raised = self.parents, self._stack, self.raised
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                raised[name, type(exc).__name__] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                self._paused = True
                try:
                    self._hook(hook, name, args, result)
                finally:
                    self._paused = False
            return result

        return functools.update_wrapper(wrapper, fn)

    def _counter(self, fn):
        ops = self.field_ops

        def wrapper(*args):
            ops[0] += 1
            return fn(*args)

        return functools.update_wrapper(wrapper, fn)

    # -- install / uninstall ------------------------------------------------

    def _setattr(self, obj, attr, value):
        self._undo.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def install(self):
        """Wrap every traced name; call once, undo with ``uninstall``."""
        mods = {m.__name__: m for m in _entwine_modules()}
        plan = {}   # id(original function) -> wrapper
        for modname, attr, name, hook in SPANS:
            mod = mods.get("entwine." + modname)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            raw = vars(owner).get(leaf) if owner is not None else None
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                self._setattr(owner, leaf,
                              classmethod(self._span(raw.__func__, name,
                                                     hook)))
            elif owner_name:
                self._setattr(owner, leaf, self._span(raw, name, hook))
            else:
                plan[id(raw)] = self._span(raw, name, hook)
                if name in CACHES and hasattr(raw, "cache_info"):
                    self.caches[CACHES[name]] = (raw, raw.cache_info())
        alg = mods.get("entwine." + WHOLE_MODULE)
        for attr, fn in vars(alg).items() if alg else ():
            if (isinstance(fn, types.FunctionType) and not attr.startswith("_")
                    and fn.__module__ == alg.__name__):
                plan[id(fn)] = self._span(fn, WHOLE_MODULE, None)
        lin = mods.get("entwine.exactlin")
        for cls in vars(lin).values() if lin else ():
            if isinstance(cls, type) and cls.__module__ == lin.__name__:
                for op in FIELD_OPS:
                    if callable(cls.__dict__.get(op)):
                        self._setattr(cls, op, self._counter(cls.__dict__[op]))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if not attr.startswith("__"):
                    self._rebind(mod, attr, value, plan)

    def _swap(self, value, plan):
        """``value`` with traced functions replaced, or None if unchanged."""
        if callable(value) and id(value) in plan:
            return plan[id(value)]
        if type(value) is tuple:
            new = tuple(self._swap(x, plan) or x for x in value)
            if any(a is not b for a, b in zip(new, value)):
                return new
        return None

    def _rebind(self, mod, attr, value, plan):
        new = self._swap(value, plan)
        if new is not None:
            self._setattr(mod, attr, new)
        elif type(value) in (list, dict):
            keys = range(len(value)) if type(value) is list else list(value)
            for key in keys:
                new = self._swap(value[key], plan)
                if new is not None:
                    self._undo.append((value, key, value[key]))
                    value[key] = new

    def uninstall(self):
        while self._undo:
            obj, key, old = self._undo.pop()
            if type(obj) in (list, dict):
                obj[key] = old
            else:
                setattr(obj, key, old)

    # -- results ------------------------------------------------------------

    def dump(self, path):
        """Write the spans as JSON: names, then [name, start, end, parent]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "spans": [list(s) for s in zip(
                           self.name_ids, self.starts, self.ends,
                           self.parents)]}, fh)

    def metrics(self):
        """Per-layer metrics, except the two the caller measures itself."""
        selfs = self_times(self.starts, self.ends, self.parents)
        calls, self_s, total_s = Counter(), Counter(), Counter()
        names, ids, parents = self.names, self.name_ids, self.parents
        for i, nid in enumerate(ids):
            name = names[nid]
            self_s[name] += selfs[i]
            p = parents[i]
            if p < 0 or ids[p] != nid:
                calls[name] += 1
                total_s[name] += self.ends[i] - self.starts[i]
        out = {m: 0 for m in PER_LAYER}
        for name in names:
            for key, value in ((f"{name}.calls", calls[name]),
                               (f"{name}.self_s", self_s[name]),
                               (f"{name}.s", total_s[name])):
                if key in out:
                    out[key] = value
        for metric, (fn, before) in self.caches.items():
            after = fn.cache_info()
            hits = after.hits - before.hits
            misses = after.misses - before.misses
            out[metric] = hits / (hits + misses) if hits + misses else 0.0
        for name in ("comc.comc_obj", "comc.comc_one_cell"):
            if calls[name]:
                out[f"{name}.unique_ratio"] = (len(self.unique.get(name, ()))
                                               / calls[name])
        out["exactlin.field_ops"] = self.field_ops[0]
        out["exactlin.identity.entries"] = self.entries["identity"]
        out["exactlin.entries_out"] = self.entries["out"]
        out["exactlin.rref.max_rows"] = self.maxima["rref.rows"]
        out["exactlin.rref.max_cols"] = self.maxima["rref.cols"]
        out["qtensor.max_ambient"] = self.maxima["ambient"]
        out["qtensor.does_not_factor"] = self.raised[
            "qtensor.induced_map", "DoesNotFactor"]
        return out
