"""Outside-in span tracing of the pgph layers for the benchmark's traced runs.

``Tracer.install`` replaces each public function listed in ``LAYERS`` with a
timing wrapper in every ``pgph`` module namespace that binds it, so calls
made through ``pgph.classify``, through ``pgph.persistence``'s own copy of
``minimal_resolution`` or through ``pgph.coclass.rank`` are all seen.  The
library itself is not modified.

A span is (id, name, start, end, parent, thread).  Each thread keeps its own
stack of open spans.  A thread whose stack is empty (a pool thread started
by ``classify`` or by the coclass warm-up) takes the main thread's innermost
open span as parent, because the benchmark makes every call from the main
thread.  Spans stay in memory and are written out once, by ``write``.

Self time is a span's duration minus the union of its children's intervals,
so parallel children are not subtracted twice.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import itertools
import json
import sys
import threading
import time

import numpy as np

LAYERS = {
    "catalog": ("bundled_order", "bundled_group"),
    "groups": ("group_from_permutations", "series", "quotient",
               "quotient_chain"),
    "resolution": ("minimal_resolution", "homology_dims", "induced_map"),
    "linalg": ("row_reduce", "kernel_basis", "solve", "rank", "snf_diagonal",
               "int_kernel_basis"),
    "persistence": ("persistence_matrix", "persistence_sequence",
                    "fingerprint", "classify", "integral_persistence_matrix",
                    "recover_order", "recover_abelian_invariants"),
    "barcomplex": ("bar_boundary", "integral_homology",
                   "integral_induced_triple"),
    "coclass": ("family", "tree_persistence"),
}

# (name, unit, better) of every metric ``Tracer.metrics`` reports, besides
# the trace.overhead_frac that run.py adds from the untraced workers
EXTRA_METRICS = (
    ("groups.closure.elements", "count", "lower"),
    ("resolution.cache_hit_ratio", "ratio", "higher"),
    ("resolution.chainmap_hit_ratio", "ratio", "higher"),
    ("resolution.generators", "count", "lower"),
    ("resolution.diff_entries", "count", "lower"),
    ("persistence.classify.parallel_eff", "ratio", "higher"),
    ("barcomplex.bar_boundary.entries", "count", "lower"),
    ("process.cpu_s", "s", "lower"),
)


def metric_specs():
    """(name, unit, better) for every per-layer metric, in report order."""
    specs = []
    for layer, fns in LAYERS.items():
        for fn in fns:
            base = f"{layer}.{fn}"
            specs += [(f"{base}.calls", "count", "lower"),
                      (f"{base}.busy_s", "s", "lower"),
                      (f"{base}.self_s", "s", "lower")]
            if layer == "linalg":
                specs += [(f"{base}.entries", "count", "lower"),
                          (f"{base}.ops", "count", "lower")]
    specs += list(EXTRA_METRICS)
    specs.append(("trace.overhead_frac", "ratio", "lower"))
    return specs


def _digest(group) -> bytes:
    return hashlib.sha1(group.cayley.tobytes()).digest()


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Records spans and layer counters of one worker process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()
        # resolution object id -> (object, levels held when last returned)
        self._resolutions: dict[int, tuple] = {}
        # chain-map key -> highest degree already returned
        self._chain_maps: dict[tuple, int] = {}
        # classify span id -> worker count
        self._classify_workers: dict[int, int] = {}
        self._observers = {
            "groups.group_from_permutations": self._on_closure,
            "resolution.minimal_resolution": self._on_resolution,
            "resolution.induced_map": self._on_induced_map,
            "barcomplex.bar_boundary": self._on_bar_boundary,
            "persistence.classify": self._on_classify,
        }

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function in every pgph namespace that binds it."""
        wrappers = {}
        for layer, fns in LAYERS.items():
            module = importlib.import_module(f"pgph.{layer}")
            for fn in fns:
                original = getattr(module, fn)
                wrappers[id(original)] = (original,
                                          self._wrap(f"{layer}.{fn}", original))
        for name, module in list(sys.modules.items()):
            if name != "pgph" and not name.startswith("pgph."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if is_main else []
            self._local.stack = stack
        return stack

    def _wrap(self, key: str, fn):
        index = len(self.names)
        self.names.append(key)
        if key.startswith("linalg."):
            observe = self._linalg_observer(key)
        else:
            observe = self._observers.get(key)
        spans, ids, main_stack = self.spans, self._ids, self._main_stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else -1
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, index, start, end, parent,
                              threading.get_ident()))
            if observe is not None:
                observe(sid, args, kwargs, result)
            return result

        return wrapper

    # -- counters ----------------------------------------------------------

    def _add(self, name: str, amount: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def _linalg_observer(self, key: str):
        def observe(sid, args, kwargs, result):
            # entries and ops are computed from the input shape, not counted
            shape = np.shape(args[0] if args else kwargs["a"])
            if len(shape) != 2:
                return
            m, n = shape
            with self._lock:
                c = self.counters
                c[f"{key}.entries"] = c.get(f"{key}.entries", 0) + m * n
                c[f"{key}.ops"] = c.get(f"{key}.ops", 0) + m * n * min(m, n)
        return observe

    def _on_closure(self, sid, args, kwargs, group):
        self._add("groups.closure.elements", group.order)

    def _on_resolution(self, sid, args, kwargs, res):
        degree = _arg(args, kwargs, 1, "degree")
        with self._lock:
            seen = self._resolutions.get(id(res))
            if seen is not None and seen[1] > degree:
                self.counters["resolution.cache_hits"] = (
                    self.counters.get("resolution.cache_hits", 0) + 1)
            self._resolutions[id(res)] = (res, len(res.ranks))

    def _on_induced_map(self, sid, args, kwargs, matrix):
        hom = _arg(args, kwargs, 0, "hom")
        degree = _arg(args, kwargs, 1, "n")
        key = (_digest(hom.source), _digest(hom.target), hom.mapping.tobytes())
        with self._lock:
            seen = self._chain_maps.get(key)
            if seen is not None and seen >= degree:
                self.counters["resolution.chainmap_hits"] = (
                    self.counters.get("resolution.chainmap_hits", 0) + 1)
            self._chain_maps[key] = max(degree, seen or 0)

    def _on_bar_boundary(self, sid, args, kwargs, matrix):
        self._add("barcomplex.bar_boundary.entries", matrix.size)

    def _on_classify(self, sid, args, kwargs, report):
        workers = _arg(args, kwargs, 5, "workers")
        with self._lock:
            self._classify_workers[sid] = workers or 1

    # -- reporting ---------------------------------------------------------

    def _self_times(self) -> dict[int, float]:
        children: dict[int, list] = {}
        for sid, _, start, end, parent, _ in self.spans:
            children.setdefault(parent, []).append((start, end))
        out = {}
        for sid, _, start, end, _, _ in self.spans:
            covered = 0.0
            reach = start
            for lo, hi in sorted(children.get(sid, ())):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[sid] = (end - start) - covered
        return out

    def metrics(self, cpu_s: float) -> dict[str, float]:
        """Per-layer values of this process, every name of metric_specs."""
        values = {name: 0.0 for name, _, _ in metric_specs()}
        self_times = self._self_times()
        classify_ix = self.names.index("persistence.classify")
        fingerprint_ix = self.names.index("persistence.fingerprint")
        name_of = {}
        for sid, ix, start, end, parent, _ in self.spans:
            key = self.names[ix]
            values[f"{key}.calls"] += 1
            values[f"{key}.busy_s"] += end - start
            values[f"{key}.self_s"] += self_times[sid]
            name_of[sid] = ix
        # classify parallel efficiency: fingerprint time over wall x workers
        fp_time = capacity = 0.0
        for sid, ix, start, end, parent, _ in self.spans:
            if ix == fingerprint_ix and name_of.get(parent) == classify_ix:
                fp_time += end - start
            elif ix == classify_ix:
                capacity += (end - start) * self._classify_workers.get(sid, 1)
        values["persistence.classify.parallel_eff"] = (
            fp_time / capacity if capacity else 0.0)

        for name, amount in self.counters.items():
            if name in values:
                values[name] = float(amount)
        calls = values["resolution.minimal_resolution.calls"]
        values["resolution.cache_hit_ratio"] = (
            self.counters.get("resolution.cache_hits", 0) / calls if calls else 0.0)
        calls = values["resolution.induced_map.calls"]
        values["resolution.chainmap_hit_ratio"] = (
            self.counters.get("resolution.chainmap_hits", 0) / calls if calls else 0.0)
        generators = diff_entries = 0
        for res, _ in self._resolutions.values():
            size = res.group.order
            generators += sum(res.ranks)
            diff_entries += sum(res.ranks[n] * res.ranks[n - 1] * size * size
                                for n in range(1, len(res.ranks)))
        values["resolution.generators"] = float(generators)
        values["resolution.diff_entries"] = float(diff_entries)
        values["process.cpu_s"] = cpu_s
        del values["trace.overhead_frac"]
        return values

    def write(self, path: str, extra: dict) -> None:
        """Write every span and the run's metadata as one JSON document."""
        doc = dict(extra)
        doc["names"] = self.names
        doc["spanFields"] = ["id", "name", "start", "end", "parent", "thread"]
        doc["spans"] = [list(s) for s in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))
