"""Layer tracing from outside the package.

``Tracer.install`` replaces the public functions of each layer module (in
every module namespace that holds them) with wrappers that record a span
(name, start, end, parent) per call, plus ``WaveModel.q``,
``FlowOptions.refined`` and the ``solve_ivp`` / ``eigvals_banded`` names the
flow, prufer and oracle modules call.  ``uninstall`` restores the originals.
Nothing in the package changes.

Spans live in per-thread ``array`` columns until the run ends.  The channel
threads of ``evans.compare_counts`` get their parent span from the thread
that submitted them, through a ``ThreadPoolExecutor`` subclass placed in the
``evans`` namespace while tracing.
"""

import functools
import importlib
import inspect
import itertools
import threading
from array import array
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np

LAYERS = ("cli", "models", "flow", "symplectic", "evans", "oracle", "prufer", "radial")
NO_PARENT = -1


class _Buffer:
    """Span columns of one thread."""

    def __init__(self, thread):
        self.thread = thread
        self.stack = [NO_PARENT]
        self.name = array("i")
        self.sid = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers = []
        self._lock = threading.Lock()
        self.counters = defaultdict(int)
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _buffer(self):
        try:
            return self._local.buf
        except AttributeError:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
            return buf

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, key, amount):
        with self._lock:
            self.counters[key] += amount

    def wrap(self, fn, name, on_result=None):
        nid = self._name_id(name)
        ids = self._ids
        buffer = self._buffer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = buffer()
            sid = next(ids)
            parent = buf.stack[-1]
            buf.stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                buf.stack.pop()
                buf.name.append(nid)
                buf.sid.append(sid)
                buf.parent.append(parent)
                buf.start.append(start)
                buf.end.append(end)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _run_under(self, parent, fn, *args, **kwargs):
        stack = self._buffer().stack
        stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    def _carrying_pool(self):
        tracer = self

        class CarryingPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer._buffer().stack[-1]
                return super().submit(tracer._run_under, parent, fn, *args, **kwargs)

        return CarryingPool

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        package = importlib.import_module("maslovstab")
        mods = {name: importlib.import_module(f"maslovstab.{name}") for name in LAYERS}
        hooks = {
            "oracle.discretize": self._count_discretization,
            "prufer.find_eigenvalues": lambda r: self.add("prufer.eigenvalues", len(r)),
        }
        wrapped = {}
        for ns in (package, *mods.values()):
            for attr, obj in list(vars(ns).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                pkg, _, layer = obj.__module__.partition(".")
                if pkg != "maslovstab" or layer not in LAYERS:
                    continue
                if obj not in wrapped:
                    name = f"{layer}.{obj.__name__}"
                    wrapped[obj] = self.wrap(obj, name, hooks.get(name))
                self._patch(ns, attr, wrapped[obj])
        self._patch(mods["models"].WaveModel, "q",
                    self.wrap(mods["models"].WaveModel.q, "models.q"))
        self._patch(mods["flow"].FlowOptions, "refined",
                    self.wrap(mods["flow"].FlowOptions.refined, "flow.FlowOptions.refined"))
        for layer, attr in (("flow", "solve_ivp"), ("prufer", "solve_ivp"),
                            ("oracle", "eigvals_banded")):
            name = f"{layer}.{attr}"
            hook = None
            if attr == "solve_ivp":
                hook = functools.partial(self._count_nfev, f"{name}.nfev")
            self._patch(mods[layer], attr, self.wrap(getattr(mods[layer], attr), name, hook))
        self._patch(mods["evans"], "ThreadPoolExecutor", self._carrying_pool())

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _count_nfev(self, key, result):
        self.add(key, int(result.nfev))

    def _count_discretization(self, disc):
        self.add("oracle.unknowns", int(disc.size))
        # computed from array sizes, not measured traffic
        self.add("oracle.band_bytes", int(disc.band.nbytes))

    # -- analysis ----------------------------------------------------------

    def columns(self):
        """All spans as numpy columns, indexed by span id."""
        bufs = self._buffers
        sid = np.concatenate([np.frombuffer(b.sid, dtype=np.int64) for b in bufs])
        order = np.argsort(sid, kind="stable")

        def col(attr, dtype):
            return np.concatenate([np.frombuffer(getattr(b, attr), dtype=dtype)
                                   for b in bufs])[order]

        thread = np.concatenate([np.full(len(b.sid), b.thread) for b in bufs])[order]
        cols = {
            "sid": sid[order],
            "name": col("name", np.int32),
            "parent": col("parent", np.int64),
            "thread": thread,
            "start": col("start", np.float64),
            "end": col("end", np.float64),
        }
        if not np.array_equal(cols["sid"], np.arange(len(order))):
            raise RuntimeError("span ids are not contiguous")
        return cols

    def self_times(self, cols):
        """Duration minus the part of it that child spans cover."""
        dur = cols["end"] - cols["start"]
        parent = cols["parent"]
        has_parent = parent >= 0
        cross = np.zeros(len(dur), dtype=bool)
        cross[has_parent] = cols["thread"][has_parent] != cols["thread"][parent[has_parent]]
        # children in other threads may overlap each other and their siblings:
        # their parents get the exact interval union
        union_parents = np.unique(parent[cross])
        simple = has_parent & ~np.isin(parent, union_parents)
        covered = np.bincount(parent[simple], weights=dur[simple], minlength=len(dur))
        for p in union_parents:
            kids = np.nonzero(parent == p)[0]
            lo = np.maximum(cols["start"][kids], cols["start"][p])
            hi = np.minimum(cols["end"][kids], cols["end"][p])
            covered[p] = _union_length(lo, hi)
        return dur - covered

    def summary(self):
        """Per span name: calls, self seconds, inclusive seconds."""
        cols = self.columns()
        self_s = self.self_times(cols)
        dur = cols["end"] - cols["start"]
        k = len(self.names)
        calls = np.bincount(cols["name"], minlength=k)
        selfs = np.bincount(cols["name"], weights=self_s, minlength=k)
        total = np.bincount(cols["name"], weights=dur, minlength=k)
        per_name = {
            name: {"calls": int(calls[i]), "self_s": float(selfs[i]), "s": float(total[i])}
            for i, name in enumerate(self.names)
        }
        parent_name = np.full(len(dur), -1)
        has_parent = cols["parent"] >= 0
        parent_name[has_parent] = cols["name"][cols["parent"][has_parent]]
        return {"names": per_name, "counters": dict(self.counters),
                "cols": cols, "self_s": self_s, "parent_name": parent_name}

    def calls_under(self, summary, name, parent):
        """Calls of `name` made directly from a `parent` span."""
        if name not in self._name_ids or parent not in self._name_ids:
            return 0
        mask = (summary["cols"]["name"] == self._name_ids[name]) & (
            summary["parent_name"] == self._name_ids[parent]
        )
        return int(np.count_nonzero(mask))

    def save(self, path, summary):
        cols = summary["cols"]
        np.savez(path, names=np.array(self.names), self_s=summary["self_s"], **cols)


def _union_length(lo, hi):
    keep = hi > lo
    lo, hi = lo[keep], hi[keep]
    if len(lo) == 0:
        return 0.0
    order = np.argsort(lo)
    total, cur_lo, cur_hi = 0.0, lo[order[0]], hi[order[0]]
    for a, b in zip(lo[order[1:]], hi[order[1:]]):
        if a > cur_hi:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    return float(total + cur_hi - cur_lo)
