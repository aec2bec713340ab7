"""Timing wrappers installed around the library's public functions.

Only the traced pass installs them.  Every wrapped function object is
replaced under each name a ``hypertutte`` module binds it to, so calls
through ``from .x import f`` imports are seen too.  Wrappers come in four
kinds:

``timed``  counts calls and accumulates self time (own time minus the
           time of timed calls made inside it);
``oracle`` like ``timed``, and also counts truthy results;
``count``  counts calls only, for hot inner calls; their time stays in
           the caller's self time;
``gen``    wraps a generator, counts its yields and times each step.

A timed call made while no other timed call is running is an entry
point: it is recorded as a span ``(trace_id, name, start, end)``.  Spans
and totals stay in memory until the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, kind); "Class.attr" patches a class attribute.  The
# functions the workloads reach, at the granularity the per-layer metrics
# need; everything else is timed as part of its nearest traced caller.
TARGETS = (
    ("model", "RibbonGraph.build", "timed"),
    ("tours", "enumerate_spanning_trees", "gen"),
    ("tours", "tour", "count"),
    ("hypertrees", "all_spanning_trees", "timed"),
    ("hypertrees", "enumerate_hypertrees", "timed"),
    ("hypertrees", "representatives", "timed"),
    ("hypertrees", "is_hypertree", "oracle"),
    ("jaeger", "is_jaeger", "count"),
    ("jaeger", "is_violet_jaeger", "count"),
    ("jaeger", "jaeger_tree_of", "timed"),
    ("jaeger", "violet_jaeger_tree_of", "timed"),
    ("jaeger", "order_emerald", "timed"),
    ("jaeger", "order_violet", "timed"),
    ("jaeger", "order_violet_prime", "timed"),
    ("jaeger", "activities", "timed"),
    ("jaeger", "embedding_activities", "timed"),
    ("polynomial", "Poly.__add__", "timed"),
    ("polynomial", "Poly.__sub__", "timed"),
    ("polynomial", "Poly.__neg__", "timed"),
    ("polynomial", "Poly.__mul__", "timed"),
    ("polynomial", "Poly.__rmul__", "timed"),
    ("polynomial", "Poly.__pow__", "timed"),
    ("tutte", "tutte_embedding", "timed"),
    ("tutte", "corank_nullity", "timed"),
    ("tutte", "series_identity_check", "timed"),
    ("crapo", "verify_crapo_partition", "timed"),
    ("crapo", "crapo_interval", "timed"),
    ("delta", "bases_from_hypertrees", "timed"),
    ("delta", "crapo_verify", "timed"),
    ("delta", "enumerate_decision_trees", "gen"),
    ("delta", "exhaustive_delta_search", "timed"),
    ("harness", "test_violet_prime", "timed"),
    ("harness", "test_violet", "timed"),
    ("harness", "violet_prime_polynomial", "timed"),
    ("harness", "violet_polynomial", "timed"),
)


class Stat:
    __slots__ = ("calls", "self_s", "yields", "yes")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.yields = 0
        self.yes = 0


class Tracer:
    def __init__(self):
        self.enabled = False
        self.trace_id = None
        self.stats = defaultdict(Stat)
        self.spans = []
        self.absent = []
        self._stack = []  # [start, child time] of the running timed calls

    # -- bookkeeping around one timed step --------------------------------

    def _enter(self):
        frame = [perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, key, frame):
        end = perf_counter()
        self._stack.pop()
        duration = end - frame[0]
        self.stats[key].self_s += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration
        else:
            self.spans.append((self.trace_id, key, frame[0], end))

    # -- wrapper factories --------------------------------------------------

    def _timed(self, key, fn, oracle=False):
        stat = self.stats[key]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stat.calls += 1
            frame = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(key, frame)
            if oracle and result:
                stat.yes += 1
            return result

        return wrapper

    def _count(self, key, fn):
        stat = self.stats[key]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                stat.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _gen(self, key, fn):
        stat = self.stats[key]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                yield from fn(*args, **kwargs)
                return
            stat.calls += 1
            inner = fn(*args, **kwargs)
            while True:
                frame = self._enter()
                try:
                    value = next(inner)
                except StopIteration:
                    return
                finally:
                    self._leave(key, frame)
                stat.yields += 1
                yield value

        return wrapper

    def wrap(self, key, kind, fn):
        if kind == "count":
            return self._count(key, fn)
        if kind == "gen":
            return self._gen(key, fn)
        return self._timed(key, fn, oracle=kind == "oracle")

    # -- installation ---------------------------------------------------------

    def install(self):
        """Patch every target; record targets the library no longer has."""
        for module_name, attr, kind in TARGETS:
            key = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(f"hypertutte.{module_name}")
            except ModuleNotFoundError:
                self.absent.append(key)
                continue
            owner, _, name = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            original = getattr(holder, name, None)
            if original is None:
                self.absent.append(key)
                continue
            wrapper = self.wrap(key, kind, original)
            if owner:
                raw = vars(holder).get(name)
                setattr(holder, name, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "hypertutte" or mod_name.startswith("hypertutte."):
                    for bound, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, bound, wrapper)

    def report(self) -> dict:
        return {
            "stats": {
                key: {"calls": s.calls, "self_s": s.self_s, "yields": s.yields, "yes": s.yes}
                for key, s in self.stats.items()
            },
            "spans": self.spans,
            "absent": self.absent,
        }
