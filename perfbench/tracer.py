"""Layer spans for the traced run, recorded from outside the package.

``Tracer.install`` rebinds the public functions of each ``mapindep`` module
to timing and counting wrappers.  Every module-level name in ``mapindep.*``
that refers to a wrapped function is rebound, because modules import each
other's functions by name (``independence`` holds its own ``marginal``,
``inference`` its own ``min_fill_order``).  ``Tracer.restore`` puts every
original back.  A function that no longer exists is skipped and its
metrics are reported as absent (``None``).

Spans are kept in memory: name, start, end and parent span.  A span opened
on a worker thread with no open span of its own takes the innermost open
span of the tracing thread as parent; in this package that is the decider
waiting on its thread pool.  A span's self time is its duration minus the
union of its children's intervals, so overlapping worker spans are not
subtracted twice.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

WRAPPED = {
    "cli": ("run", "load_network", "load_query", "emit_json"),
    "model": ("validate_network", "min_fill_order"),
    "inference": ("marginal", "map_solve", "candidate_joints"),
    "independence": (
        "strong_map_independence",
        "weak_map_independence",
        "maximum_map_independence",
        "threshold_map_independence",
        "relevance_partition",
    ),
}
DECIDERS = tuple(f"independence.{name}" for name in WRAPPED["independence"])

# Span fields: [name, start, end, parent index, observed value]
NAME, START, END, PARENT, OBSERVED = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.present: set[str] = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "mapindep" or n.startswith("mapindep."))]
        for module_name, functions in WRAPPED.items():
            module = sys.modules.get(f"mapindep.{module_name}")
            for fn_name in functions:
                original = getattr(module, fn_name, None)
                if not callable(original):
                    continue
                qualified = f"{module_name}.{fn_name}"
                self.present.add(qualified)
                observe = _observe_min_fill if qualified == "model.min_fill_order" else None
                wrapper = self._wrap(qualified, original, observe)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._rebound.append((mod, attr, original))

    def restore(self) -> None:
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, observe):
        spans, lock, owner_stack = self.spans, self._lock, self._owner_stack
        stack_of = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            if stack:
                parent = stack[-1]
            else:
                parent = owner_stack[-1] if owner_stack else None
            span = [name, 0.0, 0.0, parent, None]
            with lock:
                spans.append(span)
                idx = len(spans) - 1
            stack.append(idx)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if observe is not None:
                span[OBSERVED] = observe(args, kwargs, result)
            return result

        return wrapper

    # -- metrics ------------------------------------------------------------

    def layer_totals(self) -> dict:
        """Calls, inclusive ms and self ms of every wrapped function that exists."""
        children: dict[int, list[int]] = {}
        for i, s in enumerate(self.spans):
            if s[PARENT] is not None:
                children.setdefault(s[PARENT], []).append(i)
        totals: dict[str, dict] = {
            name: {"calls": 0, "ms": 0.0, "self_ms": 0.0}
            for name in (f"{m}.{f}" for m, fs in WRAPPED.items() for f in fs)
            if name in self.present
        }
        for i, s in enumerate(self.spans):
            t = totals[s[NAME]]
            duration = s[END] - s[START]
            covered = _union([(self.spans[c][START], self.spans[c][END]) for c in children.get(i, ())])
            t["calls"] += 1
            t["ms"] += duration * 1000.0
            t["self_ms"] += (duration - covered) * 1000.0
        return totals

    def marginals_under_deciders(self) -> int:
        count = 0
        for s in self.spans:
            if s[NAME] != "inference.marginal":
                continue
            parent = s[PARENT]
            while parent is not None:
                if self.spans[parent][NAME] in DECIDERS:
                    count += 1
                    break
                parent = self.spans[parent][PARENT]
        return count

    def observed(self, name: str) -> list:
        return [s[OBSERVED] for s in self.spans if s[NAME] == name]


def _observe_min_fill(args, kwargs, result):
    adjacency = args[0] if args else kwargs["adjacency"]
    return len(adjacency), result[1]


def _union(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total
