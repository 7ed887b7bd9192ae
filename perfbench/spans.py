"""In-memory span tracer for the benchmark's traced run.

The tracer wraps zmcnoid functions from outside the library: every module
namespace that binds a traced function (``from .x import f`` included) gets
the wrapper, so calls are recorded whichever binding the caller uses.

A span is the list ``[name, start, end, parent, thread, op, size]``.  Spans
are kept in memory while the run lasts and written out at its end.  Each
thread keeps its own stack of open spans; a task that ``meshio.tessellate``
submits to its thread pool is parented to the tessellate span that submitted
it, so work on pool threads is charged to the right caller.

Self time is a span's duration minus the union of its children's intervals
(clipped to the span).  With children on several threads that overlap, the
union is smaller than the sum of child durations, and subtracting the sum
would give negative self time.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import gzip
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

NAME, START, END, PARENT, THREAD, OP, SIZE = range(7)

POOL_TASK = "meshio.pool_task"


class Tracer:
    """Records spans around wrapped calls; install() patches, uninstall() undoes."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping --------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, size: float = 0.0) -> int:
        stack = self._stack()
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
               threading.get_ident(), self.op, size]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(rec)
        stack.append(idx)
        rec[START] = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack().pop()

    def wrap(self, name, fn, size=None, after=None):
        """Wrap fn in a span; size(*args) is recorded at entry, after(*args) at exit.

        ``after`` runs once the span has closed, so what it costs (a stat of
        a written file, say) is not charged to the traced function, and only
        when fn returned: an exception from fn propagates unchanged.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name, size(*args, **kwargs) if size else 0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                tracer.spans[idx][SIZE] = after(*args, **kwargs)
            return result

        return traced

    def executor_class(self):
        """A ThreadPoolExecutor whose tasks are spans parented to the submitter."""
        tracer = self

        class SpanExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else -1

                def task(*a, **k):
                    worker_stack = tracer._stack()
                    worker_stack.append(parent)
                    idx = tracer.open(POOL_TASK)
                    try:
                        return fn(*a, **k)
                    finally:
                        tracer.close(idx)
                        worker_stack.pop()

                return super().submit(task, *args, **kwargs)

        return SpanExecutor

    # -- patching ----------------------------------------------------------

    def _patch(self, namespace, attr, value) -> None:
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def install(self, modules: dict, targets, registry_module=None) -> None:
        """Patch every binding of each target in the given modules.

        modules maps short names ("chebyshev") to module objects; targets
        is an iterable of (qualified name, size, after).  When a
        registry_module is given, each runner of its REGISTRY is wrapped as
        ``verify.<check id>``.
        """
        for qualname, size, after in targets:
            mod_name, fn_name = qualname.split(".")
            original = getattr(modules[mod_name], fn_name)
            wrapped = self.wrap(qualname, original, size, after)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapped)
        if "meshio" in modules:
            self._patch(modules["meshio"], "ThreadPoolExecutor", self.executor_class())
        if registry_module is not None:
            self._patch(registry_module, "REGISTRY", tuple(
                dataclasses.replace(c, runner=self.wrap(f"verify.{c.id}", c.runner))
                for c in registry_module.REGISTRY
            ))

    def uninstall(self) -> None:
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    def write(self, path: str) -> None:
        """Write the spans as gzip-compressed CSV, one row per span."""
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start", "end", "parent", "thread", "op", "size"])
            for i, s in enumerate(self.spans):
                out.writerow([i, s[NAME], repr(s[START]), repr(s[END]),
                              s[PARENT], s[THREAD], s[OP], s[SIZE]])


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def union_length(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its children, clipped to the span."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        a, b = s[START], s[END]
        clipped = [(max(a, x), min(b, y)) for x, y in children.get(i, ()) if y > a and x < b]
        # clipped children cover at most the span; max() absorbs rounding
        out.append(max(0.0, (b - a) - union_length(clipped)))
    return out
