"""Spans around the public entry points of each layer.

The traced server launcher wraps a fixed list of functions before it
builds the host.  Each wrapped call records one span: its name, start
and end, the enclosing span on the same thread as its parent, and the
outermost span on that thread as its request id.  Spans stay in memory
until the run ends; :func:`summarize` then gives each name its count,
durations and self time (duration minus the part its child spans
cover).
"""

from __future__ import annotations

import itertools
import json
import threading
import time

from repro.metrics.counter import percentile

# (span name, module, attribute path).  host.py imports render_screen
# and apply_record by name, so those are patched where host.py looks
# them up; recover and build_system are imported at call time, so the
# module attribute is the one that is called.
ENTRY_POINTS = (
    ("build_system", "repro.tools.install", "build_system"),
    ("render_screen", "repro.serve.host", "render_screen"),
    ("apply_record", "repro.serve.host", "apply_record"),
    ("journal_flush", "repro.journal.log", "Journal.flush"),
    ("compact_to_text", "repro.journal.recorder",
     "SessionRecorder.compact_to_text"),
    ("recover", "repro.journal.recovery", "recover"),
    ("hibernate", "repro.serve.host", "SessionHost.hibernate"),
    ("shell_run", "repro.shell.interp", "Interp.run"),
    ("replica_ship", "repro.serve.replica", "ReplicaFeed.ship"),
)

# spans whose result length is recorded too (the snapshot text)
SIZED = {"compact_to_text"}


class Tracer:
    """Collects spans from every thread of the traced process."""

    def __init__(self) -> None:
        # finished spans: [id, name, start, end, parent, root, thread, size]
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def install(self) -> None:
        import importlib

        for name, module, path in ENTRY_POINTS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            setattr(owner, attr, self._wrap(name, getattr(owner, attr)))

    def _wrap(self, name: str, fn):
        sized = name in SIZED

        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            root = stack[0] if stack else span_id
            stack.append(span_id)
            start = time.perf_counter()
            size = None
            try:
                result = fn(*args, **kwargs)
                if sized:
                    size = len(result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append([span_id, name, start, end, parent, root,
                                   threading.get_ident(), size])

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "request",
                "thread", "size")
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: count, p50/p90 duration, total and self time (us)."""
    child_time: dict[int, float] = {}
    for span_id, _name, start, end, parent, *_rest in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    by_name: dict[str, dict] = {}
    for span_id, name, start, end, _parent, _root, _tid, size in spans:
        entry = by_name.setdefault(name, {"durations": [], "self_us": 0.0,
                                          "sizes": []})
        duration = end - start
        entry["durations"].append(duration * 1e6)
        entry["self_us"] += (duration - child_time.get(span_id, 0.0)) * 1e6
        if size is not None:
            entry["sizes"].append(size)
    out: dict[str, dict] = {}
    for name, entry in sorted(by_name.items()):
        durations = entry["durations"]
        out[name] = {
            "count": len(durations),
            "p50_us": percentile(durations, 0.5),
            "p90_us": percentile(durations, 0.9),
            "total_us": sum(durations),
            "self_us": entry["self_us"],
            "size_p50": (percentile(entry["sizes"], 0.5)
                         if entry["sizes"] else None),
        }
    return out
