"""In-memory spans around the public functions of the augseg modules.

A ``Tracer`` replaces a function attribute with a wrapper that opens a
span on entry and closes it on exit.  Each span stores its name, start,
end, the index of the span that was open when it started (its parent)
and the run id current at entry.  Nothing is written while the program
runs; ``write_jsonl`` dumps the spans when the benchmark ends.

Wrappers are installed where callers look the function up (the module
whose globals or class the caller reads), and ``uninstall`` restores the
original attributes.  The module imports nothing beyond the standard
library so its tests run without the program under measurement.
"""

from __future__ import annotations

import functools
import importlib
import json
import time


class CoverageError(RuntimeError):
    """A layer the benchmark expects to run recorded no call."""


class Tracer:
    """Span recorder; single-threaded, like the program it measures."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # [name, start, end, parent index, run id]
        self.run_id = ""
        self._stack = []
        self._restore = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.run_id])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][2] = self.clock()

    def wrap(self, module, attr, name, name_fn=None):
        """Trace ``module.attr`` (``attr`` may be ``Class.method``).

        ``name_fn(args, kwargs)``, when given, returns the span name for
        one call, so a single function can report several layers.
        """
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            self.open(name_fn(args, kwargs) if name_fn else name)
            try:
                return original(*args, **kwargs)
            finally:
                self.close()

        setattr(owner, leaf, traced)
        self._restore.append((owner, leaf, original))

    def uninstall(self):
        while self._restore:
            owner, leaf, original = self._restore.pop()
            setattr(owner, leaf, original)

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def summarize(spans):
    """Per span name: ``calls``, ``ms`` (busy, children included) and
    ``self_ms`` (busy minus the part its direct children cover)."""
    children = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    stats = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        s["calls"] += 1
        s["ms"] += (end - start) * 1e3
        s["self_ms"] += (end - start - _covered(children.get(i, ()))) * 1e3
    return stats


def inside(spans, name, ancestor):
    """Total ms of spans called ``name`` that run under an ``ancestor`` span."""
    total = 0.0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][3]
        if parent >= 0:
            total += (span[2] - span[1]) * 1e3
    return total


def check_coverage(stats, expected):
    """Raise ``CoverageError`` naming every expected layer with zero calls.

    A wrapper bound where no caller looks the function up (a stale
    import site) records nothing, and this is where that shows.
    """
    missing = sorted(n for n in expected if stats.get(n, {}).get("calls", 0) == 0)
    if missing:
        raise CoverageError("layers recorded no call: " + ", ".join(missing))
