"""Span tracing around the calls the benchmark makes into each relaxobj module.

Tracing is done from outside the package: :meth:`Tracer.patch` replaces
module attributes (functions, methods, a constructor) with timing
wrappers and :meth:`Tracer.restore` puts the originals back.  Every
wrapped call pushes a frame on one call stack, so a call's self time is
its duration minus the time its wrapped children took.

Coarse calls (one CLI call, one run, one check, one bench call, one tree
build) are kept as individual spans: name, start, end, parent span and
the trace id of the unit that caused them.  Hot calls (``Memory.access``,
``Memory.alloc``, ``Runner.step`` and each resumption of the interleaving
enumerator) would produce millions of spans, so they only update
per-name aggregates (calls, total time, self time).  Both live in memory
until :meth:`Tracer.write` dumps them as JSON lines.
"""

from __future__ import annotations

import json
import time

_clock = time.perf_counter


def lcp(a: tuple, b: tuple) -> int:
    """Length of the common prefix of two schedules."""
    i = 0
    for x, y in zip(a, b):
        if x != y:
            break
        i += 1
    return i


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        #: name -> [calls, total seconds, self seconds]
        self.stats: dict[str, list] = {}
        #: named counts gathered at the layer boundaries
        self.facts: dict[str, float] = {}
        self.trace_id = 0
        # frames of open wrapped calls: [child seconds, span id or None]
        self._stack: list[list] = [[0.0, None]]
        self._patches: list[tuple] = []

    # -- bookkeeping -------------------------------------------------------

    def add(self, name: str, amount: float = 1) -> None:
        self.facts[name] = self.facts.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        self.facts[name] = max(self.facts.get(name, value), value)

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def _parent_span(self) -> int | None:
        for frame in reversed(self._stack):
            if frame[1] is not None:
                return frame[1]
        return None

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    # -- wrappers ----------------------------------------------------------

    def hot(self, name: str, fn):
        """Aggregate-only wrapper for calls made millions of times."""
        stack = self._stack
        stat = self._stat(name)

        def wrapper(*args, **kwargs):
            frame = [0.0, None]
            stack.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = _clock() - start
                stack.pop()
                stack[-1][0] += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]

        return wrapper

    def span(self, name: str, fn, on_return=None):
        """Wrapper that records one span per call.

        ``on_return(result, args)`` runs after the span closes, so the
        counting it does is not charged to any layer.
        """
        stack = self._stack
        stat = self._stat(name)
        spans = self.spans

        def wrapper(*args, **kwargs):
            span_id = len(spans)
            record = {"id": span_id, "name": name, "parent": self._parent_span(),
                      "trace_id": self.trace_id}
            spans.append(record)
            frame = [0.0, span_id]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                duration = end - start
                stack.pop()
                stack[-1][0] += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                record.update(start=start, end=end, self=duration - frame[0])
            if on_return is not None:
                began = _clock()
                on_return(result, args)
                stack[-1][0] += _clock() - began  # tracer's own work: no layer's
            return result

        return wrapper

    def enumerator(self, name: str, fn):
        """Wrapper for ``enumerate_interleavings``.

        Times each resumption of the generator (the consumer's work
        between leaves is not the enumerator's), records one span for the
        whole enumeration, and counts leaves and replayed steps.  The
        enumerator explores depth first and pops the deepest pending
        alternative, so each leaf re-executes exactly the prefix it shares
        with the previous leaf.
        """
        stack = self._stack
        stat = self._stat(name)
        spans = self.spans

        def wrapper(*args, **kwargs):
            record = {"id": len(spans), "name": name, "parent": self._parent_span(),
                      "trace_id": self.trace_id, "start": _clock(), "self": 0.0}
            spans.append(record)
            gen = fn(*args, **kwargs)
            previous: tuple = ()
            while True:
                frame = [0.0, record["id"]]
                stack.append(frame)
                start = _clock()
                try:
                    leaf = next(gen, None)
                finally:
                    duration = _clock() - start
                    stack.pop()
                    stack[-1][0] += duration
                    stat[0] += 1
                    stat[1] += duration
                    stat[2] += duration - frame[0]
                    record["self"] += duration - frame[0]
                if leaf is None:
                    record["end"] = _clock()
                    return
                began = _clock()
                self.add("enum.leaves")
                self.add("enum.replayed_steps", lcp(previous, leaf.schedule))
                previous = leaf.schedule
                bound = getattr(leaf.instance, "step_bound", None)
                if bound is not None:
                    self.peak("maxreg_approx.step_bound", bound)
                    self.peak("maxreg_approx.max_op_steps", leaf.report.max_op_steps())
                stack[-1][0] += _clock() - began  # tracer's own work: no layer's
                yield leaf

        return wrapper

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")
            for name, (calls, total, own) in sorted(self.stats.items()):
                fh.write(json.dumps({"aggregate": name, "calls": calls,
                                     "total_s": total, "self_s": own}) + "\n")
            fh.write(json.dumps({"facts": self.facts}) + "\n")
