"""Layer tracing from outside the program.

The tracer replaces a function by a wrapper in the namespace where its
callers look it up (a module global, or a class attribute for methods), so
nothing inside ``src/cuspgaps`` changes.  Each wrapped call is a frame on
one stack.  When a frame ends, its duration is added to the boundary's busy
time, and its duration minus the time its child frames covered is added to
its layer's self time.  The self times of all layers therefore add up to
the time spent under wrapped calls.

Boundaries come in three kinds:

* ``SPAN``: a frame that also records a span (name, start, end, parent
  span, operation id), kept in memory and written out when the pass ends;
* ``HOT``: a frame without a span, for boundaries called millions of times
  (``P1.normalize``, ``Echelonizer.add``); calls and busy time only;
* ``COUNT``: no frame at all, only a call count; its time stays with the
  caller.
"""

from __future__ import annotations

import json
import time

SPAN, HOT, COUNT = "span", "hot", "count"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[float] = []  # time covered by the children of each open frame
        self.open_spans: list[int] = []
        self.spans: list[tuple] = []  # (id, parent, op, name, layer, start, end, self)
        self.stats: dict[str, list] = {}  # boundary name -> [calls, busy seconds]
        self.self_time: dict[str, list] = {}  # layer -> [self seconds]
        self.values: dict[str, float] = {}  # figures set by observers
        self.op: str | None = None
        self._patched: list[tuple] = []

    def stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0])

    def wrap(self, fn, name, layer: str, kind: str = SPAN, observe=None):
        """Wrapper around fn.  ``name`` is a boundary name, or a function of
        the call's arguments returning one; ``observe(args, result)`` runs
        after each call that returns."""
        if kind == COUNT:
            cell = self.stat(name)

            def counted(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)

            return counted

        clock, stack, open_spans, spans = self.clock, self.stack, self.open_spans, self.spans
        layer_cell = self.self_time.setdefault(layer, [0.0])
        named_by_args = callable(name)
        fixed = None if named_by_args else self.stat(name)
        record_span = kind == SPAN

        def framed(*args, **kwargs):
            label = name(*args) if named_by_args else name
            cell = fixed if fixed is not None else self.stat(label)
            if record_span:
                parent = open_spans[-1] if open_spans else None
                span_id = len(spans) + len(open_spans)
                open_spans.append(span_id)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                covered = stack.pop()
                duration = end - start
                cell[0] += 1
                cell[1] += duration
                layer_cell[0] += duration - covered
                if stack:
                    stack[-1] += duration
                if record_span:
                    open_spans.pop()
                    spans.append((span_id, parent, self.op, label, layer, start, end, duration - covered))
            if observe is not None:
                observe(args, result)
            return result

        return framed

    def patch(self, owner, attr: str, name, layer: str, kind: str = SPAN, observe=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, layer, kind, observe))

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0])[0]

    def busy(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def layer_self(self, layer: str) -> float:
        return self.self_time.get(layer, [0.0])[0]

    def write_spans(self, path) -> None:
        keys = ("id", "parent", "op", "name", "layer", "start", "end", "self")
        with open(path, "w") as out:
            for span in sorted(self.spans):
                out.write(json.dumps(dict(zip(keys, span))) + "\n")
