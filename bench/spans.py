"""In-memory span recorder for the traced benchmark run.

Spans are recorded by the benchmark around its calls into the program's
public functions (there are no spans inside the program). A span name is
``<layer>.<function>``; the layer is the cpwloss module name, or ``item``
for the benchmark's own per-item span that parents the calls of one item.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, item id]
        self._open = []

    @contextlib.contextmanager
    def span(self, name, item=None):
        parent = self._open[-1] if self._open else None
        if item is None and parent is not None:
            item = self.spans[parent][4]
        rec = [name, time.perf_counter(), None, parent, item]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def summary(self, duration=lambda start, end: end - start):
        """Per-function busy time, per-layer busy and self time, span counts.

        A layer's busy time counts each span not nested in a span of the same
        layer; its self time subtracts the time covered by child spans.
        ``duration`` maps a span's (start, end) to the time it counts for.
        """
        durs = [duration(start, end) for _, start, end, _, _ in self.spans]
        child_time = defaultdict(float)
        for k, (_, _, _, parent, _) in enumerate(self.spans):
            if parent is not None:
                child_time[parent] += durs[k]
        funcs = defaultdict(float)
        layers = defaultdict(lambda: {"busy_s": 0.0, "self_s": 0.0, "spans": 0})
        for k, (name, _, _, parent, _) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            dur = durs[k]
            funcs[name] += dur
            rec = layers[layer]
            rec["spans"] += 1
            rec["self_s"] += dur - child_time[k]
            outer = parent
            while outer is not None and self.spans[outer][0].split(".", 1)[0] != layer:
                outer = self.spans[outer][3]
            if outer is None:
                rec["busy_s"] += dur
        return dict(funcs), dict(layers)

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump([{"name": n, "start": s - t0, "end": e - t0,
                        "parent": p, "item": i}
                       for n, s, e, p, i in self.spans], fh)


class NullTracer:
    """Stands in for Tracer in untraced runs; records nothing."""

    _null = contextlib.nullcontext()

    def span(self, name, item=None):
        return self._null
