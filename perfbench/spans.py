"""In-memory span recorder for the traced benchmark run.

A span is a name, a start, an end, the span that was open when it began
(its parent), the operation it belongs to, and an optional item count
(windows in a batch, samples in a series). Spans stay in memory until the
run ends and are then written as JSON lines. Hooks replace attributes on
modules, classes or instances with a wrapper that opens a span around the
original; ``restore`` puts module and class attributes back.
"""

import json
import statistics
import time
from collections import defaultdict

_MISSING = object()


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, n]
        self.op = -1  # operation (request or training run) the next spans belong to
        self._open = []
        self._undo = []

    def wrap(self, fn, name, count=None):
        """``fn`` inside a span; ``name`` may be a callable of fn's arguments,
        ``count(result)`` gives the span's item count."""

        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            span = [label, time.perf_counter(), None, self._open[-1] if self._open else -1,
                    self.op, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
                if count is not None:
                    span[5] = count(out)
                return out
            finally:
                span[2] = time.perf_counter()
                self._open.pop()

        return traced

    def hook(self, owner, attr, name, count=None, undo=True):
        """Replace ``owner.attr`` by its traced wrapper.

        ``undo=False`` is for instances that are dropped after one operation.
        """
        if undo:
            self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, count))

    def restore(self):
        for owner, attr, old in reversed(self._undo):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._undo.clear()

    # -- summaries ------------------------------------------------------------

    def _durations(self):
        return [s[2] - s[1] for s in self.spans]

    def _by_name(self, name):
        return [i for i, s in enumerate(self.spans) if s[0] == name]

    def median_ms(self, name):
        """Median duration per call in ms; 0 when the span never occurred."""
        dur = self._durations()
        calls = [dur[i] for i in self._by_name(name)]
        return 1000.0 * statistics.median(calls) if calls else 0.0

    def median_self_ms(self, name):
        """Median per call of the span minus the time its direct children cover."""
        dur = self._durations()
        child_time = defaultdict(float)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child_time[s[3]] += dur[i]
        calls = [dur[i] - child_time[i] for i in self._by_name(name)]
        return 1000.0 * statistics.median(calls) if calls else 0.0

    def median_children(self, parent, child, use_counts=False):
        """Median per ``parent`` span of its direct ``child`` spans: how many,
        or the sum of their item counts."""
        per_parent = {i: 0 for i in self._by_name(parent)}
        for s in self.spans:
            if s[0] == child and s[3] in per_parent:
                per_parent[s[3]] += (s[5] or 0) if use_counts else 1
        return float(statistics.median(per_parent.values())) if per_parent else 0.0

    def median_count(self, name):
        counts = [self.spans[i][5] for i in self._by_name(name) if self.spans[i][5] is not None]
        return float(statistics.median(counts)) if counts else 0.0

    def share(self, names, op):
        """Share of the time of ``op`` spans spent in spans named in ``names``
        (spans that must not nest in one another)."""
        dur = self._durations()
        total = sum(dur[i] for i in self._by_name(op))
        inner = sum(d for d, s in zip(dur, self.spans) if s[0] in names)
        return inner / total if total else 0.0

    def direct_share(self, op):
        """Share of the time of ``op`` spans that their direct children cover."""
        dur = self._durations()
        ops = set(self._by_name(op))
        total = sum(dur[i] for i in ops)
        inner = sum(d for d, s in zip(dur, self.spans) if s[3] in ops)
        return inner / total if total else 0.0

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, start, end, parent, op, n) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                    "parent": parent, "op": op, "n": n}) + "\n")
