"""In-memory spans around calls into the program, installed from outside it.

A Tracer replaces module attributes and class methods with thin wrappers
that time each call, attribute the time to the enclosing wrapped call, and
keep the results in memory until the run ends. Nothing in the program is
edited: `close()` puts every original attribute back.

Statistics are keyed by call-graph edge (parent span name, span name), so a
layer's time can be split by who called it, e.g. `path_bandwidth` under the
RRF walk versus under UNIFIED's spill ranking.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class EdgeStats:
    __slots__ = ("calls", "total", "self")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    """Spans and per-edge counters, kept in memory and written at the end."""

    def __init__(self):
        self.edges: dict[tuple[str | None, str], EdgeStats] = defaultdict(EdgeStats)
        self.spans: list[tuple] = []  # (id, parent id, attempt, name, start, end)
        self.attempt = 0              # shared by every span of one attempt
        self.last = 0.0               # duration of the most recent finished call
        self._stack: list[list] = []  # open frames: [span id, name, child seconds]
        self._next_id = 0
        self._originals: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, keep: bool = True, **kwargs):
        """Run fn as a span named `name`; keep=False counts it without a span record."""
        stack = self._stack
        parent = stack[-1] if stack else None
        self._next_id += 1
        frame = [self._next_id, name, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            took = end - start
            self.last = took
            stats = self.edges[(parent[1] if parent else None, name)]
            stats.calls += 1
            stats.total += took
            stats.self += took - frame[2]
            if parent:
                parent[2] += took
            if keep:
                self.spans.append((frame[0], parent[0] if parent else None,
                                   self.attempt, name, start, end))

    def wrap(self, owner, attr: str, name: str, keep: bool = True) -> None:
        """Route every call of owner.attr through a span until close()."""
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            return self.call(name, original, *args, keep=keep, **kwargs)

        self.replace(owner, attr, wrapper)

    def replace(self, owner, attr: str, value) -> None:
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def close(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- queries ------------------------------------------------------------------

    def calls(self, name: str, parents: tuple[str, ...] | None = None) -> int:
        return sum(s.calls for (p, n), s in self.edges.items()
                   if n == name and (parents is None or p in parents))

    def self_seconds(self, name: str, parents: tuple[str, ...] | None = None) -> float:
        return sum(s.self for (p, n), s in self.edges.items()
                   if n == name and (parents is None or p in parents))

    def write(self, path) -> None:
        """One JSON line per span, then one per call-graph edge."""
        with open(path, "w") as fh:
            for sid, parent, attempt, name, start, end in self.spans:
                fh.write(json.dumps({"span": sid, "parent": parent, "attempt": attempt,
                                     "name": name, "start": start, "end": end}) + "\n")
            for (parent, name), s in sorted(self.edges.items(), key=lambda kv: str(kv[0])):
                fh.write(json.dumps({"edge": [parent, name], "calls": s.calls,
                                     "total_s": s.total, "self_s": s.self}) + "\n")
