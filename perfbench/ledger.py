"""Span ledger: spans recorded around layer boundaries, and the arithmetic on them.

A span holds a name, start, end, parent span and request id.  Parents are
tracked with one stack per thread, so spans opened on the gateway's worker
threads nest under the request that thread is serving.  Spans stay in
memory and are written out when the run ends.

A layer's self time is its span's duration minus the part of that interval
its child spans cover; the self time of a root span is time no layer
boundary below it accounts for (the unattributed residual).
"""

from __future__ import annotations

import itertools
import json
import math
import threading
import time
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "Recorder",
    "InsufficientSamples",
    "percentile",
    "percentile_or_zero",
    "min_samples_for",
    "self_times",
    "unattributed",
    "load_spans",
]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    rid: object = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "rid": self.rid, "attrs": self.attrs,
        }


def load_spans(lines) -> list[Span]:
    spans = []
    for line in lines:
        line = line.strip()
        if line:
            d = json.loads(line)
            spans.append(Span(d["id"], d["name"], d["start"], d["end"],
                              d["parent"], d["rid"], d.get("attrs") or {}))
    return spans


class Recorder:
    """Collects finished spans; parent stacks and request ids are per thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_rid(self, rid) -> None:
        """Request id stamped on spans this thread opens from now on."""
        self._local.rid = rid

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        rid = parent.rid if parent is not None else getattr(self._local, "rid", None)
        span = Span(next(self._ids), name, self.clock(),
                    parent=parent.id if parent is not None else None, rid=rid)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)  # list.append is atomic under the GIL

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict()) + "\n")


# -- percentiles ---------------------------------------------------------------

class InsufficientSamples(ValueError):
    """A percentile was asked of fewer samples than the rule allows."""


def min_samples_for(q: float, beyond: int = 10) -> int:
    """Smallest sample count leaving ``beyond`` samples above the q-quantile."""
    if not 0 < q < 1:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    return math.ceil(round(beyond / (1.0 - q), 9))


def percentile(values, q: float, beyond: int = 10) -> float:
    """Nearest-rank q-quantile; refuses unless ``beyond`` samples lie above it."""
    ordered = sorted(values)
    need = min_samples_for(q, beyond)
    if len(ordered) < need:
        raise InsufficientSamples(
            f"p{round(q * 100)} needs {need} samples, got {len(ordered)}")
    rank = max(1, math.ceil(round(q * len(ordered), 9)))
    return ordered[rank - 1]


def percentile_or_zero(values, q: float) -> float:
    """Per-layer variant: nearest rank on what exists, 0.0 when nothing does."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(round(q * len(ordered), 9)))
    return ordered[rank - 1]


# -- self time -----------------------------------------------------------------

def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part its children cover (seconds)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: max(0.0, span.duration - _covered(span.start, span.end,
                                                   children.get(span.id, ())))
        for span in spans
    }


def unattributed(spans, root_names=None) -> tuple[float, float]:
    """(self time of root spans, total root duration), in seconds.

    A root span is one without a parent: the outermost boundary an
    operation crossed.  Its self time is what no layer below it explains.
    ``root_names`` restricts the roots to operation boundaries.
    """
    selfs = self_times(spans)
    roots = [s for s in spans if s.parent is None
             and (root_names is None or s.name in root_names)]
    return sum(selfs[s.id] for s in roots), sum(s.duration for s in roots)
