"""In-memory spans around flowcert's public functions, and the per-layer metrics.

A :class:`Tracer` replaces each traced function under the module attribute
its callers look it up by (``flowcert.certify.signature`` as well as
``flowcert.fibers.signature``, for instance) and restores the originals on
exit.  Nothing under ``src/`` changes.  A span is the tuple
``(id, parent id, run id, name, start, end)``; the run id names the
benchmark pass that caused it.  Layer times are inclusive unless the metric
name says ``self``, which is the span's duration minus its direct children.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

import flowcert.certify
import flowcert.fibers
import flowcert.moves

# (module, attribute, span name), patched in this order, each over the original.
TARGETS = (
    (flowcert.fibers, "enumerate_flows", "flows.enumerate"),
    (flowcert.fibers, "signature", "fibers.signature"),
    (flowcert.certify, "signature", "fibers.signature"),
    (flowcert.certify, "enumerate_fiber", "fibers.target"),
    (flowcert.certify, "fiber_connected_under", "certify.components"),
    (flowcert.certify, "certify_degree", "certify.sweep"),
    (flowcert.certify, "find_indispensable", "certify.sweep"),
    (flowcert.certify, "find_move_path", "certify.path"),
    (flowcert.moves, "apply_move", "moves.apply"),
)

# Per-layer metric name -> unit, in the order they are printed.
PER_LAYER_UNITS = {
    "flows.enumerate_calls": "count",
    "flows.enumerate_s": "s",
    "fibers.bucket_s": "s",
    "fibers.fibers_yielded": "count",
    "fibers.multisets_yielded": "count",
    "fibers.largest_fiber": "count",
    "fibers.target_calls": "count",
    "fibers.target_s": "s",
    "fibers.signature_calls": "count",
    "fibers.signature_s": "s",
    "certify.components_calls": "count",
    "certify.components_s": "s",
    "certify.path_calls": "count",
    "certify.bfs_self_s": "s",
    "certify.sweep_self_s": "s",
    "moves.apply_calls": "count",
    "moves.apply_s": "s",
    "cli.import_s": "s",
    "cli.serialize_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, Optional[int], int, str, float, float]] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.run = 0
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, self.run, name, start, end))

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def _wrap_all_fibers(self, fn: Callable) -> Callable:
        """Time the call that checks the cap, then every ``next()`` on its
        iterator; the first ``next()`` carries the bucketing of all multisets."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span("fibers.bucket"):
                fibers = fn(*args, **kwargs)
            return self._count_fibers(fibers)

        return traced

    def _count_fibers(self, fibers: Iterator) -> Iterator:
        while True:
            with self.span("fibers.bucket"):
                item = next(fibers, None)
            if item is None:
                return
            size = len(item[1])
            self.counts[self.run, "fibers.fibers_yielded"] += 1
            self.counts[self.run, "fibers.multisets_yielded"] += size
            key = (self.run, "fibers.largest_fiber")
            self.counts[key] = max(self.counts[key], size)
            yield item

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        certify = flowcert.certify
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in TARGETS]
        saved.append((certify, "enumerate_all_fibers", certify.enumerate_all_fibers))
        try:
            for mod, attr, name in TARGETS:
                setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
            certify.enumerate_all_fibers = self._wrap_all_fibers(
                certify.enumerate_all_fibers
            )
            yield self
        finally:
            for mod, attr, original in saved:
                setattr(mod, attr, original)

    def layer_metrics(self, run: int) -> dict[str, float]:
        """Per-layer metrics of one run id, without ``cli.import_s`` and
        ``trace.overhead_s``, which are not made of this run's spans."""
        spans = [s for s in self.spans if s[2] == run]
        calls: Counter = Counter()
        total: dict[str, float] = defaultdict(float)
        children: dict[int, float] = defaultdict(float)
        for sid, parent, _, name, start, end in spans:
            calls[name] += 1
            total[name] += end - start
            if parent is not None:
                children[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for sid, _, _, name, start, end in spans:
            own[name] += end - start - children[sid]
        return {
            "flows.enumerate_calls": calls["flows.enumerate"],
            "flows.enumerate_s": total["flows.enumerate"],
            "fibers.bucket_s": total["fibers.bucket"],
            "fibers.fibers_yielded": self.counts[run, "fibers.fibers_yielded"],
            "fibers.multisets_yielded": self.counts[run, "fibers.multisets_yielded"],
            "fibers.largest_fiber": self.counts[run, "fibers.largest_fiber"],
            "fibers.target_calls": calls["fibers.target"],
            "fibers.target_s": total["fibers.target"],
            "fibers.signature_calls": calls["fibers.signature"],
            "fibers.signature_s": total["fibers.signature"],
            "certify.components_calls": calls["certify.components"],
            "certify.components_s": total["certify.components"],
            "certify.path_calls": calls["certify.path"],
            "certify.bfs_self_s": own["certify.path"],
            "certify.sweep_self_s": own["certify.sweep"],
            "moves.apply_calls": calls["moves.apply"],
            "moves.apply_s": total["moves.apply"],
            "cli.serialize_s": total["cli.serialize"],
        }
