"""Outside-in layer tracing: wrap public layer methods, keep spans in memory.

The benchmark never edits the program.  A :class:`LayerTracer` replaces
public methods of the simulator's layers (``Fabric.compute_rates``,
``TokenBucketFleet.advance``, ``ArtifactStore.put``, ...) with wrappers
that time each call, and restores the originals on :meth:`remove`.
Every call becomes a span (name, start, end, parent, workload-run id);
a layer's self time is its span's duration minus the time its wrapped
children cover.

Spans are kept in memory up to :data:`MAX_SPANS` (the rest still count in
the per-name totals) and exported at the end as a Chrome trace through
the program's own :class:`repro.obs.spans.SpanTracer`.
"""

from __future__ import annotations

import statistics
import time
from array import array
from collections import defaultdict
from typing import Callable

#: Spans kept in memory; later calls still count in the per-name totals.
MAX_SPANS = 50_000


class LayerTracer:
    """Installs timing wrappers and accounts self time per span name."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: name -> [calls, self seconds]
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        #: Kept spans: (span id, name, start, end, parent id, run id).
        self.spans: list[tuple] = []
        self.dropped = 0
        #: Free-form counters the hooks bump (bytes written, zero-dt
        #: advances, ...).
        self.counts: dict[str, float] = defaultdict(float)
        #: Per-event samples (active flows per water-fill, step times).
        self.samples: dict[str, array] = defaultdict(lambda: array("d"))
        self.run_id = 0
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 1
        self._installed: list[tuple] = []  # (owner, attr, original, owned)
        self._history: list[tuple] = []  # everything ever installed

    # -- installation ------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` with a timed wrapper named ``name``.

        ``before(args)`` runs ahead of the timed region and ``after(args,
        result)`` after it, so counting costs land outside the span.
        """
        owned = attr in vars(owner)
        original = vars(owner)[attr] if owned else getattr(owner, attr)
        tracer = self
        clock = self.clock
        stack = self._stack
        totals = self.totals[name]

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                if stack:
                    stack[-1][1] += duration
                totals[0] += 1
                totals[1] += duration - frame[1]
                if len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append(
                        (span_id, name, t0, t1, parent, tracer.run_id)
                    )
                else:
                    tracer.dropped += 1
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original, owned))
        self._history.append((owner, attr, original, owned))

    def wrap_class(self, cls, attrs: dict[str, str], **hooks) -> None:
        """Wrap each method ``attr -> name`` that ``cls`` itself defines."""
        for attr, name in attrs.items():
            if attr in vars(cls):
                self.wrap(cls, attr, name, **hooks.get(attr, {}))

    def remove(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._installed:
            owner, attr, original, owned = self._installed.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def leftovers(self) -> list[str]:
        """Attributes ever wrapped that do not hold their original now."""
        left = []
        for owner, attr, original, owned in self._history:
            current = vars(owner).get(attr)
            if (current is not original) if owned else (attr in vars(owner)):
                left.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return sorted(set(left))

    # -- measuring a region ------------------------------------------------
    def region(self, fn: Callable, run_id: int):
        """Run ``fn()`` as the root of one workload run; returns (result, wall).

        The root is not a layer: its self time is the traced wall that
        no wrapped call covers (``trace.unattributed_frac``).
        """
        self.run_id = run_id
        frame = [0, 0.0]
        self._stack.append(frame)
        t0 = self.clock()
        try:
            result = fn()
        finally:
            wall = self.clock() - t0
            self._stack.pop()
        self.counts["trace.wall_s"] += wall
        self.counts["trace.unattributed_s"] += wall - frame[1]
        return result, wall

    # -- results -----------------------------------------------------------
    def calls(self, name: str) -> int:
        return self.totals[name][0] if name in self.totals else 0

    def self_s(self, name: str) -> float:
        return self.totals[name][1] if name in self.totals else 0.0

    def attributed_s(self) -> float:
        return sum(total[1] for total in self.totals.values())

    def quantile(self, name: str, q: float) -> float:
        values = sorted(self.samples.get(name, ()))
        if not values:
            return 0.0
        if len(values) == 1:
            return values[0]
        return statistics.quantiles(values, n=100, method="inclusive")[
            round(q * 100) - 1
        ]

    def write_chrome_trace(self, path) -> None:
        """Export the kept spans through the program's SpanTracer."""
        from repro.obs.spans import SpanTracer

        exporter = SpanTracer()
        origin = min((span[2] for span in self.spans), default=0.0)
        for span_id, name, t0, t1, parent, run_id in sorted(
            self.spans, key=lambda span: span[2]
        ):
            handle = exporter.begin(
                name,
                name.split(".")[0],
                t0 - origin,
                f"run-{run_id}",
                span=span_id,
                parent=parent,
            )
            exporter.end(handle, t1 - origin)
        exporter.write_chrome_trace(path)
