"""The telemetry collector: the hub every instrumented layer reports to.

One :class:`Telemetry` instance is installed per machine (see
:meth:`repro.node.machine.Machine.enable_telemetry`).  Hot paths gate on it
exactly the way they gate on a fault plan — ``tel = stats.telemetry`` and a
single ``is not None`` check — so a run without telemetry pays one predicate
per site and behaves byte-for-byte identically to a build without the
subsystem.  With telemetry installed, recording never consumes virtual
time: the collector only appends records, so enabling it cannot perturb the
simulation either.

Causality is tracked two ways:

* **Explicitly**: ``begin(..., parent=span_id)`` — used wherever a carrier
  object (a transfer request, a packet) hands the span id to the next layer.
* **Implicitly**: when no parent is given, the collector asks the simulator
  for the currently-running :class:`~repro.sim.engine.SimProcess` and
  parents the new span to the innermost span that process has open.  This is
  how an application-level ``nx.csend`` span becomes the parent of the
  ``vmmc.send`` span it triggers, without the libraries threading ids
  through every call signature.

Storage: recording is the hot path and querying is rare, so each
``begin``/``end``/``instant`` appends one plain tuple to a single
append-only record list and builds nothing else:

* begin and instant: ``(phase, name, time, node, track, span_id,
  parent_id, args)`` — the :class:`TelemetryEvent` fields, in order;
* end: ``(PHASE_END, begin_record, time, args)``, sharing the begin tuple.

The public views (``events``, :meth:`Telemetry.spans` and the other
queries) build :class:`TelemetryEvent` and :class:`Span` objects on first
query and cache them; a later query builds objects only for records added
since.  Sinks still receive a :class:`TelemetryEvent` at emission time,
built only when a sink is installed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .events import PHASE_BEGIN, PHASE_END, PHASE_INSTANT, TelemetryEvent
from .metrics import Gauge, Histogram, Timeline

__all__ = ["Telemetry", "Span"]

#: Sink signature: called with every recorded event.
Sink = Callable[[TelemetryEvent], None]


@dataclass(frozen=True)
class Span:
    """A completed span, reconstructed from its begin and end records."""

    span_id: int
    name: str
    node: int
    track: str
    start: float
    end: float
    parent_id: Optional[int] = None
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __repr__(self) -> str:
        return (
            f"Span#{self.span_id}({self.name} n{self.node}/{self.track} "
            f"{self.start:.3f}..{self.end:.3f}us parent={self.parent_id})"
        )


def _event(record: tuple) -> TelemetryEvent:
    """The :class:`TelemetryEvent` a record stands for."""
    if record[0] is PHASE_END:
        _phase, begin, time, args = record
        return TelemetryEvent(
            PHASE_END, begin[1], time, begin[3], begin[4], begin[5], begin[6], args
        )
    return TelemetryEvent(*record)


class Telemetry:
    """Collects spans, instants, histograms, gauges and timelines."""

    def __init__(
        self,
        clock: Callable[[], float],
        limit: int = 1_000_000,
        current_process: Optional[Callable[[], Any]] = None,
        timeline_cap: Optional[int] = None,
    ):
        self._clock = clock
        #: Event-buffer size: the first ``limit`` records are the event
        #: stream; later begin and instant records are not kept, and end
        #: records are kept only to complete their spans.
        self.limit = limit
        #: Retention cap handed to every Timeline this collector creates
        #: (None: keep every point, the historical default).
        self.timeline_cap = timeline_cap
        #: Records in emission order (shapes in the module docstring).
        self._records: List[tuple] = []
        #: Records emitted past ``limit`` (missing from ``events``).
        self.dropped = 0
        self._ids = itertools.count(1)
        #: span_id -> (begin record, owning process or None).
        self._open: Dict[int, Tuple[tuple, Any]] = {}
        self._sinks: List[Sink] = []
        self._current_process = current_process
        self.histograms: Dict[str, Histogram] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.timelines: Dict[str, Timeline] = {}
        # Query views, extended from the records on demand.
        self._events: List[TelemetryEvent] = []
        self._spans: List[Span] = []
        self._by_id: Dict[int, Span] = {}
        self._children: Dict[Optional[int], List[Span]] = {}
        #: Records already scanned into the span views.
        self._spans_seen = 0

    # -- wiring ------------------------------------------------------------

    def bind_process_source(self, current_process: Callable[[], Any]) -> None:
        """Provide the "who is running right now" hook (set by the machine)."""
        self._current_process = current_process

    def add_sink(self, sink: Sink) -> None:
        """Forward every future event to ``sink`` as well."""
        self._sinks.append(sink)

    # -- span lifecycle ----------------------------------------------------

    def begin(
        self,
        name: str,
        node: int,
        track: str,
        parent: Optional[int] = None,
        **args: Any,
    ) -> int:
        """Open a span; returns its id (pass to :meth:`end`)."""
        span_id = next(self._ids)
        current = self._current_process
        proc = None if current is None else current()
        stack = None
        if proc is not None:
            stack = proc.telemetry_stack
            if stack is None:
                stack = proc.telemetry_stack = []
            elif parent is None and stack:
                parent = stack[-1]
        record = (PHASE_BEGIN, name, self._clock(), node, track, span_id, parent, args)
        self._record(record)
        self._open[span_id] = (record, proc)
        if stack is not None:
            stack.append(span_id)
        return span_id

    def end(self, span_id: int, **args: Any) -> None:
        """Close an open span; duration feeds the span-name histogram.

        Closing an unknown or already-closed span is a no-op.  Past
        ``limit`` the end still completes the span (see ``dropped``).
        """
        entry = self._open.pop(span_id, None)
        if entry is None:
            return
        begin, proc = entry
        if proc is not None and proc.telemetry_stack:
            try:
                proc.telemetry_stack.remove(span_id)
            except ValueError:
                pass
        now = self._clock()
        record = (PHASE_END, begin, now, args)
        records = self._records
        if len(records) >= self.limit:
            self.dropped += 1
        records.append(record)
        if self._sinks:
            self._emit(record)
        self.histogram(begin[1]).add(now - begin[2])

    def instant(
        self,
        name: str,
        node: int,
        track: str,
        parent: Optional[int] = None,
        **args: Any,
    ) -> int:
        """Record a point event; returns its id (usable as a parent link)."""
        span_id = next(self._ids)
        if parent is None:
            current = self._current_process
            proc = None if current is None else current()
            if proc is not None:
                stack = proc.telemetry_stack
                if stack:
                    parent = stack[-1]
        self._record(
            (PHASE_INSTANT, name, self._clock(), node, track, span_id, parent, args)
        )
        return span_id

    def _record(self, record: tuple) -> None:
        """Keep a begin or instant record while under ``limit``."""
        records = self._records
        if len(records) < self.limit:
            records.append(record)
        else:
            self.dropped += 1
        if self._sinks:
            self._emit(record)

    def _emit(self, record: tuple) -> None:
        event = _event(record)
        for sink in self._sinks:
            sink(event)

    # -- metrics -----------------------------------------------------------

    def histogram(self, name: str) -> Histogram:
        if name not in self.histograms:
            self.histograms[name] = Histogram(name)
        return self.histograms[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self.gauges:
            self.gauges[name] = Gauge(name)
        return self.gauges[name]

    def timeline(self, name: str, node: int = 0) -> Timeline:
        if name not in self.timelines:
            self.timelines[name] = Timeline(name, node, cap=self.timeline_cap)
        return self.timelines[name]

    # -- queries -----------------------------------------------------------

    @property
    def events(self) -> List[TelemetryEvent]:
        """The raw event stream, in emission order (the first ``limit``).

        Built on first access and extended on later ones; the list is
        shared, so treat it as read-only.
        """
        view = self._events
        stop = min(len(self._records), self.limit)
        if len(view) < stop:
            view.extend(
                map(_event, itertools.islice(self._records, len(view), stop))
            )
        return view

    def event_count(self) -> int:
        """``len(events)``, counted without building the events."""
        return min(len(self._records), self.limit)

    def span_count(self) -> int:
        """``len(spans())``, counted without building the spans."""
        return len(self._spans) + sum(
            1
            for record in itertools.islice(self._records, self._spans_seen, None)
            if record[0] is PHASE_END
        )

    def _sync_spans(self) -> None:
        """Build the spans completed since the last query."""
        records = self._records
        if self._spans_seen == len(records):
            return
        spans = self._spans
        by_id = self._by_id
        children = self._children
        for record in itertools.islice(records, self._spans_seen, None):
            if record[0] is not PHASE_END:
                continue
            _phase, begin, end, args = record
            span_id = begin[5]
            parent_id = begin[6]
            span = Span(
                span_id, begin[1], begin[3], begin[4], begin[2], end, parent_id,
                {**begin[7], **args},
            )
            spans.append(span)
            by_id[span_id] = span
            children.setdefault(parent_id, []).append(span)
        self._spans_seen = len(records)

    def spans(self, name: Optional[str] = None) -> List[Span]:
        """Completed spans, oldest first; optionally filtered by name prefix."""
        self._sync_spans()
        if name is None:
            return list(self._spans)
        return [s for s in self._spans if s.name.startswith(name)]

    def span(self, span_id: int) -> Optional[Span]:
        self._sync_spans()
        return self._by_id.get(span_id)

    def open_spans(self) -> List[TelemetryEvent]:
        """Begin events of spans never closed (still in flight at run end)."""
        return [TelemetryEvent(*begin) for begin, _proc in self._open.values()]

    def children(self, span_id: int) -> List[Span]:
        return list(self.children_index().get(span_id, ()))

    def children_index(self) -> Dict[Optional[int], List[Span]]:
        """Parent span id -> its completed children, oldest first.

        Root spans sit under ``None``.  The index is the collector's own
        cache, kept current by every query: treat it as read-only.
        """
        self._sync_spans()
        return self._children

    def instants(self, name: Optional[str] = None) -> List[TelemetryEvent]:
        return [
            e
            for e in self.events
            if e.phase == PHASE_INSTANT
            and (name is None or e.name.startswith(name))
        ]

    def ancestry(self, span_id: int) -> List[Span]:
        """The chain from ``span_id`` up to its root (self first)."""
        self._sync_spans()
        chain: List[Span] = []
        seen = set()
        current: Optional[int] = span_id
        while current is not None and current not in seen:
            seen.add(current)
            span = self._by_id.get(current)
            if span is None:
                break
            chain.append(span)
            current = span.parent_id
        return chain

    def span_tree(self, span_id: int, indent: str = "") -> str:
        """ASCII rendering of the span tree rooted at ``span_id``."""
        span = self.span(span_id)
        if span is None:
            return f"{indent}<open or unknown span {span_id}>"
        lines = [
            f"{indent}{span.name} [n{span.node}/{span.track}] "
            f"{span.start:.3f}..{span.end:.3f} ({span.duration:.3f} us)"
        ]
        for child in self.children(span_id):
            lines.append(self.span_tree(child.span_id, indent + "  "))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Telemetry({self.event_count()} events, "
            f"{self.span_count()} spans, {len(self.timelines)} timelines)"
        )
