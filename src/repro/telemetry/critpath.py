"""Critical-path extraction and wall-time attribution over span trees.

The paper's method is *attribution*: explain an end-to-end time by breaking
it into component costs (user-level initiation, DMA, link serialization,
notification overhead) and then reprogram one component at a time.  This
module automates the first half for any profiled run: given a completed
span tree (:mod:`repro.telemetry.collector`), it computes

* the **critical path** of a top-level operation — the single chain of
  activity that determined when the operation finished;
* a **per-component attribution** over that path — CPU initiation, NIC
  DMA, link serialization, remote receive, notification handling, and
  contention stall — that sums *exactly* to the root span's duration;
* **aggregates** over many operations: per-component totals and shares,
  plus the top-k slowest operations with their rendered paths.

Model
-----
The walk proceeds backwards from the root span's end.  At every point in
``[root.start, root.end]`` exactly one span on the path *owns* the time:
the innermost descendant active there, chosen latest-finisher-first (the
span whose completion gated everything above it).  Child windows are
clamped to the parent's window, so asynchronous children that outlive
their parent (a remote ``nic.rx`` outliving the ``net.transmit`` that
caused it) never inflate the attribution: the components always partition
the root's own duration.

A span's owned time is classified by *position*:

* the **head** interval — before its first on-path child — is ``work``:
  the span's own lead-in computation (e.g. the user-level DMA initiation
  sequence inside ``vmmc.send``);
* **interior and tail** intervals — between or after on-path children —
  are ``wait``: the span was pending on downstream resources (a DU-engine
  queue slot, wormhole backpressure, an ack), i.e. contention stall.

``work`` segments then map to components by the owning span's track
("app"/"vmmc"/"svm" -> ``cpu``, "nic.tx"/"nic.fw" -> ``nic_dma``, "net" ->
``link``, "nic.rx" -> ``rx``, "kernel" -> ``notify``).  ``wait`` segments
split by the owning span's *name*: waits inside synchronization
operations (``coll.*`` collectives, the NX ``nx.gsync`` dissemination
barrier, the SVM ``svm.barrier``) are the ``sync`` component — time spent
waiting for *other ranks* to arrive or for the release to propagate —
while every other wait is generic contention ``stall``.  The distinction
matters because sync waits are load imbalance plus protocol latency, and
shrink when the collective substrate improves; resource stalls do not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from .collector import Span, Telemetry

__all__ = [
    "COMPONENTS",
    "SYNC_SPAN_PREFIXES",
    "PathSegment",
    "Attribution",
    "AggregateAttribution",
    "critical_path",
    "attribute",
    "operation_roots",
    "aggregate",
    "render_path",
    "attribution_report",
]

#: Attribution components, in reporting order.
COMPONENTS = ("cpu", "nic_dma", "link", "rx", "notify", "sync", "stall", "other")

#: Track name -> component for ``work`` segments.
COMPONENT_OF_TRACK = {
    "app": "cpu",
    "vmmc": "cpu",
    "svm": "cpu",
    "nic.tx": "nic_dma",
    "nic.fw": "nic_dma",
    "net": "link",
    "nic.rx": "rx",
    "kernel": "notify",
}

#: Span-name prefixes whose ``wait`` time is synchronization (``sync``)
#: rather than generic contention (``stall``): waiting for peer ranks in a
#: barrier/collective, not for a local resource.
SYNC_SPAN_PREFIXES = ("coll.", "nx.gsync", "svm.barrier")

WORK = "work"
WAIT = "wait"


def _component(name: str, track: str, kind: str) -> str:
    """The component a ``kind`` interval owned by a span is charged to."""
    if kind == WAIT:
        if name.startswith(SYNC_SPAN_PREFIXES):
            return "sync"
        return "stall"
    return COMPONENT_OF_TRACK.get(track, "other")


@dataclass(frozen=True)
class PathSegment:
    """One interval of the critical path, owned by a single span."""

    span_id: int
    name: str
    node: int
    track: str
    start: float
    end: float
    kind: str  # WORK or WAIT

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def component(self) -> str:
        return _component(self.name, self.track, self.kind)

    def __repr__(self) -> str:
        return (
            f"{self.name}[n{self.node}/{self.track} {self.kind} "
            f"{self.start:.3f}..{self.end:.3f} {self.duration:.3f}us]"
        )


@dataclass
class Attribution:
    """Where the root span's wall time went, component by component."""

    root: Span
    segments: List[PathSegment]
    components: Dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return sum(self.components.values())

    def fraction(self, component: str) -> float:
        duration = self.root.duration
        if duration <= 0.0:
            return 0.0
        return self.components.get(component, 0.0) / duration

    def __repr__(self) -> str:
        parts = " ".join(
            f"{name}={self.components[name]:.2f}"
            for name in COMPONENTS
            if self.components.get(name, 0.0)
        )
        return f"Attribution({self.root.name}#{self.root.span_id}: {parts})"


@dataclass
class AggregateAttribution:
    """Attribution summed over many operations of one kind."""

    name: str
    count: int
    total_us: float
    components: Dict[str, float]
    slowest: List[Attribution]

    def fraction(self, component: str) -> float:
        if self.total_us <= 0.0:
            return 0.0
        return self.components.get(component, 0.0) / self.total_us

    def mean(self, component: str) -> float:
        if self.count == 0:
            return 0.0
        return self.components.get(component, 0.0) / self.count


#: A critical-path interval before it becomes a PathSegment:
#: (owning span, start, end, kind).
_Interval = Tuple[Span, float, float, str]

#: Children sort key: the latest finisher gates its parent's cursor.
_GATING_ORDER = attrgetter("end", "start", "span_id")


def _walk(
    index: Dict[Optional[int], List[Span]],
    span: Span,
    lo: float,
    hi: float,
    out: List[_Interval],
) -> None:
    """Append intervals covering ``[lo, hi]`` in reverse-chronological order.

    ``span`` is the active frame for the window; its children claim the
    sub-intervals they determine, latest finisher first.
    """
    cursor = hi
    kids = index.get(span.span_id)
    if kids:
        kids = sorted(
            (c for c in kids if c.start < hi and c.end > lo), key=_GATING_ORDER
        )
        while kids and cursor > lo:
            child = kids.pop()  # the child whose completion gated `cursor`
            child_hi = min(child.end, cursor)
            child_lo = max(child.start, lo)
            if child_hi <= child_lo:
                continue
            if child_hi < cursor:
                # Nothing downstream was finishing in (child_hi, cursor]: the
                # span itself was pending there, between/after its children.
                out.append((span, child_hi, cursor, WAIT))
            _walk(index, child, child_lo, child_hi, out)
            cursor = child_lo
    if cursor > lo:
        # The head interval: the span's own lead-in work.
        out.append((span, lo, cursor, WORK))


def _path(index: Dict[Optional[int], List[Span]], root: Span) -> List[_Interval]:
    """The critical path of ``root`` as chronological intervals."""
    intervals: List[_Interval] = []
    if root.end > root.start:
        _walk(index, root, root.start, root.end, intervals)
    intervals.reverse()
    return intervals


def _components(intervals: List[_Interval]) -> Dict[str, float]:
    """Per-component time of a path; every key in :data:`COMPONENTS`."""
    components = {name: 0.0 for name in COMPONENTS}
    for span, start, end, kind in intervals:
        components[_component(span.name, span.track, kind)] += end - start
    return components


def _root_span(telemetry: Telemetry, root_id: int) -> Span:
    root = telemetry.span(root_id)
    if root is None:
        raise ValueError(f"span {root_id} is not a completed span")
    return root


def _segments(intervals: List[_Interval]) -> List[PathSegment]:
    return [
        PathSegment(span.span_id, span.name, span.node, span.track, start, end, kind)
        for span, start, end, kind in intervals
    ]


def critical_path(
    telemetry: Telemetry,
    root_id: int,
    _index: Optional[Dict[Optional[int], List[Span]]] = None,
) -> List[PathSegment]:
    """The critical path of the completed span ``root_id``.

    Returns chronologically ordered segments that partition exactly
    ``[root.start, root.end]``: consecutive segments abut, and their
    durations sum to the root span's duration.
    """
    root = _root_span(telemetry, root_id)
    index = _index if _index is not None else telemetry.children_index()
    return _segments(_path(index, root))


def attribute(
    telemetry: Telemetry,
    root_id: int,
    _index: Optional[Dict[Optional[int], List[Span]]] = None,
) -> Attribution:
    """Per-component attribution of ``root_id``'s duration.

    The returned components carry every key in :data:`COMPONENTS` and sum
    exactly (to float tolerance) to the root span's duration.
    """
    root = _root_span(telemetry, root_id)
    index = _index if _index is not None else telemetry.children_index()
    intervals = _path(index, root)
    return Attribution(
        root=root, segments=_segments(intervals), components=_components(intervals)
    )


def operation_roots(
    telemetry: Telemetry, name: Optional[str] = None
) -> List[Span]:
    """Top-level completed spans: spans whose parent is not a completed span.

    These are the "operations" of a run (an ``nx.csend``, a bare
    ``vmmc.send``, an ``svm.barrier``); ``name`` filters by prefix.
    """
    return [
        span
        for span in telemetry.spans(name)
        if span.parent_id is None or telemetry.span(span.parent_id) is None
    ]


def aggregate(
    telemetry: Telemetry,
    name: Optional[str] = None,
    top: int = 3,
) -> AggregateAttribution:
    """Attribute every operation root (optionally filtered) and sum up."""
    index = telemetry.children_index()
    roots = operation_roots(telemetry, name)
    components = {key: 0.0 for key in COMPONENTS}
    for root in roots:
        for key, value in _components(_path(index, root)).items():
            components[key] += value
    # Path segments are built only for the operations reported in full.
    ranked = sorted(roots, key=lambda root: root.duration, reverse=True)
    return AggregateAttribution(
        name=name or "<all operations>",
        count=len(roots),
        total_us=sum(root.duration for root in ranked),
        components=components,
        slowest=[
            attribute(telemetry, root.span_id, index)
            for root in ranked[: max(0, top)]
        ],
    )


def render_path(segments: List[PathSegment]) -> str:
    """One line per critical-path segment, chronological."""
    lines = []
    for segment in segments:
        lines.append(
            f"  {segment.start:10.3f}..{segment.end:10.3f} "
            f"{segment.duration:9.3f}us  {segment.component:<8} "
            f"{segment.kind:<4} {segment.name} [n{segment.node}/{segment.track}]"
        )
    return "\n".join(lines)


def attribution_report(
    telemetry: Telemetry,
    name: Optional[str] = None,
    top: int = 3,
    show_paths: bool = True,
) -> str:
    """The full text report: component table, shares, slowest operations."""
    from ..study.report import format_bars, format_table

    agg = aggregate(telemetry, name, top=top)
    if agg.count == 0:
        return f"Critical-path attribution: no operations matching {name!r}"
    title = (
        f"Critical-path attribution: {agg.name} "
        f"({agg.count} ops, {agg.total_us:.1f} us total)"
    )
    bars = format_bars(
        title,
        [(key, agg.components[key]) for key in COMPONENTS],
        unit="us",
    )
    rows = [
        [key, agg.components[key], agg.mean(key), f"{100 * agg.fraction(key):.1f}%"]
        for key in COMPONENTS
        if agg.components[key] > 0.0
    ]
    table = format_table(
        "Per-component wall time (us)",
        ["component", "total", "mean/op", "share"],
        rows,
    )
    parts = [bars, table]
    if show_paths and agg.slowest:
        lines = [f"Top {len(agg.slowest)} slowest operations:"]
        for attribution in agg.slowest:
            root = attribution.root
            lines.append(
                f"- {root.name}#{root.span_id} [n{root.node}] "
                f"{root.duration:.3f}us"
            )
            lines.append(render_path(attribution.segments))
        parts.append("\n".join(lines))
    return "\n\n".join(parts)
