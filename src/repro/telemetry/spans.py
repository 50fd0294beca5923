"""Causal span model: hierarchical, request-linked timing spans.

The telemetry layer records **spans** — timed regions with a parent
span, a request id, and an attribute bag — so a run can be
reconstructed as one tree per request (request → chain stage →
dma/drx/kernel/notify leaves) and rendered as a waterfall or exported to
Perfetto.

Span times come from the owning :class:`~repro.sim.engine.Simulator`
clock, so two runs with equal seeds produce identical span streams —
the property the artifact determinism tests pin down.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

__all__ = ["Span", "Instant", "ActiveSpan", "SpanTracker", "ROOT_PARENT"]

#: Parent id of a root span (no parent).
ROOT_PARENT = -1


class Span:
    """One span of simulated time (open until ``end`` is set).

    ``phase`` ties the span to the system model's phase accounting
    (kernel / restructuring / movement / control / recovery / queue);
    spans that only add causal detail under a phase span (e.g. the DMA
    legs inside a movement span) leave it empty so phase totals computed
    from spans never double-count. ``attrs['abandoned']`` marks spans
    from a timed-out DRX attempt whose time was re-billed to the
    recovery phase.

    A span begun via :meth:`SpanTracker.begin` has ``end is None`` until
    :meth:`SpanTracker.end` closes it *in place* — one object per span,
    recording stays allocation-light on the DES hot path.
    ``request_id`` may be assigned after creation (the serving frontend
    learns a request's id only once the system returns its record).
    """

    __slots__ = (
        "span_id", "parent_id", "request_id", "name", "category",
        "actor", "phase", "start", "end", "attrs",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: int,
        request_id: int,
        name: str,
        category: str,
        actor: str,
        phase: str,
        start: float,
        end: Optional[float] = None,
        attrs: Optional[Dict[str, object]] = None,
    ):
        self.span_id = span_id
        self.parent_id = parent_id
        self.request_id = request_id
        self.name = name
        self.category = category
        self.actor = actor
        self.phase = phase
        self.start = start
        self.end = end
        self.attrs = {} if attrs is None else attrs

    def __repr__(self) -> str:
        return (
            f"Span(#{self.span_id}<-{self.parent_id} req={self.request_id} "
            f"{self.name!r} cat={self.category} phase={self.phase!r} "
            f"{self.start}..{self.end})"
        )

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def abandoned(self) -> bool:
        return bool(self.attrs.get("abandoned"))


#: A begun-but-unfinished span is the same object its tracker will
#: finish in place; the alias keeps begin/end signatures self-documenting.
ActiveSpan = Span


@dataclass(slots=True)
class Instant:
    """A point event (fault injections, retries, fallbacks, giveups)."""

    time: float
    name: str
    category: str
    actor: str = ""
    request_id: int = -1
    attrs: Dict[str, object] = field(default_factory=dict)


class SpanTracker:
    """Owns the span stream of one simulated run.

    Finished spans land in :attr:`spans` in completion order (children
    before parents — the DES makes this order deterministic); open spans
    are tracked so recovery paths can abandon a subtree and run drivers
    can truncate stragglers at the end of a run.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self.spans: List[Span] = []
        self.instants: List[Instant] = []
        self._ids = itertools.count()
        self._open: Dict[int, Span] = {}
        # parent id -> child span ids, for subtree walks (abandonment).
        self._children: Dict[int, List[int]] = {}
        self._by_id: Dict[int, Span] = {}

    # -- recording -----------------------------------------------------------

    def begin(
        self,
        name: str,
        category: str,
        actor: str = "",
        parent: Union[int, ActiveSpan, Span, None] = None,
        request_id: int = -1,
        phase: str = "",
        start: Optional[float] = None,
        **attrs: object,
    ) -> ActiveSpan:
        """Open a span at the current sim time (or explicit ``start``)."""
        # Hot path (one call per modeled operation): ``attrs`` is already
        # a fresh dict from ``**``, so it is adopted, not copied.
        if parent is None:
            parent_id = ROOT_PARENT
        elif type(parent) is int:
            parent_id = parent
        else:
            parent_id = parent.span_id
        sid = next(self._ids)
        span = Span(
            sid, parent_id, request_id, name, category,
            actor, phase, self.sim.now if start is None else start,
            None, attrs,
        )
        self._open[sid] = span
        self._by_id[sid] = span
        if parent_id != ROOT_PARENT:
            kids = self._children.get(parent_id)
            if kids is None:
                self._children[parent_id] = [sid]
            else:
                kids.append(sid)
        return span

    def end(self, span: ActiveSpan, **attrs: object) -> Span:
        """Close an open span, in place, at the current sim time."""
        if self._open.pop(span.span_id, None) is None:
            raise ValueError(f"span {span.span_id} is not open")
        now = self.sim.now
        if now < span.start:
            raise ValueError(
                f"span {span.name!r} ends before it starts: "
                f"{span.start}..{now}"
            )
        if attrs:
            span.attrs.update(attrs)
        span.end = now
        self.spans.append(span)
        return span

    def add(
        self,
        name: str,
        category: str,
        start: float,
        end: float,
        actor: str = "",
        parent: Union[int, ActiveSpan, Span, None] = None,
        request_id: int = -1,
        phase: str = "",
        **attrs: object,
    ) -> Span:
        """Record a span with explicit times (post-hoc recording)."""
        if end < start:
            raise ValueError(f"span ends before it starts: {start}..{end}")
        parent_id = _parent_id(parent)
        span = Span(
            next(self._ids), parent_id, request_id, name, category,
            actor, phase, start, end, attrs,
        )
        if parent_id != ROOT_PARENT:
            self._children.setdefault(parent_id, []).append(span.span_id)
        self.spans.append(span)
        self._by_id[span.span_id] = span
        return span

    def instant(
        self,
        name: str,
        category: str,
        actor: str = "",
        request_id: int = -1,
        **attrs: object,
    ) -> Instant:
        """Record a point event at the current sim time."""
        event = Instant(
            self.sim.now, name, category, actor, request_id, attrs
        )
        self.instants.append(event)
        return event

    # -- recovery / end-of-run bookkeeping -----------------------------------

    def mark_abandoned(self, root: Union[int, ActiveSpan, Span]) -> int:
        """Mark a span and its whole subtree ``abandoned`` (open
        descendants are closed at the current time first). Returns the
        number of spans marked."""
        root_id = root if isinstance(root, int) else root.span_id
        marked = 0
        stack = [root_id]
        while stack:
            span_id = stack.pop()
            span = self._by_id.get(span_id)
            if span is None:
                continue
            if span_id in self._open:
                self.end(span)
            span.attrs["abandoned"] = True
            marked += 1
            stack.extend(self._children.get(span_id, ()))
        return marked

    @property
    def open_count(self) -> int:
        return len(self._open)

    def finalize(self) -> int:
        """Close any still-open spans (marked ``truncated``) at the
        current sim time; run drivers call this after the DES drains.
        Returns the number of spans truncated."""
        stragglers = list(self._open.values())
        for span in stragglers:
            self.end(span, truncated=True)
        return len(stragglers)


def _parent_id(parent: Union[int, ActiveSpan, Span, None]) -> int:
    if parent is None:
        return ROOT_PARENT
    if isinstance(parent, int):
        return parent
    return parent.span_id
