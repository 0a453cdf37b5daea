"""Campaign tracer and metrics registry.

A :class:`Telemetry` session records a tree of timed spans
(``campaign -> setting -> replication``...) plus a registry of
counters, gauges and histograms, all validated against
:data:`repro.telemetry.schema.TELEMETRY_SCHEMA`.

Guarded emission contract (same as ``obs.Probe.active``): library code
obtains the ambient session with :func:`current` — a plain list peek —
and checks the plain ``active`` attribute before touching metrics.
When no session is active, :data:`NULL_TELEMETRY` is returned; its
``span()`` hands back one shared no-op context manager whose
``__enter__`` yields ``None``, so instrumented code costs one
attribute load and an empty ``with`` block.

Worker processes never see the parent's session object (it does not
survive pickling and must not be mutated concurrently).  Instead the
executor runs each item under a fresh session in the worker
(:func:`session`), ships the result back as :meth:`Telemetry.portable`
JSON, and the parent grafts it into its own tree with
:meth:`Telemetry.merge` in submit order — so a parallel campaign
produces the same merged tree as a serial one (modulo timestamps).

Span timestamps come from the session's injectable clock; see
:mod:`repro.telemetry.clock` for the RL001 story.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from types import TracebackType
from typing import (Any, Callable, Dict, Iterator, List, Mapping,
                    Optional, Tuple, Type, TypeVar, Union)

from repro.obs.health import LogHistogram
from repro.telemetry.clock import Clock, WallClock
from repro.telemetry.schema import TELEMETRY_SCHEMA

#: JSON-able span attribute values.
Attr = Union[str, int, float, bool, None]

#: Called with each span as it closes (or is merged), children first.
SpanListener = Callable[["Span"], None]

M = TypeVar("M")


@dataclass
class Span:
    """One timed region of a campaign.

    ``attrs`` hold identity (seeds, setting names, sizes) and are
    expected to be identical between serial and parallel executions of
    the same campaign; ``timing`` holds derived wall-clock quantities
    (queue waits, busy time) that legitimately differ between modes and
    are excluded from :meth:`signature`.
    """

    name: str
    label: str = ""
    attrs: Dict[str, Attr] = field(default_factory=dict)
    timing: Dict[str, float] = field(default_factory=dict)
    t0: float = 0.0
    t1: float = 0.0
    status: str = "ok"
    span_id: int = 0
    parent_id: int = 0
    children: List["Span"] = field(default_factory=list)

    @property
    def duration_s(self) -> float:
        return max(self.t1 - self.t0, 0.0)

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def signature(self) -> Tuple[Any, ...]:
        """Timing-free shape: (name, label, status, child signatures).

        Two campaigns over the same seeds must produce root signatures
        that compare equal whether they ran serially or in parallel.
        """
        return (self.name, self.label, self.status,
                tuple(child.signature() for child in self.children))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name, "label": self.label,
            "attrs": dict(self.attrs), "timing": dict(self.timing),
            "t0": self.t0, "t1": self.t1, "status": self.status,
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "Span":
        return cls(
            name=str(record["name"]),
            label=str(record.get("label", "")),
            attrs=dict(record.get("attrs", {})),
            timing=dict(record.get("timing", {})),
            t0=float(record.get("t0", 0.0)),
            t1=float(record.get("t1", 0.0)),
            status=str(record.get("status", "ok")),
            children=[cls.from_dict(child)
                      for child in record.get("children", [])],
        )


# ---------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------
class Counter:
    """Monotonic integer, split by an optional string label."""

    __slots__ = ("name", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.values: Dict[str, int] = {}

    def inc(self, n: int = 1, label: str = "") -> None:
        self.values[label] = self.values.get(label, 0) + n

    @property
    def total(self) -> int:
        return sum(self.values.values())


class Gauge:
    """Last-write-wins float; ``None`` until first set."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = float(value)


class Metrics:
    """Schema-validated registry of counters, gauges and histograms.

    Histograms are :class:`~repro.obs.health.LogHistogram` — the same
    mergeable type the QoE health rollups use — so worker snapshots
    merge by integer bucket addition and carry quantiles.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, LogHistogram] = {}

    @staticmethod
    def _get(store: Dict[str, M], name: str, kind: str,
             make: Callable[[str], M]) -> M:
        """Get-or-create ``name``, which must be a declared ``kind``."""
        metric = store.get(name)
        if metric is None:
            declared = TELEMETRY_SCHEMA.get(name)
            if declared != kind:
                raise ValueError(
                    f"telemetry name {name!r} is not a declared {kind} "
                    f"(schema says {declared!r}); add it to "
                    "repro.telemetry.schema.TELEMETRY_SCHEMA")
            metric = store[name] = make(name)
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(self._counters, name, "counter", Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(self._gauges, name, "gauge", Gauge)

    def histogram(self, name: str) -> LogHistogram:
        return self._get(self._histograms, name, "histogram",
                         lambda _: LogHistogram())

    def counters(self) -> List[Counter]:
        return list(self._counters.values())

    def gauges(self) -> List[Gauge]:
        return list(self._gauges.values())

    def histograms(self) -> Dict[str, LogHistogram]:
        return dict(self._histograms)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able state, mergeable with :meth:`merge`."""
        return {
            "counters": {c.name: dict(c.values)
                         for c in self._counters.values()},
            "gauges": {g.name: g.value
                       for g in self._gauges.values()
                       if g.value is not None},
            "histograms": {name: h.to_dict()
                           for name, h in self._histograms.items()},
        }

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold a worker's snapshot in: counters and histograms add,
        gauges are last-write-wins."""
        for name, values in snapshot.get("counters", {}).items():
            counter = self.counter(name)
            for label, n in values.items():
                counter.inc(int(n), label=str(label))
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(float(value))
        for name, data in snapshot.get("histograms", {}).items():
            self.histogram(name).merge(LogHistogram.from_dict(data))


# ---------------------------------------------------------------------
# Span handles
# ---------------------------------------------------------------------
class SpanHandle:
    """No-op context manager; ``__enter__`` yields None.

    Returned by :data:`NULL_TELEMETRY` so instrumented code can write
    ``with tel.span(...) as sp`` unconditionally and guard attribute
    writes with ``if sp is not None``.
    """

    __slots__ = ()

    def __enter__(self) -> Optional[Span]:
        return None

    def __exit__(self, exc_type: Optional[Type[BaseException]],
                 exc: Optional[BaseException],
                 tb: Optional[TracebackType]) -> None:
        return None


class _LiveSpanHandle(SpanHandle):
    """Opens/closes one span on an active session."""

    __slots__ = ("_tel", "_span")

    def __init__(self, tel: "Telemetry", span: Span) -> None:
        self._tel = tel
        self._span = span

    def __enter__(self) -> Optional[Span]:
        self._tel._open(self._span)
        return self._span

    def __exit__(self, exc_type: Optional[Type[BaseException]],
                 exc: Optional[BaseException],
                 tb: Optional[TracebackType]) -> None:
        if exc_type is not None:
            self._span.status = "error"
            self._span.attrs.setdefault("error", exc_type.__name__)
        self._tel._close(self._span)
        return None


_NULL_HANDLE = SpanHandle()


# ---------------------------------------------------------------------
# Sessions
# ---------------------------------------------------------------------
class Telemetry:
    """One campaign-scoped tracing + metrics session."""

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.clock: Clock = clock if clock is not None else WallClock()
        self.active = True
        self.roots: List[Span] = []
        self.metrics = Metrics()
        self._stack: List[Span] = []
        self._listeners: List[SpanListener] = []
        self._next_id = 1

    # -- spans ---------------------------------------------------------
    def span(self, name: str, label: str = "",
             **attrs: Attr) -> SpanHandle:
        """Context manager opening a child of the innermost open span."""
        if TELEMETRY_SCHEMA.get(name) != "span":
            raise ValueError(
                f"telemetry name {name!r} is not a declared span; add "
                "it to repro.telemetry.schema.TELEMETRY_SCHEMA")
        return _LiveSpanHandle(
            self, Span(name=name, label=label, attrs=dict(attrs)))

    def _open(self, span: Span) -> None:
        span.span_id = self._next_id
        self._next_id += 1
        span.parent_id = self._stack[-1].span_id if self._stack else 0
        span.t0 = self.clock.now()
        self._stack.append(span)

    def _close(self, span: Span) -> None:
        span.t1 = self.clock.now()
        popped = self._stack.pop()
        if popped is not span:  # pragma: no cover - misuse guard
            raise RuntimeError("telemetry spans closed out of order")
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        for listener in self._listeners:
            listener(span)

    def current_span(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def add_listener(self, listener: SpanListener) -> None:
        """Stream every span to ``listener`` as it closes (children
        before parents, merged worker spans included)."""
        self._listeners.append(listener)

    def remove_listener(self, listener: SpanListener) -> None:
        self._listeners.remove(listener)

    # -- worker hand-off ----------------------------------------------
    def portable(self) -> Dict[str, Any]:
        """JSON-able dump of the whole session for cross-process
        shipping; feed to :meth:`merge` on the receiving side."""
        return {"spans": [span.to_dict() for span in self.roots],
                "metrics": self.metrics.snapshot()}

    def merge(self, portable: Mapping[str, Any]) -> List[Span]:
        """Graft a worker session under the innermost open span.

        Spans get fresh ids (worker-local ids do not survive), metrics
        fold in additively.  Returns the grafted root spans.
        """
        spans = [Span.from_dict(record)
                 for record in portable.get("spans", [])]
        parent = self.current_span()
        sink = parent.children if parent is not None else self.roots
        for span in spans:
            self._adopt(span, parent.span_id if parent else 0)
            sink.append(span)
        self.metrics.merge(portable.get("metrics", {}))
        return spans

    def _adopt(self, span: Span, parent_id: int) -> None:
        span.span_id = self._next_id
        self._next_id += 1
        span.parent_id = parent_id
        for child in span.children:
            self._adopt(child, span.span_id)
        for listener in self._listeners:
            listener(span)


class NullTelemetry(Telemetry):
    """Inactive session: ``active`` is False, spans are no-ops."""

    def __init__(self) -> None:
        super().__init__(clock=WallClock())
        self.active = False

    def span(self, name: str, label: str = "",
             **attrs: Attr) -> SpanHandle:
        return _NULL_HANDLE


#: Shared inactive session returned by :func:`current` when no session
#: has been started (mirrors ``obs.NULL_PROBE``).
NULL_TELEMETRY = NullTelemetry()

_SESSIONS: List[Telemetry] = []


def current() -> Telemetry:
    """The innermost active session, or :data:`NULL_TELEMETRY`."""
    return _SESSIONS[-1] if _SESSIONS else NULL_TELEMETRY


def start(clock: Optional[Clock] = None) -> Telemetry:
    """Push a new active session; pair with :func:`stop`."""
    tel = Telemetry(clock=clock)
    _SESSIONS.append(tel)
    return tel


def stop(tel: Telemetry) -> None:
    """Pop ``tel``; it must be the innermost session."""
    if not _SESSIONS or _SESSIONS[-1] is not tel:
        raise RuntimeError("telemetry sessions stopped out of order")
    _SESSIONS.pop()


@contextlib.contextmanager
def session(clock: Optional[Clock] = None) -> Iterator[Telemetry]:
    """``with telemetry.session() as tel: ...`` scoped session."""
    tel = start(clock=clock)
    try:
        yield tel
    finally:
        stop(tel)
