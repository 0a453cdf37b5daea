"""Triggered flight recorder: bounded pre-anomaly event windows.

A 500-session churn campaign produces far too many probe events to
log, yet the interesting question after a stall is always "what
happened in the seconds *before* it".  The :class:`FlightRecorder`
keeps a fixed-size ring buffer of recent probe events per session
(plus one shared ring for network-level events) and freezes a ring
into an exportable window when a declarative **trigger** fires:

* ``stall:<seconds>`` — a ``health.stall`` event (emitted by the
  :class:`~repro.obs.health.HealthAggregator`) at least that long;
* ``drop_burst:<count>[:<window_s>]`` — ``count`` bottleneck drops
  within ``window_s`` simulated seconds;
* ``sendbuf:<packets>`` — a ``tcp.send_buffer`` occupancy reaching
  the threshold (senders blocking on a full buffer);
* ``death:<missing_fraction>`` — a session ends
  (``campaign.session_done``) with more than that fraction of its
  packets undelivered.

Steady-state cost is one ring append per subscribed probe event; the
per-hop ``link.enqueue``/``link.send``/``link.recv`` firehose topics
are never subscribed, so their probes keep the inactive-``.active``
fast path and the instrumented campaign stays within the <= 10%
overhead gate.  Ring entries for topics that carry pooled
:class:`~repro.sim.packet.Packet` objects (``link.drop``) are
JSON-projected *at append time* — a recycled packet can never alias a
recorded event.

Dumped windows are JSONL lines built by the same
:func:`~repro.obs.sinks.event_record` as
:class:`~repro.obs.sinks.JsonlSink` lines, so
:func:`repro.obs.sinks.validate_jsonl` re-validates every dump against
``obs.SCHEMA``.
"""

from __future__ import annotations

import json
import os
from collections import deque
from dataclasses import dataclass
from typing import (Any, Deque, Dict, List, Optional, Sequence, Set,
                    Tuple)

from repro.obs.bus import EventBus, Probe
from repro.obs.sinks import _jsonify, event_record

#: Trigger kinds and their default thresholds (and window, where one
#: applies).  Thresholds: stall seconds / drop count / buffered
#: packets / missing fraction.
TRIGGER_DEFAULTS: Dict[str, Tuple[float, float]] = {
    "stall": (1.0, 0.0),
    "drop_burst": (20.0, 1.0),
    "sendbuf": (16.0, 0.0),
    "death": (0.05, 0.0),
}

#: Topics recorded into the rings.  Deliberately excludes the per-hop
#: link firehose, ``tcp.rtt_sample`` and ``tcp.send_buffer`` (the
#: highest-rate TCP topics — send-buffer occupancy changes fire up to
#: twice per packet, and subscribing them would blow the health
#: layer's <= 10% overhead budget; occupancy summaries live in the
#: health rollup).  Arming a ``sendbuf`` trigger adds
#: ``tcp.send_buffer`` back automatically.
DEFAULT_PATTERNS: Tuple[str, ...] = (
    "client.arrival", "tcp.cwnd", "tcp.timeout",
    "tcp.retransmit", "tcp.fast_retransmit", "link.drop",
    "queue.pie.drop", "campaign.session_done", "health.stall",
)

#: Topics whose values may reference pooled packets: projected to JSON
#: at append time so ring entries survive packet recycling.
_COPY_TOPICS = frozenset(("link.drop",))

#: Ring key for events that belong to the shared network, not to one
#: session (bottleneck drops, AQM early drops).
NET_RING = "net"

#: Topics routed to the shared network ring / routed by their literal
#: session label in ``values[0]`` (everything else resolves a flow or
#: path name by label prefix).
_NET_TOPICS = frozenset(("link.drop", "queue.pie.drop"))
_LABEL_TOPICS = frozenset(("campaign.session_done", "health.stall"))


@dataclass(frozen=True)
class Trigger:
    """One armed trigger condition."""

    kind: str
    threshold: float
    window_s: float = 0.0

    def spec(self) -> str:
        """Canonical spec string (parse/format round-trip)."""
        text = f"{self.kind}:{self.threshold:g}"
        if self.kind == "drop_burst":
            text += f":{self.window_s:g}"
        return text


def parse_trigger(spec: str) -> Trigger:
    """Parse ``kind[:threshold[:window_s]]`` into a :class:`Trigger`.

    Examples: ``stall:2.0``, ``drop_burst:50:0.5``, ``sendbuf:16``,
    ``death:0.1``; a bare kind uses :data:`TRIGGER_DEFAULTS`.
    """
    parts = spec.split(":")
    kind = parts[0]
    if kind not in TRIGGER_DEFAULTS:
        raise ValueError(
            f"unknown trigger kind {kind!r} "
            f"(choose from {sorted(TRIGGER_DEFAULTS)})")
    if len(parts) > (3 if kind == "drop_burst" else 2):
        raise ValueError(f"too many fields in trigger spec {spec!r}")
    threshold, window_s = TRIGGER_DEFAULTS[kind]
    try:
        if len(parts) > 1 and parts[1]:
            threshold = float(parts[1])
        if len(parts) > 2 and parts[2]:
            window_s = float(parts[2])
    except ValueError:
        raise ValueError(
            f"non-numeric field in trigger spec {spec!r}") from None
    if threshold <= 0:
        raise ValueError(f"trigger threshold must be > 0: {spec!r}")
    if kind == "drop_burst" and window_s <= 0:
        raise ValueError(f"drop-burst window must be > 0: {spec!r}")
    return Trigger(kind=kind, threshold=threshold, window_s=window_s)


@dataclass
class TriggerEvent:
    """One fired trigger and its frozen pre-trigger window."""

    kind: str
    session: str
    time: float
    value: float
    events: List[Dict[str, Any]]


def _ring_file_key(session: str) -> str:
    """Safe file-name fragment for a ring key ("s7." -> "s7")."""
    cleaned = session.rstrip(".").replace(":", "_").replace("/", "_")
    return cleaned if cleaned else "session"


class FlightRecorder:
    """Fixed-size per-session rings of recent probe events + triggers.

    ``labels`` are the campaign's session labels (``assembly.label``:
    ``"s0."``, ``"s1."``, ... or ``""`` for a single session); flow and
    path names resolve to sessions by label prefix exactly like the
    :class:`~repro.obs.health.HealthAggregator`.  Attach the recorder
    *before* the aggregator so the ring already holds the arrival that
    caused a stall when the stall trigger freezes it.
    """

    def __init__(self, labels: Sequence[str],
                 triggers: Sequence[Trigger] = (),
                 ring_size: int = 256,
                 patterns: Sequence[str] = DEFAULT_PATTERNS) -> None:
        if ring_size < 1:
            raise ValueError(f"ring_size must be >= 1: {ring_size}")
        self.ring_size = ring_size
        self.triggers = list(triggers)
        self.patterns = tuple(patterns)
        if any(t.kind == "sendbuf" for t in self.triggers) \
                and "tcp.send_buffer" not in self.patterns:
            self.patterns += ("tcp.send_buffer",)
        self._labels = sorted(set(labels), key=len, reverse=True)
        self._label_set = frozenset(labels)
        self._name_cache: Dict[str, Optional[str]] = {}
        # Rings store three flat slots (topic, time, values) per event
        # rather than one wrapper tuple: the wrapper would be a fresh
        # GC-tracked container per subscribed emission, and at campaign
        # scale the extra gen0 collections it forces cost more than
        # the recorder's own per-event work.  maxlen is a multiple of
        # 3, so eviction keeps the frames aligned.
        self._rings: Dict[str, Deque[Any]] = {}
        self.frozen: Dict[str, TriggerEvent] = {}
        self._stall_by_kind: Dict[str, List[Trigger]] = {}
        for trigger in self.triggers:
            self._stall_by_kind.setdefault(trigger.kind,
                                           []).append(trigger)
        #: recent bottleneck drop times for the drop-burst window;
        #: bounded by the largest armed drop count.
        burst = self._stall_by_kind.get("drop_burst", [])
        maxlen = max((int(t.threshold) for t in burst), default=1)
        self._drop_times: Deque[float] = deque(maxlen=maxlen)
        # Topics that can fire one of the *armed* kinds: events on any
        # other topic skip the trigger checks with one set lookup.
        armed: Set[str] = set()
        if "stall" in self._stall_by_kind:
            armed.add("health.stall")
        if "sendbuf" in self._stall_by_kind:
            armed.add("tcp.send_buffer")
        if "drop_burst" in self._stall_by_kind:
            armed.update(("link.drop", "queue.pie.drop"))
        if "death" in self._stall_by_kind:
            armed.add("campaign.session_done")
        self._armed_topics = frozenset(armed)
        self.appends = 0
        self._p_trigger: Optional[Probe] = None

    def attach(self, bus: EventBus) -> "FlightRecorder":
        bus.attach(self)
        self._p_trigger = bus.probe("health.trigger")
        return self

    # -- routing -------------------------------------------------------
    def _session_for(self, name: str) -> Optional[str]:
        try:
            return self._name_cache[name]
        except KeyError:
            pass
        found: Optional[str] = None
        for label in self._labels:
            if name.startswith(label):
                rest = name[len(label):]
                if rest.startswith("video") or rest.startswith("path"):
                    found = label
                    break
        self._name_cache[name] = found
        return found

    def _ring_for(self, key: str) -> Deque[Any]:
        ring = self._rings.get(key)
        if ring is None:
            ring = deque(maxlen=3 * self.ring_size)
            self._rings[key] = ring
        return ring

    def _route(self, topic: str,
               values: Tuple[Any, ...]) -> Optional[str]:
        """Ring key for one event (None drops the event)."""
        if topic in _NET_TOPICS:
            return NET_RING
        if topic in _LABEL_TOPICS:
            label = str(values[0])
            return label if label in self._label_set else None
        return self._session_for(values[0])

    # -- the sink ------------------------------------------------------
    def __call__(self, topic: str, time: float,
                 values: Tuple[Any, ...]) -> None:
        # One flat frame per event: this is :meth:`_route` +
        # :meth:`_ring_for` inlined — the recorder sits on every
        # subscribed emission, and the two extra Python frames are
        # measurable against the health layer's overhead gate.
        if topic in _NET_TOPICS:
            key: Optional[str] = NET_RING
        elif topic in _LABEL_TOPICS:
            label = str(values[0])
            key = label if label in self._label_set else None
        else:
            key = self._session_for(values[0])
        if key is None:
            return
        if topic in _COPY_TOPICS:
            values = tuple(_jsonify(value) for value in values)
        ring = self._rings.get(key)
        if ring is None:
            ring = deque(maxlen=3 * self.ring_size)
            self._rings[key] = ring
        ring.append(topic)
        ring.append(time)
        ring.append(values)
        self.appends += 1
        if topic in self._armed_topics:
            self._check_triggers(topic, time, values, key)

    # -- triggers ------------------------------------------------------
    def _check_triggers(self, topic: str, time: float,
                        values: Tuple[Any, ...], key: str) -> None:
        if topic == "health.stall":
            for trigger in self._stall_by_kind.get("stall", ()):
                if float(values[1]) >= trigger.threshold:
                    self._fire(trigger, key, time, float(values[1]))
        elif topic == "tcp.send_buffer":
            for trigger in self._stall_by_kind.get("sendbuf", ()):
                if float(values[1]) >= trigger.threshold:
                    self._fire(trigger, key, time, float(values[1]))
        elif topic in ("link.drop", "queue.pie.drop"):
            burst = self._stall_by_kind.get("drop_burst", ())
            if burst:
                self._drop_times.append(time)
                for trigger in burst:
                    count = int(trigger.threshold)
                    if len(self._drop_times) >= count and (
                            time - self._drop_times[-count]
                            <= trigger.window_s):
                        self._fire(trigger, NET_RING, time,
                                   float(count))
        elif topic == "campaign.session_done":
            for trigger in self._stall_by_kind.get("death", ()):
                total = int(values[2])
                missing = 1.0 - int(values[1]) / total if total \
                    else 0.0
                if missing > trigger.threshold:
                    self._fire(trigger, key, time, missing)

    def _fire(self, trigger: Trigger, key: str, time: float,
              value: float) -> None:
        """Freeze ``key``'s ring (first trigger per ring wins)."""
        if key in self.frozen:
            return
        frames = iter(self._ring_for(key))
        events = [event_record(topic, t, values)
                  for topic, t, values in zip(frames, frames, frames)]
        self.frozen[key] = TriggerEvent(
            kind=trigger.kind, session=key, time=time, value=value,
            events=events)
        probe = self._p_trigger
        if probe is not None and probe.active:
            probe.emit(time, key, trigger.kind, value)

    # -- export --------------------------------------------------------
    def dump_paths(self, directory: str) -> List[str]:
        """File names (without writing) for :meth:`dump`."""
        return [os.path.join(
            directory,
            f"trigger-{event.kind}-{_ring_file_key(key)}.jsonl")
            for key, event in sorted(self.frozen.items())]

    def dump(self, directory: str) -> List[str]:
        """Write one bounded JSONL window per fired trigger.

        Each file holds the frozen pre-trigger events of exactly the
        triggered ring — the anomalous session (or the shared network
        ring for drop bursts) — never the healthy ones.  Returns the
        written paths, deterministic for a fixed seed.
        """
        os.makedirs(directory, exist_ok=True)
        paths: List[str] = []
        for (key, event), path in zip(sorted(self.frozen.items()),
                                      self.dump_paths(directory)):
            with open(path, "w", encoding="utf-8") as handle:
                for record in event.events:
                    handle.write(json.dumps(record) + "\n")
            paths.append(path)
        return paths

    def summary(self) -> str:
        """One line per fired trigger, for CLI run reports."""
        if not self.frozen:
            return "  (no triggers fired)"
        lines = []
        for key, event in sorted(self.frozen.items()):
            lines.append(
                f"  {event.kind:12s} {_ring_file_key(key):10s} "
                f"t={event.time:.3f}s value={event.value:g} "
                f"({len(event.events)} events)")
        return "\n".join(lines)
