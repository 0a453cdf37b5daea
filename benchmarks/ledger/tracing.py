"""Benchmark-side instrumentation: instance registry, calendar counts
and the span ledger.

Nothing here edits the program.  Every hook wraps a class or module
attribute of the library for the duration of one pass and restores it
afterwards, so the timed passes run the library exactly as users do.

* :class:`Patches` installs and restores the wrappers.
* :class:`Registry` records the instances of a few classes as they are
  built, so a counting pass can read their public counters after the
  run (``Node.delivered``, ``Link.tx_packets``, ``RenoSender.timeouts``
  ...) even where the library discards the objects.
* :class:`Calendar` counts ``Simulator.at`` calls and the peak number
  of live pending events; fired and pending events come from the
  simulators' own counters, cancelled ones are the difference.
* :class:`SpanLog` records one span per call into a layer: name,
  start, end, parent and run id, kept in flat arrays in memory and
  reduced (or written out) when the pass ends.  A layer's self time is
  its spans' time minus their child spans' time; the root span's self
  time is the part no layer accounts for.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Layer of a library module, by longest dotted prefix.  Engine-
#: dispatched callbacks and bus subscribers are charged to the layer
#: of the module that defines their owner's class.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.engine", "engine"),
    ("repro.sim", "link"),
    ("repro.tcp", "tcp"),
    ("repro.core", "core"),
    ("repro.traffic", "traffic"),
    ("repro.obs.health", "obs.health"),
    ("repro.obs.recorder", "obs.recorder"),
    ("repro.obs", "obs.export"),
    ("repro.experiments.cache", "cache"),
    ("repro.experiments.parallel", "executor"),
    ("repro.experiments", "experiments"),
    ("repro.model.meanfield", "meanfield"),
    ("repro.model.fluid", "meanfield"),
    ("repro.model", "model"),
    ("repro.verify", "verify"),
)

#: Every layer a span can be charged to, in report order.  ``other``
#: catches callbacks defined outside the library; the root span's
#: layer is ``unattributed``.
LAYERS: Tuple[str, ...] = (
    "engine", "link", "tcp", "core", "traffic", "obs.health",
    "obs.recorder", "obs.export", "cache", "executor", "experiments",
    "model", "meanfield", "verify", "other")

#: Calls into the layers that get a span in the traced pass:
#: (module, attribute path, layer, span name).  Engine callbacks and
#: bus subscribers are wrapped separately (see :meth:`Tracer.install`).
TRACE_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.sim.engine", "Simulator.run", "engine", "engine.run"),
    ("repro.sim.link", "Link.enqueue", "link", "link.enqueue"),
    ("repro.sim.node", "Node.receive", "link", "node.receive"),
    ("repro.tcp.reno", "RenoSender.handle_packet", "tcp",
     "tcp.sender.handle_packet"),
    ("repro.tcp.receiver", "TcpReceiver.handle_packet", "tcp",
     "tcp.receiver.handle_packet"),
    ("repro.core.client", "StreamClient.on_packet", "core",
     "core.client.on_packet"),
    ("repro.core.streamers", "DmpStreamer._on_send_space", "core",
     "core.streamer.on_send_space"),
    ("repro.traffic.http", "HttpFlow._feed", "traffic",
     "traffic.http.feed"),
    ("repro.traffic.ftp", "FtpFlow._refill", "traffic",
     "traffic.ftp.refill"),
    ("repro.obs.health", "HealthAggregator.rollup", "obs.health",
     "obs.health.rollup"),
    ("repro.obs.recorder", "FlightRecorder.dump", "obs.export",
     "obs.export.recorder_dump"),
    ("repro.obs.export", "prometheus_exposition", "obs.export",
     "obs.export.prometheus"),
    ("repro.obs.export", "html_dashboard", "obs.export",
     "obs.export.dashboard"),
    ("repro.obs.export", "health_table", "obs.export",
     "obs.export.table"),
    ("repro.obs.export", "write_text", "obs.export",
     "obs.export.write"),
    ("repro.experiments.runner", "run_setting", "experiments",
     "experiments.run_setting"),
    ("repro.experiments.sweep", "fig8_curves", "experiments",
     "experiments.fig8_curves"),
    ("repro.experiments.parallel", "ReplicationExecutor.map",
     "executor", "executor.map"),
    ("repro.experiments.parallel", "simulate_run", "experiments",
     "experiments.simulate_run"),
    ("repro.experiments.parallel", "solve_model", "model",
     "model.solve"),
    ("repro.experiments.cache", "ResultCache.get_run", "cache",
     "cache.get"),
    ("repro.experiments.cache", "ResultCache.get_model", "cache",
     "cache.get"),
    ("repro.experiments.cache", "ResultCache.get_verify", "cache",
     "cache.get"),
    ("repro.experiments.cache", "ResultCache.put_run", "cache",
     "cache.put"),
    ("repro.experiments.cache", "ResultCache.put_model", "cache",
     "cache.put"),
    ("repro.experiments.cache", "ResultCache.put_verify", "cache",
     "cache.put"),
    ("repro.model.tcp_chain", "TcpFlowChain.__init__", "model",
     "chain.build"),
    ("repro.model.mc_kernel", "CompiledModel.__init__", "model",
     "mc.compile"),
    ("repro.model.mc_kernel", "stationary_late_fraction", "model",
     "mc.run"),
    ("repro.model.meanfield", "late_fraction_grid", "meanfield",
     "meanfield.grid"),
    ("repro.model.meanfield", "solve_meanfield", "meanfield",
     "meanfield.solve"),
    ("repro.verify.queries", "compare_schemes", "verify",
     "verify.compare"),
    ("repro.verify.queries", "max_late_envelope", "verify",
     "verify.max_late_envelope"),
)

#: Classes whose instances the counting passes record.
REGISTERED: Tuple[Tuple[str, str, str], ...] = (
    ("sim", "repro.sim.engine", "Simulator"),
    ("node", "repro.sim.node", "Node"),
    ("link", "repro.sim.link", "Link"),
    ("sender", "repro.tcp.reno", "RenoSender"),
    ("receiver", "repro.tcp.receiver", "TcpReceiver"),
    ("assembly", "repro.core.assembly", "SessionAssembly"),
    ("http", "repro.traffic.http", "HttpFlow"),
)


def layer_of(module: str) -> str:
    """The layer a library module belongs to (``other`` if none)."""
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


def _resolve(module: str, path: str) -> Tuple[Any, str]:
    """(owner object, attribute name) for ``module`` + ``A.b`` path."""
    owner: Any = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Patches:
    """Attribute replacements, restored in reverse order on exit."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, name: str,
                make: Callable[[Any], Any]) -> None:
        """Replace ``owner.name`` by ``make(original)``."""
        original = owner.__dict__[name] if isinstance(owner, type) \
            else getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc: Any) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class Registry:
    """Instances of :data:`REGISTERED` classes built during a pass."""

    def __init__(self) -> None:
        self.instances: Dict[str, List[Any]] = {
            key: [] for key, _, _ in REGISTERED}

    def install(self, patches: Patches) -> None:
        for key, module, cls_name in REGISTERED:
            cls = getattr(importlib.import_module(module), cls_name)
            bucket = self.instances[key]

            def make(original: Any, bucket: List[Any] = bucket) -> Any:
                @functools.wraps(original)
                def init(obj: Any, *args: Any, **kwargs: Any) -> None:
                    original(obj, *args, **kwargs)
                    bucket.append(obj)
                return init

            patches.replace(cls, "__init__", make)

    def __getitem__(self, key: str) -> List[Any]:
        return self.instances[key]


class Calendar:
    """Counts ``Simulator.at`` calls and the live-event peak."""

    def __init__(self) -> None:
        self.scheduled = 0
        self.peak = 0

    def install(self, patches: Patches,
                spans: Optional["SpanLog"] = None) -> None:
        from repro.sim.engine import Simulator

        def make(original: Any) -> Any:
            def at(sim: Any, when: float, callback: Any,
                   *args: Any) -> Any:
                self.scheduled += 1
                if spans is not None:
                    callback = spans.callback(callback)
                event = original(sim, when, callback, *args)
                pending = sim.pending_events
                if pending > self.peak:
                    self.peak = pending
                return event
            return at

        patches.replace(Simulator, "at", make)


class SpanLog:
    """Spans of one traced pass, in flat arrays.

    Span ``i`` has name ``names[name_id[i]]``, runs from ``start[i]``
    to ``end[i]`` (``time.perf_counter`` seconds) and was opened while
    span ``parent[i]`` was open (-1 for the root).
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: List[str] = []
        self.layers: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = [-1]
        self._armed = False
        self._callbacks: Dict[Tuple[Any, Any], int] = {}

    def nid(self, name: str, layer: str) -> int:
        found = self._ids.get(name)
        if found is None:
            found = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return found

    def root(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        """Run ``fn`` inside the root span; spans are recorded only
        while it is open (set-up calls are not part of the ledger)."""
        self._armed = True
        try:
            return self.call(self.nid(name, "unattributed"), fn, *args)
        finally:
            self._armed = False

    def call(self, nid: int, fn: Callable[..., Any], *args: Any,
             **kwargs: Any) -> Any:
        """Run ``fn`` inside a span named ``names[nid]``."""
        if not self._armed:
            return fn(*args, **kwargs)
        idx = len(self.start)
        stack = self._stack
        self.name_id.append(nid)
        self.parent.append(stack[-1])
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            stack.pop()

    def wrap(self, nid: int) -> Callable[[Any], Any]:
        """Decorator factory for :meth:`Patches.replace`."""
        call = self.call

        def make(original: Any) -> Any:
            @functools.wraps(original)
            def traced(*args: Any, **kwargs: Any) -> Any:
                return call(nid, original, *args, **kwargs)
            return traced
        return make

    def owner_nid(self, fn: Any) -> int:
        """Span name for a callback: its owner's layer and qualname."""
        owner = getattr(fn, "__self__", None)
        func = getattr(fn, "__func__", fn)
        if owner is None and not hasattr(fn, "__code__"):
            owner = fn  # a callable object, e.g. a bus sink
        key = (type(owner) if owner is not None else None, func)
        nid = self._callbacks.get(key)
        if nid is None:
            if owner is not None:
                cls = type(owner)
                module = cls.__module__
                label = f"{cls.__name__}.{getattr(func, '__name__', '')}"
            else:
                module = getattr(func, "__module__", "") or ""
                label = getattr(func, "__qualname__", repr(func))
            layer = layer_of(module)
            nid = self._callbacks[key] = self.nid(
                f"{layer}:{label}", layer)
        return nid

    def callback(self, fn: Any) -> Any:
        """``fn`` wrapped so that each call records a span."""
        return functools.partial(self.call, self.owner_nid(fn), fn)

    # -- reduction -----------------------------------------------------
    def __len__(self) -> int:
        return len(self.start)

    def reduce(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``count``, total ``time`` and ``self`` time
        (span time minus the time of its direct children)."""
        import numpy as np

        n = len(self.start)
        start = np.frombuffer(self.start, dtype=np.float64, count=n)
        end = np.frombuffer(self.end, dtype=np.float64, count=n)
        parent = np.array(self.parent, dtype=np.int64)
        name_id = np.array(self.name_id, dtype=np.int64)
        duration = end - start
        children = np.zeros(n)
        nested = parent >= 0
        np.add.at(children, parent[nested], duration[nested])
        own = duration - children
        width = len(self.names)
        counts = np.bincount(name_id, minlength=width)
        totals = np.bincount(name_id, weights=duration, minlength=width)
        selfs = np.bincount(name_id, weights=own, minlength=width)
        return {name: {"layer": self.layers[i], "count": int(counts[i]),
                       "time": float(totals[i]),
                       "self": float(selfs[i])}
                for i, name in enumerate(self.names)}

    def durations(self, name: str) -> List[float]:
        """Durations of every span called ``name``, in open order."""
        import numpy as np

        nid = self._ids.get(name)
        if nid is None:
            return []
        n = len(self.start)
        mask = np.array(self.name_id, dtype=np.int64) == nid
        start = np.frombuffer(self.start, dtype=np.float64, count=n)
        end = np.frombuffer(self.end, dtype=np.float64, count=n)
        return [float(d) for d in (end - start)[mask]]

    def records(self) -> Iterator[Dict[str, Any]]:
        for i in range(len(self.start)):
            nid = self.name_id[i]
            yield {"run": self.run_id, "id": i, "name": self.names[nid],
                   "layer": self.layers[nid], "start": self.start[i],
                   "end": self.end[i], "parent": self.parent[i]}

    def write_jsonl(self, path: str) -> None:
        with open(path, "a", encoding="utf-8") as handle:
            for record in self.records():
                handle.write(json.dumps(record) + "\n")


class Tracer:
    """Installs every span point of :data:`TRACE_POINTS` plus engine
    callbacks and bus subscribers onto one :class:`SpanLog`."""

    def __init__(self, spans: SpanLog) -> None:
        self.spans = spans
        self.missing: List[str] = []

    def install(self, patches: Patches) -> None:
        spans = self.spans
        for module, path, layer, name in TRACE_POINTS:
            try:
                owner, attr = _resolve(module, path)
                if isinstance(owner, type) and attr not in owner.__dict__:
                    raise AttributeError(attr)
            except (ImportError, AttributeError):
                # A renamed entry point must not crash the benchmark;
                # the ledger lists it so the gap is visible.
                self.missing.append(f"{module}.{path}")
                continue
            patches.replace(owner, attr, spans.wrap(spans.nid(name,
                                                              layer)))
        from repro.obs.bus import EventBus
        wrapped: Dict[int, Tuple[Any, Any]] = {}

        def traced_subscriber(subscriber: Any) -> Any:
            entry = wrapped.get(id(subscriber))
            if entry is None:
                entry = wrapped[id(subscriber)] = (
                    subscriber, spans.callback(subscriber))
            return entry[1]

        def make_subscribe(original: Any) -> Any:
            def subscribe(bus: Any, pattern: str,
                          subscriber: Any) -> None:
                original(bus, pattern, traced_subscriber(subscriber))
            return subscribe

        def make_unsubscribe(original: Any) -> Any:
            def unsubscribe(bus: Any, subscriber: Any) -> None:
                entry = wrapped.get(id(subscriber))
                original(bus, entry[1] if entry else subscriber)
            return unsubscribe

        patches.replace(EventBus, "subscribe", make_subscribe)
        patches.replace(EventBus, "unsubscribe", make_unsubscribe)
