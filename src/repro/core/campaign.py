"""Multi-session campaigns: N concurrent DMP sessions, one bottleneck.

A :class:`MultiSessionCampaign` is the population-scale counterpart of
:class:`~repro.core.session.StreamingSession`: one
:class:`~repro.sim.engine.Simulator` hosts N
:class:`~repro.core.assembly.SessionAssembly` stacks over a shared
:class:`~repro.sim.topology.FanInTopology` bottleneck, so the sessions
compete with each other (and optional FTP/HTTP background load) the
way hundreds of viewers behind one provider link would.

Session start times come from one of two seeded processes:

* *staggered* (``churn_rate = 0``): session ``i`` starts at
  ``warmup_s + i * stagger_s`` — deterministic, used by benchmarks;
* *churn* (``churn_rate > 0``): session inter-arrival times are
  exponential with rate ``churn_rate`` per second, drawn from
  ``sim.rng`` so a seeded campaign replays bit-identically.

Results aggregate per-session :class:`SessionSummary` records into
population metrics — the late-fraction distribution across sessions
and its p50/p95/p99 — rather than a single flow-level number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Callable, Dict, List, Optional, Sequence,
                    Tuple)

from repro.core.assembly import SessionAssembly
from repro.core.metrics import late_fraction, quantile
from repro.obs.bus import EventBus
from repro.obs.health import HealthAggregator, LogHistogram, hist_of
from repro.obs.recorder import FlightRecorder, Trigger
from repro.obs.sinks import CountersSink, JsonlSink
from repro.sim.engine import Simulator
from repro.sim.pool import PacketPool
from repro.sim.queueing import QUEUE_DISCIPLINES
from repro.sim.topology import BottleneckSpec, FanInTopology
from repro.traffic.ftp import FtpFlow
from repro.traffic.http import HttpFlow

#: Population percentiles reported by :meth:`CampaignResult.population`.
POPULATION_QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)

#: From this session count up, :func:`population_quantiles` switches
#: from the exact list-based quantile (sorts all fractions) to the
#: mergeable :class:`~repro.obs.health.LogHistogram` — the same
#: representation campaign rollups merge across workers, with relative
#: quantile error bounded by the bucket width (1/64).
HISTOGRAM_THRESHOLD = 64


def population_quantiles(
        fractions: Sequence[float],
        hist: Optional[Callable[[], LogHistogram]] = None) \
        -> Dict[str, float]:
    """``p50``/``p95``/``p99`` of per-session late fractions.

    Below :data:`HISTOGRAM_THRESHOLD` values they come from the exact
    list-based :func:`~repro.core.metrics.quantile`; from there up from
    the log histogram ``hist()`` returns (default: ``hist_of``
    ``fractions``) — pass the merged per-worker histograms so a single
    big run and a merged multi-worker run agree exactly.
    """
    if len(fractions) < HISTOGRAM_THRESHOLD:
        return {f"p{int(q * 100)}": quantile(fractions, q)
                for q in POPULATION_QUANTILES}
    built = hist() if hist is not None else hist_of(fractions)
    return {f"p{int(q * 100)}": built.quantile(q)
            for q in POPULATION_QUANTILES}


@dataclass
class SessionSummary:
    """Everything measured from one session of a campaign run."""

    index: int
    label: str
    start_at: float
    mu: float
    total_packets: int
    received: int
    arrivals: List[Tuple[int, float]]
    flow_stats: List[Dict[str, Any]]

    def late_fraction(self, tau: float) -> float:
        """This session's late fraction at startup delay ``tau``."""
        return late_fraction(self.arrivals, self.mu, tau,
                             total_packets=self.total_packets)


@dataclass
class CampaignResult:
    """Population-level view of one campaign run."""

    n_sessions: int
    mu: float
    duration_s: float
    scheme: str
    queue_discipline: str
    sessions: List[SessionSummary]
    bottleneck_drop_fraction: float
    events_processed: int

    def late_fractions(self, tau: float) -> List[float]:
        """Per-session late fractions at ``tau``, in session order."""
        return [s.late_fraction(tau) for s in self.sessions]

    def late_hist(self, tau: float) -> LogHistogram:
        """Mergeable histogram of per-session late fractions."""
        return hist_of(self.late_fractions(tau))

    def population(self, tau: float) -> Dict[str, float]:
        """Distribution summary of per-session late fractions: mean,
        min, max and the :func:`population_quantiles`."""
        fractions = self.late_fractions(tau)
        summary = {
            "mean": sum(fractions) / len(fractions),
            "min": min(fractions),
            "max": max(fractions),
        }
        summary.update(population_quantiles(fractions))
        return summary


class MultiSessionCampaign:
    """Build and run N concurrent streaming sessions on one topology."""

    def __init__(self, mu: float, duration_s: float, n_sessions: int,
                 bottleneck: BottleneckSpec,
                 paths_per_session: int = 2,
                 scheme: str = "dmp",
                 queue_discipline: str = "droptail",
                 seed: Optional[int] = None,
                 churn_rate: float = 0.0,
                 stagger_s: float = 1.0,
                 warmup_s: float = 20.0,
                 n_ftp: int = 0, n_http: int = 0,
                 segment_bytes: int = 1500,
                 send_buffer_pkts: int = 16,
                 tcp_variant: str = "reno",
                 client_buffer_pkts: Optional[int] = None,
                 client_tau: float = 10.0,
                 use_pool: bool = True,
                 service_batch: int = 1) -> None:
        if n_sessions < 1:
            raise ValueError("need at least one session")
        if churn_rate < 0:
            raise ValueError(f"negative churn rate: {churn_rate}")
        if queue_discipline not in QUEUE_DISCIPLINES:
            raise ValueError(
                f"unknown queue discipline: {queue_discipline} "
                f"(choose from {list(QUEUE_DISCIPLINES)})")
        self.mu = mu
        self.duration_s = duration_s
        self.n_sessions = n_sessions
        self.scheme = scheme
        self.queue_discipline = queue_discipline
        self.churn_rate = churn_rate
        self.warmup_s = warmup_s
        self.sim = Simulator(seed=seed)
        # Packet recycling is safe with every bundled sink (they copy
        # fields at emission time); only a RecordingSink retaining raw
        # link.* payload tuples would observe recycled packets, and
        # campaigns attach none.  ``use_pool=False`` restores plain
        # allocation for such custom sinks.
        if use_pool:
            self.sim.pool = PacketPool(
                prealloc=64 * n_sessions,
                scratch=max(64, service_batch))

        self.topology = FanInTopology(
            self.sim, bottleneck, n_sessions=n_sessions,
            paths_per_session=paths_per_session,
            queue_discipline=queue_discipline,
            service_batch=service_batch)

        # --- session start times (seeded; before any other RNG use) --
        self.start_times: List[float] = []
        if churn_rate > 0.0:
            at = warmup_s
            for _ in range(n_sessions):
                at += self.sim.rng.expovariate(churn_rate)
                self.start_times.append(at)
        else:
            self.start_times = [warmup_s + i * stagger_s
                                for i in range(n_sessions)]

        # --- shared background load ----------------------------------
        self.background: List[object] = []
        bg = self.topology
        for i in range(n_ftp):
            start = self.sim.rng.uniform(0.0, warmup_s / 2.0)
            self.background.append(FtpFlow(
                self.sim, bg.bg_source_host, bg.bg_sink_host,
                segment_bytes=segment_bytes, start_at=start,
                name=f"ftp.{i}"))
        for i in range(n_http):
            start = self.sim.rng.uniform(0.0, warmup_s / 2.0)
            self.background.append(HttpFlow(
                self.sim, bg.bg_source_host, bg.bg_sink_host,
                segment_bytes=segment_bytes, start_at=start,
                name=f"http.{i}"))

        # --- per-session endpoint stacks -----------------------------
        self._p_session_done = self.sim.bus.probe("campaign.session_done")
        self.assemblies: List[SessionAssembly] = []
        for i, handles in enumerate(self.topology.sessions):
            assembly = SessionAssembly(
                self.sim, handles, mu=mu, duration_s=duration_s,
                scheme=scheme, segment_bytes=segment_bytes,
                send_buffer_pkts=send_buffer_pkts,
                start_at=self.start_times[i],
                tcp_variant=tcp_variant,
                client_buffer_pkts=client_buffer_pkts,
                client_tau=client_tau, label=f"s{i}.")
            self.assemblies.append(assembly)
            self.sim.at(assembly.end_at, self._on_session_done, i)

    # ------------------------------------------------------------------
    @property
    def bus(self) -> EventBus:
        """The shared simulator's instrumentation bus."""
        return self.sim.bus

    def attach_counters(self) -> CountersSink:
        """Count every probe emission, keyed by topic."""
        sink = CountersSink()
        self.bus.attach(sink)
        return sink

    def attach_jsonl(self, target: Any,
                     patterns: Sequence[str] = ("*",)) -> JsonlSink:
        """Stream every matching probe event to ``target`` as JSONL."""
        sink = JsonlSink(target, patterns=patterns)
        self.bus.attach(sink)
        return sink

    def attach_recorder(self, triggers: Sequence[Trigger] = (),
                        ring_size: int = 256) -> FlightRecorder:
        """Arm a per-session flight recorder (see
        :mod:`repro.obs.recorder`).

        Call this *before* :meth:`attach_health` — subscribers run in
        subscribe order, so the recorder's ring then already holds the
        arrival that caused a stall when the aggregator's nested
        ``health.stall`` emission fires the stall trigger.
        """
        recorder = FlightRecorder(
            [a.label for a in self.assemblies],
            triggers=triggers, ring_size=ring_size)
        return recorder.attach(self.bus)

    def attach_health(self, tau: float = 6.0,
                      queue_sample_s: float = 0.25,
                      flow_sample_s: float = 1.0) -> HealthAggregator:
        """Attach streaming per-session QoE rollups (see
        :mod:`repro.obs.health`).

        The bottleneck queue occupancy (every ``queue_sample_s``) and
        each live session's sender state (cwnd and send-buffer
        occupancy, every ``flow_sample_s``) are polled on the
        simulated clock until the last session's video ends; ``tau``
        is the reference startup delay the rollup's late fraction and
        stall clock use.
        """
        queue = self.topology.bottleneck_fwd.queue

        def sampler(sender: Any) -> Callable[[], Tuple[float, float]]:
            return lambda: (sender.cwnd, float(sender.buffered))

        aggregator = HealthAggregator(
            self.bus, [a.health_meta() for a in self.assemblies],
            tau=tau, sim=self.sim,
            queue_len=lambda: len(queue),
            queue_sample_s=queue_sample_s,
            sample_until=max(a.end_at for a in self.assemblies),
            flow_states=[(a.label, sampler(conn.sender))
                         for a in self.assemblies
                         for conn in a.connections],
            flow_sample_s=flow_sample_s)
        return aggregator.attach(self.bus)

    def _on_session_done(self, index: int) -> None:
        """Fires at the instant session ``index``'s video ends."""
        if self._p_session_done.active:
            assembly = self.assemblies[index]
            self._p_session_done.emit(
                self.sim.now, assembly.label,
                assembly.client.received,
                assembly.source.total_packets)

    # ------------------------------------------------------------------
    def run(self, drain_s: float = 60.0) -> CampaignResult:
        """Run every session to completion plus ``drain_s`` seconds."""
        horizon = max(a.end_at for a in self.assemblies) + drain_s
        self.sim.run(until=horizon)

        summaries = [
            SessionSummary(
                index=i, label=a.label, start_at=a.start_at,
                mu=a.mu, total_packets=a.source.total_packets,
                received=a.client.received,
                arrivals=a.arrivals_relative(),
                flow_stats=a.flow_stats())
            for i, a in enumerate(self.assemblies)]
        return CampaignResult(
            n_sessions=self.n_sessions,
            mu=self.mu,
            duration_s=self.duration_s,
            scheme=self.scheme,
            queue_discipline=self.queue_discipline,
            sessions=summaries,
            bottleneck_drop_fraction=(
                self.topology.bottleneck_fwd.queue.drop_fraction),
            events_processed=self.sim.events_processed)
