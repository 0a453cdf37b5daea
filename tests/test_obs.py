"""Tests for the instrumentation bus, its sinks and the probe points.

The heart of the suite is the compatibility contract: a
:class:`~repro.obs.TraceSink` attached to a session must reproduce the
pre-bus ``trace=`` plumbing bit-for-bit, so the Section-6 estimation
pipeline is provably unchanged by the refactor.  The golden digests and
flow estimates below were captured on the pre-refactor code (commit
0a7aad2) for Setting 2-2, seed 220, 30 s of video.
"""

import hashlib
import io
import json

import pytest

from repro import BottleneckSpec, PathConfig, StreamingSession
from repro.experiments.measure import estimate_flow
from repro.obs import (
    SCHEMA,
    EventBus,
    JsonlSink,
    RecordingSink,
    TimeSeriesSampler,
    TraceSink,
    validate_jsonl,
)
from repro.sim.engine import Simulator

# ---------------------------------------------------------------------
# Goldens captured on the pre-refactor code (see module docstring).
# ---------------------------------------------------------------------
GOLDEN_SETTING = "2-2"
GOLDEN_SEED = 220
GOLDEN_DURATION_S = 30.0
GOLDEN_N_RECORDS = 314553
# sha256 over the records with packet uids renumbered by first
# appearance (raw uids come from a process-global counter, so the
# digest must not depend on what ran earlier in the process).
GOLDEN_DIGEST = \
    "fe2018a823e14f1ea8085df6c2934b3d85e55d015e02f6cd9af0619d7d359ecb"
GOLDEN_FLOW0 = dict(loss_rate=0.01738122827346466,
                    retransmission_rate=0.023174971031286212,
                    mean_rtt=0.19176377514583512,
                    timeout_ratio=1.8617409918179146,
                    segments=863)
GOLDEN_FLOW1 = dict(loss_rate=0.02180232558139535,
                    retransmission_rate=0.04505813953488372,
                    mean_rtt=0.22678963348465467,
                    timeout_ratio=2.731427578683629,
                    segments=688)


def tiny_session(seed=5, **kwargs):
    spec = BottleneckSpec(bandwidth_bps=8e5, delay_s=0.01,
                          buffer_pkts=15)
    paths = [PathConfig(bottleneck=spec, n_ftp=1, n_http=2)] * 2
    defaults = dict(mu=30, duration_s=8.0, paths=paths, seed=seed,
                    warmup_s=5.0)
    defaults.update(kwargs)
    return StreamingSession(**defaults)


def video_flow_key(session, idx):
    sender = session.connections[idx].sender
    return (sender.node.name, sender.port, sender.dst_name,
            sender.dst_port)


# ---------------------------------------------------------------------
# EventBus unit behaviour
# ---------------------------------------------------------------------
def test_unknown_topic_rejected():
    bus = EventBus()
    with pytest.raises(ValueError, match="unknown probe topic"):
        bus.probe("no.such.topic")


def test_probe_shared_per_topic():
    bus = EventBus()
    assert bus.probe("link.drop") is bus.probe("link.drop")


def test_probe_falsy_until_subscribed():
    bus = EventBus()
    probe = bus.probe("engine.event")
    assert not probe
    bus.subscribe("engine.event", lambda *a: None)
    assert probe


def test_pattern_matching():
    bus = EventBus()
    seen = []
    bus.subscribe("link.*", lambda topic, t, v: seen.append(topic))
    bus.probe("link.drop").emit(0.0, "l", None, 0)
    bus.probe("tcp.cwnd")  # not matched by link.*
    assert not bus.probe("tcp.cwnd")
    assert seen == ["link.drop"]


def test_star_pattern_applies_to_late_probes():
    bus = EventBus()
    sink = RecordingSink(patterns=("*",))
    bus.attach(sink)
    probe = bus.probe("client.buffer")  # declared after subscribing
    probe.emit(1.5, 7)
    assert sink.events == [("client.buffer", 1.5, (7,))]


def test_unsubscribe_and_quiet():
    bus = EventBus()
    sink = RecordingSink()
    bus.attach(sink)
    assert not bus.quiet
    bus.detach(sink)
    assert bus.quiet
    assert not bus.probe("link.send")


def test_schema_fields_are_tuples_of_names():
    for topic, fields in SCHEMA.items():
        assert isinstance(fields, tuple) and fields, topic
        assert all(isinstance(f, str) for f in fields), topic


# ---------------------------------------------------------------------
# Zero-subscriber contract
# ---------------------------------------------------------------------
def test_unobserved_run_emits_nothing():
    session = tiny_session()
    session.run(drain_s=5.0)
    assert session.bus.quiet
    assert all(count == 0
               for count in session.bus.emissions().values())


# ---------------------------------------------------------------------
# Determinism and ordering
# ---------------------------------------------------------------------
def test_event_stream_deterministic_for_fixed_seed():
    # Packet uids come from a process-global counter, so they differ
    # between in-process runs; renumber them by first appearance and
    # require everything else to be bit-identical.
    def normalised(stream):
        remap = {}
        out = []
        for line in stream.splitlines():
            record = json.loads(line)
            packet = record.get("packet")
            if isinstance(packet, dict) and "uid" in packet:
                packet["uid"] = remap.setdefault(
                    packet["uid"], len(remap))
            out.append(json.dumps(record, sort_keys=True))
        return out

    streams = []
    for _ in range(2):
        session = tiny_session(seed=12)
        buffer = io.StringIO()
        session.attach_jsonl(buffer)
        session.run(drain_s=5.0)
        streams.append(buffer.getvalue())
    assert normalised(streams[0]) == normalised(streams[1])
    assert streams[0].count("\n") > 1000


def test_event_times_monotone_per_run():
    session = tiny_session(seed=12)
    sink = RecordingSink()
    session.bus.attach(sink)
    session.run(drain_s=5.0)
    times = [t for _topic, t, _v in sink.events]
    assert times == sorted(times)


# ---------------------------------------------------------------------
# PacketTrace compatibility (bit-identity with the pre-bus plumbing)
# ---------------------------------------------------------------------
def test_trace_sink_bit_identical_to_pre_refactor_goldens():
    from repro.experiments.configs import ALL_SETTINGS

    setting = ALL_SETTINGS[GOLDEN_SETTING]
    session = StreamingSession(
        mu=setting.mu, duration_s=GOLDEN_DURATION_S,
        paths=setting.path_configs(),
        shared_bottleneck=setting.shared_bottleneck, seed=GOLDEN_SEED)
    trace = session.attach_packet_trace()
    session.run()

    assert len(trace.records) == GOLDEN_N_RECORDS
    remap = {}
    digest = hashlib.sha256()
    for rec in trace.records:
        uid = remap.setdefault(rec.uid, len(remap))
        digest.update(repr(
            (rec.time, rec.event, rec.link, uid, rec.src, rec.dst,
             rec.sport, rec.dport, rec.seq, rec.ack, rec.size,
             rec.is_ack, rec.is_retransmit)).encode())
    assert digest.hexdigest() == GOLDEN_DIGEST

    for idx, golden in ((0, GOLDEN_FLOW0), (1, GOLDEN_FLOW1)):
        estimate = estimate_flow(trace, video_flow_key(session, idx))
        assert estimate.loss_rate == golden["loss_rate"]
        assert estimate.retransmission_rate == \
            golden["retransmission_rate"]
        assert estimate.mean_rtt == golden["mean_rtt"]
        assert estimate.timeout_ratio == golden["timeout_ratio"]
        assert estimate.segments == golden["segments"]


def test_trace_sink_link_filter():
    session = tiny_session(seed=3)
    unfiltered = TraceSink()
    session.bus.attach(unfiltered)
    filtered = session.attach_packet_trace()  # bottleneck links only
    session.run(drain_s=5.0)
    assert len(unfiltered.trace.records) > len(filtered.records)
    bottleneck_names = {link.name
                        for link in session._bottleneck_links}
    assert {rec.link for rec in filtered.records} <= bottleneck_names
    assert {rec.link for rec in unfiltered.trace.records} \
        > bottleneck_names


# ---------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------
def test_counters_match_bus_emissions():
    session = tiny_session(seed=7)
    counters = session.attach_counters()
    session.run(drain_s=5.0)
    emissions = {topic: count
                 for topic, count in session.bus.emissions().items()
                 if count}
    assert counters.as_dict() == emissions
    assert counters.counts["source.generate"] == \
        session.source.total_packets
    assert counters.counts["client.arrival"] == \
        session.client.received
    assert "tcp.cwnd" in counters.counts
    assert counters.summary()  # formats without raising


def test_jsonl_sink_schema_valid(tmp_path):
    path = str(tmp_path / "events.jsonl")
    session = tiny_session(seed=7)
    sink = session.attach_jsonl(path)
    session.run(drain_s=5.0)
    sink.close()
    count = validate_jsonl(path)
    assert count == sink.lines_written > 1000


def test_validate_jsonl_rejects_bad_records(tmp_path):
    path = str(tmp_path / "bad.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(
            {"topic": "bogus.topic", "t": 1.0}) + "\n")
    with pytest.raises(ValueError, match="unknown topic"):
        validate_jsonl(path)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(
            {"topic": "client.buffer", "t": 1.0}) + "\n")
    with pytest.raises(ValueError, match="fields"):
        validate_jsonl(path)


def test_validate_jsonl_reports_physical_line_numbers(tmp_path):
    path = str(tmp_path / "bad.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n\n" + json.dumps(
            {"topic": "bogus.topic", "t": 1.0}) + "\n")
    with pytest.raises(ValueError, match="line 3: unknown topic"):
        validate_jsonl(path)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"topic": "engine.compact", "t": 1.0,
                                 "removed": 3, "pending": 9})
                     + "\n\n{not json\n")
    with pytest.raises(ValueError, match="bad.jsonl:3: bad JSON"):
        validate_jsonl(path)


def test_jsonl_sink_pattern_restriction():
    session = tiny_session(seed=7)
    buffer = io.StringIO()
    sink = JsonlSink(buffer, patterns=("client.*",))
    session.bus.attach(sink)
    session.run(drain_s=5.0)
    topics = {json.loads(line)["topic"]
              for line in buffer.getvalue().splitlines() if line}
    assert topics
    assert all(topic.startswith("client.") for topic in topics)


# ---------------------------------------------------------------------
# Time-series sampler
# ---------------------------------------------------------------------
def test_timeseries_sampler_collects_curves():
    session = tiny_session(seed=7)
    sampler = session.attach_timeseries(interval_s=1.0)
    session.run(drain_s=5.0)
    names = set(sampler.series)
    assert {"cwnd.video1", "cwnd.video2",
            "server_queue.depth", "client.received"} <= names
    for points in sampler.series.values():
        assert len(points) == sampler.samples_taken
        times = [t for t, _v in points]
        assert times == sorted(times)
    handle = io.StringIO()
    rows = sampler.to_csv(handle)
    lines = handle.getvalue().splitlines()
    assert lines[0] == "series,t,value"
    assert rows == len(lines) - 1 \
        == sampler.samples_taken * len(sampler.series)


def test_sampler_until_bounds_sampling():
    sim = Simulator(seed=1)
    sampler = TimeSeriesSampler(sim, interval_s=0.5, until=3.0)
    ticks = [0]
    sampler.add_series("ticks", lambda: ticks[0])
    sim.run(until=100.0)
    assert sim.now == 100.0
    assert sampler.samples_taken == 7  # 0.0, 0.5, ..., 3.0
    assert sim.pending_events == 0  # did not keep the sim alive


def test_sampler_validates_interval():
    with pytest.raises(ValueError):
        TimeSeriesSampler(Simulator(), interval_s=0.0)


# ---------------------------------------------------------------------
# Engine: lazy cancellation + heap compaction
# ---------------------------------------------------------------------
def test_cancelled_events_never_fire_and_pending_is_net():
    sim = Simulator()
    fired = []
    events = [sim.at(float(i), fired.append, i) for i in range(10)]
    for event in events[::2]:
        event.cancel()
    assert sim.pending_events == 5
    sim.run()
    assert fired == [1, 3, 5, 7, 9]
    assert sim.pending_events == 0


def test_cancel_idempotent():
    sim = Simulator()
    event = sim.at(1.0, lambda: None)
    event.cancel()
    event.cancel()
    assert sim.pending_events == 0


def test_heap_compaction_triggers_past_threshold():
    sim = Simulator()
    recording = RecordingSink(patterns=("engine.compact",))
    sim.bus.attach(recording)
    events = [sim.at(float(i), lambda: None) for i in range(100)]
    for event in events[:60]:
        event.cancel()
    # The sweep fires at the 51st cancellation (51 * 2 > 100): those 51
    # entries are physically removed; the 9 cancels that follow stay
    # lazily deleted because the calendar is now under the size floor.
    assert len(sim._heap) == 49
    assert sim.pending_events == 40
    assert len(recording.events) == 1
    _topic, _t, (removed, pending) = recording.events[0]
    assert removed == 51
    assert pending == 49
    sim.run()
    assert sim.events_processed == 40


def test_no_compaction_below_min_size():
    sim = Simulator()
    events = [sim.at(float(i), lambda: None) for i in range(20)]
    for event in events[:15]:
        event.cancel()
    assert len(sim._heap) == 20  # lazy deletion only
    assert sim.pending_events == 5
    sim.run()
    assert sim.events_processed == 5


def test_compaction_preserves_fire_order():
    sim = Simulator()
    fired = []
    events = [sim.at(float(i), fired.append, i) for i in range(200)]
    for event in events:
        if event.args[0] % 3:
            event.cancel()
    sim.run()
    assert fired == [i for i in range(200) if i % 3 == 0]


def test_step_skips_cancelled():
    sim = Simulator()
    fired = []
    first = sim.at(1.0, fired.append, "a")
    sim.at(2.0, fired.append, "b")
    first.cancel()
    assert sim.step() is True
    assert fired == ["b"]
    assert sim.step() is False


# ---------------------------------------------------------------------
# Session error paths + experiments plumbing
# ---------------------------------------------------------------------
def test_shared_bottleneck_mismatched_specs_rejected():
    paths = [
        PathConfig(bottleneck=BottleneckSpec(
            bandwidth_bps=1e6, delay_s=0.01, buffer_pkts=10)),
        PathConfig(bottleneck=BottleneckSpec(
            bandwidth_bps=2e6, delay_s=0.02, buffer_pkts=20)),
    ]
    with pytest.raises(ValueError, match="one common spec"):
        StreamingSession(mu=30, duration_s=5.0, paths=paths,
                         shared_bottleneck=True, seed=1)


def test_cache_counters_records(tmp_path):
    from repro.experiments.cache import ResultCache
    from repro.experiments.configs import ALL_SETTINGS
    from repro.experiments.parallel import RunSpec

    cache = ResultCache(str(tmp_path))
    base = dict(setting=ALL_SETTINGS["2-2"], duration_s=5.0,
                scheme="dmp", seed=1, send_buffer_pkts=16,
                taus=(4.0,))
    plain = RunSpec(**base)
    instrumented = RunSpec(**base, counters=True)
    record = {"flow_stats": [{}], "taus": {"4.0": [0.1, 0.1]}}

    cache.put_run(plain, record)
    assert cache.get_run(plain) is not None
    # A counter-less record must not satisfy an instrumented request.
    assert cache.get_run(instrumented) is None
    cache.put_run(instrumented,
                  dict(record, counters={"link.send": 42}))
    hit = cache.get_run(instrumented)
    assert hit is not None and hit["counters"] == {"link.send": 42}
    # ... and the upgraded record still serves plain requests with the
    # counters preserved through a counter-less re-store.
    cache.put_run(plain, record)
    assert cache.get_run(instrumented)["counters"] == \
        {"link.send": 42}


def test_counters_survive_simulate_run():
    from repro.experiments.configs import ALL_SETTINGS
    from repro.experiments.parallel import RunSpec, simulate_run

    spec = RunSpec(setting=ALL_SETTINGS["2-2"], duration_s=5.0,
                   scheme="dmp", seed=1, send_buffer_pkts=16,
                   taus=(4.0,), counters=True)
    record = simulate_run(spec)
    assert isinstance(record["counters"], dict)
    assert record["counters"]["source.generate"] == 250  # 5 s * mu=50
    plain = RunSpec(setting=ALL_SETTINGS["2-2"], duration_s=5.0,
                    scheme="dmp", seed=1, send_buffer_pkts=16,
                    taus=(4.0,))
    assert "counters" not in simulate_run(plain)
