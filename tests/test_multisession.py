"""Multi-session campaigns: pool, batched links, fan-in, population.

Covers the campaign stack end to end: packet-pool recycling semantics,
batched bottleneck service, the fan-in topology under every queue
discipline, population metrics, the experiments-layer plumb-through
(cache records, executor fan-out, scenarios, CLI) and the
hypothesis-backed invariants — packet conservation across sessions,
per-(session, path) FIFO delivery, and bit-identical seeded reruns.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.campaign import MultiSessionCampaign
from repro.core.metrics import quantile
from repro.core.session import StreamingSession
from repro.experiments.campaign import run_campaign
from repro.experiments.configs import ALL_SETTINGS, Setting
from repro.experiments.parallel import (
    ReplicationExecutor,
    RunSpec,
    simulate_run,
)
from repro.experiments.runner import ScaleProfile, run_setting
from repro.experiments.scenarios import (
    ScenarioError,
    build_campaign,
    run_scenario,
    validate_scenario,
)
from repro.sim.engine import Simulator
from repro.sim.pool import PacketPool
from repro.sim.queueing import QUEUE_DISCIPLINES
from repro.sim.topology import BottleneckSpec, FanInTopology

SPEC = BottleneckSpec(bandwidth_bps=8e6, delay_s=0.01,
                      buffer_pkts=80)

TINY = ScaleProfile("tiny", runs=2, duration_s=10.0,
                    model_horizon_s=1000.0)


def small_campaign(**overrides):
    kwargs = dict(mu=20.0, duration_s=8.0, n_sessions=4,
                  bottleneck=SPEC, seed=11, warmup_s=5.0)
    kwargs.update(overrides)
    return MultiSessionCampaign(**kwargs)


# ---------------------------------------------------------------------
# Packet pool
# ---------------------------------------------------------------------
class TestPacketPool:
    def test_recycles_released_packets(self):
        pool = PacketPool()
        first = pool.acquire(src="a", dst="b", sport=1, dport=2,
                             size=100)
        pool.release(first)
        second = pool.acquire(src="c", dst="d", sport=3, dport=4,
                              size=200)
        assert second is first
        assert pool.recycled == 1
        assert second.src == "c" and second.size == 200

    def test_fresh_uid_per_acquire(self):
        pool = PacketPool()
        packet = pool.acquire(src="a", dst="b", sport=1, dport=2,
                              size=100)
        uid = packet.uid
        pool.release(packet)
        again = pool.acquire(src="a", dst="b", sport=1, dport=2,
                             size=100)
        assert again.uid != uid

    def test_double_release_raises(self):
        pool = PacketPool()
        packet = pool.acquire(src="a", dst="b", sport=1, dport=2,
                              size=100)
        pool.release(packet)
        with pytest.raises(RuntimeError):
            pool.release(packet)

    def test_release_clears_payload_and_flags(self):
        pool = PacketPool()
        packet = pool.acquire(src="a", dst="b", sport=1, dport=2,
                              size=40, flags=("ACK",),
                              payload=("data",))
        assert packet.is_ack
        pool.release(packet)
        clean = pool.acquire(src="a", dst="b", sport=1, dport=2,
                             size=40)
        assert clean.payload is None
        assert not clean.is_ack

    def test_prealloc_counts_as_allocated(self):
        pool = PacketPool(prealloc=16)
        assert pool.allocated == 16
        assert pool.free == 16


# ---------------------------------------------------------------------
# Batched link service
# ---------------------------------------------------------------------
class TestBatchedService:
    @staticmethod
    def _run_session(service_batch_via_pool=False, **session_kwargs):
        session = StreamingSession(
            mu=20, duration_s=10.0,
            paths=ALL_SETTINGS["2-2"].path_configs(),
            seed=5, **session_kwargs)
        if service_batch_via_pool:
            session.sim.pool = PacketPool()
        result = session.run()
        return session, result

    def test_pooled_session_delivers_everything(self):
        session, result = self._run_session(service_batch_via_pool=True)
        assert len(result.arrivals) == result.total_packets
        pool = session.sim.pool
        assert pool.acquired > 0
        # Conservation: whatever is not back in the free list is still
        # in flight (queued or scheduled) at the horizon — nothing
        # leaks, nothing is double-counted.
        assert pool.acquired - pool.released == \
            pool.allocated - pool.free
        # The run is long enough that recycling dominates allocation.
        assert pool.recycled > 100 * pool.allocated

    def test_pooled_matches_unpooled_arrivals(self):
        _, plain = self._run_session()
        _, pooled = self._run_session(service_batch_via_pool=True)
        assert plain.arrivals == pooled.arrivals
        assert plain.flow_stats == pooled.flow_stats

    def test_batch_service_conserves_and_orders(self):
        campaign = small_campaign(service_batch=6, use_pool=True)
        deliveries = []
        link_name = campaign.topology.bottleneck_fwd.name

        def sink(topic, time, values):
            if values[0] == link_name:
                deliveries.append((time, values[1].uid))
        sink.patterns = ("link.recv",)
        campaign.bus.attach(sink)
        result = campaign.run()
        # FIFO through the bottleneck: delivery times never decrease.
        times = [t for t, _ in deliveries]
        assert times == sorted(times)
        total = sum(s.total_packets for s in result.sessions)
        assert sum(s.received for s in result.sessions) == total

    def test_batch_matches_exact_counts(self):
        # Batching quantizes timing but must not create or lose
        # packets relative to exact per-packet service.
        exact = small_campaign(service_batch=1).run()
        batched = small_campaign(service_batch=8).run()
        assert sum(s.received for s in exact.sessions) == \
            sum(s.received for s in batched.sessions)

    def test_service_batch_validation(self):
        sim = Simulator(seed=1)
        with pytest.raises(ValueError):
            FanInTopology(sim, SPEC, n_sessions=1, service_batch=0)


# ---------------------------------------------------------------------
# Fan-in topology + campaign runs
# ---------------------------------------------------------------------
class TestCampaign:
    @pytest.mark.parametrize("discipline", QUEUE_DISCIPLINES)
    def test_every_discipline_completes(self, discipline):
        result = small_campaign(
            queue_discipline=discipline, n_sessions=3).run()
        assert result.queue_discipline == discipline
        for summary in result.sessions:
            assert summary.received == summary.total_packets

    def test_session_done_probe_fires_once_per_session(self):
        campaign = small_campaign(n_sessions=5)
        done = []

        def sink(topic, time, values):
            done.append(values)
        sink.patterns = ("campaign.session_done",)
        campaign.bus.attach(sink)
        campaign.run()
        assert len(done) == 5
        assert sorted(label for label, _, _ in done) == \
            sorted(a.label for a in campaign.assemblies)

    def test_churn_start_times_are_seeded(self):
        first = small_campaign(churn_rate=1.0, seed=3)
        second = small_campaign(churn_rate=1.0, seed=3)
        other = small_campaign(churn_rate=1.0, seed=4)
        assert first.start_times == second.start_times
        assert first.start_times != other.start_times
        assert all(t >= first.warmup_s for t in first.start_times)

    def test_population_quantiles(self):
        result = small_campaign(n_sessions=6).run()
        pop = result.population(0.0)
        fractions = result.late_fractions(0.0)
        assert pop["p50"] == quantile(fractions, 0.5)
        assert pop["min"] <= pop["p50"] <= pop["p95"] \
            <= pop["p99"] <= pop["max"]

    def test_session_labels_prefix_probe_paths(self):
        campaign = small_campaign(n_sessions=2)
        paths = set()

        def sink(topic, time, values):
            paths.add(values[0])
        sink.patterns = ("client.arrival",)
        campaign.bus.attach(sink)
        campaign.run()
        assert {"s0.path1", "s0.path2", "s1.path1",
                "s1.path2"} == paths

    def test_validation(self):
        with pytest.raises(ValueError):
            small_campaign(n_sessions=0)
        with pytest.raises(ValueError):
            small_campaign(churn_rate=-1.0)
        with pytest.raises(ValueError):
            small_campaign(queue_discipline="nope")


# ---------------------------------------------------------------------
# Experiments-layer plumb-through
# ---------------------------------------------------------------------
CAMPAIGN_SETTING = Setting("camp-test", (2, 2), mu=15.0,
                           queue_discipline="red", n_sessions=3,
                           churn_rate=0.4)


class TestExperiments:
    def test_simulate_run_campaign_record(self):
        spec = RunSpec(setting=CAMPAIGN_SETTING, duration_s=8.0,
                       scheme="dmp", seed=2, send_buffer_pkts=16,
                       taus=(2.0, 6.0))
        record = simulate_run(spec)
        assert set(record["sessions"]) == {"2.0", "6.0"}
        assert all(len(v) == 3 for v in record["sessions"].values())
        assert len(record["flow_stats"]) == 6  # 3 sessions x 2 paths
        # Population mean in taus matches the sessions list.
        for key, (mean_late, _) in record["taus"].items():
            per_session = record["sessions"][key]
            assert mean_late == pytest.approx(
                sum(per_session) / len(per_session))

    def test_cache_requires_sessions_coverage(self, tmp_path):
        from repro.experiments.cache import ResultCache
        cache = ResultCache(str(tmp_path))
        spec = RunSpec(setting=CAMPAIGN_SETTING, duration_s=5.0,
                       scheme="dmp", seed=1, send_buffer_pkts=16,
                       taus=(2.0,))
        from repro.obs.health import hist_of
        record = {"flow_stats": [], "taus": {"2.0": [0.1, 0.1]}}
        cache.put_run(spec, record)
        # Campaign spec without per-session data -> miss, not a hit.
        assert cache.get_run(spec) is None
        # Per-session lists alone are still a partial (pre-v9) record:
        # the QoE health rollup must cover the same taus too.
        record["sessions"] = {"2.0": [0.1, 0.2, 0.0]}
        cache.put_run(spec, record)
        assert cache.get_run(spec) is None
        record["health"] = {
            "rollup": {},
            "late_hists": {"2.0": hist_of([0.1, 0.2, 0.0]).to_dict()},
        }
        cache.put_run(spec, record)
        assert cache.get_run(spec)["sessions"]["2.0"] == \
            [0.1, 0.2, 0.0]

    def test_cache_treats_bad_late_hist_as_corrupt_miss(self, tmp_path):
        from repro import telemetry
        from repro.experiments.cache import ResultCache
        from repro.obs.health import hist_of
        cache = ResultCache(str(tmp_path))
        spec = RunSpec(setting=CAMPAIGN_SETTING, duration_s=5.0,
                       scheme="dmp", seed=1, send_buffer_pkts=16,
                       taus=(2.0,))
        late_hist = hist_of([0.1, 0.2, 0.0]).to_dict()
        record = {"flow_stats": [], "taus": {"2.0": [0.1, 0.1]},
                  "sessions": {"2.0": [0.1, 0.2, 0.0]},
                  "health": {"rollup": {},
                             "late_hists": {"2.0": dict(late_hist,
                                                        count=2)}}}
        cache.put_run(spec, record)
        with telemetry.session() as tel:
            assert cache.get_run(spec) is None
        key = cache.run_key(spec)
        assert tel.metrics.counter("cache.corrupt").values \
            == {f"run:{key[:12]}": 1}
        assert (cache.hits, cache.misses) == (0, 1)
        record["health"]["late_hists"]["2.0"] = late_hist
        cache.put_run(spec, record)
        assert cache.get_run(spec) is not None

    def test_run_setting_rejects_campaign_settings(self):
        with pytest.raises(ValueError, match="run_campaign"):
            run_setting(CAMPAIGN_SETTING, profile=TINY, cache=False)

    def test_run_campaign_rejects_single_session(self):
        with pytest.raises(ValueError, match="run_setting"):
            run_campaign(ALL_SETTINGS["2-2"], profile=TINY,
                         cache=False)

    def test_run_campaign_serial_parallel_identical(self):
        serial = run_campaign(CAMPAIGN_SETTING, taus=(2.0, 4.0),
                              profile=TINY, cache=False)
        parallel_exec = ReplicationExecutor(max_workers=2)
        parallel = run_campaign(CAMPAIGN_SETTING, taus=(2.0, 4.0),
                                profile=TINY, cache=False,
                                executor=parallel_exec)
        assert serial.per_run_sessions == parallel.per_run_sessions
        for mine, theirs in zip(serial.points, parallel.points):
            assert mine == theirs
        # The QoE health rollup merges in submit order: serial and
        # --workers 2 runs must agree byte for byte.
        import json
        assert json.dumps(serial.health, sort_keys=True) == \
            json.dumps(parallel.health, sort_keys=True)

    def test_run_campaign_uses_cache(self, tmp_path):
        from repro.experiments.cache import ResultCache
        cache = ResultCache(str(tmp_path))
        first = run_campaign(CAMPAIGN_SETTING, taus=(2.0,),
                             profile=TINY, cache=cache)
        assert cache.stores == TINY.runs
        again = run_campaign(CAMPAIGN_SETTING, taus=(2.0,),
                             profile=TINY, cache=cache)
        assert cache.hits == TINY.runs
        assert first.per_run_sessions == again.per_run_sessions


class TestScenarios:
    SCENARIO = {
        "mu": 15, "duration_s": 6, "seed": 4, "n_sessions": 3,
        "churn_rate": 0.5, "queue_discipline": "red",
        "taus": [2.0],
        "paths": [{"bandwidth_mbps": 8.0, "delay_ms": 10,
                   "buffer_pkts": 80}] * 2,
    }

    def test_validate_and_build(self):
        validate_scenario(self.SCENARIO)
        campaign = build_campaign(self.SCENARIO)
        assert campaign.n_sessions == 3
        assert campaign.queue_discipline == "red"

    def test_run_scenario_dispatches_to_campaign(self):
        summary = run_scenario(self.SCENARIO)
        assert summary["n_sessions"] == 3
        assert len(summary["sessions"]) == 3
        pop = summary["late_fraction"]["2"]
        assert {"mean", "p50", "p95", "p99",
                "per_session"} <= set(pop)
        json.dumps(summary)  # JSON-serialisable end to end

    def test_rejects_bad_campaign_scenarios(self):
        bad = dict(self.SCENARIO, n_sessions=0)
        with pytest.raises(ScenarioError):
            validate_scenario(bad)
        bad = dict(self.SCENARIO, shared_bottleneck=True)
        with pytest.raises(ScenarioError):
            validate_scenario(bad)
        with pytest.raises(ScenarioError):
            build_campaign(dict(self.SCENARIO, n_sessions=1))


class TestCli:
    def test_campaign_target(self, capsys):
        from repro.experiments.cli import main
        code = main(["campaign", "--sessions", "3", "--duration", "6",
                     "--seed", "2", "--queue-discipline", "red"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sessions=3" in out
        assert "campaign.session_done" in out

    def test_campaign_target_validation(self):
        from repro.experiments.cli import main
        with pytest.raises(SystemExit):
            main(["campaign", "--sessions", "0"])


# ---------------------------------------------------------------------
# Hypothesis properties
# ---------------------------------------------------------------------
@settings(max_examples=5, deadline=None)
@given(n_sessions=st.integers(min_value=1, max_value=4),
       seed=st.integers(min_value=0, max_value=999),
       churn=st.sampled_from([0.0, 0.8]))
def test_packet_conservation_across_sessions(n_sessions, seed, churn):
    """No session ever receives more (or other) packets than it
    generated, duplicates included, regardless of churn or N."""
    campaign = small_campaign(n_sessions=n_sessions, seed=seed,
                              churn_rate=churn, duration_s=5.0)
    result = campaign.run()
    for summary in result.sessions:
        numbers = [number for number, _ in summary.arrivals]
        assert len(numbers) == len(set(numbers))
        assert len(numbers) <= summary.total_packets
        assert all(0 <= n < summary.total_packets for n in numbers)


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=999))
def test_per_session_path_fifo(seed):
    """Each (session, path) delivers packet numbers in increasing
    order: TCP delivers in order and the streamer assigns per path in
    increasing number order, so any inversion is a wiring bug."""
    campaign = small_campaign(n_sessions=3, seed=seed,
                              duration_s=5.0)
    last_seen = {}

    def sink(topic, time, values):
        path, number = values
        assert number > last_seen.get(path, -1)
        last_seen[path] = number
    sink.patterns = ("client.arrival",)
    campaign.bus.attach(sink)
    campaign.run()
    assert last_seen  # the probe actually fired


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(min_value=0, max_value=999))
def test_seeded_churn_campaign_is_bit_identical(seed):
    spec = RunSpec(
        setting=Setting("camp-prop", (2, 2), mu=15.0, n_sessions=3,
                        churn_rate=0.6),
        duration_s=5.0, scheme="dmp", seed=seed,
        send_buffer_pkts=16, taus=(2.0, 4.0))
    assert simulate_run(spec) == simulate_run(spec)


# ---------------------------------------------------------------------
# Mean-field backend dispatch and guards
# ---------------------------------------------------------------------
class TestMeanfieldBackendDispatch:
    SETTING = Setting("mf-camp", (2, 2), mu=50.0, n_sessions=100,
                      backend="meanfield")
    PROFILE = ScaleProfile("tiny", runs=2, duration_s=20.0,
                           model_horizon_s=0.0)

    def test_run_campaign_routes_to_the_ode(self):
        run = run_campaign(self.SETTING, taus=(2.0, 6.0),
                           profile=self.PROFILE, cache=False)
        assert [pt.tau for pt in run.points] == [2.0, 6.0]
        for pt in run.points:
            assert 0.0 <= pt.mean <= 1.0
            # The limit object is deterministic and degenerate.
            assert pt.ci95 == 0.0
            assert pt.p50 == pt.p95 == pt.p99 == pt.worst == pt.mean
        assert run.per_run_sessions[2.0] == [[run.point(2.0).mean]]
        # Reruns are bit-identical: no RNG anywhere in the backend.
        again = run_campaign(self.SETTING, taus=(2.0, 6.0),
                             profile=self.PROFILE, cache=False)
        assert [pt.mean for pt in again.points] \
            == [pt.mean for pt in run.points]

    def test_meanfield_rejects_unsupported_axes(self):
        import dataclasses
        for bad in (
                dataclasses.replace(self.SETTING, churn_rate=0.5),
                dataclasses.replace(self.SETTING,
                                    queue_discipline="pie"),
                dataclasses.replace(self.SETTING, backend="ns2"),
        ):
            with pytest.raises(ValueError):
                run_campaign(bad, taus=(2.0,), profile=self.PROFILE,
                             cache=False)
        with pytest.raises(ValueError, match="DMP"):
            run_campaign(self.SETTING, taus=(2.0,),
                         profile=self.PROFILE, scheme="static",
                         cache=False)

    def test_run_setting_and_simulate_run_reject_meanfield(self):
        single = Setting("mf-single", (2, 2), mu=50.0,
                         backend="meanfield")
        with pytest.raises(ValueError, match="packet-sim only"):
            run_setting(single, taus=(2.0,), profile=self.PROFILE,
                        cache=False, run_model=False)
        spec = RunSpec(setting=self.SETTING, duration_s=5.0,
                       scheme="dmp", seed=1, send_buffer_pkts=16,
                       taus=(2.0,))
        with pytest.raises(ValueError, match="backend"):
            simulate_run(spec)
