"""Workload ``campaign_fanin``: 200 DMP sessions on one fan-in link.

Two paths per session, all crossing one 50 Mbps drop-tail bottleneck
(the ``bench_multisession`` spec: ~60 Mbps of video offered when every
session is live), seeded churn arrivals plus two FTP flows, exact
per-packet link service (the library default).  The flight recorder
(stall trigger) and then the health aggregator are attached; the body
runs the campaign and writes the rollup, the Prometheus exposition,
the terminal table, the HTML dashboard and every frozen recorder
window to the pass's directory.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List

from common import (Outcome, Ops, check_conservation, check_fraction,
                    check_non_increasing, digest, fail)
from repro.core.campaign import MultiSessionCampaign
from repro.obs import export
from repro.obs.health import HealthAggregator
from repro.obs.recorder import FlightRecorder, Trigger
from repro.obs.sinks import validate_jsonl
from repro.sim.topology import BottleneckSpec

NAME = "campaign_fanin"

N_SESSIONS = 200
PATHS = 2
MU = 25.0
VIDEO_S = 4.0
CHURN_PER_S = 50.0
WARMUP_S = 5.0
DRAIN_S = 10.0
N_FTP = 2
SPEC = BottleneckSpec(bandwidth_bps=50e6, delay_s=0.01, buffer_pkts=250)
#: Reference startup delay of the health rollup and the stall clock.
HEALTH_TAU = 2.0
TRIGGER = Trigger(kind="stall", threshold=0.5)
#: Startup delays the per-session late-fraction checks cover.
TAUS = (1.0, 2.0, 4.0, 8.0)


@dataclass
class State:
    campaign: MultiSessionCampaign
    recorder: FlightRecorder
    health: HealthAggregator
    outdir: str


def build(seed: int, workdir: str) -> State:
    campaign = MultiSessionCampaign(
        mu=MU, duration_s=VIDEO_S, n_sessions=N_SESSIONS,
        bottleneck=SPEC, paths_per_session=PATHS,
        queue_discipline="droptail", seed=seed,
        churn_rate=CHURN_PER_S, warmup_s=WARMUP_S, n_ftp=N_FTP)
    recorder = campaign.attach_recorder(triggers=(TRIGGER,))
    health = campaign.attach_health(tau=HEALTH_TAU)
    return State(campaign, recorder, health, workdir)


def _nodes(campaign: MultiSessionCampaign) -> List[Any]:
    topo = campaign.topology
    nodes = [topo.ingress_router, topo.egress_router,
             topo.bg_source_host, topo.bg_sink_host]
    for handles in topo.sessions:
        nodes.append(handles[0].server_if)
        nodes.extend(h.client_if for h in handles)
    return nodes


def body(state: State) -> Dict[str, Any]:
    """The measured body: run, then write every artifact."""
    started = time.process_time()
    result = state.campaign.run(drain_s=DRAIN_S)
    cpu = time.process_time() - started

    rollup = state.health.rollup()
    out = state.outdir
    exposition = export.prometheus_exposition(rollup)
    export.write_text(os.path.join(out, "rollup.json"),
                      json.dumps(rollup, indent=1) + "\n")
    export.write_text(os.path.join(out, "metrics.prom"), exposition)
    export.write_text(os.path.join(out, "health.txt"),
                      export.health_table(rollup))
    export.write_text(os.path.join(out, "dashboard.html"),
                      export.html_dashboard(rollup,
                                            title="campaign_fanin"))
    windows = state.recorder.dump(os.path.join(out, "windows"))
    return {"result": result, "rollup": rollup, "exposition": exposition,
            "windows": windows, "cpu": cpu}


def check(state: State, raw: Dict[str, Any]) -> Outcome:
    campaign = state.campaign
    result, rollup = raw["result"], raw["rollup"]
    ops: Ops = {f"session.{i}": None for i in range(N_SESSIONS)}
    ops["export"] = None
    index = {a.label: i for i, a in enumerate(campaign.assemblies)}
    per_tau = {tau: result.late_fractions(tau) for tau in TAUS}
    rows = {row["label"]: row for row in rollup["sessions"]}
    for i, assembly in enumerate(campaign.assemblies):
        op = f"session.{i}"
        check_conservation(ops, op, assembly)
        values = [per_tau[tau][i] for tau in TAUS]
        for value in values:
            check_fraction(ops, op, value)
        check_non_increasing(ops, op, TAUS, values)
        row = rows.get(assembly.label)
        expected = result.sessions[i].late_fraction(HEALTH_TAU)
        if row is None:
            fail(ops, op, "no rollup row")
        elif row["late_fraction"] != expected:
            fail(ops, op, f"rollup late_fraction {row['late_fraction']!r}"
                          f" != CampaignResult {expected!r}")
    for key, path in zip(sorted(state.recorder.frozen), raw["windows"]):
        op = f"session.{index[key]}" if key in index else "export"
        try:
            validate_jsonl(path)
        except ValueError as exc:
            fail(ops, op, f"recorder window {path}: {exc}")
    try:
        export.validate_exposition(raw["exposition"])
    except ValueError as exc:
        fail(ops, "export", f"exposition: {exc}")

    delivered = sum(node.delivered for node in _nodes(campaign))
    counts: Dict[str, float] = {
        "obs.recorder_windows": len(state.recorder.frozen),
        "obs.health_stalls": rollup["counters"]["stall_events"],
    }
    outputs = {
        "events": result.events_processed,
        "drop_fraction": result.bottleneck_drop_fraction,
        "delivered": delivered,
        "sessions": [[s.received] + [per_tau[tau][s.index]
                                     for tau in TAUS]
                     for s in result.sessions],
        "rollup_counters": rollup["counters"],
        "windows": [[key, event.kind, event.time]
                    for key, event in sorted(
                        state.recorder.frozen.items())],
    }
    return Outcome(work=delivered, work_cpu_s=raw["cpu"], warm_rerun_s=None,
                   digest=digest(outputs), ops=ops, counts=counts)


def deep_check(state: State, outcome: Outcome, registry: Any) -> None:
    """Counting-pass cross-check: the topology walk saw every node."""
    total = sum(node.delivered for node in registry["node"])
    if total != outcome.work:
        fail(outcome.ops, "export",
             f"registry counts {total} delivered packets, topology "
             f"walk {outcome.work}")
