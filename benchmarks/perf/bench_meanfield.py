"""Mean-field backend benchmark: solve time vs the packet simulator.

The mean-field backend's deliverable is an N-independent solve: the
packet simulator's cost grows linearly in the number of sessions
(events scale with N), while the population ODE integrates intensive
per-session state whose cost depends only on the horizon and ``dt``.
This benchmark measures both sides where both are affordable
(N = 10/100/1000, the validation anchors of
``tests/test_meanfield_agreement.py``), then extends the mean-field
side to N = 10^4 and 10^6 and times a full Fig 8-style (ratio, tau)
late-fraction grid at N = 10^6.

The ``grid_batch`` section times the same 10^6-session grid two ways
in one process: ratio by ratio (one single-lane solve each) and as one
lockstep batch (every ratio a lane of one Euler pass), and records
whether both gave identical rows.

Three machine-free within-report gates ride on the output
(``tools/perf_track``):

* ``meanfield.scaling_n1e6_vs_n10`` — the N=10^6 solve must stay
  within 10x of the N=10 solve (N-independence in wall time);
* ``meanfield.speedup_vs_extrapolated`` — the N=10^6 grid must solve
  at least 100x faster than the packet-sim cost extrapolated linearly
  from the measured N=1000 point;
* ``meanfield.grid_batch_speedup`` — the batched grid must be at least
  1.5x faster than ratio by ratio, with identical rows.
"""

from __future__ import annotations

import time

from repro.core.campaign import MultiSessionCampaign
from repro.model.meanfield import (
    MeanFieldSpec,
    late_fraction_grid,
    solve_meanfield,
)
from repro.sim.topology import BottleneckSpec

#: The agreement-suite operating envelope (congested, shallow buffer).
MU = 10.0
PATHS = 2
RATIO = 0.75
DELAY_S = 0.04
BUFFER_PER_SESSION = 2.0
BASE_RTT_S = 2.0 * (2.0 * 0.010 + DELAY_S)
SEED = 1
WARMUP_S = 5.0
DRAIN_S = 10.0
SERVICE_BATCH = 8
TAU = 4.0

MEASURED_NS = (10, 100, 1000)
MEANFIELD_ONLY_NS = (10_000, 1_000_000)
GRID_N = 1_000_000
GRID_RATIOS = (0.5, 0.75, 1.0, 1.25, 1.6)
GRID_TAUS = (2.0, 4.0, 8.0, 16.0)

#: Each grid_batch way is timed this many times, alternating; the
#: best time counts.
GRID_REPEATS = 3

MODES = {
    "quick": {"duration_s": 8.0},
    "full": {"duration_s": 20.0},
}


def _spec(n_sessions: int, duration_s: float) -> MeanFieldSpec:
    return MeanFieldSpec(
        n_sessions=n_sessions, mu=MU,
        bandwidth_pps=RATIO * MU * n_sessions,
        buffer_pkts=BUFFER_PER_SESSION * n_sessions,
        queue_discipline="droptail", paths_per_session=PATHS,
        base_rtt_s=BASE_RTT_S, duration_s=duration_s,
        warmup_s=WARMUP_S, drain_s=DRAIN_S)


def _packet_seconds(n_sessions: int, duration_s: float) -> dict:
    bandwidth_pps = RATIO * MU * n_sessions
    campaign = MultiSessionCampaign(
        mu=MU, duration_s=duration_s, n_sessions=n_sessions,
        bottleneck=BottleneckSpec(
            bandwidth_bps=bandwidth_pps * 1500 * 8, delay_s=DELAY_S,
            buffer_pkts=int(round(BUFFER_PER_SESSION * n_sessions))),
        paths_per_session=PATHS, queue_discipline="droptail",
        seed=SEED, stagger_s=5.0 / n_sessions, warmup_s=WARMUP_S,
        service_batch=SERVICE_BATCH)
    started = time.perf_counter()
    result = campaign.run(drain_s=DRAIN_S)
    elapsed = time.perf_counter() - started
    fractions = result.late_fractions(TAU)
    return {
        "seconds": elapsed,
        "events": result.events_processed,
        "late_fraction": sum(fractions) / len(fractions),
    }


def _meanfield_seconds(n_sessions: int, duration_s: float) -> dict:
    spec = _spec(n_sessions, duration_s)
    started = time.perf_counter()
    solution = solve_meanfield(spec)
    elapsed = time.perf_counter() - started
    return {
        "seconds": elapsed,
        "late_fraction": solution.late_fraction(TAU),
    }


def grid_batch(duration_s: float) -> dict:
    """Time the N=10^6 grid ratio by ratio and batched."""
    base = _spec(GRID_N, duration_s)
    best = {"point": float("inf"), "batched": float("inf")}
    for _ in range(GRID_REPEATS):
        started = time.perf_counter()
        pointwise = [row for ratio in GRID_RATIOS
                     for row in late_fraction_grid(
                         base, ratios=(ratio,), taus=GRID_TAUS)]
        best["point"] = min(best["point"],
                            time.perf_counter() - started)
        started = time.perf_counter()
        batched = late_fraction_grid(base, ratios=GRID_RATIOS,
                                     taus=GRID_TAUS)
        best["batched"] = min(best["batched"],
                              time.perf_counter() - started)
    return {
        "n_sessions": GRID_N,
        "ratios": len(GRID_RATIOS),
        "repeats": GRID_REPEATS,
        "point_seconds": best["point"],
        "batched_seconds": best["batched"],
        "speedup": best["point"] / best["batched"],
        "identical": pointwise == batched,
    }


def run(mode: str) -> dict:
    duration_s = MODES[mode]["duration_s"]

    points = []
    solve_by_n = {}
    packet_by_n = {}
    for n_sessions in MEASURED_NS:
        packet = _packet_seconds(n_sessions, duration_s)
        meanfield = _meanfield_seconds(n_sessions, duration_s)
        packet_by_n[str(n_sessions)] = packet["seconds"]
        solve_by_n[str(n_sessions)] = meanfield["seconds"]
        points.append({
            "n_sessions": n_sessions,
            "packet": packet,
            "meanfield": meanfield,
            "speedup": packet["seconds"] / meanfield["seconds"],
        })
    for n_sessions in MEANFIELD_ONLY_NS:
        meanfield = _meanfield_seconds(n_sessions, duration_s)
        solve_by_n[str(n_sessions)] = meanfield["seconds"]
        points.append({
            "n_sessions": n_sessions,
            "packet": None,  # 4 orders of magnitude out of reach
            "meanfield": meanfield,
            "speedup": None,
        })

    # Full (ratio, tau) grid at N=10^6 vs the packet cost extrapolated
    # linearly in N from the measured N=1000 run (one campaign per
    # ratio point; linear-in-N is *generous* to the packet sim — the
    # committed scaling curve shows per-event cost rising with N).
    started = time.perf_counter()
    rows = late_fraction_grid(_spec(GRID_N, duration_s),
                              ratios=GRID_RATIOS, taus=GRID_TAUS)
    grid_seconds = time.perf_counter() - started
    anchor = packet_by_n[str(MEASURED_NS[-1])]
    extrapolated = anchor * (GRID_N / MEASURED_NS[-1]) \
        * len(GRID_RATIOS)

    return {
        "config": {
            "mu": MU, "ratio": RATIO, "tau": TAU, "seed": SEED,
            "duration_s": duration_s,
            "buffer_per_session": BUFFER_PER_SESSION,
            "queue_discipline": "droptail",
            "service_batch": SERVICE_BATCH,
            "grid_ratios": list(GRID_RATIOS),
            "grid_taus": list(GRID_TAUS),
        },
        "points": points,
        "solve_seconds_by_n": solve_by_n,
        "packet_seconds_by_n": packet_by_n,
        "grid": {
            "n_sessions": GRID_N,
            "seconds": grid_seconds,
            "extrapolated_packet_seconds": extrapolated,
            "speedup_vs_extrapolated": extrapolated / grid_seconds,
            "rows": rows,
        },
        "grid_batch": grid_batch(duration_s),
    }
