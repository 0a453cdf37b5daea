"""MC-kernel microbenchmark: legacy vs vectorized on the Fig 8 grid.

Each grid point solves the same stationary late-fraction problem with
both kernels at the same horizon (hence comparable standard errors, as
the replicas partition the same measured model time the legacy batches
do) and records wall-clock times, estimates and stderrs.  The headline
number is the aggregate speedup: total legacy seconds over total
vectorized seconds across the point set.

The ``grid_batch`` section times a (ratio, tau) grid of vectorized
solves two ways in the same process: point by point (one
``solve_model`` batch per point, so every point builds its own chains
and tables, as an unbatched sweep does) and as one batch (shared chains
and tables, one lockstep pass).  Its ``speedup`` is a within-report
ratio, so it gates on any machine; ``identical`` records that both
ways gave the same estimates, float for float.
"""

from __future__ import annotations

import time

from repro.experiments.parallel import ModelTask, solve_model
from repro.experiments.sweep import rtt_for_ratio
from repro.model.dmp_model import DmpModel
from repro.model.tcp_chain import FlowParams

P = 0.02
TO_RATIO = 4.0
MU = 25.0
SEED = 8

MODES = {
    "quick": {
        "ratios": (1.2, 1.6),
        "taus": (4.0, 10.0),
        "horizon_s": 4000.0,
    },
    "full": {
        "ratios": (1.2, 1.4, 1.6, 1.8, 2.0),
        "taus": (4.0, 10.0, 20.0),
        "horizon_s": 20000.0,
    },
}

#: The grid_batch grid: the ledger's Fig 8 grid in full mode (5 ratios
#: x 15 taus at a 1000 s horizon), a 3 x 8 corner of it in quick mode.
GRID_MODES = {
    "quick": {
        "ratios": (1.2, 1.6, 2.0),
        "taus": tuple(float(tau) for tau in range(2, 17, 2)),
        "horizon_s": 1000.0,
    },
    "full": {
        "ratios": (1.2, 1.4, 1.6, 1.8, 2.0),
        "taus": tuple(float(tau) for tau in range(2, 31, 2)),
        "horizon_s": 1000.0,
    },
}

#: Each way is timed this many times, alternating; the best time
#: counts.
GRID_REPEATS = 3


def _solve(model: DmpModel, horizon_s: float, kernel: str):
    started = time.perf_counter()
    estimate = model.late_fraction_mc(horizon_s=horizon_s, seed=SEED,
                                      mc_kernel=kernel)
    return time.perf_counter() - started, estimate


def grid_batch(mode: str) -> dict:
    """Time the grid point by point and batched; report the ratio."""
    spec = GRID_MODES[mode]
    tasks = []
    for ratio in spec["ratios"]:
        rtt = rtt_for_ratio(P, TO_RATIO, MU, ratio)
        params = FlowParams(p=P, rtt=rtt, to_ratio=TO_RATIO)
        tasks.extend(ModelTask(flows=(params, params), mu=MU, tau=tau,
                               horizon_s=spec["horizon_s"], seed=SEED,
                               mc_kernel="vectorized")
                     for tau in spec["taus"])
    best = {"point": float("inf"), "batched": float("inf")}
    for _ in range(GRID_REPEATS):
        started = time.perf_counter()
        pointwise = [solve_model([task])[0] for task in tasks]
        best["point"] = min(best["point"],
                            time.perf_counter() - started)
        started = time.perf_counter()
        batched = solve_model(tasks)
        best["batched"] = min(best["batched"],
                              time.perf_counter() - started)
    return {
        "config": {"p": P, "to_ratio": TO_RATIO, "mu": MU,
                   "seed": SEED, "horizon_s": spec["horizon_s"],
                   "ratios": list(spec["ratios"]),
                   "taus": list(spec["taus"]),
                   "repeats": GRID_REPEATS},
        "points": len(tasks),
        "point_seconds": best["point"],
        "batched_seconds": best["batched"],
        "speedup": best["point"] / best["batched"],
        "identical": pointwise == batched,
    }


def run(mode: str) -> dict:
    spec = MODES[mode]
    horizon_s = spec["horizon_s"]
    points = []
    totals = {"legacy": 0.0, "vectorized": 0.0}
    for ratio in spec["ratios"]:
        rtt = rtt_for_ratio(P, TO_RATIO, MU, ratio)
        params = FlowParams(p=P, rtt=rtt, to_ratio=TO_RATIO)
        for tau in spec["taus"]:
            model = DmpModel([params, params], mu=MU, tau=tau)
            point = {"ratio": ratio, "tau": tau}
            for kernel in ("legacy", "vectorized"):
                elapsed, est = _solve(model, horizon_s, kernel)
                totals[kernel] += elapsed
                point[kernel] = {
                    "seconds": elapsed,
                    "late_fraction": est.late_fraction,
                    "stderr": est.stderr,
                }
            point["speedup"] = (point["legacy"]["seconds"]
                                / point["vectorized"]["seconds"])
            points.append(point)
    return {
        "config": {"p": P, "to_ratio": TO_RATIO, "mu": MU,
                   "seed": SEED, "horizon_s": horizon_s,
                   "ratios": list(spec["ratios"]),
                   "taus": list(spec["taus"])},
        "points": points,
        "total_seconds": totals,
        "speedup": totals["legacy"] / totals["vectorized"],
        "grid_batch": grid_batch(mode),
    }
