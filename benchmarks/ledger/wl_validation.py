"""Workload ``validation_1-2``: the paper's validation method.

``run_setting`` on heterogeneous Setting 1-2 (independent paths, each
with 7 FTP + 40 HTTP background flows): replicated packet-level
sessions, then one model solve per startup delay on the measured
(p, R, T_O), cold into a fresh result cache.  The same call is then
repeated against the now-warm cache.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from dataclasses import dataclass
from typing import Any, Dict, List

from common import (Outcome, Ops, check_conservation, check_fraction,
                    check_non_increasing, digest, fail, same)
from repro.experiments import runner
from repro.experiments.cache import ResultCache
from repro.experiments.configs import HETEROGENEOUS_SETTINGS
from repro.experiments.parallel import ReplicationExecutor

NAME = "validation_1-2"

SETTING = HETEROGENEOUS_SETTINGS["1-2"]
#: Two replications of a 20 s video (plus the session's own 20 s
#: warm-up and 60 s drain); the model solves at a 1000 s horizon.
PROFILE = runner.ScaleProfile("bench", runs=2, duration_s=20.0,
                              model_horizon_s=1000.0)
TAUS = tuple(float(tau) for tau in runner.DEFAULT_TAUS)
#: Warm calls per pass; ``warm_rerun_s`` is their median.
WARM_REPEATS = 5


@dataclass
class State:
    cache: ResultCache
    executor: ReplicationExecutor
    seed0: int


def build(seed: int, workdir: str) -> State:
    return State(cache=ResultCache(os.path.join(workdir, "cache")),
                 executor=ReplicationExecutor(max_workers=1),
                 seed0=1000 * seed)


def _call(state: State) -> runner.ReplicatedRun:
    return runner.run_setting(
        SETTING, TAUS, profile=PROFILE, seed0=state.seed0,
        max_workers=1, cache=state.cache, executor=state.executor,
        mc_kernel="vectorized")


def _outputs(run: runner.ReplicatedRun) -> Dict[str, Any]:
    return {
        "per_run_late": {repr(tau): values
                         for tau, values in run.per_run_late.items()},
        "measured": run.measured,
        "points": [[pt.tau, pt.sim_mean, pt.sim_ci95,
                    pt.sim_arrival_order_mean, pt.model_f,
                    pt.model_stderr] for pt in run.points],
    }


def body(state: State) -> Dict[str, Any]:
    """The measured body: the cold call, then the warm repeats."""
    started = time.process_time()
    cold = _call(state)
    cpu = time.process_time() - started
    warm_times: List[float] = []
    for _ in range(WARM_REPEATS):
        started = time.perf_counter()
        warm = _call(state)
        warm_times.append(time.perf_counter() - started)
    return {"cold": cold, "warm": warm, "cpu": cpu,
            "warm_s": statistics.median(warm_times)}


def check(state: State, raw: Dict[str, Any]) -> Outcome:
    cold, warm = raw["cold"], raw["warm"]
    ops: Ops = {f"replication.{r}": None for r in range(PROFILE.runs)}
    ops.update({f"solve.tau{tau:g}": None for tau in TAUS})
    for r in range(PROFILE.runs):
        op = f"replication.{r}"
        values = [cold.per_run_late[tau][r] for tau in TAUS]
        for value in values:
            check_fraction(ops, op, value)
        check_non_increasing(ops, op, TAUS, values)
        if any(not same(warm.per_run_late[tau][r], cold.per_run_late[
                tau][r]) for tau in TAUS):
            fail(ops, op, "warm rerun differs from the cold run")
    model = [cold.point(tau) for tau in TAUS]
    slack = [0.0] + [
        3.0 * math.hypot(model[i - 1].model_stderr, model[i].model_stderr)
        for i in range(1, len(model))]
    names = [f"solve.tau{tau:g}" for tau in TAUS]
    check_non_increasing(ops, names, TAUS, [p.model_f for p in model],
                         slack)
    for op, point in zip(names, model):
        check_fraction(ops, op, point.model_f)
        again = warm.point(point.tau)
        if not (same(again.model_f, point.model_f)
                and same(again.model_stderr, point.model_stderr)):
            fail(ops, op, "warm rerun differs from the cold run")

    cache = state.cache
    counts: Dict[str, float] = {
        "cache.hits": cache.hits, "cache.misses": cache.misses,
        "cache.writes": cache.stores}
    return Outcome(work=None, work_cpu_s=raw["cpu"],
                   warm_rerun_s=raw["warm_s"],
                   digest=digest(_outputs(cold)), ops=ops,
                   counts=counts)


def deep_check(state: State, outcome: Outcome, registry: Any) -> None:
    """Counting-pass check: conservation in every replication."""
    assemblies = registry["assembly"]
    if len(assemblies) != PROFILE.runs:
        for r in range(PROFILE.runs):
            fail(outcome.ops, f"replication.{r}",
                 f"{len(assemblies)} sessions built for "
                 f"{PROFILE.runs} replications")
        return
    for r, assembly in enumerate(assemblies):
        check_conservation(outcome.ops, f"replication.{r}", assembly)
