"""Workload ``model_sweep``: the model backends, no packet simulator.

* The Fig 8 grid on the vectorized MC kernel: 5 sigma_a/mu ratios x 15
  startup delays at p=0.02, T_O=4, mu=25 and a fixed model horizon.
* The mean-field (ratio, tau) grid at N = 10^6 sessions with the
  ``bench_meanfield`` spec (20 s video, 10 s drain), taus up to 16 s.
* One exhaustive-engine ``compare_schemes`` at K=2.

All of it runs cold into a fresh result cache, then once more warm.
``late_fraction_grid`` has no cache path, so its warm call re-solves.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from common import (Outcome, Ops, check_fraction, check_non_increasing,
                    digest, fail, same)
from repro.experiments import sweep
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import ModelTask
from repro.model import meanfield
from repro.model.tcp_chain import FlowParams
from repro.verify import queries
from repro.verify.spec import PathBudget, VerifySpec

NAME = "model_sweep"

FIG8_P = 0.02
FIG8_TO = 4.0
FIG8_MU = 25.0
FIG8_RATIOS = (1.2, 1.4, 1.6, 1.8, 2.0)
FIG8_TAUS = tuple(float(tau) for tau in range(2, 31, 2))
FIG8_HORIZON_S = 1000.0

#: ``benchmarks/perf/bench_meanfield.py`` grid spec, full-mode video.
MF_N = 1_000_000
MF_MU = 10.0
MF_BASE = meanfield.MeanFieldSpec(
    n_sessions=MF_N, mu=MF_MU, bandwidth_pps=0.75 * MF_MU * MF_N,
    buffer_pkts=2.0 * MF_N, queue_discipline="droptail",
    paths_per_session=2, base_rtt_s=2.0 * (2.0 * 0.010 + 0.04),
    duration_s=20.0, warmup_s=5.0, drain_s=10.0)
MF_RATIOS = (0.5, 0.75, 1.0, 1.25, 1.6)
MF_TAUS = (2.0, 4.0, 8.0, 16.0)
#: Mean-field points agree with the covering-horizon solve to this.
MF_TOLERANCE = 1e-9

#: A stalling small-buffer path with one loss credit next to a clean
#: path: K=2, 12 rounds, inside the exhaustive engine's limits.
VERIFY_SPEC = VerifySpec(
    mu_r=2, tau=2, rounds=12, label="stall-loss",
    paths=(PathBudget(rate=2, slack=10, loss=1, delay=0, buffer=2),
           PathBudget(rate=2, slack=2, loss=0, delay=0, buffer=4)))


@dataclass
class State:
    cache: ResultCache
    seed: int


def build(seed: int, workdir: str) -> State:
    return State(cache=ResultCache(os.path.join(workdir, "cache")),
                 seed=seed)


def _fig8(state: State) -> Dict[float, List[Tuple[float, float]]]:
    return sweep.fig8_curves(
        p=FIG8_P, to_ratio=FIG8_TO, mu=FIG8_MU, ratios=FIG8_RATIOS,
        taus=FIG8_TAUS, horizon_s=FIG8_HORIZON_S, seed=state.seed,
        max_workers=1, cache=state.cache, mc_kernel="vectorized")


def _meanfield_grid() -> List[Dict[str, Any]]:
    return meanfield.late_fraction_grid(MF_BASE, ratios=MF_RATIOS,
                                        taus=MF_TAUS)


def _compare(state: State) -> queries.SchemeComparison:
    return queries.compare_schemes(VERIFY_SPEC, engine="exhaustive",
                                   cache=state.cache)


def _mc_op(ratio: float, tau: float) -> str:
    return f"mc.r{ratio:g}.tau{tau:g}"


def _mf_op(ratio: float, tau: float) -> str:
    return f"mf.r{ratio:g}.tau{tau:g}"


def _mf_values(rows: List[Dict[str, Any]]) -> Dict[float, List[float]]:
    return {row["ratio"]: [row["late_fraction"][f"{tau:g}"]
                           for tau in MF_TAUS] for row in rows}


def body(state: State) -> Dict[str, Any]:
    """The measured body: every call cold, then every call warm."""
    started = time.process_time()
    curves = _fig8(state)
    cpu = time.process_time() - started
    solves = state.cache.misses
    rows = _meanfield_grid()
    comparison = _compare(state)
    started = time.perf_counter()
    warm_curves = _fig8(state)
    warm_rows = _meanfield_grid()
    warm_comparison = _compare(state)
    warm_s = time.perf_counter() - started
    return {"curves": curves, "rows": rows, "comparison": comparison,
            "warm_curves": warm_curves, "warm_rows": warm_rows,
            "warm_comparison": warm_comparison, "cpu": cpu,
            "solves": solves, "warm_s": warm_s}


def check(state: State, raw: Dict[str, Any]) -> Outcome:
    curves, rows, comparison = \
        raw["curves"], raw["rows"], raw["comparison"]
    warm_curves, warm_rows, warm_comparison = \
        raw["warm_curves"], raw["warm_rows"], raw["warm_comparison"]
    ops: Ops = {}
    for ratio in FIG8_RATIOS:
        for (tau, value), (_, again) in zip(curves[ratio],
                                            warm_curves[ratio]):
            op = _mc_op(ratio, tau)
            ops[op] = None
            check_fraction(ops, op, value)
            if not same(value, again):
                fail(ops, op, "warm rerun differs from the cold run")
    cold_mf, warm_mf = _mf_values(rows), _mf_values(warm_rows)
    for ratio in MF_RATIOS:
        values = cold_mf[ratio]
        names = [_mf_op(ratio, tau) for tau in MF_TAUS]
        for op, value, again in zip(names, values, warm_mf[ratio]):
            ops[op] = None
            check_fraction(ops, op, value)
            if not same(value, again):
                fail(ops, op, "warm rerun differs from the cold run")
        check_non_increasing(ops, names, MF_TAUS, values)
    ops["verify.dmp"] = ops["verify.static"] = None
    if comparison.dmp.max_late > comparison.static.max_late:
        fail(ops, "verify.dmp",
             f"DMP envelope {comparison.dmp.max_late} > static "
             f"{comparison.static.max_late}")
    for scheme in ("dmp", "static"):
        if getattr(comparison, scheme).max_late \
                != getattr(warm_comparison, scheme).max_late:
            fail(ops, f"verify.{scheme}",
                 "warm rerun differs from the cold run")

    cache = state.cache
    counts: Dict[str, float] = {
        "cache.hits": cache.hits, "cache.misses": cache.misses,
        "cache.writes": cache.stores, "mc.solves": raw["solves"]}
    outputs = {
        "fig8": {repr(ratio): points for ratio, points in curves.items()},
        "meanfield": rows,
        "verify": [comparison.dmp.max_late, comparison.static.max_late],
    }
    return Outcome(work=raw["solves"], work_cpu_s=raw["cpu"],
                   warm_rerun_s=raw["warm_s"],
                   digest=digest(outputs), ops=ops, counts=counts,
                   outputs=outputs)


def deep_check(state: State, outcome: Outcome, registry: Any) -> None:
    """Counting-pass checks that need extra reads or solves.

    * Each Fig 8 curve is non-increasing in tau within three combined
      standard errors, read from the cache records the sweep wrote.
    * Each mean-field grid point equals a solve whose horizon covers
      tau + the video duration (the grid's own horizon is video +
      drain, which a tau beyond the drain truncates).
    """
    ops = outcome.ops
    reader = ResultCache(state.cache.directory)
    for ratio in FIG8_RATIOS:
        rtt = sweep.rtt_for_ratio(FIG8_P, FIG8_TO, FIG8_MU, ratio)
        params = FlowParams(p=FIG8_P, rtt=rtt, to_ratio=FIG8_TO)
        values: List[float] = []
        errors: List[float] = []
        for tau in FIG8_TAUS:
            estimate = reader.get_model(ModelTask(
                flows=(params, params), mu=FIG8_MU, tau=tau,
                horizon_s=FIG8_HORIZON_S, seed=state.seed,
                mc_kernel="vectorized"))
            if estimate is None:
                fail(ops, _mc_op(ratio, tau), "no cached model record")
                values.append(math.nan)
                errors.append(math.nan)
                continue
            values.append(estimate.late_fraction)
            errors.append(estimate.stderr)
        slack = [0.0] + [3.0 * math.hypot(errors[i - 1], errors[i])
                         for i in range(1, len(errors))]
        check_non_increasing(ops, [_mc_op(ratio, tau)
                                   for tau in FIG8_TAUS],
                             FIG8_TAUS, values, slack)

    for ratio in MF_RATIOS:
        spec = dataclasses.replace(
            MF_BASE, bandwidth_pps=float(ratio * MF_MU * MF_N),
            drain_s=max(MF_BASE.drain_s, max(MF_TAUS) + 1.0))
        reference = meanfield.solve_meanfield(spec)
        grid = _mf_values(outcome.outputs["meanfield"])[ratio]
        for tau, value in zip(MF_TAUS, grid):
            expected = reference.late_fraction(tau)
            if abs(value - expected) > MF_TOLERANCE:
                fail(ops, _mf_op(ratio, tau),
                     f"grid late fraction {value!r} != {expected!r} "
                     f"from a solve covering tau + video")

