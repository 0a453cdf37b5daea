"""Perf-trajectory tracking for the ``benchmarks/perf`` harness.

``BENCH_perf.json`` (written by ``benchmarks/perf/run.py``) is a
one-shot snapshot; this tool turns snapshots into a trajectory:

* every run is appended to a JSONL **history** file
  (``BENCH_history.jsonl``, gitignored), so the perf evolution of a
  branch survives across invocations and CI artifacts;
* the new snapshot is **compared against the committed baseline**
  with noise-aware thresholds, exiting non-zero on a regression —
  wired into the CI perf-smoke job.

Comparison rules (the committed baseline is typically a ``full``-mode
run from a developer machine, while CI runs ``quick`` mode on a
different machine, so naive comparison would be meaningless):

* **Scale-free metrics gate across machines.**  The per-point
  vectorized/legacy ``speedup`` of the mc_kernel benchmark divides
  out the machine's absolute speed, so it is compared across machines
  over the *matched* (ratio, tau) grid points.  It does NOT divide
  out the *mode*: quick-mode horizons are too short to amortise the
  fixed per-solve overhead, so quick speedups sit well below full
  ones.  The default baseline therefore resolves per mode
  (:func:`resolve_baseline`): a quick report gates against the
  committed ``BENCH_perf.quick.json``, a full report against
  ``BENCH_perf.json``.  The gate is the geometric mean of per-point
  ratios: individual Monte-Carlo timings are noisy, their geometric
  mean much less so.
* **Absolute metrics gate only on the same machine fingerprint**
  (cpu model/count, python, numpy): ``packet_sim.events_per_second``
  and mc_kernel total seconds.  On a different machine they are
  reported for information only.
* **Tiny timings never gate**: chain-build/compile times are
  single-digit milliseconds and dominated by allocator noise.
* **Within-report gates are machine-free** and therefore gate
  everywhere: the multi-session scaling, pool-reuse and
  health-instrumentation-overhead contracts,
  the mean-field backend's N-independence (the N=10^6 solve within
  10x of the N=10 solve; the 10^6-session grid at least 100x faster
  than the packet-sim cost extrapolated from the measured N=1000
  point), and grid batching (the MC kernel's Fig 8 grid and the
  mean-field (ratio, tau) grid, each solved in one lockstep batch at
  least 1.5x faster than point by point, with identical results).
  Both sides of each ratio come from one snapshot on one machine.

The tolerance is widened by the observed spread of the matched
per-point ratios (``spread / sqrt(n)``), so a wide noisy grid does
not trip the gate on one bad point while a consistent drop across the
grid still does.

Exit codes: 0 = no regression, 1 = regression, 2 = bad input.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

DEFAULT_BASELINE = "BENCH_perf.json"
DEFAULT_HISTORY = "BENCH_history.jsonl"


def resolve_baseline(mode: Optional[str],
                     directory: str = ".") -> str:
    """Pick the committed baseline matching ``mode``.

    ``BENCH_perf.<mode>.json`` when it exists (so quick CI runs gate
    against the committed quick-mode numbers), the full-mode
    :data:`DEFAULT_BASELINE` otherwise.
    """
    if mode:
        candidate = os.path.join(directory,
                                 f"BENCH_perf.{mode}.json")
        if os.path.exists(candidate):
            return candidate
    return os.path.join(directory, DEFAULT_BASELINE)

#: Relative drop tolerated before a gated metric counts as a
#: regression (0.35 = new value may be up to 35% worse).  CI runners
#: are shared and noisy; the synthetic-regression canary in CI injects
#: a 4x slowdown, far outside this band.
DEFAULT_TOLERANCE = 0.35

#: Cap on the noise widening added on top of the base tolerance.
MAX_SPREAD_ALLOWANCE = 0.15

FINGERPRINT_KEYS = ("cpu_model", "cpu_count", "python", "numpy")


@dataclass
class MetricResult:
    """One compared metric; ``ratio`` is new/baseline, higher=better."""

    name: str
    baseline: float
    new: float
    ratio: float
    gated: bool
    regressed: bool
    threshold: Optional[float] = None
    note: str = ""


@dataclass
class Comparison:
    """Outcome of comparing a new snapshot against the baseline."""

    results: List[MetricResult] = field(default_factory=list)
    same_machine: bool = False
    matched_points: int = 0

    @property
    def regressions(self) -> List[MetricResult]:
        return [r for r in self.results if r.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions


def load_report(path: str) -> Dict[str, Any]:
    """Load and minimally validate one BENCH_perf.json document."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict) or "benchmarks" not in doc:
        raise ValueError(f"{path}: not a perf report "
                         "(missing 'benchmarks')")
    return doc


def fingerprint(doc: Dict[str, Any]) -> Dict[str, Any]:
    machine = doc.get("machine", {})
    return {key: machine.get(key) for key in FINGERPRINT_KEYS}


def speedup_points(doc: Dict[str, Any]) \
        -> Dict[Tuple[float, float], float]:
    """(ratio, tau) -> vectorized/legacy speedup for mc_kernel."""
    bench = doc.get("benchmarks", {}).get("mc_kernel", {})
    points: Dict[Tuple[float, float], float] = {}
    for point in bench.get("points", []):
        speedup = point.get("speedup")
        if isinstance(speedup, (int, float)) and speedup > 0:
            points[(float(point["ratio"]),
                    float(point["tau"]))] = float(speedup)
    return points


def _metric(doc: Dict[str, Any], *path: str) -> Optional[float]:
    node: Any = doc.get("benchmarks", {})
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return float(node) if isinstance(node, (int, float)) else None


def compare(new_doc: Dict[str, Any], base_doc: Dict[str, Any],
            tolerance: float = DEFAULT_TOLERANCE) -> Comparison:
    """Compare a new snapshot against the baseline snapshot."""
    comp = Comparison()
    comp.same_machine = fingerprint(new_doc) == fingerprint(base_doc)

    # -- scale-free gate: matched per-point speedups ------------------
    new_points = speedup_points(new_doc)
    base_points = speedup_points(base_doc)
    matched = sorted(set(new_points) & set(base_points))
    comp.matched_points = len(matched)
    if matched:
        log_ratios = [math.log(new_points[key] / base_points[key])
                      for key in matched]
        geomean = math.exp(sum(log_ratios) / len(log_ratios))
        if len(log_ratios) > 1:
            mean_lr = sum(log_ratios) / len(log_ratios)
            var = sum((lr - mean_lr) ** 2 for lr in log_ratios) \
                / (len(log_ratios) - 1)
            spread = math.sqrt(var / len(log_ratios))
        else:
            spread = MAX_SPREAD_ALLOWANCE
        threshold = 1.0 - min(
            tolerance + min(spread, MAX_SPREAD_ALLOWANCE), 0.95)
        base_geo = math.exp(sum(math.log(base_points[k])
                                for k in matched) / len(matched))
        comp.results.append(MetricResult(
            name="mc_kernel.speedup_geomean",
            baseline=base_geo, new=base_geo * geomean, ratio=geomean,
            gated=True, regressed=geomean < threshold,
            threshold=threshold,
            note=f"{len(matched)} matched (ratio, tau) points"))

    # -- absolute metrics: gate only on the same machine --------------
    absolute_metrics: List[Tuple[str, Tuple[str, ...], bool]] = [
        ("packet_sim.events_per_second",
         ("packet_sim", "events_per_second"), True),
        ("mc_kernel.vectorized_seconds",
         ("mc_kernel", "total_seconds", "vectorized"), False),
    ]
    # One absolute event-rate metric per campaign session count the
    # new snapshot reports (older baselines simply lack the path and
    # the metric is skipped below).
    multi_by_n = new_doc.get("benchmarks", {}) \
        .get("multisession", {}).get("events_per_second_by_n", {})
    for count in sorted(multi_by_n, key=int):
        absolute_metrics.append((
            f"multisession.events_per_second.n{count}",
            ("multisession", "events_per_second_by_n", count), True))
    for name, path, higher_better in absolute_metrics:
        new_value = _metric(new_doc, *path)
        base_value = _metric(base_doc, *path)
        if new_value is None or base_value is None \
                or base_value <= 0 or new_value <= 0:
            continue
        ratio = (new_value / base_value) if higher_better \
            else (base_value / new_value)
        gate = comp.same_machine \
            and new_doc.get("mode") == base_doc.get("mode")
        threshold = (1.0 - tolerance) if gate else None
        comp.results.append(MetricResult(
            name=name, baseline=base_value, new=new_value,
            ratio=ratio, gated=gate,
            regressed=bool(gate and threshold is not None
                           and ratio < threshold),
            threshold=threshold,
            note="" if gate else
            "info only (different machine or mode)"))

    # -- within-report scaling gate: machine-independent --------------
    # The multi-session refactor's contract: per-event cost must not
    # blow up with session count, i.e. the N=200 event rate holds
    # within 3x of the N=10 rate *of the same snapshot*.  Both numbers
    # come from one process on one machine, so this gates everywhere.
    eps_10 = _metric(new_doc, "multisession",
                     "events_per_second_by_n", "10")
    eps_200 = _metric(new_doc, "multisession",
                      "events_per_second_by_n", "200")
    if eps_10 is not None and eps_200 is not None and eps_10 > 0:
        floor = eps_10 / 3.0
        comp.results.append(MetricResult(
            name="multisession.scaling_n200_vs_n10",
            baseline=floor, new=eps_200,
            ratio=eps_200 / floor, gated=True,
            regressed=eps_200 < floor, threshold=1.0,
            note="within-report: N=200 rate >= N=10 rate / 3"))

    # PacketPool audit at the largest packet-sim population: the pool
    # must actually recycle packets at N=1000 (reuse fraction >= 0.5)
    # rather than degenerate into straight allocation.  Counter ratio
    # from one process — machine-free, gates everywhere.
    reuse = None
    for point in new_doc.get("benchmarks", {}) \
            .get("multisession", {}).get("points", []):
        if point.get("n_sessions") == 1000:
            reuse = point.get("pool", {}).get("reuse_fraction")
    if isinstance(reuse, (int, float)):
        floor = 0.5
        comp.results.append(MetricResult(
            name="multisession.pool_reuse_n1000",
            baseline=floor, new=float(reuse),
            ratio=float(reuse) / floor, gated=True,
            regressed=float(reuse) < floor, threshold=1.0,
            note="within-report: pool reuse fraction >= 0.5 "
                 "at N=1000"))

    # Health-layer overhead contract: the N=200 campaign with the
    # streaming QoE aggregator + armed flight recorder attached must
    # process events at >= 90% of the bare N=200 rate of the same
    # snapshot.  Both rates come from one process — machine-free,
    # gates everywhere.
    overhead = new_doc.get("benchmarks", {}) \
        .get("multisession", {}).get("health_overhead", {})
    bare = overhead.get("bare_events_per_second")
    inst = overhead.get("instrumented_events_per_second")
    if isinstance(bare, (int, float)) and bare > 0 \
            and isinstance(inst, (int, float)) and inst > 0:
        floor = 0.9 * float(bare)
        comp.results.append(MetricResult(
            name="multisession.health_overhead_n200",
            baseline=floor, new=float(inst),
            ratio=float(inst) / floor, gated=True,
            regressed=float(inst) < floor, threshold=1.0,
            note="within-report: instrumented rate >= 0.9x bare "
                 "at N=200"))

    # -- mean-field within-report gates: machine-independent ----------
    # The population backend's contract is N-independent solve time:
    # the N=10^6 solve must stay within 10x of the N=10 solve of the
    # same snapshot, and the 10^6-session (ratio, tau) grid must beat
    # the packet-sim cost extrapolated from the measured N=1000 run by
    # at least 100x.
    mf_10 = _metric(new_doc, "meanfield", "solve_seconds_by_n", "10")
    mf_1e6 = _metric(new_doc, "meanfield", "solve_seconds_by_n",
                     "1000000")
    if mf_10 is not None and mf_1e6 is not None and mf_10 > 0:
        ceiling = 10.0 * mf_10
        comp.results.append(MetricResult(
            name="meanfield.scaling_n1e6_vs_n10",
            baseline=ceiling, new=mf_1e6,
            ratio=ceiling / mf_1e6, gated=True,
            regressed=mf_1e6 > ceiling, threshold=1.0,
            note="within-report: N=10^6 solve <= 10x N=10 solve"))
    grid_speedup = _metric(new_doc, "meanfield", "grid",
                           "speedup_vs_extrapolated")
    if grid_speedup is not None:
        floor = 100.0
        comp.results.append(MetricResult(
            name="meanfield.speedup_vs_extrapolated",
            baseline=floor, new=grid_speedup,
            ratio=grid_speedup / floor, gated=True,
            regressed=grid_speedup < floor, threshold=1.0,
            note="within-report: 10^6-session grid >= 100x "
                 "extrapolated packet cost"))

    # -- grid-batch within-report gates: machine-independent ----------
    # The same grid timed point by point and as one lockstep batch in
    # one process -- the MC kernel's Fig 8 grid and the mean-field
    # (ratio, tau) grid: the batch must be at least 1.5x faster, and
    # its results identical to the point-by-point ones.
    for section in ("mc_kernel", "meanfield"):
        grid = new_doc.get("benchmarks", {}).get(section, {}) \
            .get("grid_batch", {})
        point_s = grid.get("point_seconds")
        batched_s = grid.get("batched_seconds")
        if not (isinstance(point_s, (int, float)) and point_s > 0
                and isinstance(batched_s, (int, float))
                and batched_s > 0):
            continue
        speedup = float(point_s) / float(batched_s)
        identical = grid.get("identical") is True
        floor = 1.5
        comp.results.append(MetricResult(
            name=f"{section}.grid_batch_speedup",
            baseline=floor, new=speedup,
            ratio=speedup / floor, gated=True,
            regressed=speedup < floor or not identical,
            threshold=1.0,
            note="within-report: batched grid >= 1.5x point by point"
                 + ("" if identical else "; RESULTS DIFFER")))

    # -- verify solver timings: never gate ----------------------------
    # Certified-envelope solve time tracks the z3 version and its
    # search heuristics (or the exhaustive engine's pruning), not this
    # repository's code: report matched (T, K) instances, never gate.
    new_ver = new_doc.get("benchmarks", {}).get("verify", {}) \
        .get("seconds_by_instance", {})
    base_ver = base_doc.get("benchmarks", {}).get("verify", {}) \
        .get("seconds_by_instance", {})
    for key in sorted(set(new_ver) & set(base_ver)):
        new_value = new_ver[key]
        base_value = base_ver[key]
        if not isinstance(new_value, (int, float)) \
                or not isinstance(base_value, (int, float)) \
                or new_value <= 0 or base_value <= 0:
            continue
        comp.results.append(MetricResult(
            name=f"verify.seconds.{key}",
            baseline=float(base_value), new=float(new_value),
            ratio=float(base_value) / float(new_value), gated=False,
            regressed=False, note="info only (solver wall time)"))

    # -- tiny timings: never gate -------------------------------------
    for name, path in (
            ("chain_build.compile_seconds",
             ("chain_build", "compile_seconds")),
            ("chain_build.chain_build_seconds",
             ("chain_build", "chain_build_seconds"))):
        new_value = _metric(new_doc, *path)
        base_value = _metric(base_doc, *path)
        if new_value is None or base_value is None \
                or base_value <= 0 or new_value <= 0:
            continue
        comp.results.append(MetricResult(
            name=name, baseline=base_value, new=new_value,
            ratio=base_value / new_value, gated=False,
            regressed=False, note="info only (sub-10ms timing)"))
    return comp


def append_history(history_path: str, new_doc: Dict[str, Any],
                   comp: Comparison, source: str) -> None:
    """Append one JSONL line describing this run to the history file.

    The timestamp is the report's own ``created_utc`` (written by the
    harness), so this tool needs no wall-clock access of its own.
    """
    line = {
        "source": source,
        "created_utc": new_doc.get("created_utc"),
        "mode": new_doc.get("mode"),
        "machine": fingerprint(new_doc),
        "metrics": {r.name: r.new for r in comp.results},
        "ratios": {r.name: r.ratio for r in comp.results},
        "matched_points": comp.matched_points,
        "same_machine": comp.same_machine,
        "verdict": "ok" if comp.ok else "regression",
    }
    directory = os.path.dirname(os.path.abspath(history_path))
    os.makedirs(directory, exist_ok=True)
    with open(history_path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")


def format_report(comp: Comparison) -> str:
    """Human-readable comparison table."""
    lines = []
    width = max((len(r.name) for r in comp.results), default=4)
    lines.append(f"{'metric':<{width}}  {'baseline':>12}  "
                 f"{'new':>12}  {'ratio':>7}  verdict")
    for r in comp.results:
        if r.regressed:
            verdict = "REGRESSION"
        elif r.gated:
            verdict = "ok"
        else:
            verdict = "info"
        extra = f" [{r.note}]" if r.note else ""
        if r.threshold is not None:
            extra = f" (gate at {r.threshold:.2f}){extra}"
        lines.append(f"{r.name:<{width}}  {r.baseline:>12.4g}  "
                     f"{r.new:>12.4g}  {r.ratio:>7.3f}  "
                     f"{verdict}{extra}")
    if not comp.results:
        lines.append("no comparable metrics found")
    return "\n".join(lines)
