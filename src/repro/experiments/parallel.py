"""Parallel fan-out of replicated simulations and model solves.

The paper's methodology is 30 replications x 10,000 simulated seconds
per setting; each replication is an independent pure function of its
seed, so the natural unit of parallelism is one ``StreamingSession``
run (and, on the model side, one batch of ``late_fraction_mc`` solves,
see :func:`model_batches`).  :class:`ReplicationExecutor` fans those
units out over a ``concurrent.futures.ProcessPoolExecutor``.

Determinism is the contract: replication ``run`` always gets seed
``seed0 + run`` and the per-run work is executed by the *same*
top-level functions (:func:`simulate_run`, :func:`solve_model`)
whether it runs in a worker process or inline, so parallel results are
bit-identical to serial ones and cache keys are stable.

Telemetry: when a :mod:`repro.telemetry` session is active, every
``map`` opens an ``executor.map`` span, work functions open their own
``replication``/``solve`` spans, and pooled items run under a fresh
session in the worker (:class:`_CapturedCall`) whose spans are merged
back in submit order — so the merged tree of a parallel campaign has
the same :meth:`Span.signature` as the serial one.  Queue waits, item
durations, worker utilization and fallback/retry counters ride along.
With no session active all of this reduces to attribute loads on
:data:`telemetry.NULL_TELEMETRY` (the ``Probe.active`` contract).

Degradation rules:

* ``max_workers <= 1`` (the default) never creates a pool;
* a pool that cannot be created at all (sandboxed environments without
  fork/spawn, missing ``/dev/shm``...) falls back to serial execution
  with a warning;
* a crashed worker (killed by the OOM killer, a BrokenProcessPool...)
  gets its item retried once serially; if the retry also fails, the
  underlying exception propagates — that is a genuine bug, not an
  infrastructure hiccup.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import (Any, Callable, Dict, List, Optional, Sequence,
                    Tuple, TypeVar)

from repro import telemetry
from repro.core.campaign import MultiSessionCampaign
from repro.core.metrics import arrival_order_late_fraction
from repro.core.session import StreamingSession
from repro.experiments.cache import tau_key
from repro.experiments.configs import Setting
from repro.obs.health import hist_of
from repro.model.dmp_model import (DmpModel, LateFractionEstimate,
                                   late_fraction_mc_batch)
from repro.model.mc_kernel import KERNELS, StationaryRun, resolve_kernel
from repro.model.tcp_chain import FlowParams, TcpFlowChain

ENV_WORKERS = "REPRO_WORKERS"

#: Reference startup delay of the health rollup stored in campaign
#: records.  Fixed (never derived from the requested taus) so the
#: rollup stays a pure function of the cache key and records merged
#: across invocations agree; per-tau late-fraction histograms ride
#: along separately under ``health.late_hists``.
HEALTH_REFERENCE_TAU = 6.0

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to (re)build one replication, picklable."""

    setting: Setting
    duration_s: float
    scheme: str
    seed: int
    send_buffer_pkts: int
    # taus/counters are deliberately NOT part of the cache key: a
    # record accumulates per-tau results across invocations and
    # get_run() re-checks that it covers the requested taus (and
    # carries counters when asked), so differing values never share
    # results — they share the *record*.
    taus: Tuple[float, ...]  # repro-lint: disable=RL004 -- merged into the record; coverage re-checked on read
    counters: bool = False  # repro-lint: disable=RL004 -- presence re-checked on read; counter-less records stay usable


@dataclass(frozen=True)
class ModelTask:
    """One ``late_fraction_mc`` solve, picklable.

    ``mc_kernel`` is resolved to a concrete kernel name at task-build
    time (see :func:`repro.model.mc_kernel.resolve_kernel`) so worker
    processes — which do not inherit ``mc_kernel.configure()`` state —
    run exactly the kernel the parent picked, and cache keys are
    stable.
    """

    flows: Tuple[FlowParams, ...]
    mu: float
    tau: float
    horizon_s: float
    seed: int
    mc_kernel: Optional[str] = None


def simulate_run(spec: RunSpec) -> Dict[str, Any]:
    """Run one replication; returns a JSON-able record.

    The record is exactly what the cache stores: the per-flow stats and
    the (playback-order, arrival-order) late fractions at each
    requested startup delay.  A multi-session setting
    (``n_sessions > 1``) runs one whole campaign per replication and
    additionally records the per-session late fractions under
    ``sessions`` so population quantiles can be recomputed from cache.
    """
    if spec.setting.backend != "packet":
        raise ValueError(
            f"simulate_run got backend={spec.setting.backend!r}; "
            "mean-field settings are solved deterministically by "
            "repro.experiments.campaign.run_campaign, never fanned "
            "out as replications")
    if spec.setting.n_sessions > 1:
        return _simulate_campaign_run(spec)
    tel = telemetry.current()
    with tel.span("replication", label=spec.setting.name,
                  scheme=spec.scheme, seed=spec.seed,
                  duration_s=spec.duration_s):
        session = StreamingSession(
            mu=spec.setting.mu, duration_s=spec.duration_s,
            paths=spec.setting.path_configs(), scheme=spec.scheme,
            shared_bottleneck=spec.setting.shared_bottleneck,
            seed=spec.seed, send_buffer_pkts=spec.send_buffer_pkts,
            queue_discipline=spec.setting.queue_discipline)
        counters = session.attach_counters() if spec.counters else None
        result = session.run()
        taus: Dict[str, List[float]] = {}
        for tau in spec.taus:
            metrics = result.metrics(tau)
            taus[tau_key(tau)] = [metrics.late_fraction,
                                  metrics.arrival_order_late_fraction]
        record: Dict[str, Any] = {"flow_stats": result.flow_stats,
                                  "taus": taus}
        if counters is not None:
            record["counters"] = counters.as_dict()
        return record


def _simulate_campaign_run(spec: RunSpec) -> Dict[str, Any]:
    """One replication of a multi-session campaign setting.

    The first entry of ``setting.configs`` supplies the shared fan-in
    bottleneck and its background load; ``len(setting.configs)`` is the
    per-session path count (every path of every session crosses the one
    bottleneck, so heterogeneous per-path configs have no meaning
    here).  The record's ``taus`` carry population *means* so existing
    consumers aggregate unchanged; the per-session distributions ride
    along under ``sessions``.

    Every campaign replication additionally runs with the streaming
    :class:`~repro.obs.health.HealthAggregator` attached and stores its
    ``health`` rollup — per-session QoE rows plus mergeable log
    histograms, with one late-fraction histogram per requested tau —
    so :func:`repro.experiments.campaign.run_campaign` can merge
    worker-local rollups in submit order into a population view that
    is bit-identical between serial and ``--workers N`` runs.
    """
    tel = telemetry.current()
    setting = spec.setting
    with tel.span("replication", label=setting.name,
                  scheme=spec.scheme, seed=spec.seed,
                  duration_s=spec.duration_s):
        path = setting.path_configs()[0]
        campaign = MultiSessionCampaign(
            mu=setting.mu, duration_s=spec.duration_s,
            n_sessions=setting.n_sessions,
            bottleneck=path.bottleneck,
            paths_per_session=len(setting.configs),
            scheme=spec.scheme,
            queue_discipline=setting.queue_discipline,
            seed=spec.seed,
            churn_rate=setting.churn_rate,
            n_ftp=path.n_ftp, n_http=path.n_http,
            send_buffer_pkts=spec.send_buffer_pkts)
        counters = campaign.attach_counters() if spec.counters else None
        aggregator = campaign.attach_health(tau=HEALTH_REFERENCE_TAU)
        result = campaign.run()
        taus: Dict[str, List[float]] = {}
        sessions: Dict[str, List[float]] = {}
        late_hists: Dict[str, Dict[str, Any]] = {}
        for tau in spec.taus:
            fractions = result.late_fractions(tau)
            ao_fractions = [
                arrival_order_late_fraction(s.arrivals, s.mu, tau)
                for s in result.sessions]
            n = len(fractions)
            taus[tau_key(tau)] = [sum(fractions) / n,
                                  sum(ao_fractions) / n]
            sessions[tau_key(tau)] = fractions
            late_hists[tau_key(tau)] = hist_of(fractions).to_dict()
        record: Dict[str, Any] = {
            "flow_stats": [stats for s in result.sessions
                           for stats in s.flow_stats],
            "taus": taus,
            "sessions": sessions,
            "health": {"rollup": aggregator.rollup(),
                       "late_hists": late_hists},
        }
        if counters is not None:
            record["counters"] = counters.as_dict()
        return record


def solve_model(batch: Sequence[ModelTask]) \
        -> List[LateFractionEstimate]:
    """Run one batch of model Monte-Carlo solves, in input order.

    Chains are shared across the batch: one ``TcpFlowChain`` per
    distinct :class:`FlowParams` and one :class:`DmpModel` per distinct
    (flows, mu), with each startup delay derived by
    :meth:`DmpModel.with_tau`.  The vectorized tasks are then solved in
    one lockstep pass (:func:`late_fraction_mc_batch`); each estimate
    is bit-identical to solving its task alone.  Legacy tasks are
    solved one by one.
    """
    tel = telemetry.current()
    with tel.span("solve", tasks=len(batch)):
        chains: Dict[FlowParams, TcpFlowChain] = {}
        bases: Dict[Tuple[Tuple[FlowParams, ...], float], DmpModel] = {}
        runs: List[StationaryRun] = []
        for task in batch:
            base = bases.get((task.flows, task.mu))
            if base is None:
                for params in task.flows:
                    if params not in chains:
                        chains[params] = TcpFlowChain(params)
                base = bases[(task.flows, task.mu)] = DmpModel(
                    [chains[params] for params in task.flows],
                    mu=task.mu, tau=task.tau)
            runs.append(base.with_tau(task.tau).stationary_run(
                horizon_s=task.horizon_s, seed=task.seed))
        # One call per kernel over its runs in task order, then the
        # estimates are dealt back out in task order.
        kernels = [resolve_kernel(task.mc_kernel) for task in batch]
        solved = {kernel: iter(late_fraction_mc_batch(
            [run for run, used in zip(runs, kernels) if used == kernel],
            kernel)) for kernel in KERNELS if kernel in kernels}
        return [next(solved[kernel]) for kernel in kernels]


def model_batches(tasks: Sequence[ModelTask]) -> List[List[int]]:
    """Group task indices into :func:`solve_model` batches.

    Every vectorized task joins one batch (it is solved in one
    lockstep pass); each legacy task is a batch of its own, so the
    point-by-point reference keeps its per-item parallelism.  The
    grouping depends only on the task list, never on the worker count,
    so serial and pooled runs solve the same batches.
    """
    batches: List[List[int]] = []
    vectorized: List[int] = []
    for idx, task in enumerate(tasks):
        if resolve_kernel(task.mc_kernel) == "vectorized":
            if not vectorized:
                batches.append(vectorized)
            vectorized.append(idx)
        else:
            batches.append([idx])
    return batches


class _CapturedCall:
    """Picklable wrapper: run ``fn(item)`` in the worker under a fresh
    telemetry session and ship the session home with the result.

    Returns ``(result, session.portable(), t0, t1)`` where the
    timestamps come from the worker's monotonic clock — system-wide on
    Linux, hence comparable with the parent's submit times.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[Any], Any]) -> None:
        self.fn = fn

    def __call__(self, item: Any) \
            -> Tuple[Any, Dict[str, Any], float, float]:
        with telemetry.session() as captured:
            t0 = captured.clock.now()
            result = self.fn(item)
            t1 = captured.clock.now()
        return result, captured.portable(), t0, t1


class ReplicationExecutor:
    """Order-preserving map over processes with serial fallback."""

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is None:
            max_workers = default_max_workers()
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers

    def map(self, fn: Callable[[T], R],
            items: Sequence[T]) -> List[R]:
        """Apply ``fn`` to every item, preserving input order."""
        work = list(items)
        workers = min(self.max_workers, len(work))
        tel = telemetry.current()
        with tel.span("executor.map", items=len(work),
                      workers=workers) as sp:
            if workers <= 1:
                if sp is not None:
                    sp.attrs["mode"] = "serial"
                return [self._run_inline(fn, item, tel)
                        for item in work]
            try:
                return self._run_pool(fn, work, workers, tel, sp)
            except (ImportError, OSError, PermissionError) as exc:
                warnings.warn(
                    f"process pool unavailable ({exc!r}); "
                    "running serially", RuntimeWarning, stacklevel=2)
                if tel.active:
                    tel.metrics.counter(
                        "executor.serial_fallback").inc()
                if sp is not None:
                    sp.attrs["mode"] = "fallback"
                return [self._run_inline(fn, item, tel)
                        for item in work]

    def _run_pool(self, fn: Callable[[T], R], work: List[T],
                  workers: int, tel: telemetry.Telemetry,
                  sp: Optional[telemetry.Span]) -> List[R]:
        from concurrent.futures import ProcessPoolExecutor
        call: Callable[[T], Any] = \
            _CapturedCall(fn) if tel.active else fn
        results: List[Any] = [None] * len(work)
        failed: List[int] = []
        busy = 0.0
        with ProcessPoolExecutor(max_workers=workers) as pool:
            submitted: List[float] = []
            futures = []
            for item in work:
                submitted.append(tel.clock.now())
                futures.append(pool.submit(call, item))
            for idx, future in enumerate(futures):
                try:
                    outcome = future.result()
                except Exception as exc:
                    warnings.warn(
                        f"parallel worker failed on item {idx} "
                        f"({exc!r}); retrying serially",
                        RuntimeWarning, stacklevel=2)
                    failed.append(idx)
                    continue
                if tel.active:
                    value, portable, t0, t1 = outcome
                    busy += self._merge_item(tel, portable,
                                             submitted[idx], t0, t1)
                    results[idx] = value
                else:
                    results[idx] = outcome
        if sp is not None:
            sp.attrs["mode"] = "parallel"
            sp.timing["busy_s"] = busy
            window = tel.clock.now() - sp.t0
            if window > 0:
                tel.metrics.gauge("executor.utilization").set(
                    busy / (workers * window))
        for idx in failed:
            if tel.active:
                tel.metrics.counter("executor.crash_retry").inc()
            with tel.span("retry", index=idx):
                # Second failure propagates: it is not a pool problem.
                results[idx] = self._run_inline(fn, work[idx], tel)
        return results

    def _run_inline(self, fn: Callable[[T], R], item: T,
                    tel: telemetry.Telemetry) -> R:
        """Run one item in-process, mirroring the pooled item metrics
        (zero queue wait) so serial and parallel histograms line up."""
        if not tel.active:
            return fn(item)
        t0 = tel.clock.now()
        result = fn(item)
        elapsed = tel.clock.now() - t0
        tel.metrics.histogram("executor.item_seconds").record(elapsed)
        tel.metrics.histogram(
            "executor.queue_wait_seconds").record(0.0)
        return result

    @staticmethod
    def _merge_item(tel: telemetry.Telemetry,
                    portable: Dict[str, Any], submitted: float,
                    t0: float, t1: float) -> float:
        """Graft one worker session; returns the item's busy time."""
        wait = max(t0 - submitted, 0.0)
        run_s = max(t1 - t0, 0.0)
        for span in tel.merge(portable):
            span.timing["queue_wait_s"] = wait
        tel.metrics.histogram("executor.item_seconds").record(run_s)
        tel.metrics.histogram(
            "executor.queue_wait_seconds").record(wait)
        return run_s

    def run_replications(self, specs: Sequence[RunSpec]) \
            -> List[Dict[str, Any]]:
        return self.map(simulate_run, specs)

    def solve_models(self, tasks: Sequence[ModelTask]) \
            -> List[LateFractionEstimate]:
        """Solve ``tasks`` in :func:`model_batches` batches; results
        come back in task order."""
        batches = model_batches(tasks)
        solved = self.map(solve_model,
                          [[tasks[idx] for idx in batch]
                           for batch in batches])
        by_index = {idx: estimate
                    for batch, estimates in zip(batches, solved)
                    for idx, estimate in zip(batch, estimates)}
        return [by_index[idx] for idx in range(len(tasks))]


# ---------------------------------------------------------------------
# Process-wide default (wired by the CLI and benchmarks/conftest.py)
# ---------------------------------------------------------------------
_default: Dict[str, Optional[int]] = {"max_workers": None}


def configure(max_workers: Optional[int] = None) -> None:
    """Set the default worker count used when callers pass None.

    ``None`` restores the initial behaviour: ``$REPRO_WORKERS`` when
    set, otherwise serial execution.
    """
    if max_workers is not None and max_workers < 1:
        raise ValueError("max_workers must be >= 1")
    _default["max_workers"] = max_workers


def default_max_workers() -> int:
    """Resolve the default worker count (configure > env > 1)."""
    configured = _default["max_workers"]
    if configured is not None:
        return configured
    env = os.environ.get(ENV_WORKERS)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            warnings.warn(f"ignoring non-integer {ENV_WORKERS}={env!r}",
                          RuntimeWarning)
    return 1
