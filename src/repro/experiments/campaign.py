"""Replicated multi-session campaigns and their population metrics.

:func:`run_campaign` is the campaign counterpart of
:func:`repro.experiments.runner.run_setting`: it fans the replications
of a multi-session :class:`~repro.experiments.configs.Setting`
(``n_sessions > 1``) over the same
:class:`~repro.experiments.parallel.ReplicationExecutor` and result
cache, but aggregates *population* metrics — the distribution of
per-session late fractions pooled across every session of every
replication — instead of fitting the per-path model (which has no
population analogue).

Each replication is one whole
:class:`~repro.core.campaign.MultiSessionCampaign` run (see
:func:`repro.experiments.parallel.simulate_run`'s campaign dispatch),
seeded ``seed0 + run``, so serial and parallel execution are
bit-identical and records are reusable across invocations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

from repro import telemetry
from repro.core.campaign import population_quantiles
from repro.core.session import VIDEO_SEGMENT_BYTES
from repro.obs.health import LogHistogram, merge_rollups
from repro.experiments.cache import ResultCache, resolve_cache, tau_key
from repro.experiments.configs import Setting
from repro.experiments.parallel import ReplicationExecutor, RunSpec
from repro.experiments.runner import (
    DEFAULT_TAUS,
    ScaleProfile,
    _mean_ci95,
    scale_profile,
)
from repro.model.meanfield import (
    MeanFieldSpec,
    resolve_backend,
    solve_meanfield,
)
from repro.sim.topology import ACCESS_DELAY_S


@dataclass
class CampaignPoint:
    """Population late-fraction distribution at one startup delay.

    Quantiles pool the per-session late fractions across every session
    of every replication; ``mean``/``ci95`` are over the per-replication
    population means (the replication is the independent unit).
    """

    tau: float
    mean: float
    ci95: float
    p50: float
    p95: float
    p99: float
    worst: float


@dataclass
class CampaignRun:
    """Everything measured for one replicated campaign setting."""

    setting: Setting
    profile: ScaleProfile
    scheme: str
    points: List[CampaignPoint]
    #: tau -> per-replication lists of per-session late fractions.
    per_run_sessions: Dict[float, List[List[float]]]
    #: QoE health rollup merged across replications in submit order
    #: (see :func:`repro.obs.health.merge_rollups`); None for the
    #: mean-field backend, which has no per-session probe stream.
    health: Optional[Dict[str, Any]] = field(default=None)

    def point(self, tau: float) -> CampaignPoint:
        for pt in self.points:
            if pt.tau == tau:
                return pt
        raise KeyError(f"no point at tau={tau}")


def meanfield_spec_for_setting(setting: Setting,
                               duration_s: float,
                               warmup_s: float = 20.0,
                               drain_s: float = 60.0) -> MeanFieldSpec:
    """Translate a campaign :class:`Setting` into a mean-field problem.

    The mapping mirrors :func:`~repro.experiments.parallel.
    _simulate_campaign_run`: the first entry of ``setting.configs``
    supplies the shared fan-in bottleneck and its background load, and
    ``len(setting.configs)`` is the per-session path count.  Bandwidth
    converts to packets/s at the video segment size and the base RTT
    adds the two fan-in access hops
    (:data:`repro.sim.topology.ACCESS_DELAY_S`) in each direction.
    HTTP background (short transfers with think time) has no mean-field
    analogue and is dropped — only the persistent FTP flows count
    (see the :mod:`repro.model.meanfield` approximation notes).
    """
    path = setting.path_configs()[0]
    spec = path.bottleneck
    return MeanFieldSpec(
        n_sessions=setting.n_sessions,
        mu=setting.mu,
        bandwidth_pps=spec.bandwidth_bps / (8.0 * VIDEO_SEGMENT_BYTES),
        buffer_pkts=float(spec.buffer_pkts),
        queue_discipline=setting.queue_discipline,
        paths_per_session=len(setting.configs),
        n_background=path.n_ftp,
        base_rtt_s=2.0 * (2.0 * ACCESS_DELAY_S + spec.delay_s),
        duration_s=duration_s,
        warmup_s=warmup_s,
        drain_s=drain_s)


def _run_meanfield_campaign(setting: Setting,
                            taus: Sequence[float],
                            profile: ScaleProfile,
                            scheme: str,
                            cache: Union[ResultCache, bool, None]) \
        -> CampaignRun:
    """Solve a mean-field campaign setting deterministically.

    One ODE solve replaces every replication: the solution is exact
    for the limit object, so ``ci95`` is 0 and the population
    distribution is degenerate (every quantile equals the mean).  The
    result is cached under the full :class:`MeanFieldSpec` key, with
    per-tau late fractions accumulating across invocations like run
    records.
    """
    if scheme != "dmp":
        raise ValueError(
            f"mean-field backend models the DMP scheme only, "
            f"not {scheme!r}")
    if setting.churn_rate > 0:
        raise ValueError(
            "mean-field backend assumes synchronized session starts; "
            f"churn_rate={setting.churn_rate:g} is not modelled — "
            "use the packet backend for churn studies")
    tel = telemetry.current()
    with tel.span("campaign", label=setting.name, scheme=scheme,
                  profile=profile.name, runs=1,
                  sessions=setting.n_sessions, backend="meanfield"):
        spec = meanfield_spec_for_setting(setting, profile.duration_s)
        float_taus = [float(tau) for tau in taus]
        resolved = resolve_cache(cache)
        record = resolved.get_meanfield(spec, float_taus) \
            if resolved else None
        if record is None:
            solution = solve_meanfield(spec)
            record = {
                "backend": "meanfield",
                "taus": {tau_key(tau): solution.late_fraction(tau)
                         for tau in float_taus},
                "mean_drop_prob": solution.mean_drop_prob,
                "mean_queue_pkts": solution.mean_queue_pkts,
            }
            if resolved:
                resolved.put_meanfield(spec, record)

        points = [CampaignPoint(
            tau=tau, mean=value, ci95=0.0, p50=value, p95=value,
            p99=value, worst=value)
            for tau in float_taus
            for value in [float(record["taus"][tau_key(tau)])]]
        return CampaignRun(
            setting=setting, profile=profile, scheme=scheme,
            points=points,
            per_run_sessions={tau: [[pt.mean]]
                              for tau, pt in zip(float_taus, points)})


def run_campaign(setting: Setting,
                 taus: Sequence[float] = DEFAULT_TAUS,
                 profile: Optional[ScaleProfile] = None,
                 scheme: str = "dmp",
                 seed0: int = 1000,
                 send_buffer_pkts: int = 16,
                 max_workers: Optional[int] = None,
                 cache: Union[ResultCache, bool, None] = None,
                 executor: Optional[ReplicationExecutor] = None) \
        -> CampaignRun:
    """Run one multi-session campaign setting, replicated per profile.

    ``setting.n_sessions`` concurrent sessions share one fan-in
    bottleneck per replication; ``setting.churn_rate`` picks staggered
    (0) or Poisson-churn (> 0) session starts.  Replications fan out
    over the executor exactly like single-session settings and reuse
    the same cache records (keyed on the campaign axes).

    ``setting.backend == "meanfield"`` routes to the deterministic
    population ODE instead (:mod:`repro.model.meanfield`): one solve
    replaces every replication, ``ci95`` is 0 and the population
    distribution is degenerate.  Cost is then independent of
    ``setting.n_sessions`` — N = 10^6 works.
    """
    if setting.n_sessions < 2:
        raise ValueError(
            f"setting {setting.name!r} has n_sessions="
            f"{setting.n_sessions}; use run_setting for single-session "
            "validation")
    if profile is None:
        profile = scale_profile()
    if resolve_backend(setting.backend) == "meanfield":
        return _run_meanfield_campaign(setting, taus, profile, scheme,
                                       cache)
    if executor is None:
        executor = ReplicationExecutor(max_workers=max_workers)
    tel = telemetry.current()
    with tel.span("campaign", label=setting.name, scheme=scheme,
                  profile=profile.name, runs=profile.runs,
                  sessions=setting.n_sessions):
        resolved = resolve_cache(cache)

        float_taus = [float(tau) for tau in taus]
        specs = [RunSpec(setting=setting,
                         duration_s=profile.duration_s,
                         scheme=scheme, seed=seed0 + run,
                         send_buffer_pkts=send_buffer_pkts,
                         taus=tuple(float_taus))
                 for run in range(profile.runs)]
        records: List[Optional[dict]] = [
            resolved.get_run(spec) if resolved else None
            for spec in specs]
        missing = [idx for idx, rec in enumerate(records)
                   if rec is None]
        fresh = executor.run_replications(
            [specs[idx] for idx in missing])
        for idx, record in zip(missing, fresh):
            records[idx] = record
            if resolved:
                resolved.put_run(specs[idx], record)

        per_run_sessions: Dict[float, List[List[float]]] = {
            tau: [list(rec["sessions"][tau_key(tau)])
                  for rec in records if rec is not None]
            for tau in float_taus}

        # Worker-local health rollups merge in submit order (records
        # are already in spec order), so serial and --workers N runs
        # produce byte-identical merged rollups.
        health = merge_rollups(
            [rec["health"]["rollup"] for rec in records
             if rec is not None])

        points: List[CampaignPoint] = []
        for tau in float_taus:
            replications = per_run_sessions[tau]
            pooled = [fraction for rep in replications
                      for fraction in rep]
            rep_means = [sum(rep) / len(rep) for rep in replications]
            mean, ci = _mean_ci95(rep_means)
            # Above the threshold the percentiles come from the merged
            # per-tau log histograms: at large N the only path that
            # avoids sorting runs x sessions floats.
            pcts = population_quantiles(
                pooled, lambda: LogHistogram.merged(
                    [LogHistogram.from_dict(
                        rec["health"]["late_hists"][tau_key(tau)])
                     for rec in records if rec is not None]))
            points.append(CampaignPoint(
                tau=tau, mean=mean, ci95=ci, worst=max(pooled),
                **pcts))

        return CampaignRun(
            setting=setting, profile=profile, scheme=scheme,
            points=points, per_run_sessions=per_run_sessions,
            health=health)
