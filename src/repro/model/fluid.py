"""Fluid late-fraction machinery (Section 7.3 and the mean-field backend).

Two consumers share one computation:

* the paper's Section 7.3 on/off comparison — DMP vs single-path over
  square-wave paths (:func:`fluid_late_fraction`,
  :func:`compare_dmp_vs_single`);
* the population-scale mean-field backend
  (:mod:`repro.model.meanfield`), which produces a per-session goodput
  *trace* and needs the same network-calculus treatment
  (:func:`late_fraction_from_trace`).

The core identity: with per-step arrival budget ``rate[i] * dt`` and
cumulative generation ``G`` (live source: you can never send more than
has been generated), the delivered curve satisfies

    arrived[i] = min(G[i], arrived[i-1] + rate[i] * dt)

whose closed form is ``S[i] + min(0, min_{k<=i}(G[k] - S[k]))`` with
``S`` the cumulative rate integral — one ``cumsum`` plus one running
minimum instead of a Python loop, which is what makes mean-field
(ratio, tau) grids at N=10^6 sessions a sub-second post-processing
step.  Playback is ``B(t) = mu * (t - tau)`` and the late fraction
over a horizon is the fraction of playback steps in deficit
(``A < B``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np
import numpy.typing as npt

FloatArray = npt.NDArray[np.float64]


@dataclass(frozen=True)
class OnOffPath:
    """A path alternating rate ``rate`` (on) and 0 (off).

    ``phase`` shifts the square wave: the path is on during
    ``[phase + k*period, phase + k*period + on_time)``.
    """

    rate: float
    period: float = 10.0
    on_time: float = 5.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError("rate must be non-negative")
        if not 0 < self.on_time <= self.period:
            raise ValueError("need 0 < on_time <= period")

    def rate_at(self, t: float) -> float:
        offset = (t - self.phase) % self.period
        return self.rate if offset < self.on_time else 0.0


def arrival_curve(rates: FloatArray, generated: FloatArray,
                  dt: float) -> FloatArray:
    """Delivered cumulative curve under the live-source constraint.

    ``rates`` is the service-rate trace on a uniform ``dt`` grid and
    ``generated`` the cumulative generation at the *end* of each step;
    the result is the cumulative delivered curve
    ``arrived[i] = min(generated[i], arrived[i-1] + rates[i]*dt)``
    evaluated in closed form (cumsum + running minimum).
    """
    sendable = np.cumsum(rates) * dt
    slack = np.minimum(generated - sendable, 0.0)
    arrived: FloatArray = sendable + np.minimum.accumulate(slack)
    return arrived


#: Slack, in steps, when placing ``tau`` and the video's end on the
#: ``dt`` grid, so float noise in ``tau / dt`` never moves a boundary.
_GRID_SLACK = 1e-6


def late_fraction_from_trace(rates: Union[Sequence[float], FloatArray],
                             mu: float, tau: float, dt: float,
                             video_duration_s: Optional[float] = None) \
        -> float:
    """Late playback fraction for a service-rate trace.

    ``rates`` is the aggregate delivery rate (packets/s) on a uniform
    grid of step ``dt`` starting at the session's t=0; generation runs
    at ``mu`` for ``video_duration_s`` seconds (``None`` = the whole
    trace, the live-stream case) and playback starts at ``tau``.  The
    returned fraction is the share of playback still in deficit —
    packets that miss their ``tau + i/mu`` deadline — matching
    :func:`repro.core.metrics.late_fraction` in the fluid limit.

    Live stream: the share of the trace's playback steps in deficit.

    Finite video, ``K`` steps long: playback from a ``tau`` off the
    grid touches ``K + 1`` steps, and the fraction always counts
    ``K + 1`` content slots.  Slot ``j`` holds content
    ``min(j * mu * dt, total)`` and is due by grid time
    ``(floor(tau / dt) + j) * dt`` (``tau`` rounded down to the grid).
    The fraction is the share of slots not delivered when due.  The
    slots do not depend on ``tau``, so the fraction never rises with
    it.  Playback runs to the last slot whatever the trace length:
    past the trace's end the rate is zero, so content still
    undelivered counts as late — the ``missing_as_late=True`` rule of
    :func:`repro.core.metrics.late_fraction`.  Once the trace reaches
    the last slot, a longer one changes nothing.
    """
    if mu <= 0 or tau < 0:
        raise ValueError("need mu > 0 and tau >= 0")
    if dt <= 0:
        raise ValueError("need dt > 0")
    rate = np.asarray(rates, dtype=np.float64)
    if rate.ndim != 1 or rate.size == 0:
        raise ValueError("rates must be a non-empty 1-D trace")
    if np.any(rate < 0):
        raise ValueError("rates must be non-negative")

    if video_duration_s is None:
        ends = np.arange(rate.size) * dt + dt
        arrived = arrival_curve(rate, mu * ends, dt)
        playback = mu * (ends - tau)
        playing = playback > 0
        played = int(np.count_nonzero(playing))
        if played == 0:
            return 0.0
        deficit = playing & (arrived < playback - 1e-9)
        return float(np.count_nonzero(deficit) / played)

    if video_duration_s <= 0:
        raise ValueError("video_duration_s must be positive")
    start = int(np.floor(tau / dt + _GRID_SLACK))
    slots = max(int(np.ceil(video_duration_s / dt - _GRID_SLACK)), 1) + 1
    if start + slots > rate.size:
        rate = np.concatenate([rate, np.zeros(start + slots - rate.size)])
    ends = np.arange(rate.size) * dt + dt
    total = mu * video_duration_s
    arrived = arrival_curve(
        rate, mu * np.minimum(ends, video_duration_s), dt)
    content = np.minimum(np.arange(1, slots + 1) * (mu * dt), total)
    due = arrived[start:start + slots]
    return float(np.count_nonzero(due < content - 1e-9) / slots)


def fluid_late_fraction(paths: Sequence[OnOffPath], mu: float,
                        tau: float, horizon: float = 600.0,
                        dt: float = 0.001) -> float:
    """Fraction of late playback for a live stream over on/off paths.

    The aggregate service rate at time t is the sum of path rates (DMP
    uses whichever paths are up; a single-path scenario passes one
    path).  The live constraint caps cumulative arrivals at cumulative
    generation ``G(t) = mu*t``.
    """
    if mu <= 0 or tau < 0:
        raise ValueError("need mu > 0 and tau >= 0")
    steps = int(round(horizon / dt))
    times = np.arange(steps) * dt
    rate = np.zeros(steps)
    for path in paths:
        offsets = (times - path.phase) % path.period
        rate += np.where(offsets < path.on_time, path.rate, 0.0)
    return late_fraction_from_trace(rate, mu, tau, dt)


def single_path_scenario(mu: float, period: float = 10.0,
                         on_time: float = 5.0,
                         phase: float = 0.0) -> List[OnOffPath]:
    """The paper's single path P: on-rate 2*mu."""
    return [OnOffPath(rate=2.0 * mu, period=period, on_time=on_time,
                      phase=phase)]


def dmp_scenario(mu: float, x: float, period: float = 10.0,
                 on_time: float = 5.0, aligned: bool = False) -> \
        List[OnOffPath]:
    """The paper's two paths P1/P2 with on-rates x and 2*mu - x.

    ``aligned=True`` puts both on at the same time (the case where the
    paper notes DMP equals single-path); ``aligned=False`` staggers
    them by half a period (alternating congestion, where DMP wins).
    """
    if not 0 < x <= mu:
        raise ValueError("x must lie in (0, mu]")
    phase2 = 0.0 if aligned else on_time
    return [
        OnOffPath(rate=x, period=period, on_time=on_time, phase=0.0),
        OnOffPath(rate=2.0 * mu - x, period=period, on_time=on_time,
                  phase=phase2),
    ]


def compare_dmp_vs_single(mu: float, xs: Sequence[float],
                          tau: float = 5.0, horizon: float = 600.0,
                          dt: float = 0.001) -> List[dict]:
    """Late fractions of single-path vs DMP across x (Section 7.3).

    For each x the DMP figure is the average over the two phase
    configurations (aligned and alternating), matching the paper's
    "average fraction of late packets" phrasing.
    """
    single = fluid_late_fraction(
        single_path_scenario(mu), mu, tau, horizon=horizon, dt=dt)
    rows = []
    for x in xs:
        aligned = fluid_late_fraction(
            dmp_scenario(mu, x, aligned=True), mu, tau,
            horizon=horizon, dt=dt)
        alternating = fluid_late_fraction(
            dmp_scenario(mu, x, aligned=False), mu, tau,
            horizon=horizon, dt=dt)
        rows.append({
            "x_over_mu": x / mu,
            "single_path": single,
            "dmp_aligned": aligned,
            "dmp_alternating": alternating,
            "dmp_average": 0.5 * (aligned + alternating),
        })
    return rows
