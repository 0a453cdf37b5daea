"""Mean-field population backend: N sessions as a deterministic ODE.

The packet simulator's cost is O(N * events): the committed scaling
curve (266k -> 158k events/s from N=1 to N=200 sessions) puts a
CDN-pop population of 10^6 sessions four orders of magnitude out of
reach.  McDonald & Reynier's mean-field limit (PAPERS.md) is the way
around it: as the number of TCP flows through one RED buffer grows,
every *per-flow* quantity converges to a deterministic process driven
by a queue ODE, so population metrics become a fixed-cost solve whose
wall time is independent of N.

The state here is intensive (per-session), so N never enters the
integration except through per-session shares — the scaled limit is
exactly N-invariant by construction:

* a window *density* per flow class over w = 1..wmax (video flows,
  app-capped at ``mu/paths_per_session``; persistent background flows,
  always backlogged) plus a timeout compartment per class;
* window transport at 1/(2R) per window per second (one increment per
  two RTTs, delayed ACKs), loss at rate ``p(t) * rate_w`` moving mass
  to ``max(w // 2, 1)`` (fast recovery, w >= 4) or the timeout
  compartment (w < 4), timeout exit back to w = 2 after
  ``max(min_rto, to_ratio * R)`` seconds;
* the McDonald-Reynier queue ODE ``dq/dt = A(t)(1 - p) - C`` with the
  RED drop profile of :class:`repro.sim.queueing.REDQueue`
  (``min_th = B/5``, ``max_th = B/2``, ``max_p = 0.1``, hard drop
  above ``max_th``), and drop-tail as the hard-limit case — loss only
  by buffer overflow, ``p = max(0, 1 - C/A)`` at the boundary;
* RTT coupling ``R(t) = base_rtt + q(t)/C``.

The per-session delivered-rate trace (shifted by the one-way delay)
feeds :func:`repro.model.fluid.late_fraction_from_trace`, giving the
per-tau late fractions the packet campaigns measure — and Fig 8-style
(ratio, tau) grids at any N, including N=10^6, in seconds
(:func:`late_fraction_grid`).

Deliberate approximations (the agreement suite pins the resulting
band against :class:`repro.core.campaign.MultiSessionCampaign` at
N = 10/100/1000): sessions are treated as synchronized and
statistically exchangeable (start staggering/churn only shifts each
session's private clock), slow start is collapsed into CA re-entry at
w = 2, RED's averaged queue is approximated by the instantaneous one,
timeout backoff beyond the first stage is ignored, and HTTP background
(short transfers with think times) is not modelled — only persistent
FTP-like flows count toward ``n_background``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from repro.model.fluid import late_fraction_from_trace

FloatArray = npt.NDArray[np.float64]

#: Solver backends a :class:`repro.experiments.configs.Setting` can
#: pick: the packet-level simulator or this mean-field ODE system.
BACKENDS: Tuple[str, ...] = ("packet", "meanfield")

#: Queue disciplines with a mean-field drop profile.  PIE/FQ-PIE keep
#: controller state per *packet interval* that has no clean fluid
#: analogue here; campaigns needing them stay on the packet backend.
MEANFIELD_DISCIPLINES: Tuple[str, ...] = ("droptail", "red")

#: RED profile constants, matching ``repro.sim.queueing.REDQueue``.
RED_MIN_TH_FRACTION = 0.2
RED_MAX_TH_FRACTION = 0.5
RED_MAX_P = 0.1

#: Horizon slack :func:`late_fraction_grid` adds past the last playing
#: step ``tau + duration_s``: a horizon this far past it gives every
#: playing step the delivery any longer horizon would (the one-way
#: delay only shifts deliveries later, and the shifted curve is exact
#: up to the last arrival).
HORIZON_MARGIN_S = 1.0


def resolve_backend(backend: str) -> str:
    """Validate a backend name (mirrors ``mc_kernel.resolve_kernel``)."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; "
                         f"choose from {list(BACKENDS)}")
    return backend


@dataclass(frozen=True)
class MeanFieldSpec:
    """One mean-field population problem (hashed into cache keys).

    Everything is in packets and seconds; ``bandwidth_pps`` and
    ``buffer_pkts`` are the *total* bottleneck capacity and buffer
    (the solver divides by ``n_sessions`` internally, which is the
    only place N appears).
    """

    n_sessions: int
    mu: float
    bandwidth_pps: float
    buffer_pkts: float
    queue_discipline: str = "droptail"
    paths_per_session: int = 2
    n_background: int = 0
    base_rtt_s: float = 0.06
    duration_s: float = 300.0
    warmup_s: float = 20.0
    drain_s: float = 60.0
    wmax: int = 32
    to_ratio: float = 2.0
    min_rto_s: float = 0.2
    dt: float = 0.005

    def __post_init__(self) -> None:
        if self.n_sessions < 1:
            raise ValueError("need n_sessions >= 1")
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if self.bandwidth_pps <= 0 or self.buffer_pkts <= 0:
            raise ValueError("bandwidth and buffer must be positive")
        if self.queue_discipline not in MEANFIELD_DISCIPLINES:
            raise ValueError(
                f"mean-field backend supports "
                f"{list(MEANFIELD_DISCIPLINES)}, "
                f"not {self.queue_discipline!r}")
        if self.paths_per_session < 1:
            raise ValueError("need paths_per_session >= 1")
        if self.n_background < 0:
            raise ValueError("n_background must be non-negative")
        if self.base_rtt_s <= 0:
            raise ValueError("base_rtt_s must be positive")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.warmup_s < 0 or self.drain_s < 0:
            raise ValueError("warmup_s/drain_s must be non-negative")
        if self.wmax < 4:
            raise ValueError("need wmax >= 4 (fast-recovery threshold)")
        if self.to_ratio <= 0 or self.min_rto_s < 0:
            raise ValueError("invalid timeout parameters")
        if not 0 < self.dt <= 0.05:
            raise ValueError("need 0 < dt <= 0.05 (Euler stability)")


@dataclass(frozen=True)
class MeanFieldSolution:
    """The solved population trajectory, on the session clock.

    ``times`` spans ``[0, duration_s + drain_s)`` with step
    ``spec.dt`` (t = 0 is the synchronized session start, after the
    background warmup).  ``goodput_pps`` is the per-session delivered
    rate *at the client* (shifted by the one-way delay),
    ``queue_pkts`` the per-session share of the bottleneck queue and
    ``drop_prob`` the instantaneous drop probability.
    """

    spec: MeanFieldSpec
    times: FloatArray
    goodput_pps: FloatArray
    queue_pkts: FloatArray
    drop_prob: FloatArray
    #: Worst absolute drift of the total window-density mass (density
    #: plus timeout compartments, per class) from its initial value
    #: over the whole integration.  The transport operator conserves
    #: mass exactly in exact arithmetic; this bounds the accumulated
    #: float error and is pinned near zero by the property suite.
    mass_error: float = 0.0

    def late_fraction(self, tau: float) -> float:
        """Population (= per-session) late fraction at delay ``tau``.

        Playback runs to ``tau + duration_s``; content the trace has not
        delivered by its end counts as late (missing-as-late), so a tau
        whose playback outlasts the horizon gets a conservative value.
        """
        return late_fraction_from_trace(
            self.goodput_pps, self.spec.mu, tau, self.spec.dt,
            video_duration_s=self.spec.duration_s)

    def late_fractions(self, taus: Sequence[float]) \
            -> Dict[float, float]:
        """Late fraction per startup delay (tau -> fraction)."""
        return {float(tau): self.late_fraction(float(tau))
                for tau in taus}

    def population(self, tau: float) -> Dict[str, float]:
        """Population summary in the shape of
        :meth:`repro.core.campaign.CampaignResult.population` — in the
        mean-field limit every session sees the same trajectory, so
        the distribution is degenerate."""
        value = self.late_fraction(tau)
        return {"mean": value, "min": value, "max": value,
                "p50": value, "p95": value, "p99": value}

    @property
    def mean_queue_pkts(self) -> float:
        """Time-averaged total bottleneck queue (packets)."""
        return float(np.mean(self.queue_pkts)) * self.spec.n_sessions

    @property
    def mean_drop_prob(self) -> float:
        """Arrival-weighted would be fairer; time-averaged is stable."""
        return float(np.mean(self.drop_prob))


def _step_grid(spec: MeanFieldSpec) -> Tuple[float, int, int, int]:
    """What lanes of one batch share: ``dt``, ``wmax`` and the warmup
    and active step counts."""
    return (spec.dt, spec.wmax, int(round(spec.warmup_s / spec.dt)),
            int(round((spec.duration_s + spec.drain_s) / spec.dt)))


def _lanes(values: Sequence[float]) -> FloatArray:
    """One value per lane, shaped ``(B, 1, 1)`` to broadcast against
    the ``(B, 2, wmax)`` density."""
    return np.array(values, dtype=np.float64).reshape(-1, 1, 1)


def solve_meanfield(spec: MeanFieldSpec) -> MeanFieldSolution:
    """Integrate the mean-field system for one population problem.

    The batch-of-one case of :func:`solve_meanfield_batch`.
    """
    return solve_meanfield_batch([spec])[0]


def solve_meanfield_batch(specs: Sequence[MeanFieldSpec]) \
        -> List[MeanFieldSolution]:
    """Integrate several population problems in one lockstep pass.

    Fixed-step explicit Euler on per-session (intensive) state: cost
    depends on the horizon and ``dt``, never on ``n_sessions``.  Each
    spec is one lane of ``(B, 2, wmax)`` arrays advanced by the same
    loop, so a batch pays numpy's per-call overhead once per step
    instead of once per spec.  Lanes may differ in capacity, buffer,
    background share, discipline (RED's early drop is per-lane data),
    RTT and timeout constants; they must share the step grid (``dt``,
    ``wmax``, warmup and active step counts), else ``ValueError``.

    Lane ``i`` is bit-identical to solving ``specs[i]`` alone: every
    per-lane reduction sums the lane's own contiguous block in the
    same order whatever the batch, and every elementwise expression
    keeps one operand order.  Pure float arithmetic, no RNG, no wall
    clock — equal specs give bit-identical solutions.
    """
    if not specs:
        return []
    grids = sorted({_step_grid(spec) for spec in specs})
    if len(grids) > 1:
        raise ValueError(
            "specs in one batch must share the step grid (dt, wmax, "
            f"warmup steps, active steps); got {grids}")
    dt, wmax, warmup_steps, active_steps = grids[0]
    lanes = len(specs)
    # Scalars as 0-d arrays: numpy broadcasts those faster than floats.
    c_dt, c_zero, c_one, c_tiny = (
        np.array(value) for value in (dt, 0.0, 1.0, 1e-300))

    # Per-session shares and constants, one per lane (the only place
    # N appears).  Drop-tail lanes get RED's ramp with ``max_p = 0``
    # and an infinite hard threshold, so their early drop is zero.
    red = [s.queue_discipline == "red" for s in specs]
    any_red = any(red)
    capacity = _lanes([s.bandwidth_pps / s.n_sessions for s in specs])
    buffer_share = _lanes([s.buffer_pkts / s.n_sessions
                           for s in specs])
    capacity_dt = capacity * dt
    base_rtt = _lanes([s.base_rtt_s for s in specs])
    # One pass over [2 * rtt, timeout] per lane yields the growth step
    # dt / (2 rtt) and the timeout exit min(dt / timeout, 1), where
    # timeout = max(min_rto, to_ratio * rtt).
    rtt_scale = np.stack([np.full((lanes, 1, 1), 2.0),
                          _lanes([s.to_ratio for s in specs])])
    rtt_floor = np.stack([np.full((lanes, 1, 1), -np.inf),
                          _lanes([s.min_rto_s for s in specs])])
    step_cap = np.array([np.inf, 1.0]).reshape(2, 1, 1, 1)
    rtt_steps = np.empty((2, lanes, 1, 1))
    growth, timeout_exit = rtt_steps
    min_th = RED_MIN_TH_FRACTION * buffer_share
    max_th = RED_MAX_TH_FRACTION * buffer_share
    red_span = max_th - min_th
    red_max_p = _lanes([RED_MAX_P if r else 0.0 for r in red])
    hard_th = np.where(np.reshape(red, (-1, 1, 1)), max_th, np.inf)
    hard_drop = np.empty((lanes, 1, 1))

    w = np.arange(1, wmax + 1, dtype=np.float64)
    # Class 0: the session's video flows (mass k), app-capped at
    # mu / k per path; class 1: persistent background flows (mass
    # n_background / n), uncapped.  Everything starts in CA at w = 2.
    # During the background warmup the video class neither sends
    # (rate cap 0) nor grows.
    density = np.zeros((lanes, 2, wmax))
    caps = np.full((lanes, 2, 1), np.inf)
    for i, spec in enumerate(specs):
        density[i, 0, 1] = float(spec.paths_per_session)
        density[i, 1, 1] = spec.n_background / spec.n_sessions
        caps[i, 0, 0] = spec.mu / spec.paths_per_session
    warmup_caps = caps.copy()
    warmup_caps[:, 0] = 0.0
    # A window grows while its rate is below the cap, except the top
    # window (and the video class during the warmup).
    grow_caps = np.broadcast_to(caps, density.shape).copy()
    grow_caps[:, :, -1] = -np.inf
    warmup_grow_caps = grow_caps.copy()
    warmup_grow_caps[:, 0] = -np.inf
    timeout_mass = np.zeros((lanes, 2, 1))

    # Work buffers, rewritten every step, and fixed views into them.
    # A per-lane sum reduces one lane's own flat 2 x wmax block (or
    # one class row), so its summation order never depends on the
    # batch.
    window_rates, rates, flows, can_grow, up, loss, factor = (
        np.empty_like(density) for _ in range(7))
    flat = (lanes, 1, 2 * wmax)
    density_flat = density.reshape(flat)
    flows_flat = flows.reshape(flat)
    video_flows = flows[:, :1]
    # Growth moves mass one window up.  Shifted by one element, the
    # flat buffers also carry each row's top window into the next
    # row's w = 1; the top window never grows (its ``up`` is zero), so
    # that adds nothing.
    grown_into = density.reshape(-1)[1:]
    grown_from = up.reshape(-1)[:-1]
    restart_into = density[:, :, 1:2]
    timeout_lo = timeout_mass[:, :1]
    timeout_hi = timeout_mass[:, 1:]
    timeout_from = loss[:, :, :3]
    # Loss outcome per window: fast recovery halves w >= 4 down to
    # max(w // 2, 1) = w // 2, so windows 2j and 2j + 1 both land on
    # window j; w < 4 cannot raise three duplicate ACKs and times out
    # instead (``timeout_from``).  With an even wmax the top window
    # has no partner.
    full = (wmax - 3) // 2
    halved_into = density[:, :, 1:full + 1]
    halved_even = loss[:, :, 3:2 * full + 2:2]
    halved_odd = loss[:, :, 4:2 * full + 3:2]
    lone_into = density[:, :, full + 1:full + 2]
    lone_from = loss[:, :, wmax - 1:]
    has_lone = wmax % 2 == 0

    # Step-major traces, one row of B lanes per step; the queue and
    # drop rows double as the solver's state.
    steps = warmup_steps + active_steps
    queues = np.zeros((steps + 1, lanes, 1, 1))
    drops = np.zeros((steps, lanes, 1, 1))
    video_trace = np.zeros((active_steps, lanes, 1, 1))
    mass_trace = np.zeros((steps, lanes, 1, 1))
    timeout_trace = np.zeros((steps, lanes, 1, 1))

    # Local names for the ufuncs called with ``out=`` (and the sums):
    # the loop runs ~10^4 times with ~50 calls each.
    add, multiply, divide, minimum, maximum, fmax, less, less_equal = (
        np.add, np.multiply, np.divide, np.minimum, np.maximum, np.fmax,
        np.less, np.less_equal)
    add_reduce = np.add.reduce
    initial_mass = add_reduce(density_flat, axis=2, keepdims=True) \
        + (timeout_lo + timeout_hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        for step in range(steps):
            video_active = step >= warmup_steps
            queue = queues[step]
            rtt = base_rtt + queue / capacity
            divide(w, rtt, window_rates)
            minimum(window_rates, caps if video_active else warmup_caps,
                    out=rates)
            multiply(density, rates, flows)
            arr = add_reduce(flows_flat, axis=2, keepdims=True) * c_dt

            # -- queue update and effective drop probability ----------
            # arr >= 0: flows are non-negative up to the rounding of an
            # emptied bin, far below a class's mass.
            if any_red:
                # Above the hard threshold the drop is 1, else the ramp
                # clipped at 0; the ramp stays below 1 while q <= B.
                ramp = red_max_p * (queue - min_th) / red_span
                less_equal(hard_th, queue, hard_drop)
                early_p = maximum(ramp, hard_drop)
                kept = arr * (c_one - early_p)
            else:
                kept = arr
            room = buffer_share - queue + capacity_dt
            # = ``max(room, 0) if kept > room else kept``, as kept >= 0.
            kept = minimum(kept, maximum(room, c_zero))
            # 1 - kept/arr lies in [0, 1] for arr > 0; arr == 0 gives
            # NaN, which fmax turns into the zero drop it stands for.
            drop_p = fmax(c_one - kept / arr, c_zero, out=drops[step])
            maximum(queue + kept - capacity_dt, c_zero,
                    out=queues[step + 1])
            if video_active:
                add_reduce(video_flows, axis=2, keepdims=True,
                           out=video_trace[step - warmup_steps])

            # -- window-density transport -----------------------------
            multiply(rtt, rtt_scale, rtt_steps)
            maximum(rtt_steps, rtt_floor, out=rtt_steps)
            divide(c_dt, rtt_steps, rtt_steps)
            minimum(rtt_steps, step_cap, out=rtt_steps)
            less(window_rates,
                 grow_caps if video_active else warmup_grow_caps,
                 can_grow)
            multiply(density, growth, up)
            up *= can_grow
            multiply(density, drop_p * c_dt, loss)
            loss *= rates
            # factor = clip(density / max(up + loss, tiny), 0, 1)
            add(up, loss, factor)
            maximum(factor, c_tiny, out=factor)
            divide(density, factor, factor)
            maximum(factor, c_zero, out=factor)
            minimum(factor, c_one, out=factor)
            up *= factor
            loss *= factor
            density -= up + loss
            grown_into += grown_from
            halved_into += halved_even + halved_odd
            if has_lone:
                lone_into += lone_from
            timeout_in = add_reduce(timeout_from, axis=2, keepdims=True)
            timeout_out = timeout_mass * timeout_exit
            timeout_mass += timeout_in - timeout_out
            restart_into += timeout_out
            add_reduce(density_flat, axis=2, keepdims=True,
                       out=mass_trace[step])
            add(timeout_lo, timeout_hi, timeout_trace[step])

    # Worst drift of the total mass from its initial value (fmax skips
    # a NaN drift, as a running ``if drift > worst`` would).
    drift = np.abs(mass_trace + timeout_trace - initial_mass)
    mass_errors = np.fmax.reduce(drift, axis=0, initial=0.0)
    queue_trace = queues[warmup_steps:steps]
    drop_trace = drops[warmup_steps:]
    goodput = video_trace * (1.0 - drop_trace)
    delay_trace = _lanes([s.base_rtt_s / 2.0 for s in specs]) \
        + queue_trace / capacity

    times = np.arange(active_steps) * dt
    solutions: List[MeanFieldSolution] = []
    for i, spec in enumerate(specs):
        # Shift delivery by the (monotone-arrival-time) one-way delay
        # and resample back onto the uniform session-clock grid.
        cumulative = np.cumsum(goodput[:, i, 0, 0]) * dt
        arrival_times = times + delay_trace[:, i, 0, 0]
        shifted = np.interp(times, arrival_times, cumulative,
                            left=0.0, right=float(cumulative[-1])) \
            if active_steps else cumulative
        rates_shifted = np.maximum(
            np.diff(shifted, prepend=0.0) / dt, 0.0)
        solutions.append(MeanFieldSolution(
            spec=spec, times=times.copy(), goodput_pps=rates_shifted,
            queue_pkts=queue_trace[:, i, 0, 0].copy(),
            drop_prob=drop_trace[:, i, 0, 0].copy(),
            mass_error=float(mass_errors[i, 0, 0])))
    return solutions


def late_fraction_grid(base: MeanFieldSpec,
                       ratios: Sequence[float],
                       taus: Sequence[float]) -> List[Dict[str, object]]:
    """Fig 8-style (provisioning ratio, tau) late-fraction grid.

    The provisioning ratio scales the *per-session* capacity share
    against the playback rate: ``bandwidth_pps = ratio * mu * N``.
    Every ratio is one lane of a single :func:`solve_meanfield_batch`
    pass and every tau is post-processing on its trace, so a full grid
    at N = 10^6 costs seconds.  The drain is stretched so the horizon
    covers ``max(taus) + duration_s`` plus a second of margin: no late
    fraction is truncated by the solve's end.  ``mean_drop_prob`` and
    ``mean_queue_pkts`` average over ``base``'s own
    ``duration_s + drain_s`` window, as a solve of ``base`` would.
    """
    for ratio in ratios:
        if ratio <= 0:
            raise ValueError("provisioning ratios must be positive")
    drain_s = max([base.drain_s]
                  + [float(tau) + HORIZON_MARGIN_S for tau in taus])
    specs = [replace(base, drain_s=drain_s, bandwidth_pps=float(
        ratio * base.mu * base.n_sessions)) for ratio in ratios]
    window = _step_grid(base)[3]
    rows: List[Dict[str, object]] = []
    for ratio, solution in zip(ratios, solve_meanfield_batch(specs)):
        rows.append({
            "ratio": float(ratio),
            "late_fraction": {f"{float(tau):g}":
                              solution.late_fraction(float(tau))
                              for tau in taus},
            "mean_drop_prob": float(np.mean(solution.drop_prob[:window])),
            "mean_queue_pkts": float(np.mean(
                solution.queue_pkts[:window])) * base.n_sessions,
        })
    return rows
