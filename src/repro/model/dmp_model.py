"""The coupled DMP-streaming CTMC ``(X_1 .. X_K, N)`` and its solvers.

``N`` is the early-packet count at the client.  Section 2.1 bounds it by
``Nmax = mu * tau``; a flow makes no transition while ``N == Nmax``
(Section 4.2).  A flow transition adds its delivered packets ``S``
(capped at ``Nmax``); consumption events at rate ``mu`` subtract one.
``N`` may go negative: a negative value is the playback deficit, and a
consumption that happens while ``N <= 0`` is a late packet (eq. (1)).

Two solvers are provided:

* :meth:`DmpModel.late_fraction_exact` builds the joint sparse
  generator (with a truncated floor on ``N``) and solves it directly —
  our stand-in for the paper's TANGRAM-II run.  Feasible for small
  windows/startup delays; used to validate the Monte-Carlo engine.
* :meth:`DmpModel.late_fraction_mc` simulates the CTMC.  Consumption
  between flow events is a Poisson process, so each inter-flow-event
  segment is aggregated in O(1), and the late count is accumulated as a
  conditional expectation (Rao-Blackwellisation) — this is what makes
  the paper's 1e-4 satisfaction threshold measurable in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
import numpy.typing as npt
from scipy.sparse import csc_matrix
from scipy.special import gammainc

from repro.model import mc_kernel as _kernel
from repro.model.mc_kernel import (PROB_TOLERANCE, StationaryRun,
                                   resolve_kernel)
from repro.model.tcp_chain import (
    FlowParams,
    TcpFlowChain,
    solve_stationary,
)

FlowLike = Union[FlowParams, TcpFlowChain]

FloatArray = npt.NDArray[np.float64]
IntArray = npt.NDArray[np.int64]

#: One state's flattened outcome row: cumulative probabilities,
#: next-state ids, delivered packet counts.
OutcomeTable = Tuple[FloatArray, IntArray, IntArray]

#: One chain's table: per-state rates plus per-state outcome rows.
ChainTable = Tuple[FloatArray, List[OutcomeTable]]


def expected_excess(lam: float, m: int) -> float:
    """E[(X - m)^+] for X ~ Poisson(lam) and integer m >= 0.

    Uses ``P(X >= n) = gammainc(n, lam)`` (regularised lower incomplete
    gamma), giving ``E[(X-m)^+] = lam*P(X>=m) - m*P(X>=m+1)``.
    """
    if lam < 0:
        raise ValueError("lam must be non-negative")
    if m < 0:
        raise ValueError("m must be non-negative")
    if lam == 0.0:  # repro-lint: disable=RL005 -- structural zero: lam is validated >= 0 and exactly 0 only for an empty window, not computed
        return 0.0
    if m == 0:
        return lam
    return float(lam * gammainc(m, lam) - m * gammainc(m + 1, lam))


@dataclass(frozen=True)
class LateFractionEstimate:
    """Monte-Carlo estimate of the stationary fraction of late packets."""

    late_fraction: float
    stderr: float
    horizon_s: float
    method: str
    path_shares: Tuple[float, ...] = ()
    kernel: str = "legacy"

    @property
    def relative_error(self) -> float:
        if self.late_fraction <= 0:
            return float("inf")
        return self.stderr / self.late_fraction


class DmpModel:
    """Analytical model of DMP-streaming over K paths."""

    def __init__(self, flows: Sequence[FlowLike], mu: float,
                 tau: float) -> None:
        if not flows:
            raise ValueError("need at least one flow")
        if mu <= 0:
            raise ValueError("mu must be positive")
        if tau <= 0:
            raise ValueError("tau must be positive")
        self.chains: List[TcpFlowChain] = [
            flow if isinstance(flow, TcpFlowChain) else TcpFlowChain(flow)
            for flow in flows]
        self.mu = float(mu)
        self.tau = float(tau)
        self.nmax = max(1, int(round(mu * tau)))
        #: Padded outcome tables for the vectorized kernels, built on
        #: first use by :func:`repro.model.mc_kernel.compiled_model`.
        self._compiled: Optional[_kernel.CompiledModel] = None

    # ------------------------------------------------------------------
    def with_tau(self, tau: float) -> "DmpModel":
        """Same flows and rate, different startup delay (chains reused)."""
        clone = DmpModel(self.chains, self.mu, tau)
        if self._compiled is not None:
            # The compiled outcome tables depend only on the chains.
            clone._compiled = self._compiled
        return clone

    def aggregate_throughput(self) -> float:
        """sigma_a: sum of the per-path achievable TCP throughputs."""
        return sum(chain.achievable_throughput()
                   for chain in self.chains)

    @property
    def throughput_ratio(self) -> float:
        """sigma_a / mu, the paper's key satisfaction parameter."""
        return self.aggregate_throughput() / self.mu

    # ------------------------------------------------------------------
    # Monte-Carlo solver
    # ------------------------------------------------------------------
    def _compile_tables(self) -> List[ChainTable]:
        """Flatten chain outcome lists into numpy arrays for sampling.

        Outcome probabilities are validated (they must sum to 1 within
        :data:`repro.model.mc_kernel.PROB_TOLERANCE`) and normalised at
        build time, so the cumulative rows end at exactly 1.0 and
        ``searchsorted`` over them can never select past the last
        outcome for a uniform draw in ``[0, 1)``.
        """
        tables: List[ChainTable] = []
        for chain in self.chains:
            per_state: List[OutcomeTable] = []
            for sid, outs in enumerate(chain.outcomes):
                probs = np.array([prob for prob, _, _ in outs])
                total = float(probs.sum())
                if abs(total - 1.0) > PROB_TOLERANCE:
                    raise AssertionError(
                        f"outcome probabilities sum to {total} in "
                        f"state {chain.states[sid]}")
                cum = np.cumsum(probs / total)
                cum[-1] = 1.0
                nxt = np.array([nid for _, nid, _ in outs],
                               dtype=np.int64)
                svals = np.array([s for _, _, s in outs],
                                 dtype=np.int64)
                per_state.append((cum, nxt, svals))
            rates = np.array(chain.rates)
            tables.append((rates, per_state))
        return tables

    def stationary_run(self, horizon_s: float = 20000.0,
                       seed: int = 0,
                       burn_in_s: Optional[float] = None,
                       batches: int = 20) -> StationaryRun:
        """One stationary solve's run length, validated, with the
        default burn-in of :meth:`late_fraction_mc` resolved; solve it
        batched with other runs by :func:`late_fraction_mc_batch`."""
        if horizon_s <= 0:
            raise ValueError("horizon must be positive")
        if burn_in_s is None:
            burn_in_s = max(0.1 * horizon_s,
                            min(20 * self.tau, 0.3 * horizon_s))
        if burn_in_s >= horizon_s:
            raise ValueError("burn-in must be shorter than the horizon")
        if batches < 1:
            raise ValueError("need at least one batch")
        return StationaryRun(model=self, horizon_s=horizon_s, seed=seed,
                             burn_in_s=burn_in_s, batches=batches)

    def late_fraction_mc(self, horizon_s: float = 20000.0,
                         seed: int = 0,
                         burn_in_s: Optional[float] = None,
                         batches: int = 20,
                         mc_kernel: Optional[str] = None) \
            -> LateFractionEstimate:
        """Estimate the stationary late fraction by simulating the CTMC.

        ``horizon_s`` is model time; the first ``burn_in_s`` (default:
        10% of the horizon, at least 20 buffer-drain times) is
        discarded.  The standard error comes from batch means.

        ``mc_kernel`` selects the engine: ``"vectorized"`` (the
        default; R lockstep replicas advanced as numpy arrays, see
        :mod:`repro.model.mc_kernel`) or ``"legacy"`` (the reference
        event-by-event loop of :meth:`_late_fraction_legacy`).  Both
        estimate the same quantity over the same total measured model
        time; they differ only in how the randomness is laid out.
        """
        run = self.stationary_run(horizon_s=horizon_s, seed=seed,
                                  burn_in_s=burn_in_s, batches=batches)
        return late_fraction_mc_batch([run], mc_kernel)[0]

    def _late_fraction_legacy(self, run: StationaryRun) \
            -> LateFractionEstimate:
        """The reference event-by-event stationary loop."""
        horizon_s, burn_in_s, batches = \
            run.horizon_s, run.burn_in_s, run.batches
        rng = np.random.default_rng(run.seed)
        tables = self._compile_tables()
        k = len(self.chains)
        mu = self.mu
        nmax = self.nmax

        # Initial state: buffer full, each flow mid-window CA.
        state = [chain.index.get(("CA", min(3, chain.params.wmax), 0), 0)
                 for chain in self.chains]
        rates = np.array([tables[i][0][state[i]] for i in range(k)])
        n = nmax

        measured = horizon_s - burn_in_s
        batch_len = measured / batches
        batch_late = np.zeros(batches)
        shares = np.zeros(k)

        t = 0.0
        exp_draw = rng.exponential
        uni_draw = rng.random
        poi_draw = rng.poisson

        while t < horizon_s:
            if n >= nmax:
                # Frozen: the only possible event is one consumption.
                t += exp_draw(1.0 / mu)
                n -= 1
                continue
            total_rate = rates.sum()
            dt = exp_draw(1.0 / total_rate)
            lam = mu * dt
            floor_n = n if n > 0 else 0
            if lam + 8.0 * math.sqrt(lam) + 20.0 >= floor_n:
                late = expected_excess(lam, floor_n)
                if late > 0.0 and t >= burn_in_s:
                    idx = int((t - burn_in_s) / batch_len)
                    if idx >= batches:
                        idx = batches - 1
                    batch_late[idx] += late
            n -= int(poi_draw(lam))
            t += dt
            # Which flow fires?
            target = uni_draw() * total_rate
            flow = 0
            acc = rates[0]
            while acc < target and flow < k - 1:
                flow += 1
                acc += rates[flow]
            cum, nxt, svals = tables[flow][1][state[flow]]
            # cum ends at exactly 1.0 (normalised at build time), so
            # the draw in [0, 1) can never land past the last outcome.
            out = int(np.searchsorted(cum, uni_draw(), side="right"))
            s_delivered = int(svals[out])
            state[flow] = int(nxt[out])
            rates[flow] = tables[flow][0][state[flow]]
            if s_delivered:
                shares[flow] += s_delivered
                n = min(n + s_delivered, nmax)

        per_batch_consumed = mu * batch_len
        fractions = batch_late / per_batch_consumed
        # Segments are credited to the batch containing their start and
        # the last one may extend past the horizon, so a saturated
        # (f ~ 1) run can overshoot by a segment's worth; clamp.
        fractions = np.minimum(fractions, 1.0)
        mean = float(fractions.mean())
        stderr = float(fractions.std(ddof=1) / math.sqrt(batches)) \
            if batches > 1 else float("nan")
        total_shares = shares.sum()
        share_tuple = tuple(shares / total_shares) if total_shares \
            else tuple(0.0 for _ in range(k))
        return LateFractionEstimate(
            late_fraction=mean, stderr=stderr, horizon_s=horizon_s,
            method="mc", path_shares=share_tuple)

    # ------------------------------------------------------------------
    # Transient solver: finite video length
    # ------------------------------------------------------------------
    def late_fraction_transient(self, video_s: float,
                                replications: int = 20,
                                seed: int = 0,
                                mc_kernel: Optional[str] = None) \
            -> LateFractionEstimate:
        """Late fraction of a *finite* video of length ``video_s``.

        The stationary solvers answer the paper's t -> infinity
        question; this one models what a finite simulation run (or a
        real 300 s clip) sees: generation over ``[0, video_s]``,
        playback over ``[tau, tau + video_s]``, an empty buffer and
        slow-starting flows at t = 0, and the live-streaming cap
        ``N(t) <= G(t) - B(t)`` evolving through the startup ramp and
        the end-of-video drain.  Replicated for a standard error;
        ``mc_kernel="vectorized"`` (the default) runs the replications
        as the vector axis of one lockstep array simulation,
        ``"legacy"`` keeps the plain event-by-event loop.
        """
        if video_s <= 0:
            raise ValueError("video length must be positive")
        if replications < 1:
            raise ValueError("need at least one replication")
        if resolve_kernel(mc_kernel) == "vectorized":
            return _kernel.transient_late_fraction(
                self, video_s=video_s, replications=replications,
                seed=seed)
        rng = np.random.default_rng(seed)
        tables = self._compile_tables()
        k = len(self.chains)
        mu = self.mu
        tau = self.tau
        horizon = tau + video_s
        total_packets = mu * video_s

        fractions = np.empty(replications)
        for rep in range(replications):
            state = [chain.index.get(
                ("CA", min(2, chain.params.wmax), 0), 0)
                for chain in self.chains]
            rates = [tables[i][0][state[i]] for i in range(k)]
            n = 0.0
            t = 0.0
            late = 0.0
            while t < horizon:
                # Live cap: generated minus played back, at time t.
                cap = mu * (min(t, video_s) - max(0.0, t - tau))
                consuming = tau <= t and t < horizon
                flow_rate = sum(rates) if n < cap else 0.0
                total_rate = flow_rate + (mu if consuming else 0.0)
                if total_rate <= 0.0:
                    # Frozen before playback starts: jump to the next
                    # cap increase (it grows continuously, so step by
                    # one packet time).
                    t += 1.0 / mu
                    continue
                t += rng.exponential(1.0 / total_rate)
                if t >= horizon:
                    break
                if rng.random() * total_rate < flow_rate:
                    # A flow fires.
                    target = rng.random() * flow_rate
                    flow = 0
                    acc = rates[0]
                    while acc < target and flow < k - 1:
                        flow += 1
                        acc += rates[flow]
                    cum, nxt, svals = tables[flow][1][state[flow]]
                    out = int(np.searchsorted(cum, rng.random(),
                                              side="right"))
                    state[flow] = int(nxt[out])
                    rates[flow] = tables[flow][0][state[flow]]
                    n = min(n + float(svals[out]), cap)
                else:
                    # A consumption fires.
                    if n <= 0.0:
                        late += 1.0
                    n -= 1.0
            fractions[rep] = late / total_packets

        mean = float(fractions.mean())
        stderr = float(fractions.std(ddof=1)
                       / math.sqrt(replications)) \
            if replications > 1 else float("nan")
        return LateFractionEstimate(
            late_fraction=mean, stderr=stderr, horizon_s=video_s,
            method="transient-mc")

    # ------------------------------------------------------------------
    # Exact solver (TANGRAM-II stand-in, small chains)
    # ------------------------------------------------------------------
    def joint_state_count(self, n_floor: int) -> int:
        levels = self.nmax - n_floor + 1
        count = levels
        for chain in self.chains:
            count *= len(chain)
        return count

    def late_fraction_exact(self, n_floor: Optional[int] = None,
                            max_states: int = 400_000) -> float:
        """Exact stationary late fraction P(N <= 0).

        ``N`` is truncated below at ``n_floor`` (default: a margin of
        4 max-windows below zero) with a reflecting boundary; choose
        small ``wmax``/``tau`` so the joint space stays tractable.
        """
        if n_floor is None:
            # Deep enough that truncation is negligible in low-late
            # regimes; for heavily late regimes (f >~ 0.1) pass deeper
            # floors explicitly and check convergence.
            margin = 10 * max(chain.params.wmax
                              for chain in self.chains)
            n_floor = -margin
        if n_floor > 0:
            raise ValueError("n_floor must be <= 0")
        count = self.joint_state_count(n_floor)
        if count > max_states:
            raise ValueError(
                f"joint space has {count} states (> {max_states}); "
                "use late_fraction_mc or shrink wmax/tau")

        sizes = [len(chain) for chain in self.chains]
        levels = self.nmax - n_floor + 1

        def encode(flow_ids: Tuple[int, ...], n: int) -> int:
            code = n - n_floor
            for sid, size in zip(flow_ids, sizes):
                code = code * size + sid
            return code

        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []

        def add(src: int, dst: int, rate: float) -> None:
            rows.append(src)
            cols.append(dst)
            vals.append(rate)
            rows.append(src)
            cols.append(src)
            vals.append(-rate)

        flow_state_space: List[Tuple[int, ...]] = [()]
        for size in sizes:
            flow_state_space = [ids + (sid,) for ids in flow_state_space
                                for sid in range(size)]

        mu = self.mu
        nmax = self.nmax
        for ids in flow_state_space:
            for n in range(n_floor, nmax + 1):
                src = encode(ids, n)
                if n > n_floor:
                    add(src, encode(ids, n - 1), mu)
                # else: reflecting floor (consumption has no effect).
                if n == nmax:
                    continue  # flows frozen
                for k, chain in enumerate(self.chains):
                    rate = chain.rates[ids[k]]
                    for prob, nxt, s in chain.outcomes[ids[k]]:
                        new_ids = ids[:k] + (nxt,) + ids[k + 1:]
                        new_n = min(n + s, nmax)
                        add(src, encode(new_ids, new_n), rate * prob)

        generator = csc_matrix((vals, (rows, cols)),
                               shape=(count, count))
        pi = solve_stationary(generator)

        late = 0.0
        for ids in flow_state_space:
            for n in range(n_floor, min(0, nmax) + 1):
                late += pi[encode(ids, n)]
        return float(late)

    # ------------------------------------------------------------------
    def required_startup_delay(self, threshold: float = 1e-4,
                               taus: Optional[Sequence[float]] = None,
                               horizon_s: float = 20000.0,
                               seed: int = 0,
                               max_seeds: int = 4,
                               mc_kernel: Optional[str] = None) \
            -> Optional[float]:
        """Smallest startup delay on a grid with late fraction below
        ``threshold`` (MC-based; None when no grid point satisfies it).

        The late fraction is non-increasing in tau, so the grid is
        scanned with bisection.  Near the threshold the estimate is
        dominated by rare deep-deficit excursions (timeout-backoff
        cascades), so each decision is sequential: a clearly decisive
        single run settles it, otherwise up to ``max_seeds``
        independent runs are pooled.
        """
        if taus is None:
            taus = [float(t) for t in range(1, 41)]
        taus = sorted(taus)
        lo, hi = 0, len(taus) - 1
        if not self._satisfies(taus[hi], threshold, horizon_s, seed,
                               max_seeds, mc_kernel):
            return None
        if self._satisfies(taus[lo], threshold, horizon_s, seed,
                           max_seeds, mc_kernel):
            return taus[lo]
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self._satisfies(taus[mid], threshold, horizon_s, seed,
                               max_seeds, mc_kernel):
                hi = mid
            else:
                lo = mid
        return taus[hi]

    def _satisfies(self, tau: float, threshold: float,
                   horizon_s: float, seed: int,
                   max_seeds: int = 4,
                   mc_kernel: Optional[str] = None) -> bool:
        """Sequential threshold test, pooling seeds when undecisive."""
        model = self.with_tau(tau)
        total = 0.0
        for i in range(max(1, max_seeds)):
            estimate = model.late_fraction_mc(
                horizon_s=horizon_s, seed=seed + 7919 * i,
                mc_kernel=mc_kernel)
            total += estimate.late_fraction
            pooled = total / (i + 1)
            # Decisive once the pooled mean sits far from the line.
            if pooled >= 3.0 * threshold:
                return False
            if i >= 1 and pooled < threshold / 3.0:
                return True
            if i == 0 and pooled < threshold / 30.0:
                return True
        return pooled < threshold


def late_fraction_mc_batch(runs: Sequence[StationaryRun],
                           mc_kernel: Optional[str] = None) \
        -> List[LateFractionEstimate]:
    """Stationary late fractions of several runs, in input order.

    The vectorized kernel solves the whole batch in one lockstep pass
    (see :func:`repro.model.mc_kernel.stationary_late_fraction`); each
    estimate is bit-identical to solving its run alone.  The legacy
    kernel stays the point-by-point reference.
    """
    if resolve_kernel(mc_kernel) == "vectorized":
        return _kernel.stationary_late_fraction(runs)
    return [run.model._late_fraction_legacy(run) for run in runs]
