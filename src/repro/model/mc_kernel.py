"""Vectorized Monte-Carlo kernels for the coupled DMP CTMC.

The event-by-event solvers in :mod:`repro.model.dmp_model` advance one
replica one transition at a time, with one RNG call and one Python-level
outcome scan per event.  This module runs ``R`` independent replicas of
the same chain *in lockstep*: the per-flow outcome lists are flattened
once into padded 2D numpy arrays (cumulative-probability rows,
next-state ids, delivered-packet counts), randomness is drawn in blocks,
and every vector step advances all replicas by one event — the firing
flow and its outcome are found with array comparisons (the row-wise
equivalent of ``searchsorted``) instead of per-event Python loops.

Two kernels are provided, mirroring the two event-by-event solvers:

* :func:`stationary_late_fraction` — the stationary estimator.  The
  legacy solver splits one long run into wall-clock batches; here the
  lockstep replicas *are* the batches: each replica burns in from a
  warm start (flow states drawn from the per-chain stationary
  marginals, buffer full) and then measures an equal slice of the
  requested horizon, so the total measured model time — and therefore
  the standard error — matches the legacy run while the work is done in
  wide vector steps.  The Rao-Blackwellised late accounting
  (:func:`expected_excess_array`, the array form of
  ``expected_excess``) is kept intact.

  It solves a *batch* of :class:`StationaryRun` s at once — a whole
  model grid, such as Fig 8's (ratio, tau) points — with every run's
  replicas laid side by side as lanes of the same arrays, so the
  per-step numpy overhead that dominates a single 20-replica solve is
  paid once per lockstep pass.  Per-point estimates are bit-identical
  to solving each run alone, because each run keeps its own
  ``default_rng(seed)`` drawn in the single-solve order (start-state
  draws, then 64-step exponential/uniform blocks, then one Poisson call
  per step on its own lanes), its own replica count, window, burn-in,
  ``nmax`` and ``mu``, and its own termination check; all other
  per-step work is elementwise per lane, and global screens only skip
  work.  A single solve is a batch of one.
* :func:`transient_late_fraction` — the finite-video estimator, with
  the replications as the vector axis and the exact event semantics of
  the legacy loop (time-varying live cap, explicit consumption events).

Kernel selection: solver entry points accept ``mc_kernel`` in
``{"vectorized", "legacy"}``; ``None`` resolves through
:func:`default_kernel` (``configure()`` > ``$REPRO_MC_KERNEL`` >
``"vectorized"``).
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Dict, List, Optional, Sequence,
                    Tuple)

import numpy as np
import numpy.typing as npt
from scipy.special import gammainc

from repro import telemetry

if TYPE_CHECKING:
    from repro.model.dmp_model import DmpModel, LateFractionEstimate
    from repro.model.tcp_chain import TcpFlowChain

FloatArray = npt.NDArray[np.float64]
IntArray = npt.NDArray[np.int64]

KERNELS = ("vectorized", "legacy")
ENV_KERNEL = "REPRO_MC_KERNEL"

#: Outcome probabilities must sum to one within this tolerance at
#: table-build time (they are then normalised exactly).
PROB_TOLERANCE = 1e-9

#: Cap on the number of lockstep replicas of the stationary kernel.
MAX_REPLICAS = 512

#: Per-replica measurement window: at least this many buffer-drain
#: times (tau) and at least this many model seconds.  Every replica
#: starts with a full buffer, so a window much shorter than the
#: buffer-excursion timescale (which grows with ``tau``) truncates the
#: deep-deficit tail and biases the late fraction low; 20 drain times
#: keeps the estimate within the across-replica standard error of long
#: single-chain reference runs over the Fig 8 grid.
WINDOW_TAUS = 20.0
WINDOW_MIN_S = 150.0

#: Per-replica burn-in on top of the warm start: this many buffer-drain
#: times, and at least this fraction of the measurement window.
BURN_IN_TAUS = 2.0
BURN_IN_FRACTION = 0.4

# ---------------------------------------------------------------------
# Kernel selection
# ---------------------------------------------------------------------
_default: Dict[str, Optional[str]] = {"kernel": None}


def configure(kernel: Optional[str] = None) -> None:
    """Set the process-wide default kernel used when callers pass None.

    ``None`` restores the initial behaviour: ``$REPRO_MC_KERNEL`` when
    set, otherwise ``"vectorized"``.
    """
    if kernel is not None and kernel not in KERNELS:
        raise ValueError(f"unknown mc kernel {kernel!r}; "
                         f"choose from {KERNELS}")
    _default["kernel"] = kernel


def default_kernel() -> str:
    """Resolve the default kernel (configure > env > vectorized)."""
    configured = _default["kernel"]
    if configured is not None:
        return configured
    env = os.environ.get(ENV_KERNEL)
    if env:
        if env in KERNELS:
            return env
        warnings.warn(f"ignoring unknown {ENV_KERNEL}={env!r}",
                      RuntimeWarning)
    return "vectorized"


def resolve_kernel(kernel: Optional[str]) -> str:
    """Normalise an ``mc_kernel`` argument: None -> the default."""
    if kernel is None:
        return default_kernel()
    if kernel not in KERNELS:
        raise ValueError(f"unknown mc kernel {kernel!r}; "
                         f"choose from {KERNELS}")
    return kernel


# ---------------------------------------------------------------------
# Rao-Blackwellised late accounting, array form
# ---------------------------------------------------------------------
def expected_excess_array(lam: npt.ArrayLike,
                          m: npt.ArrayLike) -> FloatArray:
    """E[(X - m)^+] for X ~ Poisson(lam), elementwise over arrays.

    The array form of :func:`repro.model.dmp_model.expected_excess`,
    using the same identity ``E[(X-m)^+] = lam*P(X>=m) - m*P(X>=m+1)``
    with ``P(X >= n) = gammainc(n, lam)``.
    """
    lam_b, m_b = np.broadcast_arrays(np.asarray(lam, dtype=float),
                                     np.asarray(m))
    out: FloatArray = np.zeros(lam_b.shape)
    pos = lam_b > 0.0
    zero_m = pos & (m_b == 0)
    out[zero_m] = lam_b[zero_m]
    rest = pos & (m_b > 0)
    if rest.any():
        lr = lam_b[rest]
        mr = m_b[rest].astype(float)
        out[rest] = lr * gammainc(mr, lr) - mr * gammainc(mr + 1.0, lr)
    return out


# ---------------------------------------------------------------------
# Compiled outcome tables
# ---------------------------------------------------------------------
class CompiledModel:
    """The chains' ragged outcome lists, flattened into padded arrays.

    States of all chains share one global id space (chain ``i`` owns ids
    ``offsets[i] .. offsets[i+1]-1``).  For each global state id:

    * ``rate[g]`` — total transition rate out of the state;
    * ``cum[g]`` — cumulative outcome probabilities, normalised to end
      at exactly 1.0 and right-padded with 1.0, so for ``u`` uniform on
      ``[0, 1)`` the fired outcome is the row-wise
      ``searchsorted(cum[g], u, side="right")`` and padding can never be
      selected;
    * ``nxt[g]`` / ``sval[g]`` — global next-state ids and delivered
      packet counts, padded by repeating the last real outcome.

    Outcome probabilities are validated here: a row whose probabilities
    do not sum to 1 within :data:`PROB_TOLERANCE` is a build error in
    the chain, not something to paper over at sampling time.
    """

    def __init__(self, chains: Sequence["TcpFlowChain"]) -> None:
        self.k = len(chains)
        offsets = [0]
        for chain in chains:
            offsets.append(offsets[-1] + len(chain))
        self.offsets = np.array(offsets, dtype=np.int64)
        total = offsets[-1]
        width = max(len(outs) for chain in chains
                    for outs in chain.outcomes)
        self.width = width
        self.rate = np.empty(total)
        self.cum = np.ones((total, width))
        self.nxt = np.zeros((total, width), dtype=np.int64)
        self.sval = np.zeros((total, width), dtype=np.int64)
        for i, chain in enumerate(chains):
            base = offsets[i]
            for sid, outs in enumerate(chain.outcomes):
                row = base + sid
                self.rate[row] = chain.rates[sid]
                probs = np.array([prob for prob, _, _ in outs])
                total_p = float(probs.sum())
                if abs(total_p - 1.0) > PROB_TOLERANCE:
                    raise AssertionError(
                        f"outcome probabilities sum to {total_p} in "
                        f"state {chain.states[sid]} of chain {i}")
                cum = np.cumsum(probs / total_p)
                cum[-1] = 1.0
                w = len(outs)
                self.cum[row, :w] = cum
                self.nxt[row, :w] = [base + nid for _, nid, _ in outs]
                self.nxt[row, w:] = self.nxt[row, w - 1]
                self.sval[row, :w] = [s for _, _, s in outs]

    def chain_state_ids(self, chain_idx: int,
                        local_ids: IntArray) -> IntArray:
        """Translate chain-local state ids to global ids."""
        return self.offsets[chain_idx] + local_ids

    def sample_outcomes(self, firing: IntArray,
                        u: FloatArray) -> Tuple[IntArray, IntArray]:
        """Row-wise outcome sampling: ``searchsorted`` over cum rows.

        ``firing`` holds global state ids, ``u`` uniforms in [0, 1).
        Returns ``(next_ids, delivered)``.
        """
        rows = self.cum[firing]
        out = (rows <= u[:, None]).sum(axis=1)
        return self.nxt[firing, out], self.sval[firing, out]


def _compile(chains: Sequence["TcpFlowChain"]) -> CompiledModel:
    """Build the tables of ``chains`` under an ``mc.compile`` span."""
    tel = telemetry.current()
    with tel.span("mc.compile", flows=len(chains)) as sp:
        compiled = CompiledModel(chains)
        if sp is not None:
            sp.attrs["states"] = int(compiled.offsets[-1])
    return compiled


def compiled_model(model: "DmpModel") -> CompiledModel:
    """The model's compiled tables, built once and cached on it."""
    if model._compiled is None:
        model._compiled = _compile(model.chains)
    return model._compiled


# ---------------------------------------------------------------------
# Block RNG
# ---------------------------------------------------------------------
class BlockDraws:
    """Pre-drawn exponential/uniform blocks, one row per vector step.

    Drawing ``(steps, ..., R)`` blocks wholesale amortises the per-call
    RNG overhead across many lockstep steps; Poisson variates cannot be
    pre-drawn (their rate depends on the step's holding times) and are
    drawn per step, still as one vectorized call.
    """

    def __init__(self, rng: np.random.Generator, row: int,
                 n_exp: int = 1, n_uni: int = 3,
                 steps: int = 64) -> None:
        self.rng = rng
        self.row = row
        self.n_exp = n_exp
        self.n_uni = n_uni
        self.steps = steps
        self.refills = 0
        self._cursor = steps
        self._exp: Optional[FloatArray] = None
        self._uni: Optional[FloatArray] = None

    def next_step(self) -> Tuple[FloatArray, ...]:
        """One step's draws: ``n_exp`` exponential rows followed by
        ``n_uni`` uniform rows, as a tuple of 1D arrays."""
        if self._cursor >= self.steps:
            self.refills += 1
            self._exp = self.rng.standard_exponential(
                (self.steps, self.n_exp, self.row))
            self._uni = self.rng.random(
                (self.steps, self.n_uni, self.row))
            self._cursor = 0
        exp_blk, uni_blk = self._exp, self._uni
        assert exp_blk is not None and uni_blk is not None
        i = self._cursor
        self._cursor += 1
        return (*exp_blk[i], *uni_blk[i])


# ---------------------------------------------------------------------
# Stationary kernel
# ---------------------------------------------------------------------
#: Lockstep steps per pre-drawn RNG block, and between termination
#: checks.
BLOCK_STEPS = 64
CHECK_STEPS = 8

#: Widest lockstep pass.  A wider batch runs as consecutive passes of
#: whole runs; the cap equals the widest single solve, so a batch never
#: holds more RNG blocks and outcome rows in memory than one solve may.
MAX_LANES = MAX_REPLICAS


def stationary_replica_count(horizon_s: float, burn_in_s: float,
                             tau: float, batches: int) -> int:
    """How many lockstep replicas to run for a stationary estimate.

    Wide vectors amortise the per-step numpy overhead, but every
    replica pays its own burn-in and a short window inflates the
    warm-start bias, so the count is capped so that each replica still
    measures at least ``max(WINDOW_TAUS * tau, WINDOW_MIN_S)`` model
    seconds — and the count never drops below the legacy batch count,
    so the standard error never rests on fewer independent samples.
    """
    measured = horizon_s - burn_in_s
    window = max(WINDOW_TAUS * tau, WINDOW_MIN_S)
    by_time = int(measured / window)
    replicas = max(batches, min(MAX_REPLICAS, by_time))
    # Round down to a multiple of the batch count (keeps any grouped
    # post-processing exact) without dropping below it.
    return max(batches, (replicas // batches) * batches)


@dataclass(frozen=True)
class StationaryRun:
    """One stationary solve of a batch: a model and its run length.

    ``burn_in_s`` is the discarded part of ``horizon_s``, already
    resolved and validated by
    :meth:`repro.model.dmp_model.DmpModel.stationary_run`.
    """

    model: "DmpModel"
    horizon_s: float
    seed: int
    burn_in_s: float
    batches: int


def stationary_late_fraction(
        runs: Sequence[StationaryRun]) -> List["LateFractionEstimate"]:
    """Vectorized stationary late-fraction estimates of a batch.

    Every run's replicas are lanes of the same arrays and all of them
    advance in one lockstep loop (up to :data:`MAX_LANES` lanes per
    pass), so the per-step numpy overhead is paid once per pass
    instead of once per solve, and one compiled table serves the
    whole batch.  Each run keeps everything that fixes its numbers
    (its own ``default_rng(seed)``, replica count, burn-in, window,
    ``nmax``, ``mu`` and termination check), so its estimate is
    bit-identical to solving it alone: a single solve is simply a
    batch of one.

    Telemetry: one ``mc.run`` span (label ``"stationary"``) carrying
    the solve, replica and drawn-RNG-block counts; the ``mc.blocks``
    counter accumulates blocks across solves.

    Semantics match ``DmpModel.late_fraction_mc(mc_kernel="legacy")``:
    the total *measured* model time is ``horizon_s - burn_in_s``,
    Rao-Blackwellised late accounting, buffer frozen at ``nmax``.  The
    measured time is split over ``replicas`` lockstep replicas; each
    replica is one (independent) batch, so the standard error is the
    across-replica standard error of the mean.

    Burn-in is per replica: flow states start from the per-chain
    stationary marginals (a warm start the legacy cold start has to
    earn by burning in for much longer), the buffer starts full, and
    each replica then discards ``max(BURN_IN_TAUS * tau,
    BURN_IN_FRACTION * window)`` model seconds before measuring.

    Every vector step ends with exactly one flow transition per
    replica: a replica whose buffer sits frozen at ``nmax`` first takes
    its single unfreezing consumption (``Exp(1/mu)``) as a *prefix* of
    the same step — distributionally identical to the legacy loop's
    separate frozen iterations, but without spending a whole vector
    step on one consumption event.
    """
    tel = telemetry.current()
    with tel.span("mc.run", label="stationary", solves=len(runs)) as sp:
        compiled, slots = _batch_tables(runs)
        replicas = [_replica_count(run) for run in runs]
        estimates: List["LateFractionEstimate"] = []
        blocks = 0
        for start, stop in _lane_passes(replicas):
            done, drawn = _stationary_impl(
                runs[start:stop], replicas[start:stop], compiled,
                slots[start:stop])
            estimates += done
            blocks += drawn
        if sp is not None:
            sp.attrs["replicas"] = sum(replicas)
            sp.attrs["blocks"] = blocks
        if tel.active:
            tel.metrics.counter("mc.blocks").inc(blocks)
        return estimates


def _batch_tables(runs: Sequence[StationaryRun]) \
        -> Tuple[CompiledModel, List[List[int]]]:
    """One compiled table for the batch, and each run's chain slots.

    A lone model uses (and caches) its own table; a batch compiles its
    distinct chains once, so models that share a
    :class:`~repro.model.tcp_chain.TcpFlowChain` share its rows.
    """
    if len(runs) == 1:
        model = runs[0].model
        return compiled_model(model), [list(range(len(model.chains)))]
    distinct: List["TcpFlowChain"] = []
    slot_of: Dict[int, int] = {}
    slots: List[List[int]] = []
    for run in runs:
        row = []
        for chain in run.model.chains:
            if id(chain) not in slot_of:
                slot_of[id(chain)] = len(distinct)
                distinct.append(chain)
            row.append(slot_of[id(chain)])
        slots.append(row)
    return _compile(distinct), slots


def _lane_passes(replicas: Sequence[int]) -> List[Tuple[int, int]]:
    """Split runs, in order, into lockstep passes of at most
    :data:`MAX_LANES` lanes; a run never straddles two passes."""
    passes: List[Tuple[int, int]] = []
    start = width = 0
    for idx, count in enumerate(replicas):
        if idx > start and width + count > MAX_LANES:
            passes.append((start, idx))
            start, width = idx, 0
        width += count
    passes.append((start, len(replicas)))
    return passes


def _replica_count(run: StationaryRun) -> int:
    replicas = stationary_replica_count(
        run.horizon_s, run.burn_in_s, run.model.tau, run.batches)
    if replicas < 2:
        raise ValueError("need at least two replicas")
    return replicas


def _stationary_impl(
        runs: Sequence[StationaryRun], sizes: Sequence[int],
        compiled: CompiledModel, slots: Sequence[List[int]]
) -> Tuple[List["LateFractionEstimate"], int]:
    """One lockstep pass over ``runs`` (``sizes`` replicas each, chain
    ``slots`` into ``compiled``); returns (estimates, blocks)."""
    from repro.model.dmp_model import LateFractionEstimate

    # A run with fewer flows pads its lanes with zero-rate columns,
    # which never fire; one-flow runs share the two-flow fast path.
    kmax = max(2, max(len(slot) for slot in slots))
    windows: List[float] = []
    burns: List[float] = []
    horizons: List[float] = []
    rngs: List[np.random.Generator] = []
    sids: List[IntArray] = []
    for run, replicas, slot in zip(runs, sizes, slots):
        model = run.model
        r_measured = (run.horizon_s - run.burn_in_s) / replicas
        r_burn = max(BURN_IN_TAUS * model.tau,
                     BURN_IN_FRACTION * r_measured)
        rng = np.random.default_rng(run.seed)
        sid = np.zeros((replicas, kmax), dtype=np.int64)
        for i, (chain, chain_slot) in enumerate(zip(model.chains, slot)):
            pi = chain.stationary_distribution()
            sid[:, i] = compiled.offsets[chain_slot] + rng.choice(
                len(pi), size=replicas, p=pi)
        windows.append(r_measured)
        burns.append(r_burn)
        horizons.append(r_burn + r_measured)
        rngs.append(rng)
        sids.append(sid)

    def per_lane(values: Sequence[float], dtype: type = np.float64) \
            -> npt.NDArray[Any]:
        return np.repeat(np.array(values, dtype=dtype), sizes)

    mu = per_lane([run.model.mu for run in runs])
    inv_mu = per_lane([1.0 / run.model.mu for run in runs])
    nmax = per_lane([run.model.nmax for run in runs], np.int64)
    r_burn = per_lane(burns)
    r_horizon = per_lane(horizons)
    sid = np.concatenate(sids)
    rate = compiled.rate[sid]
    rate[np.arange(kmax)
         >= per_lane([len(slot) for slot in slots], np.int64)[:, None]] \
        = 0.0
    n = nmax.copy()
    t = np.zeros(len(n))
    late = np.zeros(len(n))
    # Delivered packets per lane and flow (path shares are a
    # diagnostic); exact integer counts, like the per-run sums.
    delivered = np.zeros((len(n), kmax), dtype=np.int64)
    crate = compiled.rate
    cum, nxt, sval = compiled.cum, compiled.nxt, compiled.sval
    two = kmax == 2

    # Lanes are grouped by run, in ``layout`` order; a finished run's
    # lanes idle (they can no longer score) until the next block
    # boundary drops them.
    layout = list(range(len(runs)))
    live = [True] * len(runs)
    estimates: List[Optional[LateFractionEstimate]] = [None] * len(runs)

    def finish(m: int, lo: int) -> None:
        hi = lo + sizes[m]
        model = runs[m].model
        k = len(model.chains)
        fractions = np.minimum(
            late[lo:hi] / (model.mu * windows[m]), 1.0)
        shares = delivered[lo:hi, :k].sum(axis=0).astype(np.float64)
        total_shares = shares.sum()
        share_tuple = tuple(shares / total_shares) if total_shares \
            else tuple(0.0 for _ in range(k))
        estimates[m] = LateFractionEstimate(
            late_fraction=float(fractions.mean()),
            stderr=float(fractions.std(ddof=1) / np.sqrt(sizes[m])),
            horizon_s=runs[m].horizon_s, method="mc",
            path_shares=share_tuple, kernel="vectorized")

    def segments(order: List[int]) \
            -> Tuple[IntArray, List[Tuple[Any, int, int]]]:
        """Lane offsets of the runs in ``order`` and each run's
        Poisson sampler over its lane range."""
        starts = np.cumsum([0] + [sizes[m] for m in order[:-1]])
        return starts, [(rngs[m].poisson, int(lo), int(lo) + sizes[m])
                        for m, lo in zip(order, starts)]

    starts, all_draws = segments(layout)
    draws = all_draws
    # RNG block buffers, refilled in place; dropping lanes only
    # narrows the views over them.
    exp_buf = np.empty((BLOCK_STEPS, 2, len(n)))
    uni_buf = np.empty((BLOCK_STEPS, 2, len(n)))
    blocks = 0
    cursor = BLOCK_STEPS
    until_check = 1
    rebuild = True
    while True:
        # Termination is a per-run scalar reduction, so it is only
        # polled every few steps; replicas past their horizon keep
        # stepping but their segments fail the window test and
        # contribute nothing.
        until_check -= 1
        if until_check <= 0:
            tmin = np.minimum.reduceat(t, starts)
            finished = False
            for pos, m in enumerate(layout):
                if live[m] and tmin[pos] >= horizons[m]:
                    live[m] = False
                    finished = True
                    finish(m, int(starts[pos]))
            if finished:
                draws = [draw for draw, m in zip(all_draws, layout)
                         if live[m]]
                if not draws:
                    break
            until_check = CHECK_STEPS
        if cursor >= BLOCK_STEPS:
            if len(draws) < len(layout):
                keep = np.repeat([live[m] for m in layout],
                                 [sizes[m] for m in layout])
                layout = [m for m in layout if live[m]]
                starts, all_draws = segments(layout)
                draws = all_draws
                sid, rate, n, t, late, delivered = (
                    sid[keep], rate[keep], n[keep], t[keep],
                    late[keep], delivered[keep])
                mu, inv_mu, nmax, r_burn, r_horizon = (
                    mu[keep], inv_mu[keep], nmax[keep], r_burn[keep],
                    r_horizon[keep])
                rebuild = True
            if rebuild:
                # Views and scratch buffers over the current lanes.
                # The loop is overhead-bound (many numpy calls on short
                # arrays), so every per-step ufunc writes into one of
                # these or consumes its own RNG block row in place.
                rebuild = False
                lanes = len(n)
                sid_flat = sid.reshape(-1)
                rate_flat = rate.reshape(-1)
                delivered_flat = delivered.reshape(-1)
                r0, r1 = rate[:, 0], rate[:, 1]
                s0, s1 = sid[:, 0], sid[:, 1]
                rows_k = np.arange(lanes) * kmax
                pre = np.empty(lanes, dtype=bool)
                bflow = np.empty(lanes, dtype=bool)
                ftmp = np.empty(lanes)
                idx2 = np.empty(lanes, dtype=np.int64)
                pois = np.zeros(lanes, dtype=np.int64)
                exp_blk = exp_buf[:, :, :lanes]
                uni_blk = uni_buf[:, :, :lanes]
            blocks += len(layout)
            # Each run draws its own block from its own generator.
            for m, (_, lo, hi) in zip(layout, draws):
                exp_blk[:, :, lo:hi] = rngs[m].standard_exponential(
                    (BLOCK_STEPS, 2, sizes[m]))
                uni_blk[:, :, lo:hi] = rngs[m].random(
                    (BLOCK_STEPS, 2, sizes[m]))
            exp_blk[:, 0, :] *= inv_mu  # pre-scaled consumption prefix
            exp_blk[:, 1, :] *= mu      # numerator of lam = mu * dt
            cursor = 0
        exp0 = exp_blk[cursor, 0]
        lam = exp_blk[cursor, 1]
        u1 = uni_blk[cursor, 0]
        u2 = uni_blk[cursor, 1]
        cursor += 1

        # Frozen prefix: a replica pinned at nmax takes its single
        # unfreezing consumption before this step's flow segment.
        np.greater_equal(n, nmax, out=pre)
        np.multiply(exp0, pre, out=exp0)
        np.add(t, exp0, out=t)      # t is now the segment start
        np.subtract(n, pre, out=n, casting="unsafe")

        # Flow segment: every replica now has n < nmax.
        if two:
            np.add(r0, r1, out=ftmp)
        else:
            rate.sum(axis=1, out=ftmp)
        np.divide(lam, ftmp, out=lam)   # lam = mu * dt

        # Aggregated (Rao-Blackwellised) consumption over the segment;
        # only segments starting inside the measurement window count,
        # and segments whose Poisson tail cannot reach the deficit
        # boundary are skipped exactly as in the legacy loop.  The
        # whole block sits behind a scalar screen over every lane:
        # lam + 8*sqrt(lam) + 20 <= 2*lam + 36, so when even that bound
        # at the largest lam stays below the smallest deficit boundary,
        # no lane can pass the per-lane guard.  The screen only skips
        # work; the per-lane guard decides.
        if 2.0 * lam.max() + 36.0 >= max(n.min(), 0):
            m = np.maximum(n, 0)
            need = ((t >= r_burn) & (t < r_horizon)
                    & (lam + 8.0 * np.sqrt(lam) + 20.0 >= m))
            idx = np.flatnonzero(need)
            if idx.size:
                late[idx] += expected_excess_array(lam[idx], m[idx])
        # Poisson variates depend on the step's lam, so they cannot be
        # pre-drawn: one call per run, on that run's lanes only.
        for poisson, lo, hi in draws:
            pois[lo:hi] = poisson(lam[lo:hi])
        np.subtract(n, pois, out=n)
        np.multiply(lam, inv_mu, out=exp0)  # dt, reusing the spent row
        np.add(t, exp0, out=t)

        # Which flow fires, and which outcome?
        np.multiply(u1, ftmp, out=ftmp)     # target = u1 * total
        if two:
            np.less(r0, ftmp, out=bflow)    # True: flow 1 fires
            firing = np.where(bflow, s1, s0)
            np.add(rows_k, bflow, out=idx2, casting="unsafe")
        else:
            flow = np.minimum((np.cumsum(rate, axis=1)
                               < ftmp[:, None]).sum(axis=1), kmax - 1)
            np.add(rows_k, flow, out=idx2)
            firing = sid_flat[idx2]
        crows = cum[firing]
        out = (crows <= u2[:, None]).sum(axis=1)
        new_sid = nxt[firing, out]
        s = sval[firing, out]
        sid_flat[idx2] = new_sid
        rate_flat[idx2] = crate[new_sid]
        np.add(n, s, out=n)
        np.minimum(n, nmax, out=n)
        delivered_flat[idx2] += s

    done: List[LateFractionEstimate] = []
    for estimate in estimates:
        assert estimate is not None
        done.append(estimate)
    return done, blocks


# ---------------------------------------------------------------------
# Transient kernel
# ---------------------------------------------------------------------
def transient_late_fraction(
        model: "DmpModel", video_s: float, replications: int,
        seed: int) -> "LateFractionEstimate":
    """Vectorized finite-video late fraction.

    The replications are the vector axis; the event semantics are the
    legacy loop's exactly: the live cap ``mu*(min(t, video) - max(0,
    t - tau))`` is evaluated at the segment start, consumption events
    are explicit (rate ``mu`` while ``tau <= t < horizon``), and a
    replica frozen before playback steps deterministically by one
    packet time.

    Telemetry: one ``mc.run`` span (label ``"transient"``) plus the
    ``mc.blocks`` drawn-block counter, as in the stationary kernel.
    """
    tel = telemetry.current()
    with tel.span("mc.run", label="transient", seed=seed,
                  video_s=video_s, replicas=replications) as sp:
        estimate, blocks = _transient_impl(model, video_s,
                                           replications, seed)
        if sp is not None:
            sp.attrs["blocks"] = blocks
        if tel.active:
            tel.metrics.counter("mc.blocks").inc(blocks)
        return estimate


def _transient_impl(
        model: "DmpModel", video_s: float, replications: int,
        seed: int) -> Tuple["LateFractionEstimate", int]:
    """The transient loop; returns (estimate, blocks)."""
    from repro.model.dmp_model import LateFractionEstimate

    compiled = compiled_model(model)
    mu, tau, k = model.mu, model.tau, compiled.k
    horizon = tau + video_s
    total_packets = mu * video_s
    R = replications

    rng = np.random.default_rng(seed)
    init = np.array([
        compiled.offsets[i] + chain.index.get(
            ("CA", min(2, chain.params.wmax), 0), 0)
        for i, chain in enumerate(model.chains)], dtype=np.int64)
    sid = np.tile(init, (R, 1))
    rate = compiled.rate[sid]
    n = np.zeros(R)
    t = np.zeros(R)
    late = np.zeros(R)
    rows = np.arange(R)
    draws = BlockDraws(rng, R, n_exp=1, n_uni=3)

    while True:
        alive = t < horizon
        if not alive.any():
            break
        exp_row, u_type, u_flow, u_out = draws.next_step()
        cap = mu * (np.minimum(t, video_s) - np.maximum(0.0, t - tau))
        consuming = t >= tau
        flow_rate = np.where(n < cap, rate.sum(axis=1), 0.0)
        total = flow_rate + np.where(consuming, mu, 0.0)
        movable = alive & (total > 0.0)
        # Frozen before playback: step to the next cap increase.
        dt = np.where(movable,
                      exp_row / np.where(total > 0.0, total, 1.0),
                      1.0 / mu)
        t_new = np.where(alive, t + dt, t)
        # The event fires only if it lands inside the horizon.
        fired = movable & (t_new < horizon)
        is_flow = fired & (u_type * total < flow_rate)
        is_cons = fired & ~is_flow

        if is_flow.any():
            target = u_flow * flow_rate
            flow = np.minimum((np.cumsum(rate, axis=1)
                               < target[:, None]).sum(axis=1), k - 1)
            firing = sid[rows, flow]
            new_sid, s = compiled.sample_outcomes(firing, u_out)
            upd = np.flatnonzero(is_flow)
            sid[upd, flow[upd]] = new_sid[upd]
            rate[upd, flow[upd]] = compiled.rate[new_sid[upd]]
            n = np.where(is_flow, np.minimum(n + s, cap), n)
        late += is_cons & (n <= 0.0)
        n = np.where(is_cons, n - 1.0, n)
        t = t_new

    fractions = late / total_packets
    mean = float(fractions.mean())
    stderr = float(fractions.std(ddof=1) / np.sqrt(R)) \
        if R > 1 else float("nan")
    return LateFractionEstimate(
        late_fraction=mean, stderr=stderr, horizon_s=video_s,
        method="transient-mc",
        kernel="vectorized"), draws.refills


__all__: List[str] = [
    "KERNELS",
    "ENV_KERNEL",
    "configure",
    "default_kernel",
    "resolve_kernel",
    "expected_excess_array",
    "CompiledModel",
    "compiled_model",
    "BlockDraws",
    "stationary_replica_count",
    "StationaryRun",
    "stationary_late_fraction",
    "transient_late_fraction",
]
