"""Vectorized MC kernel: equivalence, selection, tables, properties.

The vectorized kernel is a different estimator of the same quantities
as the legacy event-by-event loops, so the contract is statistical:
legacy and vectorized agree within 3 combined standard errors on a
small grid of model points (stationary and transient), path shares
match within tolerance, and the Rao-Blackwellised late accounting
(`expected_excess`, array form included) matches brute-force Poisson
tail summation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

from repro import telemetry
from repro.experiments import parallel
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import (ModelTask, ReplicationExecutor,
                                        model_batches, solve_model)
from repro.model import mc_kernel
from repro.model.dmp_model import DmpModel, expected_excess
from repro.model.mc_kernel import (
    CompiledModel,
    compiled_model,
    default_kernel,
    expected_excess_array,
    resolve_kernel,
)
from repro.model.singlepath import static_late_fraction
from repro.model.tcp_chain import FlowParams, TcpFlowChain

FAST = FlowParams(p=0.05, rtt=0.2, to_ratio=2.0, wmax=4)
FAST2 = FlowParams(p=0.08, rtt=0.3, to_ratio=2.0, wmax=4)


def brute_force_excess(lam: float, m: int) -> float:
    """E[(X-m)^+] summed term by term over the Poisson pmf."""
    if lam == 0.0:
        return 0.0
    hi = int(lam + 12.0 * math.sqrt(lam) + m + 60)
    xs = np.arange(m + 1, hi + 1)
    return float(((xs - m) * poisson.pmf(xs, lam)).sum())


# ---------------------------------------------------------------------
# expected_excess against brute force
# ---------------------------------------------------------------------
class TestExpectedExcess:
    def test_lam_zero(self):
        assert expected_excess(0.0, 0) == 0.0
        assert expected_excess(0.0, 7) == 0.0
        assert expected_excess_array(np.zeros(3),
                                     np.array([0, 1, 9])).tolist() \
            == [0.0, 0.0, 0.0]

    def test_m_zero_is_mean(self):
        for lam in (0.3, 1.0, 40.0, 900.0):
            assert expected_excess(lam, 0) == pytest.approx(lam)
        lams = np.array([0.3, 1.0, 40.0, 900.0])
        np.testing.assert_allclose(
            expected_excess_array(lams, np.zeros(4, dtype=int)), lams)

    @given(lam=st.floats(min_value=1e-3, max_value=60.0),
           m=st.integers(min_value=0, max_value=80))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, lam, m):
        expected = brute_force_excess(lam, m)
        assert expected_excess(lam, m) == pytest.approx(
            expected, rel=1e-9, abs=1e-12)
        array = expected_excess_array(np.array([lam]), np.array([m]))
        assert array[0] == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_large_lam_regime(self):
        # Deep in the normal-like regime the identity must stay exact.
        for lam, m in ((500.0, 450), (500.0, 500), (500.0, 560),
                       (2000.0, 2100)):
            expected = brute_force_excess(lam, m)
            assert expected_excess(lam, m) == pytest.approx(
                expected, rel=1e-9, abs=1e-9)

    def test_array_matches_scalar_elementwise(self):
        lams = np.array([0.0, 0.5, 3.0, 12.0, 200.0])
        ms = np.array([2, 0, 3, 20, 190])
        out = expected_excess_array(lams, ms)
        for got, lam, m in zip(out, lams, ms):
            assert got == pytest.approx(expected_excess(float(lam),
                                                        int(m)))

    def test_broadcasting(self):
        out = expected_excess_array(np.array([[1.0], [2.0]]),
                                    np.array([0, 1]))
        assert out.shape == (2, 2)
        assert out[0, 0] == pytest.approx(1.0)


# ---------------------------------------------------------------------
# Kernel selection
# ---------------------------------------------------------------------
class TestKernelSelection:
    def test_resolve_explicit(self):
        assert resolve_kernel("legacy") == "legacy"
        assert resolve_kernel("vectorized") == "vectorized"

    def test_resolve_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown mc kernel"):
            resolve_kernel("numba")

    def test_default_is_vectorized(self, monkeypatch):
        monkeypatch.delenv(mc_kernel.ENV_KERNEL, raising=False)
        mc_kernel.configure(None)
        assert default_kernel() == "vectorized"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(mc_kernel.ENV_KERNEL, "legacy")
        mc_kernel.configure(None)
        try:
            assert default_kernel() == "legacy"
        finally:
            mc_kernel.configure(None)

    def test_configure_beats_env(self, monkeypatch):
        monkeypatch.setenv(mc_kernel.ENV_KERNEL, "legacy")
        mc_kernel.configure("vectorized")
        try:
            assert resolve_kernel(None) == "vectorized"
        finally:
            mc_kernel.configure(None)

    def test_bad_env_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv(mc_kernel.ENV_KERNEL, "warp-drive")
        mc_kernel.configure(None)
        with pytest.warns(RuntimeWarning, match="warp-drive"):
            assert default_kernel() == "vectorized"

    def test_configure_rejects_unknown(self):
        with pytest.raises(ValueError):
            mc_kernel.configure("numba")

    def test_estimates_are_tagged(self):
        model = DmpModel([FAST, FAST], mu=18, tau=1.0)
        vec = model.late_fraction_mc(horizon_s=2000, seed=1,
                                     mc_kernel="vectorized")
        leg = model.late_fraction_mc(horizon_s=2000, seed=1,
                                     mc_kernel="legacy")
        assert vec.kernel == "vectorized"
        assert leg.kernel == "legacy"
        assert vec.method == leg.method == "mc"


# ---------------------------------------------------------------------
# Compiled outcome tables
# ---------------------------------------------------------------------
class _StubChain:
    """Minimal chain: two states, hand-written outcome lists."""

    def __init__(self, outcomes, rates=None):
        self.outcomes = outcomes
        self.rates = rates or [1.0] * len(outcomes)
        self.states = [("CA", 1, i) for i in range(len(outcomes))]

    def __len__(self):
        return len(self.outcomes)


class TestCompiledModel:
    def test_rows_end_at_one_and_padding_unreachable(self):
        chain = TcpFlowChain(FAST)
        compiled = CompiledModel([chain, chain])
        real_width = [len(outs) for outs in chain.outcomes] * 2
        for row, width in enumerate(real_width):
            assert compiled.cum[row, width - 1] == 1.0
            assert (compiled.cum[row, width:] == 1.0).all()
        # u -> 1 selects the last *real* outcome, never padding.
        firing = np.arange(len(compiled.rate))
        nxt, s = compiled.sample_outcomes(
            firing, np.full(len(firing), np.nextafter(1.0, 0.0)))
        for row, width in enumerate(real_width):
            base = 0 if row < len(chain) else len(chain)
            prob, nid, sval = chain.outcomes[row % len(chain)][-1]
            assert nxt[row] == base + nid
            assert s[row] == sval

    def test_normalises_within_tolerance(self):
        eps = 2e-10  # inside PROB_TOLERANCE
        chain = _StubChain([[(0.5, 0, 1), (0.5 + eps, 1, 0)],
                            [(1.0, 0, 2)]])
        compiled = CompiledModel([chain])
        assert compiled.cum[0, -1] == 1.0

    def test_rejects_bad_probabilities(self):
        chain = _StubChain([[(0.5, 0, 1), (0.4, 1, 0)],
                            [(1.0, 0, 2)]])
        with pytest.raises(AssertionError,
                           match="outcome probabilities"):
            CompiledModel([chain])

    def test_global_ids_span_chains(self):
        a, b = TcpFlowChain(FAST), TcpFlowChain(FAST2)
        compiled = CompiledModel([a, b])
        assert compiled.offsets.tolist() == [0, len(a),
                                             len(a) + len(b)]
        local = np.array([0, 1])
        assert (compiled.chain_state_ids(1, local)
                == len(a) + local).all()

    def test_cached_on_model(self):
        model = DmpModel([FAST, FAST], mu=18, tau=1.0)
        assert compiled_model(model) is compiled_model(model)


# ---------------------------------------------------------------------
# Statistical equivalence, stationary
# ---------------------------------------------------------------------
def _combined(a, b):
    return math.sqrt(a.stderr ** 2 + b.stderr ** 2)


class TestStationaryEquivalence:
    @pytest.mark.parametrize("mu,tau", [(18.0, 1.0), (14.0, 2.0)])
    def test_homogeneous_grid(self, mu, tau):
        model = DmpModel([FAST, FAST], mu=mu, tau=tau)
        leg = model.late_fraction_mc(horizon_s=12000, seed=5,
                                     mc_kernel="legacy")
        vec = model.late_fraction_mc(horizon_s=12000, seed=5,
                                     mc_kernel="vectorized")
        tol = 3.0 * _combined(leg, vec) + 1e-6
        assert abs(leg.late_fraction - vec.late_fraction) <= tol

    def test_heterogeneous_paths_and_shares(self):
        model = DmpModel([FAST, FAST2], mu=14.0, tau=1.5)
        leg = model.late_fraction_mc(horizon_s=12000, seed=3,
                                     mc_kernel="legacy")
        vec = model.late_fraction_mc(horizon_s=12000, seed=3,
                                     mc_kernel="vectorized")
        tol = 3.0 * _combined(leg, vec) + 1e-6
        assert abs(leg.late_fraction - vec.late_fraction) <= tol
        assert len(vec.path_shares) == 2
        assert sum(vec.path_shares) == pytest.approx(1.0)
        for ls, vs in zip(leg.path_shares, vec.path_shares):
            assert abs(ls - vs) <= 0.05

    def test_static_scheme_uses_kernel(self):
        est = static_late_fraction([FAST, FAST], mu=16.0, tau=1.0,
                                   horizon_s=4000, seed=2,
                                   mc_kernel="vectorized")
        assert est.method == "static-mc"
        assert est.kernel == "vectorized"

    def test_vectorized_is_deterministic(self):
        model = DmpModel([FAST, FAST], mu=18, tau=1.0)
        a = model.late_fraction_mc(horizon_s=4000, seed=11,
                                   mc_kernel="vectorized")
        b = model.late_fraction_mc(horizon_s=4000, seed=11,
                                   mc_kernel="vectorized")
        assert a.late_fraction == b.late_fraction
        assert a.stderr == b.stderr
        assert a.path_shares == b.path_shares


# ---------------------------------------------------------------------
# Statistical equivalence, transient
# ---------------------------------------------------------------------
class TestTransientEquivalence:
    def test_within_three_stderr(self):
        model = DmpModel([FAST, FAST], mu=18, tau=1.0)
        leg = model.late_fraction_transient(
            video_s=60.0, replications=60, seed=9, mc_kernel="legacy")
        vec = model.late_fraction_transient(
            video_s=60.0, replications=60, seed=9,
            mc_kernel="vectorized")
        assert leg.method == vec.method == "transient-mc"
        assert leg.kernel == "legacy"
        assert vec.kernel == "vectorized"
        tol = 3.0 * _combined(leg, vec) + 1e-6
        assert abs(leg.late_fraction - vec.late_fraction) <= tol

    def test_vectorized_is_deterministic(self):
        model = DmpModel([FAST, FAST], mu=18, tau=1.0)
        a = model.late_fraction_transient(video_s=30.0,
                                          replications=20, seed=4,
                                          mc_kernel="vectorized")
        b = model.late_fraction_transient(video_s=30.0,
                                          replications=20, seed=4,
                                          mc_kernel="vectorized")
        assert a.late_fraction == b.late_fraction


# ---------------------------------------------------------------------
# Cache tagging by kernel
# ---------------------------------------------------------------------
class TestCacheKernelTag:
    def _task(self, kernel):
        return ModelTask(flows=(FAST, FAST), mu=18.0, tau=1.0,
                         horizon_s=2000.0, seed=1, mc_kernel=kernel)

    def test_kernels_get_distinct_keys(self):
        cache = ResultCache("/tmp/unused")
        assert cache.model_key(self._task("legacy")) \
            != cache.model_key(self._task("vectorized"))

    def test_none_resolves_to_default(self, monkeypatch):
        monkeypatch.delenv(mc_kernel.ENV_KERNEL, raising=False)
        mc_kernel.configure(None)
        cache = ResultCache("/tmp/unused")
        assert cache.model_key(self._task(None)) \
            == cache.model_key(self._task("vectorized"))

    def test_round_trips_kernel_field(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        model = DmpModel([FAST, FAST], mu=18, tau=1.0)
        task = self._task("vectorized")
        estimate = model.late_fraction_mc(horizon_s=2000, seed=1,
                                          mc_kernel="vectorized")
        cache.put_model(task, estimate)
        got = cache.get_model(task)
        assert got is not None
        assert got.kernel == "vectorized"
        assert got.late_fraction == estimate.late_fraction
        # The legacy-tagged task must not hit the vectorized record.
        assert cache.get_model(self._task("legacy")) is None


# ---------------------------------------------------------------------
# Replica sizing
# ---------------------------------------------------------------------
class TestReplicaCount:
    def test_never_below_batches(self):
        assert mc_kernel.stationary_replica_count(
            2000.0, 1000.0, 4.0, batches=10) >= 10

    def test_respects_cap_and_multiples(self):
        count = mc_kernel.stationary_replica_count(
            1e7, 0.0, 1.0, batches=10)
        assert count <= mc_kernel.MAX_REPLICAS
        assert count % 10 == 0

    def test_scales_with_measured_time(self):
        small = mc_kernel.stationary_replica_count(
            5000.0, 1000.0, 2.0, batches=10)
        large = mc_kernel.stationary_replica_count(
            20000.0, 1000.0, 2.0, batches=10)
        assert large >= small


# ---------------------------------------------------------------------
# Grid batches: one lockstep pass, per-point estimates bit-identical
# ---------------------------------------------------------------------
FAST3 = FlowParams(p=0.03, rtt=0.15, to_ratio=3.0, wmax=5)

#: k=2 and k=3 points with different mu, tau, seed, horizon and
#: burn-in; the 60 s point finishes long before the 1500 s one; the
#: legacy task passes through unbatched.
MIXED = (
    ModelTask(flows=(FAST, FAST), mu=18.0, tau=1.0, horizon_s=600.0,
              seed=3, mc_kernel="vectorized"),
    ModelTask(flows=(FAST, FAST2, FAST3), mu=22.0, tau=2.0,
              horizon_s=900.0, seed=5, mc_kernel="vectorized"),
    ModelTask(flows=(FAST, FAST2), mu=14.0, tau=1.5, horizon_s=200.0,
              seed=7, mc_kernel="legacy"),
    ModelTask(flows=(FAST2, FAST3), mu=9.0, tau=3.0, horizon_s=60.0,
              seed=11, mc_kernel="vectorized"),
    ModelTask(flows=(FAST, FAST), mu=18.0, tau=2.0, horizon_s=1500.0,
              seed=3, mc_kernel="vectorized"),
)


def _solo(task):
    model = DmpModel(list(task.flows), mu=task.mu, tau=task.tau)
    return model.late_fraction_mc(horizon_s=task.horizon_s,
                                  seed=task.seed,
                                  mc_kernel=task.mc_kernel)


class TestGridBatch:
    @pytest.mark.parametrize("max_lanes", [mc_kernel.MAX_LANES, 40])
    def test_mixed_batch_equals_per_model_solves(self, monkeypatch,
                                                 max_lanes):
        # 40 lanes split the batch into passes of two 20-replica runs.
        monkeypatch.setattr(mc_kernel, "MAX_LANES", max_lanes)
        with telemetry.session() as batched:
            got = ReplicationExecutor(max_workers=1).solve_models(MIXED)
        with telemetry.session() as solo:
            expected = [_solo(task) for task in MIXED]
        # Float-for-float: late fraction, stderr and path shares.
        assert got == expected
        assert [est.kernel for est in got] == [
            task.mc_kernel for task in MIXED]
        assert batched.metrics.counter("mc.blocks").total \
            == solo.metrics.counter("mc.blocks").total > 0

    def test_one_pass_for_every_vectorized_task(self):
        assert model_batches(MIXED) == [[0, 1, 3, 4], [2]]
        with telemetry.session() as tel:
            solve_model(MIXED)
        names = [span.name for root in tel.roots
                 for span in root.walk()]
        assert names.count("mc.run") == 1
        assert names.count("mc.compile") == 1

    def test_chains_shared_across_the_batch(self, monkeypatch):
        built = []

        class CountingChain(TcpFlowChain):
            def __init__(self, params):
                built.append(params)
                super().__init__(params)

        monkeypatch.setattr(parallel, "TcpFlowChain", CountingChain)
        grid = [ModelTask(flows=(params, params), mu=18.0, tau=tau,
                          horizon_s=300.0, seed=1,
                          mc_kernel="vectorized")
                for params in (FAST, FAST2) for tau in (1.0, 2.0, 3.0)]
        got = solve_model(grid)
        assert built == [FAST, FAST2]
        assert got == [_solo(task) for task in grid]

    def test_invalid_run_lengths_are_rejected(self):
        model = DmpModel([FAST, FAST], mu=18.0, tau=1.0)
        with pytest.raises(ValueError, match="burn-in"):
            model.stationary_run(horizon_s=100.0, burn_in_s=100.0)
        # One batch over one 150 s window: a single replica.
        with pytest.raises(ValueError, match="two replicas"):
            model.late_fraction_mc(horizon_s=200.0, batches=1)
