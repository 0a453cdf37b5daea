"""Mean-field population backend: solver properties and structure.

The McDonald-Reynier limit object is deterministic and intensive
(per-session), so the solver owes us exact structural guarantees that
the property suite pins down:

* mass conservation of the window density (plus timeout compartments),
* late fractions in [0, 1], monotone non-increasing in tau,
* N-invariance of the scaled limit (bit-identical under power-of-two
  population scaling, allclose otherwise),
* bit-identical reruns from equal inputs (no RNG, no wall clock),
* lane i of a lockstep batch is bit-identical to solving spec i alone.

Agreement with the packet simulator lives in
``test_meanfield_agreement.py``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.model.meanfield import (
    BACKENDS,
    MEANFIELD_DISCIPLINES,
    MeanFieldSpec,
    late_fraction_grid,
    resolve_backend,
    solve_meanfield,
    solve_meanfield_batch,
)


def quick_spec(**overrides):
    """A short-horizon spec that solves in tens of milliseconds."""
    base = dict(n_sessions=100, mu=10.0, bandwidth_pps=800.0,
                buffer_pkts=200.0, queue_discipline="droptail",
                duration_s=12.0, warmup_s=2.0, drain_s=5.0, dt=0.01)
    base.update(overrides)
    return MeanFieldSpec(**base)


# ---------------------------------------------------------------------
# Spec validation and backend registry
# ---------------------------------------------------------------------
class TestSpecValidation:
    def test_backends_registry(self):
        assert BACKENDS == ("packet", "meanfield")
        assert resolve_backend("packet") == "packet"
        assert resolve_backend("meanfield") == "meanfield"
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("ns2")

    @pytest.mark.parametrize("overrides", [
        {"n_sessions": 0},
        {"mu": 0.0},
        {"bandwidth_pps": 0.0},
        {"buffer_pkts": -1.0},
        {"queue_discipline": "pie"},
        {"paths_per_session": 0},
        {"n_background": -1},
        {"base_rtt_s": 0.0},
        {"duration_s": 0.0},
        {"warmup_s": -1.0},
        {"wmax": 3},
        {"to_ratio": 0.0},
        {"dt": 0.0},
        {"dt": 0.1},
    ])
    def test_invalid_specs_rejected(self, overrides):
        with pytest.raises(ValueError):
            quick_spec(**overrides)

    def test_disciplines_subset(self):
        # The mean-field theorem is a RED result with drop-tail as the
        # hard-limit case; PIE controllers have no fluid analogue here.
        assert MEANFIELD_DISCIPLINES == ("droptail", "red")


# ---------------------------------------------------------------------
# Hypothesis properties
# ---------------------------------------------------------------------
spec_strategy = st.builds(
    quick_spec,
    mu=st.floats(min_value=5.0, max_value=50.0),
    bandwidth_pps=st.floats(min_value=200.0, max_value=5000.0),
    buffer_pkts=st.floats(min_value=50.0, max_value=800.0),
    queue_discipline=st.sampled_from(MEANFIELD_DISCIPLINES),
    n_background=st.integers(min_value=0, max_value=200),
    base_rtt_s=st.floats(min_value=0.02, max_value=0.3),
)


@given(spec=spec_strategy)
@settings(max_examples=15, deadline=None)
def test_mass_conserved_and_traces_sane(spec):
    solution = solve_meanfield(spec)
    # The transport operator moves mass between windows and the
    # timeout compartment but never creates or destroys it.
    assert solution.mass_error < 1e-9
    assert np.all(solution.goodput_pps >= 0.0)
    assert np.all(solution.queue_pkts >= -1e-12)
    assert np.all((solution.drop_prob >= 0.0)
                  & (solution.drop_prob <= 1.0))
    # Per-session queue share never exceeds the per-session buffer.
    assert np.all(solution.queue_pkts
                  <= spec.buffer_pkts / spec.n_sessions + 1e-9)


@given(spec=spec_strategy,
       taus=st.lists(st.floats(min_value=0.0, max_value=20.0),
                     min_size=2, max_size=5))
@settings(max_examples=15, deadline=None)
def test_late_fraction_unit_interval_and_monotone(spec, taus):
    solution = solve_meanfield(spec)
    ordered = sorted(taus)
    fractions = [solution.late_fractions([tau])[tau]
                 for tau in ordered]
    assert all(0.0 <= f <= 1.0 for f in fractions)
    # A longer startup delay can only reduce lateness.
    assert all(a >= b - 1e-12
               for a, b in zip(fractions, fractions[1:]))


@given(spec=spec_strategy, shift=st.integers(min_value=1, max_value=10))
@settings(max_examples=10, deadline=None)
def test_n_invariance_power_of_two(spec, shift):
    """Scaling N, bandwidth, buffer and background by 2^k is exact.

    Power-of-two scaling only touches float exponents, so the scaled
    limit is bit-identical — the strongest possible statement of
    N-invariance.
    """
    m = 2 ** shift
    scaled = dataclasses.replace(
        spec, n_sessions=spec.n_sessions * m,
        bandwidth_pps=spec.bandwidth_pps * m,
        buffer_pkts=spec.buffer_pkts * m,
        n_background=spec.n_background * m)
    a = solve_meanfield(spec)
    b = solve_meanfield(scaled)
    assert np.array_equal(a.goodput_pps, b.goodput_pps)
    assert np.array_equal(a.queue_pkts, b.queue_pkts)
    assert np.array_equal(a.drop_prob, b.drop_prob)


def test_n_invariance_general_multiplier():
    spec = quick_spec(n_background=30)
    scaled = dataclasses.replace(
        spec, n_sessions=spec.n_sessions * 3,
        bandwidth_pps=spec.bandwidth_pps * 3,
        buffer_pkts=spec.buffer_pkts * 3,
        n_background=spec.n_background * 3)
    a = solve_meanfield(spec)
    b = solve_meanfield(scaled)
    np.testing.assert_allclose(a.goodput_pps, b.goodput_pps,
                               rtol=1e-9, atol=1e-9)
    assert a.late_fraction(4.0) == pytest.approx(b.late_fraction(4.0),
                                                 abs=1e-9)


@given(spec=spec_strategy)
@settings(max_examples=10, deadline=None)
def test_bit_identical_reruns(spec):
    a = solve_meanfield(spec)
    b = solve_meanfield(spec)
    assert np.array_equal(a.goodput_pps, b.goodput_pps)
    assert np.array_equal(a.queue_pkts, b.queue_pkts)
    assert np.array_equal(a.drop_prob, b.drop_prob)
    assert a.mass_error == b.mass_error


# ---------------------------------------------------------------------
# Physics sanity and the grid helper
# ---------------------------------------------------------------------
class TestPhysics:
    def test_provisioned_population_is_never_late(self):
        # 1.6x provisioning with a modest tau: the ODE must deliver
        # everything on time, like the packet sim does.
        spec = quick_spec(bandwidth_pps=1600.0, duration_s=30.0,
                          drain_s=20.0)
        solution = solve_meanfield(spec)
        assert solution.late_fraction(4.0) == 0.0

    def test_congestion_hurts(self):
        good = solve_meanfield(quick_spec(bandwidth_pps=1600.0))
        bad = solve_meanfield(quick_spec(bandwidth_pps=600.0))
        assert bad.late_fraction(2.0) > good.late_fraction(2.0)

    def test_background_load_steals_capacity(self):
        alone = solve_meanfield(quick_spec(bandwidth_pps=1000.0))
        crowded = solve_meanfield(
            quick_spec(bandwidth_pps=1000.0, n_background=300))
        assert crowded.late_fraction(2.0) >= alone.late_fraction(2.0)

    def test_population_summary_is_degenerate(self):
        solution = solve_meanfield(quick_spec(bandwidth_pps=600.0))
        population = solution.population(2.0)
        assert set(population) == {"mean", "min", "max", "p50", "p95",
                                   "p99"}
        assert len(set(population.values())) == 1

    def test_red_drops_before_the_buffer_fills(self):
        droptail = solve_meanfield(
            quick_spec(bandwidth_pps=600.0,
                       queue_discipline="droptail"))
        red = solve_meanfield(
            quick_spec(bandwidth_pps=600.0, queue_discipline="red"))
        # RED's early-drop profile keeps the standing queue below
        # drop-tail's full buffer.
        assert red.mean_queue_pkts < droptail.mean_queue_pkts


class TestGrid:
    def test_grid_shape_and_values(self):
        rows = late_fraction_grid(quick_spec(), ratios=(0.6, 1.0, 1.6),
                                  taus=(2.0, 6.0))
        assert [row["ratio"] for row in rows] == [0.6, 1.0, 1.6]
        for row in rows:
            assert set(row["late_fraction"]) == {"2", "6"}
            assert all(0.0 <= v <= 1.0
                       for v in row["late_fraction"].values())
        # Starvation at 0.6x must beat comfortable 1.6x provisioning.
        assert rows[0]["late_fraction"]["2"] > \
            rows[-1]["late_fraction"]["2"]

    def test_grid_rejects_bad_ratio(self):
        with pytest.raises(ValueError, match="positive"):
            late_fraction_grid(quick_spec(), ratios=(0.0,), taus=(2.0,))

    def test_grid_is_n_independent(self):
        small = late_fraction_grid(quick_spec(n_sessions=64),
                                   ratios=(0.8,), taus=(2.0,))
        huge = late_fraction_grid(quick_spec(n_sessions=64 * 2 ** 14),
                                  ratios=(0.8,), taus=(2.0,))
        assert small[0]["late_fraction"] == huge[0]["late_fraction"]

    def test_grid_rows_do_not_depend_on_the_batch(self):
        both = late_fraction_grid(quick_spec(), ratios=(0.6, 1.2),
                                  taus=(2.0, 9.0))
        alone = [row for ratio in (0.6, 1.2)
                 for row in late_fraction_grid(quick_spec(),
                                               ratios=(ratio,),
                                               taus=(2.0, 9.0))]
        assert both == alone

    def test_grid_tau_past_the_drain_matches_a_covering_solve(self):
        # tau = 9 s plays until 21 s, past the 12 + 5 s horizon of the
        # base spec: the grid must stretch its horizon and report the
        # untruncated value, exactly as a covering solve does, not the
        # base horizon's missing-as-late bound.  The drop and queue
        # means still cover the base window only.
        base = quick_spec(drain_s=5.0)
        taus = (2.0, 9.0)
        rows = late_fraction_grid(base, ratios=(0.5,), taus=taus)
        ratio_spec = dataclasses.replace(
            base, bandwidth_pps=0.5 * base.mu * base.n_sessions)
        covering = solve_meanfield(
            dataclasses.replace(ratio_spec, drain_s=10.0))
        assert rows[0]["late_fraction"] == {
            f"{tau:g}": covering.late_fraction(tau) for tau in taus}
        own = solve_meanfield(ratio_spec)
        assert 0.0 < rows[0]["late_fraction"]["9"] < own.late_fraction(9.0)
        assert rows[0]["mean_drop_prob"] == own.mean_drop_prob
        assert rows[0]["mean_queue_pkts"] == own.mean_queue_pkts


# ---------------------------------------------------------------------
# Lockstep batches
# ---------------------------------------------------------------------
lane_strategy = st.builds(
    quick_spec,
    n_sessions=st.integers(min_value=1, max_value=5000),
    mu=st.floats(min_value=5.0, max_value=50.0),
    bandwidth_pps=st.floats(min_value=200.0, max_value=5000.0),
    buffer_pkts=st.floats(min_value=50.0, max_value=800.0),
    queue_discipline=st.sampled_from(MEANFIELD_DISCIPLINES),
    paths_per_session=st.integers(min_value=1, max_value=3),
    n_background=st.integers(min_value=0, max_value=200),
    base_rtt_s=st.floats(min_value=0.02, max_value=0.3),
    to_ratio=st.floats(min_value=1.0, max_value=4.0),
    min_rto_s=st.floats(min_value=0.0, max_value=1.0),
    # Same step count (1700), different split into video and drain.
    duration_s=st.sampled_from((12.0, 14.0)),
)


def _same_grid(spec):
    return dataclasses.replace(spec, drain_s=17.0 - spec.duration_s)


@given(specs=st.lists(lane_strategy.map(_same_grid), min_size=1,
                      max_size=4),
       wmax=st.sampled_from((17, 32)))
@settings(max_examples=10, deadline=None)
def test_batch_lanes_are_bit_identical_to_single_solves(specs, wmax):
    specs = [dataclasses.replace(spec, wmax=wmax) for spec in specs]
    batch = solve_meanfield_batch(specs)
    assert len(batch) == len(specs)
    for spec, lane in zip(specs, batch):
        alone = solve_meanfield(spec)
        assert lane.spec == spec
        assert np.array_equal(lane.goodput_pps, alone.goodput_pps)
        assert np.array_equal(lane.queue_pkts, alone.queue_pkts)
        assert np.array_equal(lane.drop_prob, alone.drop_prob)
        assert lane.mass_error == alone.mass_error
        assert lane.late_fraction(4.0) == alone.late_fraction(4.0)


@pytest.mark.parametrize("overrides", [
    {"dt": 0.005},
    {"wmax": 16},
    {"warmup_s": 3.0},
    {"drain_s": 6.0},
])
def test_batch_rejects_specs_without_a_shared_step_grid(overrides):
    with pytest.raises(ValueError, match="share the step grid"):
        solve_meanfield_batch([quick_spec(),
                               quick_spec(**overrides)])


def test_empty_batch_solves_nothing():
    assert solve_meanfield_batch([]) == []
