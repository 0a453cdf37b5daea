"""Declared telemetry names, mirroring :data:`repro.obs.SCHEMA`.

Campaign telemetry (spans + metrics) complements the per-simulation
probe bus: ``repro.obs`` answers "what happened inside one run" at
packet granularity, this layer answers "where did the campaign's
wall-clock and cache budget go" across the experiment stack.

Every span opened through :meth:`repro.telemetry.Telemetry.span` and
every metric created through :class:`repro.telemetry.Metrics` must be
declared here with its kind, exactly like probe topics must appear in
the obs SCHEMA.  repro-lint's RL003 rule cross-checks the tree against
this registry: an undeclared name at a call site is an error, and so is
a declared name with no literal call site anywhere under ``src/``
(dead entry).

Kinds:

``span``
    A timed, nested region (``campaign -> setting -> replication``).
``counter``
    A monotonically increasing integer, optionally split by a string
    label (e.g. cache counters split by record kind).
``gauge``
    A last-write-wins float (e.g. worker utilization of the last
    parallel map).
``histogram``
    Non-negative scalar observations (durations) aggregated in a
    :class:`~repro.obs.health.LogHistogram`.
"""

from __future__ import annotations

from typing import Dict

#: name -> kind ("span" | "counter" | "gauge" | "histogram")
TELEMETRY_SCHEMA: Dict[str, str] = {
    # -- spans ---------------------------------------------------------
    # One whole CLI invocation (label: requested target).
    "campaign": "span",
    # One figure/table builder inside a campaign (label: target name).
    "target": "span",
    # One run_setting() call (label: setting name).
    "setting": "span",
    # One ReplicationExecutor.map() fan-out (serial or pooled).
    "executor.map": "span",
    # Serial re-run of an item whose worker crashed.
    "retry": "span",
    # One simulate_run() replication (label: setting name).
    "replication": "span",
    # One solve_model() call: a batch of Monte-Carlo solves.
    "solve": "span",
    # run_internet_experiments() campaign / one of its experiments.
    "internet.campaign": "span",
    "internet.experiment": "span",
    # fig8_curves() model grid.
    "sweep.fig8": "span",
    # Vectorized MC kernel: one-time table compile / one solve loop
    # (label: "stationary" | "transient").
    "mc.compile": "span",
    "mc.run": "span",
    # -- counters ------------------------------------------------------
    # ResultCache outcomes, labelled by record kind ("run" | "model");
    # cache.corrupt labels carry a key prefix for forensics.
    "cache.hit": "counter",
    "cache.miss": "counter",
    "cache.corrupt": "counter",
    "cache.write": "counter",
    # Pool could not be created at all -> whole map ran serially.
    "executor.serial_fallback": "counter",
    # A worker crashed and its item was retried serially.
    "executor.crash_retry": "counter",
    # RNG blocks drawn by the vectorized MC kernel.
    "mc.blocks": "counter",
    # -- gauges --------------------------------------------------------
    # busy_time / (workers * span duration) of the last pooled map.
    "executor.utilization": "gauge",
    # -- histograms ----------------------------------------------------
    # Per-item work duration and submit->start queue wait, seconds.
    "executor.item_seconds": "histogram",
    "executor.queue_wait_seconds": "histogram",
}

KINDS = ("span", "counter", "gauge", "histogram")
