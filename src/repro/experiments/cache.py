"""On-disk result cache for simulated replications and model solves.

Every replication of :func:`repro.experiments.runner.run_setting` is a
pure function of ``(Setting, duration, scheme, seed, send buffer)`` —
the simulator is deterministic given its seed — so its result can be
memoised across processes and invocations.  The cache stores one JSON
record per simulation run (and per model Monte-Carlo solve) under a
content-addressed filename::

    <cache dir>/<sha256 of the canonical key>.json

The directory defaults to ``~/.cache/repro`` and is overridable with
the ``REPRO_CACHE_DIR`` environment variable or an explicit
``directory`` argument.

Invalidation: every key embeds :data:`CODE_VERSION`.  Bump it whenever
a change alters simulation or model output for the same inputs
(topology construction, RNG consumption order, TCP behaviour, metric
definitions...).  Stale records are then never read again; they can be
garbage-collected by deleting the cache directory.

Robustness: a record that cannot be read or parsed (truncated write,
concurrent writer, disk corruption) is treated as a miss, never an
error.  Writes go through a temporary file and an atomic rename so a
crashed writer cannot leave a half-record behind.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict
from typing import (TYPE_CHECKING, Any, Dict, Optional, Sequence,
                    Union)

from repro import telemetry
from repro.model.dmp_model import LateFractionEstimate
from repro.model.mc_kernel import resolve_kernel
from repro.model.meanfield import MeanFieldSpec
from repro.obs.health import LogHistogram
from repro.verify.spec import VerifySpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.parallel import ModelTask, RunSpec

#: Bump to invalidate every cached record (see module docstring).
#: v3: vectorized MC kernel; model keys are tagged by kernel so
#: vectorized and legacy estimates never mix under one record.
#: v4: key payload functions annotated with their hashed dataclasses
#: (repro-lint RL004 checks key completeness against them) and the
#: ``mc_kernel`` getattr replaced by a field read; the payload bytes
#: are unchanged, bumped conservatively per the RL004 diff policy.
#: v5: ``Setting`` grew the ``queue_discipline`` axis (bottleneck AQM);
#: run keys now carry it, so pre-AQM records — implicitly drop-tail —
#: are never read back under a different discipline.
#: v6: ``Setting`` grew the multi-session campaign axes
#: (``n_sessions``, ``churn_rate``); run keys carry both, and campaign
#: records additionally store per-session late fractions under
#: ``sessions`` (coverage re-checked on read like ``taus``).
#: v7: ``Setting`` grew the solver ``backend`` axis; run keys carry it
#: so packet-sim records are never read back for a mean-field request
#: (and vice versa), and mean-field solves get their own record kind
#: keyed on the full ``MeanFieldSpec``.
#: v8: verification results (``repro.verify``) get their own record
#: kind keyed on the full ``VerifySpec`` plus scheme/engine/query;
#: no prior kind changed shape, bumped per the RL004 diff policy
#: because the key-payload module gained new material.
#: v9: campaign records (``n_sessions > 1``) additionally carry the
#: QoE ``health`` rollup (per-session rows plus mergeable log
#: histograms, ``repro.obs.health``); presence is re-checked on read
#: like ``sessions``, and pre-v9 campaign records lack it.
#: v10: finite-video fluid late fractions count fixed content slots
#: and count content undelivered at the trace's end as late (they used
#: to drop playback past the solve horizon), so pre-v10 mean-field
#: records may hold truncated values.
CODE_VERSION = 10

ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_CACHE = "REPRO_CACHE"


def default_directory() -> str:
    """Resolve the cache directory ($REPRO_CACHE_DIR > ~/.cache/repro)."""
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def tau_key(tau: float) -> str:
    """Canonical JSON-object key for a startup delay."""
    return repr(float(tau))


def _digest(payload: Dict[str, Any]) -> str:
    canonical = json.dumps(payload, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """Content-addressed JSON store for run and model records."""

    def __init__(self, directory: Optional[str] = None) -> None:
        self.directory = directory or default_directory()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # -- telemetry -----------------------------------------------------
    def _hit(self, kind: str) -> None:
        self.hits += 1
        tel = telemetry.current()
        if tel.active:
            tel.metrics.counter("cache.hit").inc(label=kind)

    def _miss(self, kind: str) -> None:
        self.misses += 1
        tel = telemetry.current()
        if tel.active:
            tel.metrics.counter("cache.miss").inc(label=kind)

    @staticmethod
    def _note_corrupt(kind: str, key: str) -> None:
        # The label carries a key prefix: corruption is rare and the
        # prefix locates the bad record file for forensics.
        tel = telemetry.current()
        if tel.active:
            tel.metrics.counter("cache.corrupt").inc(
                label=f"{kind}:{key[:12]}")

    # -- keys ----------------------------------------------------------
    @staticmethod
    def run_key_payload(spec: "RunSpec") -> Dict[str, Any]:
        """The full identity of one simulation run (see RunSpec)."""
        setting = spec.setting
        return {
            "kind": "run",
            "version": CODE_VERSION,
            "setting": {
                "name": setting.name,
                "configs": list(setting.configs),
                "mu": setting.mu,
                "shared_bottleneck": setting.shared_bottleneck,
                "queue_discipline": setting.queue_discipline,
                "n_sessions": setting.n_sessions,
                "churn_rate": setting.churn_rate,
                "backend": setting.backend,
            },
            "duration_s": spec.duration_s,
            "scheme": spec.scheme,
            "seed": spec.seed,
            "send_buffer_pkts": spec.send_buffer_pkts,
        }

    def run_key(self, spec: "RunSpec") -> str:
        return _digest(self.run_key_payload(spec))

    @staticmethod
    def model_key_payload(task: "ModelTask") -> Dict[str, Any]:
        return {
            "kind": "model",
            "version": CODE_VERSION,
            "flows": [asdict(flow) for flow in task.flows],
            "mu": task.mu,
            "tau": task.tau,
            "horizon_s": task.horizon_s,
            "seed": task.seed,
            # Tagging by resolved kernel keeps vectorized and legacy
            # estimates under distinct records.
            "mc_kernel": resolve_kernel(task.mc_kernel),
        }

    def model_key(self, task: "ModelTask") -> str:
        return _digest(self.model_key_payload(task))

    @staticmethod
    def meanfield_key_payload(spec: MeanFieldSpec) -> Dict[str, Any]:
        """The full identity of one mean-field solve.

        Every ``MeanFieldSpec`` field shapes the solution, so every
        field is key material; the record is additionally tagged
        ``backend: meanfield`` so it can never collide with packet-sim
        run records even under a digest prefix match.
        """
        return {
            "kind": "meanfield",
            "version": CODE_VERSION,
            "backend": "meanfield",
            "n_sessions": spec.n_sessions,
            "mu": spec.mu,
            "bandwidth_pps": spec.bandwidth_pps,
            "buffer_pkts": spec.buffer_pkts,
            "queue_discipline": spec.queue_discipline,
            "paths_per_session": spec.paths_per_session,
            "n_background": spec.n_background,
            "base_rtt_s": spec.base_rtt_s,
            "duration_s": spec.duration_s,
            "warmup_s": spec.warmup_s,
            "drain_s": spec.drain_s,
            "wmax": spec.wmax,
            "to_ratio": spec.to_ratio,
            "min_rto_s": spec.min_rto_s,
            "dt": spec.dt,
        }

    def meanfield_key(self, spec: MeanFieldSpec) -> str:
        return _digest(self.meanfield_key_payload(spec))

    @staticmethod
    def verify_key_payload(spec: VerifySpec, scheme: str = "dmp",
                           engine: str = "exhaustive",
                           query: str = "max_late") -> Dict[str, Any]:
        """The full identity of one verification query.

        ``gen_rounds`` and ``static_shares`` are keyed through their
        *resolved* values (``_gen`` / ``_shares``): an explicit value
        equal to the default resolves to the same instance, so the two
        spellings legitimately share one record.  The engine is part
        of the key so a bug in one engine can never poison the other's
        records (results are exact, so agreement is a test invariant,
        not a cache assumption).
        """
        return {
            "kind": "verify",
            "version": CODE_VERSION,
            "scheme": scheme,
            "engine": engine,
            "query": query,
            "mu_r": spec.mu_r,
            "tau": spec.tau,
            "rounds": spec.rounds,
            "paths": [asdict(p) for p in spec.paths],
            "gen_rounds": spec._gen,
            "static_shares": list(spec._shares),
        }

    def verify_key(self, spec: VerifySpec, scheme: str = "dmp",
                   engine: str = "exhaustive",
                   query: str = "max_late") -> str:
        return _digest(self.verify_key_payload(
            spec, scheme=scheme, engine=engine, query=query))

    # -- run records ---------------------------------------------------
    def get_run(self, spec: "RunSpec") -> Optional[Dict[str, Any]]:
        """Cached record for one replication, or None.

        A record is only a hit when it covers *every* startup delay the
        spec asks for (records accumulate taus across invocations) and,
        when the spec requests probe counters, actually carries them —
        counter-less records written by plain runs stay usable for
        plain requests but force a re-run for instrumented ones.
        """
        record = self._read(self.run_key(spec), "run")
        if record is None or "flow_stats" not in record \
                or not isinstance(record.get("taus"), dict):
            self._miss("run")
            return None
        if any(tau_key(tau) not in record["taus"] for tau in spec.taus):
            self._miss("run")
            return None
        if getattr(spec, "counters", False) \
                and not isinstance(record.get("counters"), dict):
            self._miss("run")
            return None
        # Campaign records (n_sessions > 1) additionally carry the
        # per-session late-fraction lists; require the same tau
        # coverage there so population quantiles never silently fall
        # back to a partial record.
        if spec.setting.n_sessions > 1:
            sessions = record.get("sessions")
            if not isinstance(sessions, dict) or any(
                    tau_key(tau) not in sessions for tau in spec.taus):
                self._miss("run")
                return None
            # ... and the QoE health rollup with per-tau late-fraction
            # histograms covering the same taus (repro.obs.health).
            health = record.get("health")
            late_hists = health.get("late_hists") \
                if isinstance(health, dict) else None
            if not isinstance(late_hists, dict) or any(
                    tau_key(tau) not in late_hists
                    for tau in spec.taus):
                self._miss("run")
                return None
            # A histogram whose counts do not add up would answer the
            # population quantiles from the wrong rank: corrupt.
            try:
                for data in late_hists.values():
                    LogHistogram.from_dict(data)
            except ValueError:
                self._note_corrupt("run", self.run_key(spec))
                self._miss("run")
                return None
        self._hit("run")
        return record

    def put_run(self, spec: "RunSpec",
                record: Dict[str, Any]) -> None:
        """Store a replication record, merging taus (and any counters)
        with a prior record under the same key."""
        key = self.run_key(spec)
        previous = self._read(key, "run")
        if previous is not None and isinstance(previous.get("taus"),
                                               dict):
            merged = dict(previous["taus"])
            merged.update(record["taus"])
            record = dict(record, taus=merged)
            if "counters" not in record \
                    and isinstance(previous.get("counters"), dict):
                record["counters"] = previous["counters"]
            # Campaign per-session lists accumulate across invocations
            # exactly like taus.
            if isinstance(previous.get("sessions"), dict):
                sessions = dict(previous["sessions"])
                sessions.update(record.get("sessions", {}))
                record["sessions"] = sessions
            # Health rollups: the rollup itself is tau-independent
            # (latest wins, it describes the same deterministic run)
            # while the per-tau late histograms accumulate like taus.
            previous_health = previous.get("health")
            if isinstance(previous_health, dict):
                health = dict(previous_health)
                fresh = record.get("health")
                if isinstance(fresh, dict):
                    late_hists = dict(
                        previous_health.get("late_hists", {}))
                    late_hists.update(fresh.get("late_hists", {}))
                    health = dict(fresh, late_hists=late_hists)
                record["health"] = health
        self._write(key, record, "run")

    # -- model records -------------------------------------------------
    def get_model(self, task: "ModelTask") \
            -> Optional[LateFractionEstimate]:
        record = self._read(self.model_key(task), "model")
        if record is None:
            self._miss("model")
            return None
        try:
            estimate = LateFractionEstimate(
                late_fraction=float(record["late_fraction"]),
                stderr=float(record["stderr"]),
                horizon_s=float(record["horizon_s"]),
                method=str(record["method"]),
                path_shares=tuple(record.get("path_shares", ())),
                kernel=str(record["kernel"]))
        except (KeyError, TypeError, ValueError):
            self._miss("model")
            return None
        self._hit("model")
        return estimate

    def put_model(self, task: "ModelTask",
                  estimate: LateFractionEstimate) -> None:
        self._write(self.model_key(task), {
            "late_fraction": estimate.late_fraction,
            "stderr": estimate.stderr,
            "horizon_s": estimate.horizon_s,
            "method": estimate.method,
            "path_shares": list(estimate.path_shares),
            "kernel": estimate.kernel,
        }, "model")

    # -- mean-field records --------------------------------------------
    def get_meanfield(self, spec: MeanFieldSpec,
                      taus: Sequence[float] = ()) \
            -> Optional[Dict[str, Any]]:
        """Cached mean-field record covering ``taus``, or None.

        Like run records, mean-field records accumulate per-tau late
        fractions across invocations; a record is only a hit when it
        carries every requested tau.
        """
        record = self._read(self.meanfield_key(spec), "meanfield")
        if record is None or not isinstance(record.get("taus"), dict):
            self._miss("meanfield")
            return None
        if any(tau_key(tau) not in record["taus"] for tau in taus):
            self._miss("meanfield")
            return None
        self._hit("meanfield")
        return record

    def put_meanfield(self, spec: MeanFieldSpec,
                      record: Dict[str, Any]) -> None:
        """Store a mean-field record, merging taus with any prior
        record under the same key (mirrors :meth:`put_run`)."""
        key = self.meanfield_key(spec)
        previous = self._read(key, "meanfield")
        if previous is not None \
                and isinstance(previous.get("taus"), dict):
            merged = dict(previous["taus"])
            merged.update(record["taus"])
            record = dict(record, taus=merged)
        self._write(key, record, "meanfield")

    # -- verification records ------------------------------------------
    def get_verify(self, spec: VerifySpec, scheme: str = "dmp",
                   engine: str = "exhaustive",
                   query: str = "max_late") \
            -> Optional[Dict[str, Any]]:
        """Cached verification record, or None.

        Only the shape is validated here; the caller
        (:mod:`repro.verify.queries`) replays the stored witness and
        treats any disagreement as a miss, so a stale or tampered
        record can never surface as a certified result.
        """
        record = self._read(
            self.verify_key(spec, scheme=scheme, engine=engine,
                            query=query), "verify")
        if record is None or "value" not in record \
                or not isinstance(record.get("choices"), dict):
            self._miss("verify")
            return None
        self._hit("verify")
        return record

    def put_verify(self, spec: VerifySpec, scheme: str = "dmp",
                   engine: str = "exhaustive",
                   query: str = "max_late",
                   record: Optional[Dict[str, Any]] = None) -> None:
        """Store a verification record (exact result: no merging)."""
        if record is None:
            raise ValueError("put_verify needs a record")
        self._write(
            self.verify_key(spec, scheme=scheme, engine=engine,
                            query=query), record, "verify")

    # -- storage -------------------------------------------------------
    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key + ".json")

    def _read(self, key: str, kind: str) -> Optional[Dict[str, Any]]:
        try:
            with open(self._path(key), "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except OSError:
            return None  # absent or unreadable -> plain miss
        except ValueError:
            # Truncated write, concurrent writer, disk corruption:
            # still a miss, but one worth counting separately.
            self._note_corrupt(kind, key)
            return None
        if not isinstance(record, dict):
            self._note_corrupt(kind, key)
            return None
        return record

    def _write(self, key: str, payload: Dict[str, Any],
               kind: str) -> None:
        try:
            os.makedirs(self.directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.directory,
                                       suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(payload, handle)
                os.replace(tmp, self._path(key))
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        except OSError:
            return  # a read-only cache dir degrades to no caching
        self.stores += 1
        tel = telemetry.current()
        if tel.active:
            tel.metrics.counter("cache.write").inc(label=kind)


# ---------------------------------------------------------------------
# Process-wide default (wired by the CLI and benchmarks/conftest.py)
# ---------------------------------------------------------------------
_default: Dict[str, Any] = {"enabled": None, "directory": None,
                            "instance": None}


def configure(enabled: Optional[bool] = True,
              directory: Optional[str] = None) -> None:
    """Set the process-wide default cache used when callers pass None.

    ``enabled=None`` restores the initial behaviour: caching is on only
    when ``$REPRO_CACHE`` is a truthy value.
    """
    _default["enabled"] = enabled
    _default["directory"] = directory
    _default["instance"] = None


def default_cache() -> Optional[ResultCache]:
    """The configured default cache instance (None when disabled)."""
    enabled = _default["enabled"]
    if enabled is None:
        enabled = os.environ.get(ENV_CACHE, "0").lower() \
            not in ("0", "", "false", "no")
    if not enabled:
        return None
    instance = _default["instance"]
    if not isinstance(instance, ResultCache):
        instance = ResultCache(_default["directory"])
        _default["instance"] = instance
    return instance


def resolve_cache(cache: Union[ResultCache, bool, None]) \
        -> Optional[ResultCache]:
    """Normalise a ``cache`` argument: None -> default, False -> off."""
    if cache is None:
        return default_cache()
    if isinstance(cache, ResultCache):
        return cache
    return None  # False (or any non-cache flag) bypasses caching
