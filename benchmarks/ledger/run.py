"""The repository benchmark: three workloads, end to end and per layer.

Run every workload and print each one's end-to-end metrics::

    python3 benchmarks/ledger/run.py

Run one workload once (the form BENCHMARK.json's command takes)::

    python3 benchmarks/ledger/run.py --workload campaign_fanin \\
        --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` is the
separate traced run that prints the per-layer ledger.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
human-readable report.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout; removed when the run ends.
WORK_ROOT = os.path.join(ROOT, ".ledger_work")

#: Workload name -> module in this directory.
WORKLOADS = {
    "campaign_fanin": "wl_campaign",
    "validation_1-2": "wl_validation",
    "model_sweep": "wl_model",
}

#: Library settings that would otherwise be inherited from the
#: operator's shell.  The result cache is always a fresh directory
#: under :data:`WORK_ROOT`, passed explicitly.
PINNED_ENV = {
    "REPRO_WORKERS": "1",
    "REPRO_MC_KERNEL": "vectorized",
    "REPRO_SCALE": "quick",
    "REPRO_CACHE": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Set-up measurements per run (fresh processes); setup_s is the median.
SETUP_PROBES = 7

#: End-to-end metrics (``--trace 0``), every workload.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_cpu_s": "op/CPU-s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``), every workload; a layer the
#: workload never enters reads 0.
COUNT_METRICS = {
    "engine.events_fired": "count",
    "engine.events_scheduled": "count",
    "engine.events_cancelled": "count",
    "engine.cancel_frac": "ratio",
    "engine.events_per_pkt": "event/pkt",
    "engine.heap_peak": "count",
    "node.delivered": "pkt",
    "node.dead_letters": "count",
    "link.tx_pkts": "count",
    "queue.drop_frac": "ratio",
    "queue.peak": "pkt",
    "pool.reuse_frac": "ratio",
    "tcp.segments_sent": "count",
    "tcp.retransmit_frac": "ratio",
    "tcp.timeouts": "count",
    "tcp.fast_retransmits": "count",
    "tcp.acks_sent": "count",
    "core.pkts_generated": "count",
    "core.server_queue_fetched": "count",
    "traffic.http_transfers": "count",
    "obs.recorder_windows": "count",
    "obs.health_stalls": "count",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.writes": "count",
    "cache.hit_frac": "ratio",
    "mc.solves": "count",
    "mc.blocks": "count",
    "trace.spans": "count",
}
TIME_METRICS = (
    "engine.self_s", "link.self_s", "tcp.self_s", "core.self_s",
    "traffic.self_s", "obs.health_self_s", "obs.recorder_self_s",
    "obs.export_self_s", "obs.export_s", "cache.self_s", "cache.get_s",
    "cache.put_s", "executor.self_s", "experiments.self_s",
    "model.self_s", "chain.build_s", "mc.compile_s", "mc.run_s",
    "mc.solve_p50_s", "mc.solve_max_s", "meanfield.self_s",
    "meanfield.grid_s", "verify.self_s", "verify.compare_s",
    "other.self_s", "trace.unattributed_s", "trace.traced_s",
    "cache.warm_rerun_s")
PER_LAYER = dict(COUNT_METRICS, **{name: "s" for name in TIME_METRICS},
                 **{"trace.overhead_frac": "ratio"})

#: Self time reported per layer of :data:`tracing.LAYERS`.
SELF_METRIC = {
    "obs.health": "obs.health_self_s",
    "obs.recorder": "obs.recorder_self_s",
    "obs.export": "obs.export_self_s",
}
#: Total time of named spans.
SPAN_TIME_METRICS = {
    "cache.get_s": ("cache.get",),
    "cache.put_s": ("cache.put",),
    "chain.build_s": ("chain.build",),
    "mc.compile_s": ("mc.compile",),
    "mc.run_s": ("mc.run",),
    "meanfield.grid_s": ("meanfield.grid",),
    "verify.compare_s": ("verify.compare",),
    "obs.export_s": ("obs.export.recorder_dump", "obs.export.prometheus",
                     "obs.export.dashboard", "obs.export.table",
                     "obs.export.write"),
}


# ---------------------------------------------------------------------
# Exact counts
# ---------------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_counts(registry: Any, calendar: Any,
                 outcome: Any) -> Dict[str, float]:
    """Every exact per-layer count of one counted pass."""
    sims = registry["sim"]
    fired = sum(sim.events_processed for sim in sims)
    pending = sum(sim.pending_events for sim in sims)
    nodes, links = registry["node"], registry["link"]
    delivered = sum(node.delivered for node in nodes)
    drops = sum(link.queue.drops for link in links)
    offered = drops + sum(link.queue.enqueued for link in links)
    pools = {id(sim.pool): sim.pool for sim in sims
             if sim.pool is not None}.values()
    senders = registry["sender"]
    segments = sum(s.segments_sent for s in senders)
    assemblies = registry["assembly"]
    counts: Dict[str, float] = {
        "engine.events_fired": fired,
        "engine.events_scheduled": calendar.scheduled,
        "engine.events_cancelled": calendar.scheduled - fired - pending,
        "engine.heap_peak": calendar.peak,
        "node.delivered": delivered,
        "node.dead_letters": sum(node.dead_letters for node in nodes),
        "link.tx_pkts": sum(link.tx_packets for link in links),
        "queue.drop_frac": _ratio(drops, offered),
        "queue.peak": max((link.queue.max_occupancy for link in links),
                          default=0),
        "pool.reuse_frac": _ratio(sum(p.recycled for p in pools),
                                  sum(p.acquired for p in pools)),
        "tcp.segments_sent": segments,
        "tcp.retransmit_frac": _ratio(
            sum(s.retransmits for s in senders), segments),
        "tcp.timeouts": sum(s.timeouts for s in senders),
        "tcp.fast_retransmits": sum(s.fast_retransmits for s in senders),
        "tcp.acks_sent": sum(r.acks_sent for r in registry["receiver"]),
        "core.pkts_generated": sum(a.source.generated
                                   for a in assemblies),
        "core.server_queue_fetched": sum(
            a.queue.fetched for a in assemblies if a.queue is not None),
        "traffic.http_transfers": sum(
            h.transfers_completed for h in registry["http"]),
    }
    counts["engine.cancel_frac"] = _ratio(
        counts["engine.events_cancelled"], calendar.scheduled)
    counts["engine.events_per_pkt"] = _ratio(fired, delivered)
    for name in ("obs.recorder_windows", "obs.health_stalls",
                 "cache.hits", "cache.misses", "cache.writes",
                 "mc.solves"):
        counts[name] = outcome.counts.get(name, 0)
    counts["cache.hit_frac"] = _ratio(
        counts["cache.hits"], counts["cache.hits"] + counts["cache.misses"])
    return counts


# ---------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------
class Bench:
    """One workload at one seed: its passes and their tallies."""

    def __init__(self, name: str, seed: int, workdir: str) -> None:
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.wl = importlib.import_module(WORKLOADS[name])
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.failures: Dict[str, str] = {}
        self.problems: List[str] = []
        self.reference: Optional[Any] = None
        self.deep_failures: Dict[str, str] = {}
        self.counts: Dict[str, float] = {}

    def _build(self) -> Any:
        directory = os.path.join(self.workdir, f"pass{self.passes}")
        os.makedirs(directory)
        self.passes += 1
        return self.wl.build(self.seed, directory), directory

    def _tally(self, outcome: Any) -> None:
        if self.reference is not None:
            if outcome.digest != self.reference.digest:
                self.problems.append(
                    f"pass {self.passes - 1}: output digest "
                    f"{outcome.digest[:12]} != counting pass "
                    f"{self.reference.digest[:12]}")
            for op, reason in self.deep_failures.items():
                if outcome.ops.get(op) is None:
                    outcome.ops[op] = reason
        self.attempted += len(outcome.ops)
        for op, reason in outcome.ops.items():
            if reason is not None:
                self.failed += 1
                self.failures.setdefault(op, reason)

    def counting_pass(self) -> Any:
        """Untimed pass with instance registry, calendar counts and a
        telemetry session; runs the deep checks and fixes the
        reference digest and the exact counts."""
        import tracing
        from repro import telemetry

        registry, calendar = tracing.Registry(), tracing.Calendar()
        with tracing.Patches() as patches, telemetry.session() as tel:
            registry.install(patches)
            calendar.install(patches)
            state, directory = self._build()
            raw = self.wl.body(state)
        outcome = self.wl.check(state, raw)
        self.wl.deep_check(state, outcome, registry)
        self.counts = layer_counts(registry, calendar, outcome)
        self.counts["mc.blocks"] = tel.metrics.counter("mc.blocks").total
        self.deep_failures = {op: reason for op, reason
                              in outcome.ops.items() if reason}
        self.reference = outcome
        self._tally(outcome)
        shutil.rmtree(directory)
        return outcome

    def timed_pass(self) -> Tuple[Any, float]:
        """A plain pass: returns the outcome and the body's wall time."""
        state, directory = self._build()
        gc.collect()
        started = time.perf_counter()
        raw = self.wl.body(state)
        wall = time.perf_counter() - started
        outcome = self.wl.check(state, raw)
        self._tally(outcome)
        shutil.rmtree(directory)
        return outcome, wall

    def traced_pass(self, trace_out: Optional[str]) -> Dict[str, float]:
        """A pass with every span point installed: returns the
        per-layer times of :meth:`_ledger`."""
        import tracing

        spans = tracing.SpanLog(
            f"{self.name}.seed{self.seed}.pass{self.passes}")
        registry, calendar = tracing.Registry(), tracing.Calendar()
        tracer = tracing.Tracer(spans)
        with tracing.Patches() as patches:
            registry.install(patches)
            calendar.install(patches, spans)
            tracer.install(patches)
            state, directory = self._build()
            gc.collect()
            raw = spans.root("bench.body", self.wl.body, state)
        outcome = self.wl.check(state, raw)
        self._tally(outcome)
        counts = layer_counts(registry, calendar, outcome)
        for name, value in counts.items():
            if value != self.counts[name]:
                self.problems.append(
                    f"traced pass: {name} = {value} != counting pass "
                    f"{self.counts.get(name)}")
        if tracer.missing:
            self.problems.append("trace points not found: "
                                 + ", ".join(tracer.missing))
        times = self._ledger(spans, outcome)
        if trace_out:
            spans.write_jsonl(trace_out)
        shutil.rmtree(directory)
        return times

    def _ledger(self, spans: Any, outcome: Any) -> Dict[str, float]:
        import tracing

        reduced = spans.reduce()
        times: Dict[str, float] = {name: 0.0 for name in TIME_METRICS}
        root = reduced["bench.body"]
        times["trace.traced_s"] = root["time"]
        times["trace.unattributed_s"] = root["self"]
        for layer in tracing.LAYERS:
            metric = SELF_METRIC.get(layer, f"{layer}.self_s")
            times[metric] = sum(entry["self"]
                                for entry in reduced.values()
                                if entry["layer"] == layer)
        for metric, names in SPAN_TIME_METRICS.items():
            times[metric] = sum(reduced[n]["time"] for n in names
                                if n in reduced)
        solves = spans.durations("model.solve")
        if solves:
            times["mc.solve_p50_s"] = statistics.median(solves)
            times["mc.solve_max_s"] = max(solves)
        times["cache.warm_rerun_s"] = outcome.warm_rerun_s or 0.0
        accounted = times["trace.unattributed_s"] + sum(
            times[SELF_METRIC.get(layer, f"{layer}.self_s")]
            for layer in tracing.LAYERS)
        if abs(accounted - root["time"]) > 1e-6 * max(1.0, root["time"]):
            self.problems.append(
                f"ledger does not add up: {accounted!r} s of self time "
                f"against {root['time']!r} s traced")
        times["trace.spans"] = len(spans)
        return times


# ---------------------------------------------------------------------
# Set-up time, fingerprint
# ---------------------------------------------------------------------
def setup_probe(name: str, seed: int, workdir: str) -> float:
    """Imports plus construction of one workload's inputs, in this
    (fresh) process."""
    started = time.perf_counter()
    module = importlib.import_module(WORKLOADS[name])
    module.build(seed, workdir)
    return time.perf_counter() - started


def measure_setup(name: str, seed: int, workdir: str) -> List[float]:
    values = []
    for i in range(SETUP_PROBES):
        directory = os.path.join(workdir, f"setup{i}")
        os.makedirs(directory)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", name, "--seed", str(seed),
             "--workdir", directory],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        values.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return values


def fingerprint() -> Dict[str, str]:
    import numpy

    commit = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    uname = os.uname()
    return {
        "commit": commit,
        "machine": f"{uname.sysname} {uname.release} {uname.machine}, "
                   f"{os.cpu_count()} cpus",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# ---------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------
def run_workload(args: argparse.Namespace, workdir: str) -> Dict[str, Any]:
    setups = measure_setup(args.workload, args.seed, workdir)
    bench = Bench(args.workload, args.seed, workdir)
    started = time.perf_counter()
    reference = bench.counting_pass()
    counts = bench.counts
    work = reference.work if reference.work is not None \
        else counts["node.delivered"]

    walls: List[float] = []
    rates: List[float] = []
    warm: List[float] = []
    traced: List[Dict[str, float]] = []
    # Passes run back to back for ``--seconds``; a pass that would end
    # past it (judged by the previous one) is not started.
    loop = time.perf_counter()
    last = 0.0
    while not walls or time.perf_counter() - loop + last <= args.seconds:
        begun = time.perf_counter()
        outcome, wall = bench.timed_pass()
        walls.append(wall)
        rates.append(work / outcome.work_cpu_s)
        if outcome.warm_rerun_s is not None:
            warm.append(outcome.warm_rerun_s)
        if args.trace:
            traced.append(bench.traced_pass(args.trace_out))
        last = time.perf_counter() - begun

    report: Dict[str, Any] = {
        "workload": args.workload, "seed": args.seed,
        "trace": args.trace, "timed_passes": len(walls), "traced_passes": len(traced),
        "elapsed_s": time.perf_counter() - started,
        "digest": reference.digest, "fingerprint": fingerprint(),
        "problems": bench.problems, "failures": bench.failures,
        "attempted": bench.attempted, "failed": bench.failed,
    }
    rate = statistics.median(rates)
    packets = args.workload != "model_sweep"
    report["end_to_end"] = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "work_per_cpu_s": rate,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report["named"] = {
        "pkts_per_cpu_s": rate if packets else None,
        "mc_solves_per_cpu_s": None if packets else rate,
        "warm_rerun_s": statistics.median(warm) if warm else None,
        "failed_frac": bench.failed / bench.attempted,
    }
    if args.trace:
        layer: Dict[str, float] = dict(counts)
        for name in TIME_METRICS:
            layer[name] = statistics.median(t[name] for t in traced)
        layer["trace.spans"] = traced[0]["trace.spans"]
        if any(t["trace.spans"] != layer["trace.spans"] for t in traced):
            bench.problems.append("span count differs between passes")
        layer["trace.overhead_frac"] = \
            layer["trace.traced_s"] / statistics.median(walls) - 1.0
        report["per_layer"] = layer
    return report


NAMED_UNITS = {"pkts_per_cpu_s": "pkt/CPU-s",
               "mc_solves_per_cpu_s": "solve/CPU-s",
               "warm_rerun_s": "s", "failed_frac": "ratio"}


def print_report(report: Dict[str, Any]) -> None:
    fp = report["fingerprint"]
    print(f"# workload {report['workload']}  seed {report['seed']}  "
          f"trace {report['trace']}")
    print(f"# commit {fp['commit']}  |  {fp['machine']}  |  python "
          f"{fp['python']}  numpy {fp['numpy']}")
    print(f"# passes: 1 counting + {report['timed_passes']} timed + "
          f"{report['traced_passes']} traced, "
          f"{report['elapsed_s']:.1f} s")
    print(f"# output digest {report['digest']}")
    print("# end-to-end (medians over timed passes)")
    for name, value in report["end_to_end"].items():
        print(f"  {name:<22} {value:>16.6g} {END_TO_END[name]}")
    for name, value in report["named"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<22} {shown:>16} {NAMED_UNITS[name]}")
    print(f"  ops attempted {report['attempted']}, failed "
          f"{report['failed']}")
    for op, reason in sorted(report["failures"].items()):
        print(f"  FAILED {op}: {reason}")
    for problem in report["problems"]:
        print(f"  PROBLEM {problem}")
    if "per_layer" in report:
        print("# per layer (counts from the counting pass, times are "
              "medians over traced passes)")
        for name, value in report["per_layer"].items():
            print(f"  {name:<26} {value:>16.6g} {PER_LAYER[name]}")


def result_line(report: Dict[str, Any]) -> str:
    if report["trace"]:
        source, units = report["per_layer"], PER_LAYER
    else:
        source, units = report["end_to_end"], END_TO_END
    return json.dumps({
        "correct": not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": source[name], "unit": unit}
                    for name, unit in units.items()},
    })


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, one after the other."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines \
                or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", metavar="PATH",
                        help="append every span of the traced passes "
                             "to this JSONL file")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no library sources under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path[:0] = [HERE, SRC]

    if args.setup_probe:
        print(json.dumps({"setup_s": setup_probe(
            args.workload, args.seed, args.workdir)}))
        return 0
    if args.workload == "all":
        return run_all(args)

    workdir = os.path.join(WORK_ROOT, f"{args.workload}.{os.getpid()}")
    os.makedirs(workdir)
    os.environ["REPRO_CACHE_DIR"] = os.path.join(workdir, "default-cache")
    try:
        report = run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still uses it
    print_report(report)
    print(result_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
