"""Perf-regression harness: run the microbenchmarks, write BENCH_perf.json.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/perf/run.py              # quick
    PYTHONPATH=src python benchmarks/perf/run.py --mode full
    PYTHONPATH=src python benchmarks/perf/run.py -o /tmp/b.json

Six microbenchmarks are timed:

* ``mc_kernel``    — legacy vs vectorized stationary MC solves on the
  Fig 8 ratio-sweep grid; the headline is the aggregate speedup.  Its
  ``grid_batch`` section times a Fig 8 grid point by point and as one
  lockstep batch.
* ``packet_sim``   — discrete-event engine step rate on one streaming
  session of the 2-2 validation setting.
* ``chain_build``  — TcpFlowChain construction and vectorized-table
  compilation time.
* ``multisession`` — engine event rate on N-session campaigns
  (N = 1, 10, 50, 200, 1000) over one shared bottleneck; the scaling
  curve of the multi-session refactor, with PacketPool counters at
  each point.
* ``meanfield``    — population-ODE solve time vs the packet sim at
  N = 10/100/1000, mean-field-only solves at N = 10^4/10^6, and a
  full (ratio, tau) late-fraction grid at 10^6 sessions.  Its
  ``grid_batch`` section times that grid ratio by ratio and as one
  lockstep batch.
* ``verify``       — certified-envelope solve time over a (T, K)
  grid (``repro.verify``); z3 when the ``verify`` extra is
  installed, exhaustive enumeration otherwise.  Info-only for
  ``tools/perf_track`` — solver time tracks the z3 version, not
  this repository.

The output JSON (default: ``BENCH_perf.json`` at the repository root)
carries machine and library-version metadata so numbers from different
machines are never compared as if they were one trajectory.  The
harness exits non-zero only on import or runtime errors — timing
thresholds are a review-time judgement, not a gate.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(REPO_ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_metadata() -> dict:
    import numpy
    import scipy
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_benchmarks(mode: str) -> dict:
    from benchmarks.perf import (
        bench_chain_build,
        bench_mc_kernel,
        bench_meanfield,
        bench_multisession,
        bench_packet_sim,
        bench_verify,
    )
    return {
        "mc_kernel": bench_mc_kernel.run(mode),
        "packet_sim": bench_packet_sim.run(mode),
        "chain_build": bench_chain_build.run(mode),
        "multisession": bench_multisession.run(mode),
        "meanfield": bench_meanfield.run(mode),
        "verify": bench_verify.run(mode),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/perf/run.py",
        description="Run the perf microbenchmarks and write "
                    "BENCH_perf.json.")
    parser.add_argument("--mode", choices=["quick", "full"],
                        default="quick",
                        help="grid size / horizons (default: quick)")
    parser.add_argument("-o", "--output",
                        default=os.path.join(REPO_ROOT,
                                             "BENCH_perf.json"),
                        help="output path (default: BENCH_perf.json "
                             "at the repo root)")
    args = parser.parse_args(argv)

    if REPO_ROOT not in sys.path:
        sys.path.insert(0, REPO_ROOT)
    results = run_benchmarks(args.mode)

    payload = {
        "schema": 1,
        "mode": args.mode,
        "created_utc": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "machine": machine_metadata(),
        "benchmarks": results,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")

    mc = results["mc_kernel"]
    sim = results["packet_sim"]
    build = results["chain_build"]
    print(f"[mc_kernel] {len(mc['points'])} grid points: "
          f"legacy {mc['total_seconds']['legacy']:.2f}s, "
          f"vectorized {mc['total_seconds']['vectorized']:.2f}s "
          f"-> {mc['speedup']:.1f}x")
    for point in mc["points"]:
        leg, vec = point["legacy"], point["vectorized"]
        print(f"  ratio={point['ratio']:<4g} tau={point['tau']:<4g} "
              f"legacy {leg['late_fraction']:.3e}±{leg['stderr']:.1e} "
              f"({leg['seconds']:.2f}s)  "
              f"vec {vec['late_fraction']:.3e}±{vec['stderr']:.1e} "
              f"({vec['seconds']:.2f}s)  {point['speedup']:.1f}x")
    grid = mc["grid_batch"]
    print(f"[mc_kernel] grid_batch: {grid['points']} points "
          f"point by point {grid['point_seconds']:.2f}s, batched "
          f"{grid['batched_seconds']:.2f}s -> {grid['speedup']:.1f}x "
          f"(identical: {grid['identical']})")
    print(f"[packet_sim] {sim['events']} events in "
          f"{sim['seconds']:.2f}s -> "
          f"{sim['events_per_second']:,.0f} events/s")
    print(f"[chain_build] {build['chain_states']}-state chain in "
          f"{build['chain_build_seconds'] * 1e3:.1f}ms, "
          f"2-flow compile in "
          f"{build['compile_seconds'] * 1e3:.2f}ms")
    multi = results["multisession"]
    for point in multi["points"]:
        print(f"[multisession] N={point['n_sessions']:<3} "
              f"{point['events']} events in "
              f"{point['seconds']:.2f}s -> "
              f"{point['events_per_second']:,.0f} events/s "
              f"({point['delivered_packets']}/"
              f"{point['total_packets']} delivered, "
              f"pool reuse {point['pool']['reuse_fraction']:.2f})")
    mf = results["meanfield"]
    for point in mf["points"]:
        solve = point["meanfield"]["seconds"]
        if point["packet"] is None:
            print(f"[meanfield] N={point['n_sessions']:<7} "
                  f"solve {solve:.2f}s (packet sim not affordable)")
        else:
            print(f"[meanfield] N={point['n_sessions']:<7} "
                  f"solve {solve:.2f}s vs packet "
                  f"{point['packet']['seconds']:.2f}s -> "
                  f"{point['speedup']:.1f}x")
    grid = mf["grid"]
    print(f"[meanfield] {len(grid['rows'])}-ratio grid at "
          f"N={grid['n_sessions']:,} in {grid['seconds']:.2f}s "
          f"(extrapolated packet cost "
          f"{grid['extrapolated_packet_seconds']:,.0f}s -> "
          f"{grid['speedup_vs_extrapolated']:,.0f}x)")
    grid = mf["grid_batch"]
    print(f"[meanfield] grid_batch: {grid['ratios']} ratios "
          f"ratio by ratio {grid['point_seconds']:.2f}s, batched "
          f"{grid['batched_seconds']:.2f}s -> {grid['speedup']:.1f}x "
          f"(identical: {grid['identical']})")
    ver = results["verify"]
    engine_note = "z3" if ver["z3_available"] else "exhaustive"
    for point in ver["points"]:
        tag = f"T={point['rounds']:<3} K={point['paths']}"
        if "skipped" in point:
            print(f"[verify] {tag} skipped ({point['skipped']})")
        else:
            print(f"[verify] {tag} max_late="
                  f"{point['max_late']}/{point['total_packets']} "
                  f"in {point['seconds']:.2f}s "
                  f"({point['engine']})")
    print(f"[verify] engine: {engine_note}")
    print(f"[wrote {args.output}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
