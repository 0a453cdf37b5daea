"""Tests for the perf-trajectory tracker (tools/perf_track).

The gating rules under test:

* the matched-grid speedup geomean gates across machines and modes
  (it is scale-free), with a spread-widened tolerance;
* absolute metrics gate only when machine fingerprint AND mode match;
* sub-10ms chain-build timings never gate;
* within-report ratios (scaling, overhead, grid batching) gate on any
  machine;
* exit codes: 0 ok, 1 regression, 2 bad input.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

from tools.perf_track import (
    append_history,
    compare,
    fingerprint,
    format_report,
    load_report,
    resolve_baseline,
    speedup_points,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _report(mode="full", cpu="TestCPU", speedups=None, eps=245000.0):
    speedups = speedups if speedups is not None else {
        (1.2, 4.0): 6.0, (1.2, 10.0): 5.5,
        (1.6, 4.0): 6.5, (1.6, 10.0): 6.2,
    }
    return {
        "created_utc": "2026-08-06T00:00:00+00:00",
        "mode": mode,
        "machine": {"cpu_model": cpu, "cpu_count": 4,
                    "python": "3.11.7", "numpy": "2.4.6"},
        "benchmarks": {
            "mc_kernel": {
                "points": [{"ratio": r, "tau": t, "speedup": s}
                           for (r, t), s in sorted(speedups.items())],
                "total_seconds": {"legacy": 17.0, "vectorized": 2.9},
            },
            "packet_sim": {"events_per_second": eps},
            "chain_build": {"compile_seconds": 0.004,
                            "chain_build_seconds": 0.001},
        },
    }


def _scaled(doc, factor):
    out = copy.deepcopy(doc)
    for point in out["benchmarks"]["mc_kernel"]["points"]:
        point["speedup"] *= factor
    return out


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------
# compare()
# ---------------------------------------------------------------------
def test_identical_reports_pass():
    comp = compare(_report(), _report())
    assert comp.ok and comp.same_machine
    assert comp.matched_points == 4
    geo = next(r for r in comp.results
               if r.name == "mc_kernel.speedup_geomean")
    assert geo.ratio == 1.0 and geo.gated and not geo.regressed


def test_quarter_speedups_regress_even_across_machines():
    new = _scaled(_report(mode="quick", cpu="OtherCPU"), 0.25)
    comp = compare(new, _report())
    assert not comp.same_machine
    geo = next(r for r in comp.results
               if r.name == "mc_kernel.speedup_geomean")
    assert geo.regressed
    assert [r.name for r in comp.regressions] \
        == ["mc_kernel.speedup_geomean"]


def test_matched_points_are_the_grid_intersection():
    base = _report()
    quick = _report(speedups={(1.2, 4.0): 6.0, (9.9, 9.9): 4.0})
    comp = compare(quick, base)
    assert comp.matched_points == 1  # (9.9, 9.9) has no baseline twin
    assert speedup_points(quick) != speedup_points(base)


def test_absolute_metric_gates_only_same_machine_and_mode():
    slow = _report(eps=90000.0)  # ~0.37x of baseline
    comp = compare(slow, _report())  # same machine, same mode
    eps = next(r for r in comp.results
               if r.name == "packet_sim.events_per_second")
    assert eps.gated and eps.regressed

    other = _report(cpu="OtherCPU", eps=90000.0)
    comp = compare(other, _report())
    eps = next(r for r in comp.results
               if r.name == "packet_sim.events_per_second")
    assert not eps.gated and not eps.regressed
    assert "info only" in eps.note

    quick = _report(mode="quick", eps=90000.0)  # same machine!
    comp = compare(quick, _report(mode="full"))
    eps = next(r for r in comp.results
               if r.name == "packet_sim.events_per_second")
    assert not eps.gated  # different mode: not comparable


def test_tiny_chain_build_timings_never_gate():
    doc = _report()
    slow = copy.deepcopy(doc)
    slow["benchmarks"]["chain_build"]["compile_seconds"] = 40.0
    comp = compare(slow, doc)
    assert comp.ok
    tiny = next(r for r in comp.results
                if r.name == "chain_build.compile_seconds")
    assert not tiny.gated and "info only" in tiny.note


def test_noise_inside_tolerance_passes():
    wobble = {(1.2, 4.0): 0.9, (1.2, 10.0): 1.1,
              (1.6, 4.0): 0.85, (1.6, 10.0): 1.05}
    base = _report()
    new = copy.deepcopy(base)
    for point in new["benchmarks"]["mc_kernel"]["points"]:
        point["speedup"] *= wobble[(point["ratio"], point["tau"])]
    comp = compare(new, base)
    geo = next(r for r in comp.results
               if r.name == "mc_kernel.speedup_geomean")
    assert not geo.regressed  # geomean ~0.97, well inside 0.65 gate


def _with_meanfield(doc, n10=0.2, n1e6=0.25, grid_speedup=5000.0):
    out = copy.deepcopy(doc)
    out["benchmarks"]["meanfield"] = {
        "solve_seconds_by_n": {"10": n10, "1000000": n1e6},
        "grid": {"n_sessions": 1_000_000, "seconds": 0.8,
                 "extrapolated_packet_seconds": 0.8 * grid_speedup,
                 "speedup_vs_extrapolated": grid_speedup},
    }
    return out


def _with_pool_point(doc, reuse):
    out = copy.deepcopy(doc)
    out["benchmarks"]["multisession"] = {
        "points": [{"n_sessions": 1000,
                    "pool": {"reuse_fraction": reuse}}],
    }
    return out


def test_meanfield_scaling_gates_within_report_on_any_machine():
    base = _report()  # baseline has no meanfield section at all
    ok = _with_meanfield(_report(cpu="OtherCPU"), n10=0.2, n1e6=1.9)
    comp = compare(ok, base)
    scaling = next(r for r in comp.results
                   if r.name == "meanfield.scaling_n1e6_vs_n10")
    assert scaling.gated and not scaling.regressed

    slow = _with_meanfield(_report(cpu="OtherCPU"), n10=0.2, n1e6=3.0)
    comp = compare(slow, base)
    scaling = next(r for r in comp.results
                   if r.name == "meanfield.scaling_n1e6_vs_n10")
    assert scaling.regressed  # 3.0 > 10 * 0.2: N-independence lost


def test_meanfield_grid_speedup_gate():
    comp = compare(_with_meanfield(_report(), grid_speedup=43000.0),
                   _report())
    gate = next(r for r in comp.results
                if r.name == "meanfield.speedup_vs_extrapolated")
    assert gate.gated and not gate.regressed and gate.threshold == 1.0

    comp = compare(_with_meanfield(_report(), grid_speedup=60.0),
                   _report())
    gate = next(r for r in comp.results
                if r.name == "meanfield.speedup_vs_extrapolated")
    assert gate.regressed  # below the 100x floor


def test_reports_without_meanfield_grow_no_meanfield_metrics():
    comp = compare(_report(), _report())
    assert not any(r.name.startswith("meanfield.")
                   for r in comp.results)


def test_verify_solver_timings_never_gate():
    """A 10x slower solver run is reported but can never regress: the
    wall time tracks the z3 version, not this repository."""
    base = _report()
    base["benchmarks"]["verify"] = {
        "z3_available": True,
        "seconds_by_instance": {"T8.K2": 0.5, "T12.K2": 2.0},
    }
    new = copy.deepcopy(base)
    new["benchmarks"]["verify"]["seconds_by_instance"] = {
        "T8.K2": 5.0, "T12.K2": 20.0, "T16.K3": 90.0}
    comp = compare(new, base)
    ver = [r for r in comp.results if r.name.startswith("verify.")]
    # Only the matched instances are reported; none gate.
    assert {r.name for r in ver} == {"verify.seconds.T8.K2",
                                     "verify.seconds.T12.K2"}
    assert all(not r.gated and not r.regressed for r in ver)
    assert comp.ok

    # Reports without a verify section grow no verify metrics.
    comp = compare(_report(), _report())
    assert not any(r.name.startswith("verify.")
                   for r in comp.results)


def test_pool_reuse_gates_at_n1000():
    comp = compare(_with_pool_point(_report(), reuse=0.97), _report())
    gate = next(r for r in comp.results
                if r.name == "multisession.pool_reuse_n1000")
    assert gate.gated and not gate.regressed

    comp = compare(_with_pool_point(_report(), reuse=0.1), _report())
    gate = next(r for r in comp.results
                if r.name == "multisession.pool_reuse_n1000")
    assert gate.regressed


def _with_health_overhead(doc, bare, instrumented):
    out = copy.deepcopy(doc)
    out["benchmarks"]["multisession"] = {
        "health_overhead": {
            "n_sessions": 200,
            "bare_events_per_second": bare,
            "instrumented_events_per_second": instrumented,
        },
    }
    return out


def test_health_overhead_gates_within_report_on_any_machine():
    base = _report()  # baseline has no health_overhead at all
    ok = _with_health_overhead(_report(cpu="OtherCPU"),
                               bare=1e6, instrumented=0.95e6)
    comp = compare(ok, base)
    gate = next(r for r in comp.results
                if r.name == "multisession.health_overhead_n200")
    assert gate.gated and not gate.regressed and gate.threshold == 1.0

    slow = _with_health_overhead(_report(cpu="OtherCPU"),
                                 bare=1e6, instrumented=0.8e6)
    comp = compare(slow, base)
    gate = next(r for r in comp.results
                if r.name == "multisession.health_overhead_n200")
    assert gate.regressed  # 20% overhead is past the 10% contract

    comp = compare(_report(), _report())
    assert not any(r.name == "multisession.health_overhead_n200"
                   for r in comp.results)


def _with_grid_batch(doc, point_s, batched_s, identical=True):
    out = copy.deepcopy(doc)
    out["benchmarks"]["mc_kernel"]["grid_batch"] = {
        "points": 75, "point_seconds": point_s,
        "batched_seconds": batched_s,
        "speedup": point_s / batched_s, "identical": identical,
    }
    return out


def test_grid_batch_speedup_gates_within_report_on_any_machine():
    base = _report()  # baseline has no grid_batch section at all
    comp = compare(_with_grid_batch(_report(cpu="OtherCPU"), 3.0, 1.0),
                   base)
    gate = next(r for r in comp.results
                if r.name == "mc_kernel.grid_batch_speedup")
    assert gate.gated and not gate.regressed and gate.threshold == 1.0
    assert gate.new == 3.0

    # A collapsed batch (barely faster than point by point) fails...
    comp = compare(_with_grid_batch(_report(), 3.0, 2.5), base)
    gate = next(r for r in comp.results
                if r.name == "mc_kernel.grid_batch_speedup")
    assert gate.regressed
    # ...and so does a fast batch whose estimates differ.
    comp = compare(_with_grid_batch(_report(), 3.0, 1.0,
                                    identical=False), base)
    gate = next(r for r in comp.results
                if r.name == "mc_kernel.grid_batch_speedup")
    assert gate.regressed and "DIFFER" in gate.note

    comp = compare(_report(), _report())
    assert not any(r.name == "mc_kernel.grid_batch_speedup"
                   for r in comp.results)


def _with_meanfield_grid_batch(doc, point_s, batched_s, identical=True):
    out = copy.deepcopy(doc)
    out["benchmarks"]["meanfield"] = {"grid_batch": {
        "ratios": 5, "point_seconds": point_s,
        "batched_seconds": batched_s,
        "speedup": point_s / batched_s, "identical": identical,
    }}
    return out


def test_meanfield_grid_batch_gates_within_report_on_any_machine():
    name = "meanfield.grid_batch_speedup"
    base = _report()  # baseline has no meanfield section at all
    comp = compare(_with_meanfield_grid_batch(_report(cpu="OtherCPU"),
                                              2.4, 1.0), base)
    gate = next(r for r in comp.results if r.name == name)
    assert gate.gated and not gate.regressed and gate.threshold == 1.0
    assert gate.new == 2.4

    # A collapsed batch fails, and so does a fast one whose rows differ.
    comp = compare(_with_meanfield_grid_batch(_report(), 2.4, 2.4), base)
    assert next(r for r in comp.results if r.name == name).regressed
    comp = compare(_with_meanfield_grid_batch(_report(), 2.4, 1.0,
                                              identical=False), base)
    gate = next(r for r in comp.results if r.name == name)
    assert gate.regressed and "DIFFER" in gate.note

    comp = compare(_report(), _report())
    assert not any(r.name == name for r in comp.results)


def test_resolve_baseline_prefers_the_mode_specific_file(tmp_path):
    (tmp_path / "BENCH_perf.json").write_text("{}", encoding="utf-8")
    (tmp_path / "BENCH_perf.quick.json").write_text(
        "{}", encoding="utf-8")
    assert resolve_baseline("quick", str(tmp_path)) \
        .endswith("BENCH_perf.quick.json")
    # No committed full-mode sibling: fall back to the default.
    assert resolve_baseline("full", str(tmp_path)) \
        .endswith(os.path.join(str(tmp_path), "BENCH_perf.json"))
    assert resolve_baseline(None, str(tmp_path)) \
        .endswith("BENCH_perf.json")


def test_fingerprint_uses_the_stable_keys():
    fp = fingerprint(_report())
    assert set(fp) == {"cpu_model", "cpu_count", "python", "numpy"}


def test_format_report_renders_every_metric():
    comp = compare(_scaled(_report(), 0.2), _report())
    text = format_report(comp)
    assert "REGRESSION" in text and "mc_kernel.speedup_geomean" in text
    assert "gate at" in text


# ---------------------------------------------------------------------
# History
# ---------------------------------------------------------------------
def test_append_history_writes_one_json_line_per_run(tmp_path):
    history = str(tmp_path / "nested" / "hist.jsonl")
    doc = _report()
    comp = compare(doc, doc)
    append_history(history, doc, comp, source="a.json")
    append_history(history, _scaled(doc, 0.25),
                   compare(_scaled(doc, 0.25), doc), source="b.json")
    lines = [json.loads(line)
             for line in open(history, encoding="utf-8")]
    assert [line["verdict"] for line in lines] == ["ok", "regression"]
    assert lines[0]["source"] == "a.json"
    assert lines[0]["created_utc"] == doc["created_utc"]
    assert lines[0]["matched_points"] == 4


# ---------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------
def _run_cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "tools.perf_track", *args],
        cwd=cwd, env=env, capture_output=True, text=True)


def test_cli_pass_and_regression_exit_codes(tmp_path):
    base = _write(tmp_path, "base.json", _report())
    good = _write(tmp_path, "good.json",
                  _report(mode="quick", cpu="CI"))
    bad = _write(tmp_path, "bad.json",
                 _scaled(_report(mode="quick", cpu="CI"), 0.25))
    history = str(tmp_path / "hist.jsonl")

    proc = _run_cli([good, "--baseline", base, "--history", history],
                    cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "matched grid points" in proc.stdout

    proc = _run_cli([bad, "--baseline", base, "--history", history],
                    cwd=str(tmp_path))
    assert proc.returncode == 1
    assert "REGRESSION" in proc.stderr

    proc = _run_cli([bad, "--baseline", base, "--no-gate",
                     "--no-history"], cwd=str(tmp_path))
    assert proc.returncode == 0  # reported but not gated

    assert len(open(history, encoding="utf-8").readlines()) == 2


def test_cli_bad_input_exits_two(tmp_path):
    garbage = tmp_path / "junk.json"
    garbage.write_text("[]", encoding="utf-8")
    proc = _run_cli([str(garbage), "--baseline", str(garbage)],
                    cwd=str(tmp_path))
    assert proc.returncode == 2
    proc = _run_cli(["missing.json"], cwd=str(tmp_path))
    assert proc.returncode == 2


def test_committed_baselines_compare_cleanly_against_themselves():
    for name in ("BENCH_perf.json", "BENCH_perf.quick.json"):
        doc = load_report(os.path.join(REPO, name))
        comp = compare(doc, doc)
        assert comp.ok and comp.same_machine, name
        assert comp.matched_points == len(speedup_points(doc)), name
